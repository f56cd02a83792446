"""Finite-injury construction of a low set with many mind changes.

Positive requirements q0 < q1 < ... each diagonalize a growing function
delta against one budgeted opponent; every mind change of the opponent at
the current follower forces an enumeration.  Negative requirements watch
one functional each and, at their first convergence, freeze a quota list
of positive requirements together with an ordinal budget phi for the
injury they will tolerate.  The verifier replays the trace and certifies
the budget with an explicit strictly descending marker witness.
"""

from __future__ import annotations

from functools import lru_cache

from .approximation import verify_r_approximation
from .budgeted import (LIST_KINDS, QuotaList, QuotaLists, Requirement,
                       check_bound, descent_witness, set_bound)
from .functional import Engine
from .ordinal import Cnf, format_cnf, nat, parse_cnf
from .trace import CheckResult, RunTrace, Summary, blocks, payload_error


@lru_cache(maxsize=1024)  # bounded: the names come from trace files
def _level(node: str) -> int:
    """The e of the requirement named q<e>; ValueError for other names."""
    e = int(node[1:]) if node[:1] == "q" else -1
    if e < 0 or node != f"q{e}":
        raise ValueError(f"{node!r} is not a requirement name")
    return e


class LowAlphaRun(Engine):
    """One bounded execution of the finite-injury construction."""

    construction = "low-alpha"

    def __init__(self, advs, funs, alpha: Cnf, stages: int):
        check_bound(alpha, advs, len(funs))  # k counts lists, at most this
        super().__init__(stages, dict(enumerate(funs)))
        self.q = [Requirement(adv, f"q{e}") for e, adv in enumerate(advs)]
        self.lists = [None] * len(funs)  # a watcher's QuotaList once active
        self._wants = [-1] * len(self.q)  # last stage each q wanted to act
        set_bound(self, alpha)

    # -- negative side -------------------------------------------------

    def _n_step(self, e: int, s: int):
        qlist = self.lists[e]
        if qlist is None:
            if self.runs[e].query(e) is None:
                return
            held = {q: st for q, st in enumerate(self.q)
                    if st.follower is not None}
            k = 1 + sum(other is not None for other in self.lists)
            self.lists[e] = QuotaList(self, s, {"e": e}, "q", held, str, k)
            return
        for q in list(qlist.members):
            if any(self._wants[q2] >= qlist.s_def for q2 in range(q)):
                cause = "preempted"
            elif len([t for t in self.q[q].inits
                      if t >= qlist.s_def]) > qlist.k:
                cause = "exhausted"
            else:
                continue
            qlist.remove(self, s, q, cause)

    def _denier(self, q: int, use: int):
        """The select field naming the first watcher refusing, if any."""
        for e, qlist in enumerate(self.lists):
            if qlist is None:
                continue
            conv = self.runs[e].query(e)
            if conv is None or q in qlist.members or use > conv.use:
                continue
            return {"by": e}
        return None

    # -- positive side -------------------------------------------------

    def _preempt(self, e: int, s: int, denial):
        """Initialize the requirements below e, and e itself when denied."""
        causes = [(j, f"preempt:{e}") for j in range(e + 1, len(self.q))]
        if denial is not None:
            causes.append((e, f"denied:{denial['by']}"))
        for j, cause in causes:
            st = self.q[j]
            if st.follower is not None:
                self.trace.emit(s, "init", node=st.label, cause=cause)
                st.initialize(s)

    def _q_step(self, e: int, s: int) -> bool:
        """Play one positive strategy; True cuts the stage short."""
        st = self.q[e]
        if st.follower is None:
            st.assign(self, s)
            return True
        if not st.visit(self, s):
            return False
        self._wants[e] = s
        st.act(self, s, e)
        return True

    def _walk(self, s) -> bool:
        for e in range(min(s + 1, len(self.runs))):
            self._n_step(e, s)
        for e in range(min(s + 1, len(self.q))):
            if self._q_step(e, s):
                break
        return s + 1 >= max(len(self.runs), len(self.q))

    def _summary(self, summary: dict):
        for st in self.q:
            st.report(summary)


def run(advs, funs, alpha: Cnf, stages: int, seed: int = 0) -> RunTrace:
    """Execute the construction for the given stage budget; the opponents
    carry their own seeds."""
    return LowAlphaRun(advs, funs, alpha, stages).execute()


# -- verification ------------------------------------------------------


class _LowReplay:
    """Verifier view of a trace, its summary included, rebuilt from the
    event stream alone.  An event without a payload key the replay reads,
    or with a value it cannot parse, raises ConfigError naming the event.
    A stage that a recorded run copies is read once with its copies (see
    ``trace.blocks``), and its visits' guesses hold up to the run's last
    stage."""

    def __init__(self, trace: RunTrace):
        self.quota = quota = QuotaLists((("e", int),), ("q", int))
        self.inits = {}  # q -> [stage]
        self.enums = {}  # stage -> (eid, q, element, marker)
        self.injuries = []  # (eid, stage, e, x, use)
        self.declares = {}  # q -> [(eid, stage, use, value)]
        self.last_f = {}  # q -> (stage, f)
        self.summary = summary = Summary()
        try:
            for s, start, block, copies in blocks(trace):
                for eid, p in enumerate(block, start):
                    kind = p.kind
                    summary.read(kind, p)
                    if kind in LIST_KINDS:  # no watcher is initialized
                        quota.read(eid, s, p, {})
                    elif kind == "init":
                        self.inits.setdefault(_level(p["node"]), []).append(s)
                    elif kind == "enumerate":
                        self.enums[s] = (eid, _level(p["node"]),
                                         int(p["element"]),
                                         parse_cnf(p["marker"]))
                    elif kind == "inject-diverge":
                        self.injuries.append((eid, s, int(p["e"]), int(p["x"]),
                                              int(p["use"])))
                    elif kind == "declare":
                        q = _level(p["node"])
                        if p.get("what") == "delta":
                            self.declares.setdefault(q, []).append(
                                (eid, s, int(p["u"]), int(p["value"])))
                    elif kind == "visit":  # a run's copies repeat the guess
                        self.last_f[_level(p["node"])] = (s + copies,
                                                          int(p["f"]))
        except (KeyError, ValueError) as ex:
            raise payload_error(eid, kind, ex) from None
        # a watcher's list is its first: a second one fails the structure
        self.budgets = {e: gens[0] for (e,), gens in quota.lists.items()}

    def own_injuries(self, e: int):
        """Post-activation injuries of watcher e's own computation."""
        b = self.budgets[e]
        return [(eid, s, use) for eid, s, fe, x, use in self.injuries
                if fe == e and x == e and s >= b.s_def]

    def hits(self, e: int) -> list:
        """(stage, acting q, its marker) per own injury; None if no act."""
        out = []
        for eid, s, use in self.own_injuries(e):
            hit = self.enums.get(s)
            out.append((s, hit[1], hit[3]) if hit else (s, None, None))
        return out


# Names of the checks verify_lowness_budget returns, in order.
CHECKS = ("quota-list-structure", "budget-formula", "injury-gate",
          "mind-change-cap", "descent-witness", "redeclare",
          "diagonalization")


def verify_lowness_budget(replay: _LowReplay) -> list:
    """Re-derive every watcher's injury bound from the trace's replay."""
    watchers = sorted(replay.budgets.items())
    return [_quota_list_structure(replay),
            _budget_formula(replay, watchers),
            _injury_gate(replay, watchers),
            _mind_change_cap(replay, watchers), _descent(replay, watchers),
            _redeclare(replay), _diagonalization(replay)]


def _quota_list_structure(r: _LowReplay) -> CheckResult:
    """One qlist-set per watcher; removes only of current members."""
    bad = r.quota.bad
    return CheckResult("quota-list-structure", not bad,
                       min(bad) if bad else None,
                       f"{len(r.budgets)} activations")


def _budget_formula(r: _LowReplay, watchers) -> CheckResult:
    """Each budget is phi over the watcher's list, below alpha."""
    alpha = r.quota.alpha
    bad = next((e for e, b in watchers if not b.budget_ok(alpha)), None)
    return CheckResult("budget-formula", bad is None, bad,
                       "" if alpha is None else f"bound {format_cnf(alpha)}")


def _injury_gate(r: _LowReplay, watchers) -> CheckResult:
    """Own injuries come from an act below the use by a current member."""
    for e, b in watchers:
        for eid, s, use in r.own_injuries(e):
            hit = r.enums.get(s)
            if hit is None or hit[2] >= use or hit[1] not in b.current(s):
                return CheckResult("injury-gate", False, eid)
    return CheckResult("injury-gate", True)


def _mind_change_cap(r: _LowReplay, watchers) -> CheckResult:
    """A finite budget caps the own injuries outright."""
    finite = [(e, b) for e, b in watchers
              if all(g.is_finite() for g in b.gs.values())]
    bad = next((e for e, b in finite if len(r.own_injuries(e)) > sum(
        g.nat_value() * (b.k + 1) for g in b.gs.values())), None)
    return CheckResult("mind-change-cap", bad is None, bad,
                       f"{len(finite)} finite budgets")


def _descent(r: _LowReplay, watchers) -> CheckResult:
    """Each watcher's own injuries descend through its budget."""
    for e, b in watchers:
        if b.value is None:
            return CheckResult("descent-witness", False, e)
        v = verify_r_approximation(descent_witness(b, r.hits(e), r.inits, e),
                                   b.value + nat(1))
        if v is not None:
            return CheckResult("descent-witness", False, v.stage, str(v))
    return CheckResult("descent-witness", True)


def _redeclare(r: _LowReplay) -> CheckResult:
    """Each enumeration is followed at its stage by a declare above it."""
    for s, (eid, q, element, _) in sorted(r.enums.items()):
        if not any(ds == s and did > eid and u > element
                   for did, ds, u, _ in r.declares.get(q, [])):
            return CheckResult("redeclare", False, eid)
    return CheckResult("redeclare", True)


def _diagonalization(r: _LowReplay) -> CheckResult:
    """Each live follower's last declaration disagrees with the last
    guess seen."""
    live = f"{len(r.summary.follower)} live followers"
    for q in map(_level, sorted(r.summary.follower)):
        decl = r.declares.get(q, [])
        seen = r.last_f.get(q)
        if not decl or seen is None or decl[-1][3] == seen[1]:
            return CheckResult("diagonalization", False, q, live)
    return CheckResult("diagonalization", True, None, live)


def worst_ratio(r: _LowReplay) -> float:
    """Largest own injuries / finite nonzero budget over the watchers."""
    worst = 0.0
    for e, b in r.budgets.items():
        if b.value is not None and b.value.is_finite() \
                and b.value.nat_value():
            worst = max(worst, len(r.own_injuries(e)) / b.value.nat_value())
    return worst


def phi_lines(replay: _LowReplay) -> list:
    """Report lines naming each watcher's ordinal budget, in trace order."""
    return [f"phi e={e} value={format_cnf(b.value)}"
            for e, b in replay.budgets.items() if b.value is not None]
