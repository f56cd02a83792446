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

from .approximation import ApproxTrace, verify_r_approximation
from .functional import Engine, EnumerableSet, FunctionalRun
from .ordinal import Cnf, format_cnf, nat, parse_cnf
from .trace import CheckResult, ConfigError, RunTrace, payload_error


def phi(bounds, k: int) -> Cnf:
    """Ordinal injury budget: sum of g * (k + 1), highest priority first."""
    total = nat(0)
    for g in bounds:
        total = total + g.times_nat(k + 1)
    return total


def _label(e: int) -> str:
    return f"q{e}"


def _level(node: str) -> int:
    return int(node[1:])


class _QState:
    __slots__ = ("follower", "use", "decl")

    def __init__(self):
        self.follower = None
        self.use = None
        self.decl = None


class _NState:
    __slots__ = ("active", "s0", "k", "qlist", "budget")

    def __init__(self):
        self.active = False
        self.s0 = None
        self.k = 0
        self.qlist = []
        self.budget = None


class LowAlphaRun(Engine):
    """One bounded execution of the finite-injury construction."""

    def __init__(self, advs, funs, alpha: Cnf, stages: int, seed: int = 0,
                 levels=None):
        if not alpha.is_additively_closed():
            raise ConfigError(f"bound {format_cnf(alpha)} is not a power of w")
        self.levels = len(advs) if levels is None else levels
        if self.levels > len(advs):
            raise ConfigError(
                f"{self.levels} levels but only {len(advs)} opponents")
        for adv in advs:
            if not adv.g < alpha:
                raise ConfigError(
                    f"opponent budget {format_cnf(adv.g)} not below the bound")
        self.advs = list(advs)
        self.alpha = alpha
        self.stages = stages
        self.seed = seed
        self.A = EnumerableSet()
        self.trace = RunTrace("low-alpha", stages)
        self._top = 0
        self._next_x = 0
        self.runs = {e: FunctionalRun(fn, self.A, large=self._fresh)
                     for e, fn in enumerate(funs)}
        self.q = [_QState() for _ in range(self.levels)]
        self.n = [_NState() for _ in funs]
        self._wants = {e: [] for e in range(self.levels)}
        self._inits = {e: [] for e in range(self.levels)}
        self.trace.emit(0, "phi-set", e="alpha", value=format_cnf(alpha))

    # -- negative side -------------------------------------------------

    def _n_step(self, e: int, s: int):
        nst = self.n[e]
        conv = self.runs[e].query(e)
        if not nst.active:
            if conv is None:
                return
            nst.active = True
            nst.s0 = s
            nst.k = sum(1 for other in self.n if other.active)
            members = [q for q in range(self.levels)
                       if self.q[q].follower is not None]
            nst.qlist = members
            nst.budget = phi([self.advs[q].g for q in members], nst.k)
            self.trace.emit(
                s, "qlist-set", e=e, k=nst.k,
                members=",".join(map(str, members)) or "-",
                gs=";".join(format_cnf(self.advs[q].g) for q in members) or "-",
                horizon=self._next_x)
            self.trace.emit(s, "phi-set", e=e, value=format_cnf(nst.budget))
            return
        for q in list(nst.qlist):
            if any(t >= nst.s0 for q2 in range(q) for t in self._wants[q2]):
                cause = "preempted"
            elif len([t for t in self._inits[q] if t >= nst.s0]) > nst.k:
                cause = "exhausted"
            else:
                continue
            nst.qlist.remove(q)
            self.trace.emit(s, "qlist-remove", e=e, q=q, cause=cause)

    def _denier(self, q: int, use: int):
        """Index of the first active watcher refusing the action, if any."""
        for e, nst in enumerate(self.n):
            if not nst.active:
                continue
            conv = self.runs[e].query(e)
            if conv is None or q in nst.qlist or use > conv.use:
                continue
            return e
        return None

    # -- positive side -------------------------------------------------

    def _assign(self, e: int, s: int):
        st = self.q[e]
        st.follower = self._next_x
        self._next_x += 1
        st.use = self._fresh()
        f = self.advs[e].value(st.follower, s)
        st.decl = 0 if f else 1
        lab = _label(e)
        self.trace.emit(s, "visit", node=lab, x=st.follower, f=f)
        self.trace.emit(s, "declare", node=lab, what="follower", y=st.follower)
        self.trace.emit(s, "declare", node=lab, what="delta", x=st.follower,
                        u=st.use, value=st.decl,
                        marker=format_cnf(self.advs[e].marker(st.follower, s)))

    def _init_q(self, e: int, s: int, cause: str):
        st = self.q[e]
        if st.follower is None:
            return
        self.trace.emit(s, "init", node=_label(e), cause=cause)
        self._inits[e].append(s)
        st.follower = st.use = st.decl = None

    def _q_step(self, e: int, s: int) -> bool:
        """Play one positive strategy; True cuts the stage short."""
        st = self.q[e]
        if st.follower is None:
            self._assign(e, s)
            return True
        adv = self.advs[e]
        f = adv.value(st.follower, s)
        self.trace.emit(s, "visit", node=_label(e), x=st.follower, f=f)
        if st.decl != f:
            return False
        self._wants[e].append(s)
        denier = self._denier(e, st.use)
        if denier is None:
            self.trace.emit(s, "select", node=_label(e), act="act")
        else:
            self.trace.emit(s, "select", node=_label(e), act="denied",
                            by=denier)
        for j in range(e + 1, self.levels):
            self._init_q(j, s, cause=f"preempt:{e}")
        if denier is None:
            self.A.add(st.use, s)
            self.trace.emit(s, "enumerate", node=_label(e), element=st.use,
                            marker=format_cnf(adv.marker(st.follower, s)))
            st.use = self._fresh()
            st.decl = 0 if f else 1
            self.trace.emit(s, "declare", node=_label(e), what="delta",
                            x=st.follower, u=st.use, value=st.decl,
                            marker=format_cnf(adv.marker(st.follower, s)))
        else:
            self._init_q(e, s, cause=f"denied:{denier}")
            self._assign(e, s)
        return True

    def execute(self) -> RunTrace:
        for s in range(self.stages):
            for e in range(min(s + 1, len(self.runs))):
                self._n_step(e, s)
            for e in range(min(s + 1, self.levels)):
                if self._q_step(e, s):
                    break
            self._advance_functionals(s)
        elems = sorted(e for _, e in self.A.events)
        summary = {"A": ",".join(str(x) for x in elems) or "-"}
        for e, st in enumerate(self.q):
            if st.follower is not None:
                summary[f"node.{_label(e)}"] = f"{st.follower}:{st.use}"
        self.trace.finalize(summary)
        return self.trace


def run(advs, funs, alpha: Cnf, stages: int, seed: int = 0,
        levels=None) -> RunTrace:
    """Execute the construction for the given stage budget."""
    return LowAlphaRun(advs, funs, alpha, stages, seed, levels).execute()


# -- verification ------------------------------------------------------


class _Budget:
    """One watcher's frozen accounting: activation data plus removals."""

    __slots__ = ("s0", "k", "members", "gs", "removed", "value")

    def __init__(self, s0, k, members, gs):
        self.s0 = s0
        self.k = k
        self.members = members
        self.gs = gs
        self.removed = {}  # q -> removal stage
        self.value = None

    def current(self, s: int) -> list:
        return [q for q in self.members
                if self.removed.get(q) is None or self.removed[q] > s]


class _LowReplay:
    """Verifier view of a trace, rebuilt from the event stream alone.

    An event without a payload key the replay reads, or with a value it
    cannot parse, raises ConfigError naming the event."""

    def __init__(self, trace: RunTrace):
        self.alpha = None
        self.budgets = {}  # e -> _Budget
        self.bad_removes = []
        self.extra_sets = []
        self.inits = {}  # q -> [stage]
        self.enums = {}  # stage -> (eid, q, element, marker)
        self.injuries = []  # (eid, stage, e, x, use)
        self.declares = {}  # q -> [(eid, stage, use, value)]
        self.last_f = {}  # q -> (stage, f)
        try:
            for ev in trace.events:
                p = ev.payload
                if ev.kind == "qlist-set":
                    e = int(p["e"])
                    if e in self.budgets:
                        self.extra_sets.append(ev.eid)
                        continue
                    members = ([] if p["members"] == "-" else
                               [int(t) for t in p["members"].split(",")])
                    gs = ([] if p["gs"] == "-"
                          else [parse_cnf(t) for t in p["gs"].split(";")])
                    self.budgets[e] = _Budget(ev.stage, int(p["k"]), members,
                                              dict(zip(members, gs)))
                elif ev.kind == "qlist-remove":
                    e, q = int(p["e"]), int(p["q"])
                    b = self.budgets.get(e)
                    if b is None or q not in b.current(ev.stage - 1):
                        self.bad_removes.append(ev.eid)
                    elif q not in b.removed:
                        b.removed[q] = ev.stage
                elif ev.kind == "phi-set":
                    value = parse_cnf(p["value"])
                    if p["e"] == "alpha":
                        self.alpha = value
                    elif int(p["e"]) in self.budgets:
                        self.budgets[int(p["e"])].value = value
                elif ev.kind == "init":
                    self.inits.setdefault(_level(p["node"]), []).append(
                        ev.stage)
                elif ev.kind == "enumerate":
                    self.enums[ev.stage] = (ev.eid, _level(p["node"]),
                                            int(p["element"]),
                                            parse_cnf(p["marker"]))
                elif ev.kind == "inject-diverge":
                    self.injuries.append((ev.eid, ev.stage, int(p["e"]),
                                          int(p["x"]), int(p["use"])))
                elif ev.kind == "declare" and p.get("what") == "delta":
                    self.declares.setdefault(_level(p["node"]), []).append(
                        (ev.eid, ev.stage, int(p["u"]), int(p["value"])))
                elif ev.kind == "visit":
                    self.last_f[_level(p["node"])] = (ev.stage, int(p["f"]))
        except (KeyError, ValueError) as ex:
            raise payload_error(ev, ex) from None

    def own_injuries(self, e: int):
        """Post-activation injuries of watcher e's own computation."""
        b = self.budgets[e]
        return [(eid, s, use) for eid, s, fe, x, use in self.injuries
                if fe == e and x == e and s >= b.s0]


def _descent_witness(r: _LowReplay, e: int) -> ApproxTrace:
    """Marker chain that must descend through the watcher's budget.

    At an injury by q the marker is the untouched budgets of the higher
    priority quota members, then g(q) scaled by the initializations q has
    left, then the opponent's own marker at the acting stage.  Quota-list
    pruning makes injurer priority non-increasing over time, so each
    injury strictly lowers the chain.
    """
    b = r.budgets[e]
    rows = [(b.s0, 0, b.value)]
    count = 0
    for eid, s, use in r.own_injuries(e):
        hit = r.enums.get(s)
        count += 1
        if hit is None or hit[1] not in b.members:
            marker = nat(0)
        else:
            _, q, _, adv_marker = hit
            prefix = phi([b.gs[m] for m in b.members if m < q], b.k)
            used = len([t for t in r.inits.get(q, []) if b.s0 <= t < s])
            left = max(b.k - used, 0)
            marker = prefix + b.gs[q].times_nat(left) + adv_marker
        if rows and rows[-1][0] == s:
            rows.pop()
        rows.append((s, count, marker))
    witness = ApproxTrace()
    for s, v, m in rows:
        witness.record(e, s, v, m)
    return witness


# Names of the checks verify_lowness_budget returns, in order.
CHECKS = ("quota-list-structure", "budget-formula", "injury-gate",
          "mind-change-cap", "descent-witness", "redeclare",
          "diagonalization")


def verify_lowness_budget(trace: RunTrace,
                          replay: "_LowReplay | None" = None) -> list:
    """Re-derive every watcher's injury bound from the trace alone.

    A caller that already replayed the trace passes that replay in."""
    r = replay if replay is not None else _LowReplay(trace)
    checks = []

    bad = r.extra_sets + r.bad_removes
    checks.append(CheckResult(
        "quota-list-structure", not bad,
        witness=min(bad) if bad else None,
        detail=f"{len(r.budgets)} activations"))

    bad = None
    for e, b in sorted(r.budgets.items()):
        expect = phi([b.gs[q] for q in b.members], b.k)
        if b.value != expect or (r.alpha is not None
                                 and not b.value < r.alpha):
            bad = e
            break
    checks.append(CheckResult("budget-formula", bad is None, witness=bad,
                              detail=f"bound {format_cnf(r.alpha)}"
                              if r.alpha is not None else ""))

    bad = None
    for e, b in sorted(r.budgets.items()):
        for eid, s, use in r.own_injuries(e):
            hit = r.enums.get(s)
            if hit is None or hit[2] >= use or hit[1] not in b.current(s):
                bad = eid
                break
        if bad is not None:
            break
    checks.append(CheckResult("injury-gate", bad is None, witness=bad))

    bad = None
    capped = 0
    for e, b in sorted(r.budgets.items()):
        if any(not g.is_finite() for g in b.gs.values()):
            continue
        capped += 1
        cap = sum(g.nat_value() * (b.k + 1) for g in b.gs.values())
        if len(r.own_injuries(e)) > cap:
            bad = e
            break
    checks.append(CheckResult("mind-change-cap", bad is None, witness=bad,
                              detail=f"{capped} finite budgets"))

    bad = None
    detail = ""
    for e, b in sorted(r.budgets.items()):
        if b.value is None:
            bad = e
            break
        v = verify_r_approximation(_descent_witness(r, e),
                                   b.value + nat(1))
        if v is not None:
            bad = v.stage
            detail = str(v)
            break
    checks.append(CheckResult("descent-witness", bad is None, witness=bad,
                              detail=detail))

    bad = None
    for s, (eid, q, element, _) in sorted(r.enums.items()):
        after = [did for did, ds, u, _ in r.declares.get(q, [])
                 if ds == s and did > eid and u > element]
        if not after:
            bad = eid
            break
    checks.append(CheckResult("redeclare", bad is None, witness=bad))

    live = [k for k in trace.summary if k.startswith("node.")]
    bad = None
    for key in sorted(live):
        q = _level(key.split(".", 1)[1])
        decl = r.declares.get(q, [])
        seen = r.last_f.get(q)
        if not decl or seen is None or decl[-1][3] == seen[1]:
            bad = q
            break
    checks.append(CheckResult("diagonalization", bad is None, witness=bad,
                              detail=f"{len(live)} live followers"))
    return checks


def worst_ratio(r: _LowReplay) -> float:
    """Largest own injuries / finite nonzero budget over the watchers."""
    worst = 0.0
    for e, b in r.budgets.items():
        if b.value is not None and b.value.is_finite() \
                and b.value.nat_value():
            worst = max(worst, len(r.own_injuries(e)) / b.value.nat_value())
    return worst


def phi_lines(trace: RunTrace, replay=None) -> list:
    """Report lines naming each watcher's ordinal budget, in trace order."""
    return [f"phi e={ev.payload['e']} value={ev.payload['value']}"
            for ev in trace.by_kind("phi-set")
            if ev.payload["e"] != "alpha" and "." not in ev.payload["e"]]
