"""Combined tree construction: guessing opponents, budgeted opponents, and
protected functionals interleaved on one tree.

Levels cycle in threes: length-3e nodes (eta) protect functional e,
length-(3e+1) nodes (rho) diagonalize a guessing opponent exactly as in the
two-level construction, and length-(3e+2) nodes (xi) diagonalize a budgeted
opponent with a single outcome.  Each eta keeps, per argument x, a quota
list of xi nodes allowed to hurt it together with a fixed tolerance k and
an ordinal budget beta; rho injury stays under the quota recursion with the
realized beta content added.  The verifier re-derives every bound from the
trace alone.
"""

from __future__ import annotations

import sys
from bisect import bisect_left

from .approximation import verify_r_approximation
from .budgeted import (LIST_KINDS, QuotaList, QuotaLists, Requirement,
                       check_bound, descent_witness, set_bound)
from .etarho import (EtaRhoReplay, EtaRhoRun, Levels, check_recursion,
                     check_triggers, injury_bound)
from .ordinal import Cnf, format_cnf, nat, parse_cnf, printable
from .trace import CheckResult, ConfigError, RunTrace
from .tree import FIN, INF, is_prefix, left_of

LEVELS = Levels(3)
render, parse, is_eta, is_rho, is_xi = (LEVELS.render, LEVELS.parse,
                                        LEVELS.is_eta, LEVELS.is_rho,
                                        LEVELS.is_xi)
etas_above, level_index = LEVELS.etas_above, LEVELS.level_index


# -- xi quota bookkeeping ----------------------------------------------


def k_prime(xi: tuple, lengths: dict) -> int:
    """Tolerated initializations of xi: the injury ceilings of every
    computation protected on the way down to xi, summed."""
    total = 0
    for eta in etas_above(xi):
        for x in range(lengths[eta]):
            total += injury_bound(x)
    return total


def check_ceilings(funs: dict, fadvs: dict):
    """Refuse functionals whose injury ceilings a trace could not print
    under the interpreter's limit on int digits.  A k' is at most the
    ceilings of all arguments summed; a budget coefficient is at most
    k' + 1 times the largest budget coefficients of the xi nodes summed,
    4^(e+1) of them at level e."""
    width = sum(4 ** (e + 1) * max((c for _, c in adv.g), default=1)
                for e, adv in fadvs.items())
    total = 0
    for e, fun in sorted(funs.items()):
        x = 0
        while x in fun.args:  # lengths stop at the first missing argument
            total += injury_bound(x)
            if not printable((total + 1) * width):
                raise ConfigError(f"functional {e} argument {x}: injury "
                                  f"ceilings exceed "
                                  f"{sys.get_int_max_str_digits()} digits")
            x += 1


def k_budget(kps) -> int:
    """Largest member tolerance; 0 for an empty list."""
    return max(kps, default=0)


def qlist_update(members, k: int, inits: dict, wants, rho_inits, stage_nodes):
    """One maintenance pass over a quota list.

    Drops members that spent their initialization tolerance, saw a higher
    priority xi want to act, lost a rho above them, or were passed on the
    left.  Returns the dropped members with their causes, in list order.
    """
    removed = []
    for xi in members:
        if inits.get(xi, 0) > k:
            cause = "exhausted"
        elif any(w != xi and is_prefix(w, xi) for w in wants):
            cause = "want-above"
        elif any(r != xi and is_prefix(r, xi) for r in rho_inits):
            cause = "rho-init"
        elif any(left_of(d, xi) for d in stage_nodes):
            cause = "left-stage"
        else:
            continue
        removed.append((xi, cause))
    return removed


# -- the construction --------------------------------------------------


class NonlowAlphaRun(EtaRhoRun):
    """One deterministic run of the combined construction: the eta/rho
    engine with xi levels added through its hooks."""

    levels = LEVELS
    construction = "nonlow-alpha"

    def __init__(self, psis: dict, fadvs: dict, funs: dict, alpha: Cnf,
                 stages: int):
        check_bound(alpha, fadvs.values())
        check_ceilings(funs, fadvs)
        super().__init__(psis, funs, stages, fadvs)
        self.xi = {}  # node -> Requirement
        self.qlists = {}  # eta node -> {x: QuotaList}
        self._xi_wants = {}  # node -> last stage it wanted to act
        self._rho_inits = {}  # node -> last init stage
        set_bound(self, alpha)

    # -- xi visits and initialization ---------------------------------

    def _visit_xi(self, node, s):
        if node[-1] == FIN:
            self._play_fin(node[:-1], s)
        st = self.xi.get(node)
        if st is None:
            st = self.xi[node] = Requirement(self.fadvs[level_index(node)],
                                             render(node))
        if st.follower is None:
            st.assign(self, s)
        elif st.visit(self, s):
            self._xi_wants[node] = s

    def _on_init(self, node, s):
        super()._on_init(node, s)
        if is_rho(node):
            self._rho_inits[node] = s
        elif is_xi(node) and node in self.xi:
            self.xi[node].initialize(s)
        elif is_eta(node):
            self.qlists.pop(node, None)

    # -- quota list maintenance ---------------------------------------

    def _expansionary(self, eta, s):
        table = self.qlists.setdefault(eta, {})
        for x in range(self.cur_l[eta]):
            entry = table.get(x)
            if entry is None:
                held = {node: st for node, st in sorted(self.xi.items())
                        if st.follower is not None
                        and is_prefix(eta + (INF,), node)}
                kps = [self._k_prime(m, s) for m in held]
                table[x] = QuotaList(
                    self, s, {"eta": render(eta), "x": x}, "xi", held, render,
                    k_budget(kps), kps=";".join(map(str, kps)) or "-")
                continue
            inits = {m: len([t for t in self.xi[m].inits
                             if entry.s_def < t <= s])
                     for m in entry.members}
            wants = [m for m, t in self._xi_wants.items()
                     if t >= entry.checked]
            rho_inits = [node for node, t in self._rho_inits.items()
                         if t >= entry.checked]
            # the walks since the last upkeep, itself a walked stage
            since = bisect_left(self.tree.paths, (entry.checked,))
            for m, cause in qlist_update(
                    list(entry.members), entry.k, inits, wants, rho_inits,
                    {path for _, path in self.tree.paths[since:]}):
                entry.remove(self, s, m, cause)
            entry.checked = s

    def _k_prime(self, xi_node, s) -> int:
        # an eta the walk has not reached: the length its visit would set,
        # kept out of cur_l, which holds the visits' lengths alone
        return k_prime(xi_node, {
            eta: self.cur_l[eta] if eta in self.cur_l
            else self._length(eta, s) for eta in etas_above(xi_node)})

    # -- xi permission and action -------------------------------------

    def _xi_candidates(self, path, s) -> list:
        nodes = (path[:i] for i in range(2, len(path) + 1, 3))
        return [n for n in nodes if self._xi_wants.get(n) == s]

    def _denier(self, xi_node, use):
        """The select fields naming the first (eta, x) refusing, if any."""
        for eta, x, conv_use in self._protected(xi_node):
            if use > conv_use:
                continue
            entry = self.qlists.get(eta, {}).get(x)
            if entry is None or xi_node not in entry.members:
                return {"by": render(eta), "x": x}
        return None

    def _preempt(self, xi_node, s, denial):
        """Initialize every xi extension and everything to the right, and
        xi_node itself when denied."""
        for other in sorted(self.tree.birth):
            if other == xi_node:
                continue
            if left_of(xi_node, other) or (is_xi(other)
                                           and is_prefix(xi_node, other)):
                self._on_init(other, s)
        if denial is not None:
            self._on_init(xi_node, s)

    def _act_xi(self, xi_node, s):
        self.xi[xi_node].act(self, s, xi_node)

    def _summary(self, summary: dict):
        super()._summary(summary)
        for node in sorted(self.xi):
            self.xi[node].report(summary)


def run(psis: dict, fadvs: dict, funs: dict, alpha: Cnf, stages: int,
        seed: int = 0) -> RunTrace:
    """Execute the combined construction for the given stage budget; the
    opponents carry their own seeds."""
    return NonlowAlphaRun(psis, fadvs, funs, alpha, stages).execute()


# -- trace verification ------------------------------------------------


class _CombReplay(EtaRhoReplay):
    """Verifier view of a combined trace, from the event stream alone: the
    eta/rho replay plus the xi, quota-list and budget events."""

    levels = LEVELS

    def __init__(self, trace: RunTrace):
        self.quota = QuotaLists((("eta", parse), ("x", int)), ("xi", parse))
        self.xi_inits = {}  # node -> [stages], follower-bearing only
        self.enums = {}  # stage -> (eid, node, element, marker or None)
        self.denials = []  # (eid, stage, node, by, x)
        self._read(trace)

    def _extra(self, eid, s, p):
        kind = p.kind
        if kind == "init":
            node = parse(p["node"])
            if is_xi(node) and node in self.followers:
                self.xi_inits.setdefault(node, []).append(s)
        elif kind == "enumerate":
            marker = parse_cnf(p["marker"]) if "marker" in p else None
            self.enums[s] = (eid, parse(p["node"]), int(p["element"]),
                             marker)
        elif kind == "select" and p.get("act") == "denied":
            self.denials.append((eid, s, parse(p["node"]),
                                 parse(p["by"]), int(p["x"])))
        elif kind in LIST_KINDS:  # an eta's init lets it list anew
            self.quota.read(eid, s, p, self.last_init)

    def entry_at(self, eta, x, s):
        """The quota list generation in force at stage s, if any."""
        live = None
        for entry in self.quota.lists.get((eta, x), []):
            if entry.s_def <= s:
                live = entry
        return live

    def listed(self, eta, x, s, node) -> bool:
        entry = self.entry_at(eta, x, s)
        return is_xi(node) and entry is not None and node in entry.members


# Names of the checks verify_combined_bounds returns, in order.
CHECKS = ("level-discipline", "xi-permission-scope", "qlist-structure",
          "xi-injury-gate", "descent-witness", "rho-recursion",
          "trigger-structure", "mind-change-cap")


def verify_combined_bounds(replay: _CombReplay) -> list:
    """Re-derive the combined construction's bound claims from the
    trace's replay."""
    return [_level_discipline(replay), _xi_permission_scope(replay),
            _qlist_structure(replay), _xi_injury_gate(replay),
            _descent_witness(replay),
            check_recursion(replay, "rho-recursion"),
            check_triggers(replay), _mind_change_cap(replay)]


def _level_discipline(r: _CombReplay) -> CheckResult:
    """Visit payloads match the level type.  The replay has already
    rejected every misspelt node name and every eta visit without its
    length."""
    if r.foreign is not None:
        eid, node = r.foreign
        bad = f"rho visit {render(node)} carries foreign fields" \
            if is_rho(node) else f"xi visit {render(node)} carries a length"
        return CheckResult("level-discipline", False, eid, bad)
    return CheckResult("level-discipline", True, None, f"{r.visits} visits")


def _xi_permission_scope(r: _CombReplay) -> CheckResult:
    """Denials of xi come only from eta-infinity above."""
    for eid, s, node, by, x in r.denials:
        if is_xi(node) and (not is_eta(by)
                            or not is_prefix(by + (INF,), node)):
            return CheckResult("xi-permission-scope", False, eid,
                               f"denier {render(by)} not an eta-infinity "
                               f"prefix of {render(node)}")
    return CheckResult("xi-permission-scope", True, None,
                       f"{len(r.denials)} denials")


def _qlist_structure(r: _CombReplay) -> CheckResult:
    """Legal sets and removes, budgets recomputed."""
    if r.quota.bad:
        return CheckResult("qlist-structure", False, min(r.quota.bad),
                           "illegal quota list event")
    for (eta, x), gen in sorted(r.quota.lists.items()):
        for entry in gen:
            if entry.kps is None or entry.k != k_budget(entry.kps):
                return CheckResult("qlist-structure", False, entry.eid,
                                   f"tolerance {entry.k} is not the member "
                                   f"max")
            if not entry.budget_ok(r.quota.alpha):
                return CheckResult("qlist-structure", False, entry.eid,
                                   f"budget mismatch at {render(eta)} x={x}")
    return CheckResult("qlist-structure", True, None,
                       f"{len(r.quota.lists)} lists")


def _xi_injury_gate(r: _CombReplay) -> CheckResult:
    """Xi hits below eta-infinity come from current list members."""
    for eta in sorted(r.etas()):
        for eid, s, x, node, elem in r.counted_injuries(eta):
            if not is_xi(node) or not is_prefix(eta + (INF,), node):
                continue
            entry = r.entry_at(eta, x, s)
            if entry is None or node not in entry.current(s):
                return CheckResult("xi-injury-gate", False, eid,
                                   f"{render(node)} hit {render(eta)} x={x} "
                                   f"outside the list at stage {s}")
    return CheckResult("xi-injury-gate", True)


def _descent_witness(r: _CombReplay) -> CheckResult:
    """Each list generation's xi hits descend through its beta budget."""
    for (eta, x), gen in sorted(r.quota.lists.items()):
        for entry in gen:
            if entry.value is None:
                return CheckResult("descent-witness", False, entry.eid,
                                   "missing budget value")
            hits = []
            for eid, s, hx, node, elem in r.counted_injuries(eta):
                if hx == x and is_xi(node) and is_prefix(eta + (INF,), node) \
                        and r.entry_at(eta, x, s) is entry:
                    en = r.enums.get(s)
                    hits.append((s, node, en[3] if en and en[1] == node
                                 else None))
            v = verify_r_approximation(
                descent_witness(entry, hits, r.xi_inits, x),
                entry.value + nat(1))
            if v is not None:
                return CheckResult("descent-witness", False, v.stage, str(v))
    return CheckResult("descent-witness", True, None,
                       f"{sum(map(len, r.quota.lists.values()))} streams")


def _mind_change_cap(r: _CombReplay) -> CheckResult:
    """Total hits per (eta, x) stay under the closed-form ceiling whenever
    the beta budget is finite."""
    capped = 0
    for eta in sorted(r.etas()):
        for x, (n, eid) in sorted(r.injury_totals(eta).items()):
            caps = []
            for entry in r.quota.lists.get((eta, x), []):
                if entry.value is None or not entry.value.is_finite():
                    caps = None
                    break
                caps.append(entry.value.nat_value())
            if caps is None:
                continue
            capped += 1
            beta_nat = max(caps) if caps else 0
            cap = (beta_nat + x) * (x + 1) * 4 ** ((x + 1) ** 2)
            if n > cap:
                return CheckResult("mind-change-cap", False, eid,
                                   f"x={x} hit {n} > {cap} times")
    return CheckResult("mind-change-cap", True, None, f"{capped} finite caps")


def bound_table(replay: _CombReplay) -> list:
    """One line per (eta, x) quota list: the ordinal xi budget and the
    closed-form rho ceiling."""
    lines = []
    for (eta, x), gen in sorted(replay.quota.lists.items()):
        entry = gen[-1]
        if entry.value is None:
            continue
        lines.append(f"bound eta={render(eta)} x={x} "
                     f"beta={format_cnf(entry.value)} "
                     f"rho_bound={injury_bound(x)}")
    return lines
