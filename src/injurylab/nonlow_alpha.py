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

from .approximation import ApproxTrace, verify_r_approximation
from .etarho import (EtaRhoReplay, EtaRhoRun, Levels, check_recursion,
                     check_triggers, injury_bound)
from .low_alpha import phi
from .ordinal import Cnf, format_cnf, nat, parse_cnf
from .trace import CheckResult, ConfigError, RunTrace
from .tree import FIN, INF, is_prefix, left_of, parse_node

LEVELS = Levels(3)
render, is_eta, is_rho, is_xi = (LEVELS.render, LEVELS.is_eta,
                                 LEVELS.is_rho, LEVELS.is_xi)
etas_above, level_index = LEVELS.etas_above, LEVELS.level_index
in_quota, quota_for, edge_layer = (LEVELS.in_quota, LEVELS.quota_for,
                                   LEVELS.edge_layer)


# -- xi quota bookkeeping ----------------------------------------------


def k_prime(xi: tuple, lengths: dict) -> int:
    """Tolerated initializations of xi: the injury ceilings of every
    computation protected on the way down to xi, summed."""
    total = 0
    for eta in etas_above(xi):
        for x in range(lengths[eta]):
            total += injury_bound(x)
    return total


def k_budget(kps) -> int:
    """Largest member tolerance; 0 for an empty list."""
    kps = list(kps)
    return max(kps) if kps else 0


def beta_bound(gs, k: int, alpha: Cnf | None = None) -> Cnf:
    """Ordinal injury budget over the listed members, priority order."""
    if alpha is not None and not alpha.is_additively_closed():
        raise ConfigError(f"bound {format_cnf(alpha)} is not a power of w")
    return phi(gs, k)


def qlist_update(members, k: int, inits=None, wants=(), rho_inits=(),
                 stage_nodes=()):
    """One maintenance pass over a quota list.

    Drops members that spent their initialization tolerance, saw a higher
    priority xi want to act, lost a rho above them, or were passed on the
    left.  Returns (kept, removed-with-cause).
    """
    removed = []
    for xi in members:
        if inits and inits.get(xi, 0) > k:
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
    dropped = {xi for xi, _ in removed}
    return [m for m in members if m not in dropped], removed


# -- the construction --------------------------------------------------


class _XiState:
    __slots__ = ("follower", "use", "decl", "wants")

    def __init__(self):
        self.follower = None
        self.use = None
        self.decl = None
        self.wants = False


class _QlistEntry:
    __slots__ = ("s_def", "k", "members", "checked")

    def __init__(self, s_def, k, members):
        self.s_def = s_def
        self.k = k
        self.members = members
        self.checked = s_def  # last maintenance stage


class NonlowAlphaRun(EtaRhoRun):
    """One deterministic run of the combined construction: the eta/rho
    engine with xi levels added through its hooks."""

    levels = LEVELS
    construction = "nonlow-alpha"

    def __init__(self, psis: dict, fadvs: dict, funs: dict, alpha: Cnf,
                 stages: int, seed: int = 0):
        if not alpha.is_additively_closed():
            raise ConfigError(f"bound {format_cnf(alpha)} is not a power of w")
        super().__init__(psis, funs, stages, seed, fadvs)
        for adv in fadvs.values():
            if not adv.g < alpha:
                raise ConfigError(
                    f"opponent budget {format_cnf(adv.g)} not below the bound")
        self.alpha = alpha
        self._next_z = 0
        self.xi = {}  # node -> _XiState
        self.qlists = {}  # eta node -> {x: _QlistEntry}
        self._xi_wants = {}  # node -> [stages]
        self._xi_inits = {}  # node -> [stages], only with a live follower
        self.trace.emit(0, "phi-set", e="alpha", value=format_cnf(alpha))

    def _g(self, node: tuple) -> Cnf:
        return self.fadvs[level_index(node)].g

    def _length_of(self, eta, s) -> int:
        if eta not in self.cur_l:
            self.cur_l[eta] = self._length(eta, s)
        return self.cur_l[eta]

    # -- xi visits and initialization ---------------------------------

    def _visit_xi(self, node, s):
        if node[-1] == FIN:
            self._play_fin(node[:-1], s)
        st = self.xi.setdefault(node, _XiState())
        if st.follower is None:
            self._assign_xi(node, s)
        else:
            f = self.fadvs[level_index(node)].value(st.follower, s)
            self.trace.emit(s, "visit", node=render(node),
                            x=st.follower, f=f)
            st.wants = st.decl == f
            if st.wants:
                self._xi_wants.setdefault(node, []).append(s)

    def _assign_xi(self, node, s):
        st = self.xi[node]
        st.follower = self._next_z
        self._next_z += 1
        st.use = self._fresh()
        adv = self.fadvs[level_index(node)]
        f = adv.value(st.follower, s)
        st.decl = 0 if f else 1
        st.wants = False
        lab = render(node)
        self.trace.emit(s, "visit", node=lab, x=st.follower, f=f)
        self.trace.emit(s, "declare", node=lab, what="follower",
                        y=st.follower)
        self.trace.emit(s, "declare", node=lab, what="delta", x=st.follower,
                        u=st.use, value=st.decl,
                        marker=format_cnf(adv.marker(st.follower, s)))

    def _on_init(self, node, s):
        super()._on_init(node, s)
        if is_xi(node):
            st = self.xi.get(node)
            if st is not None and st.follower is not None:
                self._xi_inits.setdefault(node, []).append(s)
                st.follower = st.use = st.decl = None
                st.wants = False
        elif is_eta(node):
            self.qlists.pop(node, None)

    # -- quota list maintenance ---------------------------------------

    def _expansionary(self, eta, s):
        table = self.qlists.setdefault(eta, {})
        for x in range(self.cur_l[eta]):
            entry = table.get(x)
            if entry is None:
                members = sorted(
                    node for node, st in self.xi.items()
                    if st.follower is not None
                    and is_prefix(eta + (INF,), node))
                kps = [self._k_prime(m, s) for m in members]
                k = k_budget(kps)
                table[x] = _QlistEntry(s, k, members)
                budget = phi([self._g(m) for m in members], k)
                self.trace.emit(
                    s, "qlist-set", eta=render(eta), x=x, k=k,
                    members=",".join(render(m) for m in members) or "-",
                    gs=";".join(format_cnf(self._g(m)) for m in members)
                    or "-",
                    kps=";".join(str(v) for v in kps) or "-",
                    horizon=self._next_z)
                self.trace.emit(s, "phi-set", e=f"{render(eta)}.{x}",
                                value=format_cnf(budget))
                continue
            inits = {m: len([t for t in self._xi_inits.get(m, [])
                             if entry.s_def < t <= s])
                     for m in entry.members}
            wants = [m for m, ts in self._xi_wants.items()
                     if any(t >= entry.checked for t in ts)]
            rho_inits = [node for t, node in self.tree.log.inits
                         if t >= entry.checked and is_rho(node)]
            stage_nodes = [self.tree.log.paths[t]
                           for t in range(entry.checked,
                                          len(self.tree.log.paths))]
            entry.members, removed = qlist_update(
                entry.members, entry.k, inits, wants, rho_inits, stage_nodes)
            for m, cause in removed:
                self.trace.emit(s, "qlist-remove", eta=render(eta), x=x,
                                xi=render(m), cause=cause)
            entry.checked = s

    def _k_prime(self, xi_node, s) -> int:
        lengths = {eta: self._length_of(eta, s)
                   for eta in etas_above(xi_node)}
        return k_prime(xi_node, lengths)

    # -- xi permission and action -------------------------------------

    def _xi_candidates(self, path) -> list:
        nodes = (path[:i] for i in range(2, len(path) + 1, 3))
        return [n for n in nodes if n in self.xi and self.xi[n].wants]

    def _xi_denier(self, xi_node, use, s):
        """First (eta, x) refusing the action, or None."""
        for eta in etas_above(xi_node):
            run = self.runs.get(level_index(eta))
            if run is None:
                continue
            table = self.qlists.get(eta, {})
            for x in range(self._length_of(eta, s)):
                conv = run.query(x)
                if conv is None or use > conv.use:
                    continue
                entry = table.get(x)
                if entry is not None and xi_node in entry.members:
                    continue
                return eta, x
        return None

    def _init_xi_region(self, xi_node, s):
        """Initialize every xi extension and everything to the right."""
        for other in sorted(self.tree.birth):
            if other == xi_node:
                continue
            if left_of(xi_node, other) or (is_xi(other)
                                           and is_prefix(xi_node, other)):
                self.tree.log.record_init(s, other)
                self._on_init(other, s)

    def _act_xi(self, xi_node, s):
        st = self.xi[xi_node]
        denier = self._xi_denier(xi_node, st.use, s)
        if denier is None:
            self.trace.emit(s, "select", node=render(xi_node), act="act")
        else:
            self.trace.emit(s, "select", node=render(xi_node), act="denied",
                            by=render(denier[0]), x=denier[1])
        self._init_xi_region(xi_node, s)
        adv = self.fadvs[level_index(xi_node)]
        if denier is None:
            f = adv.value(st.follower, s)
            elem = st.use
            self.trace.emit(s, "enumerate", node=render(xi_node),
                            element=elem,
                            marker=format_cnf(adv.marker(st.follower, s)))
            self.A.add(elem, s)
            st.use = self._fresh()
            st.decl = 0 if f else 1
            st.wants = False
            self.trace.emit(s, "declare", node=render(xi_node), what="delta",
                            x=st.follower, u=st.use, value=st.decl,
                            marker=format_cnf(adv.marker(st.follower, s)))
        else:
            self.tree.log.record_init(s, xi_node)
            self._on_init(xi_node, s)
            self._assign_xi(xi_node, s)

    def _xi_summary(self, summary: dict):
        for node in sorted(self.xi):
            st = self.xi[node]
            if st.follower is not None:
                summary[f"node.{render(node)}"] = f"{st.follower}:{st.use}"


def run(psis: dict, fadvs: dict, funs: dict, alpha: Cnf, stages: int,
        seed: int = 0) -> RunTrace:
    """Execute the combined construction for the given stage budget."""
    return NonlowAlphaRun(psis, fadvs, funs, alpha, stages, seed).execute()


# -- trace verification ------------------------------------------------


class _Entry:
    """One quota list generation for an (eta, x) pair, replayed."""

    __slots__ = ("eid", "s_def", "k", "members", "gs", "kps", "removed",
                 "value")

    def __init__(self, eid, s_def, k, members, gs, kps):
        self.eid = eid
        self.s_def = s_def
        self.k = k
        self.members = members
        self.gs = gs
        self.kps = kps
        self.removed = {}  # node -> removal stage
        self.value = None

    def current(self, s: int) -> list:
        return [m for m in self.members
                if self.removed.get(m) is None or self.removed[m] > s]


class _CombReplay(EtaRhoReplay):
    """Verifier view of a combined trace, from the event stream alone: the
    eta/rho replay plus the xi, quota-list and budget events."""

    levels = LEVELS

    def __init__(self, trace: RunTrace):
        self.alpha = None
        self.entries = {}  # (eta, x) -> [_Entry] in order
        self.bad_events = []  # structurally illegal qlist events
        self.xi_inits = {}  # node -> [stages], follower-bearing only
        self.enums = {}  # stage -> (eid, node, element, marker or None)
        self.denials = []  # (eid, stage, node, by, x)
        self._followed = set()  # nodes with a live follower
        self._read(trace)

    def _extra(self, ev, s, p):
        if ev.kind == "init":
            node = parse_node(p["node"])
            if node in self._followed:
                self._followed.discard(node)
                if is_xi(node):
                    self.xi_inits.setdefault(node, []).append(s)
        elif ev.kind == "declare":
            if p["what"] == "follower":
                self._followed.add(parse_node(p["node"]))
        elif ev.kind == "enumerate":
            marker = parse_cnf(p["marker"]) if "marker" in p else None
            self.enums[s] = (ev.eid, parse_node(p["node"]),
                             int(p["element"]), marker)
        elif ev.kind == "select" and p.get("act") == "denied":
            self.denials.append((ev.eid, s, parse_node(p["node"]),
                                 parse_node(p["by"]), int(p["x"])))
        elif ev.kind == "qlist-set":
            eta, x = parse_node(p["eta"]), int(p["x"])
            members = ([] if p["members"] == "-" else
                       [parse_node(t) for t in p["members"].split(",")])
            gs = ([] if p["gs"] == "-" else
                  [parse_cnf(t) for t in p["gs"].split(";")])
            kps = ([] if p["kps"] == "-" else
                   [int(t) for t in p["kps"].split(";")])
            gen = self.entries.setdefault((eta, x), [])
            if gen and self.last_init.get(eta, -1) < gen[-1].s_def:
                self.bad_events.append(ev.eid)
            gen.append(_Entry(ev.eid, s, int(p["k"]), members,
                              dict(zip(members, gs)), kps))
        elif ev.kind == "qlist-remove":
            eta, x = parse_node(p["eta"]), int(p["x"])
            m = parse_node(p["xi"])
            gen = self.entries.get((eta, x))
            if not gen or m not in gen[-1].current(s - 1):
                self.bad_events.append(ev.eid)
            elif m not in gen[-1].removed:
                gen[-1].removed[m] = s
        elif ev.kind == "phi-set":
            if p["e"] == "alpha":
                self.alpha = parse_cnf(p["value"])
            elif "." in p["e"]:
                tag, xs = p["e"].rsplit(".", 1)
                gen = self.entries.get((parse_node(tag), int(xs)))
                if gen:
                    gen[-1].value = parse_cnf(p["value"])

    def entry_at(self, eta, x, s):
        """The quota list generation in force at stage s, if any."""
        live = None
        for entry in self.entries.get((eta, x), []):
            if entry.s_def <= s:
                live = entry
        return live

    def listed(self, eta, x, s, node) -> bool:
        entry = self.entry_at(eta, x, s)
        return is_xi(node) and entry is not None and node in entry.members


def _xi_descent_witness(r: _CombReplay, eta, x, entry, hits) -> ApproxTrace:
    """Marker chain for one quota list generation: untouched budgets of the
    higher priority members, the injurer's remaining scale, then the
    opponent's own marker.  List maintenance keeps injurer priority
    non-increasing, so each hit strictly lowers the chain."""
    rows = [(entry.s_def, 0, entry.value)]
    count = 0
    for eid, s, m, adv_marker in hits:
        count += 1
        if m not in entry.members or adv_marker is None:
            marker = nat(0)
        else:
            prefix = phi([entry.gs[n] for n in entry.members if n < m],
                         entry.k)
            used = len([t for t in r.xi_inits.get(m, [])
                        if entry.s_def <= t < s])
            left = max(entry.k - used, 0)
            marker = prefix + entry.gs[m].times_nat(left) + adv_marker
        if rows and rows[-1][0] == s:
            rows.pop()
        rows.append((s, count, marker))
    witness = ApproxTrace()
    for s, v, m in rows:
        witness.record(x, s, v, m)
    return witness


# Names of the checks verify_combined_bounds returns, in order.
CHECKS = ("level-discipline", "xi-permission-scope", "qlist-structure",
          "xi-injury-gate", "descent-witness", "rho-recursion",
          "trigger-structure", "mind-change-cap")


def verify_combined_bounds(trace: RunTrace,
                           replay: "_CombReplay | None" = None) -> list:
    """Re-derive the combined construction's bound claims from a trace.

    A caller that already replayed the trace passes that replay in."""
    r = replay if replay is not None else _CombReplay(trace)
    return [_level_discipline(trace), _xi_permission_scope(r),
            _qlist_structure(r), _xi_injury_gate(r), _descent_witness(r),
            check_recursion(r, "rho-recursion", sorted),
            check_triggers(r, sorted), _mind_change_cap(r)]


def _level_discipline(trace: RunTrace) -> CheckResult:
    """Node spelling and visit payloads match the level type."""
    visits = trace.by_kind("visit")
    for ev in visits:
        p = ev.payload
        text = p["node"]
        node = parse_node(text)
        spelled = render(node)
        if text != spelled and text != "-":
            bad = f"node {text} spelled unlike {spelled}"
        elif is_eta(node) and "l" not in p:
            bad = f"eta visit {text} without length"
        elif is_rho(node) and ("l" in p or "x" in p):
            bad = f"rho visit {text} carries foreign fields"
        elif is_xi(node) and "l" in p:
            bad = f"xi visit {text} carries a length"
        else:
            continue
        return CheckResult("level-discipline", False, ev.eid, bad)
    return CheckResult("level-discipline", True, None,
                       f"{len(visits)} visits")


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
    if r.bad_events:
        return CheckResult("qlist-structure", False, min(r.bad_events),
                           "illegal quota list event")
    for (eta, x), gen in sorted(r.entries.items()):
        for entry in gen:
            expect = phi([entry.gs[m] for m in entry.members], entry.k)
            if entry.k != k_budget(entry.kps):
                return CheckResult("qlist-structure", False, entry.eid,
                                   f"tolerance {entry.k} is not the member "
                                   f"max")
            if entry.value != expect or (
                    r.alpha is not None and not entry.value < r.alpha):
                return CheckResult("qlist-structure", False, entry.eid,
                                   f"budget mismatch at {render(eta)} x={x}")
    return CheckResult("qlist-structure", True, None,
                       f"{len(r.entries)} lists")


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
    streams = 0
    for (eta, x), gen in sorted(r.entries.items()):
        for entry in gen:
            if entry.value is None:
                return CheckResult("descent-witness", False, entry.eid,
                                   "missing budget value")
            hits = []
            for eid, s, hx, node, elem in r.counted_injuries(eta):
                if hx != x or s < entry.s_def or not is_xi(node):
                    continue
                if not is_prefix(eta + (INF,), node):
                    continue
                if r.entry_at(eta, x, s) is not entry:
                    continue
                en = r.enums.get(s)
                hits.append((eid, s, node,
                             en[3] if en and en[1] == node else None))
            streams += 1
            v = verify_r_approximation(
                _xi_descent_witness(r, eta, x, entry, hits),
                entry.value + nat(1))
            if v is not None:
                return CheckResult("descent-witness", False, v.stage, str(v))
    return CheckResult("descent-witness", True, None, f"{streams} streams")


def _mind_change_cap(r: _CombReplay) -> CheckResult:
    """Total hits per (eta, x) stay under the closed-form ceiling whenever
    the beta budget is finite."""
    capped = 0
    for eta in sorted(r.etas()):
        for x, (n, eid) in sorted(r.injury_totals(eta).items()):
            caps = []
            for entry in r.entries.get((eta, x), []):
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


def bound_table(trace: RunTrace,
                replay: "_CombReplay | None" = None) -> list:
    """One line per (eta, x) quota list: the ordinal xi budget and the
    closed-form rho ceiling."""
    r = replay if replay is not None else _CombReplay(trace)
    lines = []
    for (eta, x), gen in sorted(r.entries.items()):
        entry = gen[-1]
        if entry.value is None:
            continue
        lines.append(f"bound eta={render(eta)} x={x} "
                     f"beta={format_cnf(entry.value)} "
                     f"rho_bound={injury_bound(x)}")
    return lines
