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

from functools import lru_cache

from .approximation import ApproxTrace, verify_r_approximation
from .functional import EnumerableSet, FunctionalRun
from .low_alpha import phi
from .nonlow_low2 import CheckResult, injury_bound
from .ordinal import Cnf, format_cnf, nat, parse_cnf
from .trace import ConfigError, RunTrace, payload_error
from .tree import FIN, INF, StrategyTree, is_prefix, left_of, parse_node, \
    render_node

# -- level geometry ----------------------------------------------------


def _alphabet(level: int):
    return (INF,) if level % 3 == 2 else (INF, FIN)


@lru_cache(maxsize=None)
def render(node: tuple) -> str:
    return render_node(node, _alphabet)


def is_eta(node: tuple) -> bool:
    return len(node) % 3 == 0


def is_rho(node: tuple) -> bool:
    return len(node) % 3 == 1


def is_xi(node: tuple) -> bool:
    return len(node) % 3 == 2


def level_index(node: tuple) -> int:
    return len(node) // 3


def etas_above(node: tuple) -> list:
    """Eta prefixes whose infinitary outcome sits below node."""
    return [node[:i] for i in range(0, len(node), 3) if node[i] == INF]


def _holders(node: tuple) -> list:
    """Rho prefixes (plus node itself if a rho) whose live uses decide
    correctness as seen from node; xi nodes never count."""
    nodes = [node] if is_rho(node) else []
    for i in range(1, len(node), 3):
        if node[i] == INF:
            nodes.append(node[:i])
    return nodes


def eta_correct(x: int, observer: tuple, uses: dict, use) -> bool:
    if use is None:
        raise ValueError(f"computation at {x} diverged; correctness undefined")
    for node in _holders(observer):
        u = uses.get(node)
        if u is not None and u <= use:
            return False
    return True


# -- quota combinatorics over rho levels -------------------------------


def in_quota(rho: tuple, x: int) -> bool:
    return is_rho(rho) and len(rho) < x and x >= 2


def quota_for(rho: tuple, x: int) -> int:
    return x - 1 if in_quota(rho, x) else 0


def edge_layer(rho: tuple, x: int, universe) -> int:
    """Distance to the deepest quota node extending rho-infinity within the
    given rho universe; 0 when nothing extends it."""
    if not in_quota(rho, x):
        raise ValueError(f"node of length {len(rho)} not in quota({x})")
    best = 0
    probe = rho + (INF,)
    for cand in universe:
        if len(cand) < x and is_prefix(probe, cand):
            best = max(best, len(cand) - len(rho))
    return best


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


class _RhoState:
    __slots__ = ("follower", "use", "acted", "wants")

    def __init__(self):
        self.follower = None
        self.use = None
        self.acted = 0  # enumerations since run start; survives initialization
        self.wants = None  # "pick" | "enum" | None, valid for current stage


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


class NonlowAlphaRun:
    """One deterministic run of the combined construction."""

    def __init__(self, psis: dict, fadvs: dict, funs: dict, alpha: Cnf,
                 stages: int, seed: int = 0):
        if not alpha.is_additively_closed():
            raise ConfigError(f"bound {format_cnf(alpha)} is not a power of w")
        depth = 3 * max(len(psis), len(fadvs), len(funs), 1)
        for e in range(depth // 3 + 1):
            if 3 * e + 1 < depth and e not in psis:
                raise ConfigError(f"no guessing adversary for level {e}")
            if 3 * e + 2 < depth and e not in fadvs:
                raise ConfigError(f"no budgeted adversary for level {e}")
        for e, adv in fadvs.items():
            if not adv.g < alpha:
                raise ConfigError(
                    f"opponent budget {format_cnf(adv.g)} not below the bound")
        self.psis = psis
        self.fadvs = fadvs
        self.alpha = alpha
        self.depth = depth
        self.stages = stages
        self.seed = seed
        self.tree = StrategyTree(alphabet_fn=_alphabet)
        self.A = EnumerableSet()
        self.trace = RunTrace("nonlow-alpha", stages)
        self._top = 0
        self._next_z = 0
        self.runs = {e: FunctionalRun(fn, self.A, large=self._fresh)
                     for e, fn in funs.items()}
        self.rho = {}  # node -> _RhoState
        self.xi = {}  # node -> _XiState
        self.eta_maxl = {}  # node -> best prior length at its stages
        self.cur_l = {}  # eta node -> length this stage
        self.qlists = {}  # eta node -> {x: _QlistEntry}
        self._xi_wants = {}  # node -> [stages]
        self._xi_inits = {}  # node -> [stages], only with a live follower
        self._uses_cache = {}
        self._uses_dirty = True
        self.trace.emit(0, "phi-set", e="alpha", value=format_cnf(alpha))

    def _fresh(self) -> int:
        self._top += 1
        return self._top

    def _g(self, node: tuple) -> Cnf:
        return self.fadvs[level_index(node)].g

    # -- lengths and correctness --------------------------------------

    def _uses(self) -> dict:
        if self._uses_dirty:
            self._uses_cache = {node: st.use for node, st in self.rho.items()
                                if st.use is not None}
            self._uses_dirty = False
        return self._uses_cache

    def _length(self, eta, s) -> int:
        run = self.runs.get(level_index(eta))
        uses = self._uses()
        l = 0
        while l < s:
            r = run.query(l) if run else None
            if r is None or not eta_correct(l, eta, uses, r.use):
                break
            l += 1
        return l

    def _length_of(self, eta, s) -> int:
        if eta not in self.cur_l:
            self.cur_l[eta] = self._length(eta, s)
        return self.cur_l[eta]

    # -- visits and outcomes ------------------------------------------

    def _on_visit(self, node, s):
        if is_eta(node):
            self.cur_l[node] = l = self._length(node, s)
            self.trace.emit(s, "visit", node=render(node), l=l)
        elif is_rho(node):
            self.trace.emit(s, "visit", node=render(node))
        else:
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

    def _play_fin(self, rho, s):
        """Refresh the marker declaration while the opponent still guesses
        zero."""
        st = self.rho.get(rho)
        if st is None or st.follower is None or st.use is None:
            return
        if self.psis[level_index(rho)].value(st.follower, s) == 0:
            self.trace.emit(s, "declare", node=render(rho), what="gamma",
                            y=st.follower, u=st.use, act="fin")

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

    def _outcome(self, node, s):
        if is_eta(node):
            l = self.cur_l[node]
            expansionary = l > self.eta_maxl.get(node, 0)
            self.eta_maxl[node] = max(self.eta_maxl.get(node, 0), l)
            if expansionary:
                self._maintain_qlists(node, s)
            return INF if expansionary else FIN
        if is_xi(node):
            return INF
        st = self.rho.setdefault(node, _RhoState())
        if st.follower is None:
            st.follower = self._fresh()
            self.trace.emit(s, "declare", node=render(node), what="follower",
                            y=st.follower)
        psi = self.psis[level_index(node)].value(st.follower, s)
        if psi == 0 and st.use is None:
            st.wants = "pick"
        elif psi == 1 and st.use is not None:
            st.wants = "enum"
        else:
            st.wants = None
        return INF if st.wants else FIN

    def _on_init(self, node, s):
        self.trace.emit(s, "init", node=render(node))
        if is_rho(node):
            st = self.rho.get(node)
            if st is not None:
                st.follower = st.use = st.wants = None
                self._uses_dirty = True
        elif is_xi(node):
            st = self.xi.get(node)
            if st is not None and st.follower is not None:
                self._xi_inits.setdefault(node, []).append(s)
                st.follower = st.use = st.decl = None
                st.wants = False
        else:
            self.qlists.pop(node, None)

    # -- quota list maintenance ---------------------------------------

    def _maintain_qlists(self, eta, s):
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

    # -- rho permission and action ------------------------------------

    def _allows_pick(self, rho, s) -> bool:
        st = self.rho[rho]
        for eta in etas_above(rho):
            run = self.runs.get(level_index(eta))
            for x in range(self.cur_l[eta]):
                if st.acted < quota_for(rho, x):
                    continue  # quota not exhausted from x
                if not eta_correct(x, rho, self._uses(), run.query(x).use):
                    return False
        return True

    def _allows_enum(self, rho, s) -> bool:
        st = self.rho[rho]
        for eta in etas_above(rho):
            run = self.runs.get(level_index(eta))
            for x in range(self.cur_l[eta]):
                if in_quota(rho, x):
                    continue
                if st.use <= run.query(x).use:
                    return False
        return True

    def _act_rho(self, rho, s):
        st = self.rho[rho]
        self._uses_dirty = True
        self.trace.emit(s, "select", node=render(rho))
        if st.wants == "pick":
            st.use = self._fresh()
            self.trace.emit(s, "declare", node=render(rho), what="gamma",
                            y=st.follower, u=st.use, act="pick")
        elif st.wants == "enum":
            if self._allows_enum(rho, s):
                elem = st.use
                self.trace.emit(s, "enumerate", node=render(rho),
                                element=elem)
                self.A.add(elem, s)
                st.use = None
                st.acted += 1
            else:
                self.tree.initialize_at_or_right(rho, s,
                                                 init_cb=self._on_init)

    # -- xi permission and action -------------------------------------

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

    # -- stage loop ----------------------------------------------------

    def _advance_functionals(self, s):
        for e, run in self.runs.items():
            for x, before_use, a in run.advance(s):
                if before_use is not None:
                    self.trace.emit(s, "inject-diverge", e=e, x=x,
                                    use=before_use)
                if a is not None:
                    self.trace.emit(s, "inject-converge", e=e, x=x,
                                    use=a.use, value=a.value)
                    if a.use > self._top:
                        self._top = a.use

    def execute(self) -> RunTrace:
        for s in range(self.stages):
            self.cur_l = {}
            path = self.tree.run_stage(
                self._outcome, s, length=min(s, self.depth),
                init_cb=self._on_init, visit_cb=self._on_visit)
            theta = []
            for i in range(1, len(path) + 1):
                node = path[:i]
                if i % 3 == 1 and i < len(path) and path[i] == INF:
                    st = self.rho[node]
                    if st.wants == "enum":
                        theta.append(node)
                    elif st.wants == "pick" and self._allows_pick(node, s):
                        theta.append(node)
                elif i % 3 == 2:
                    st = self.xi.get(node)
                    if st is not None and st.wants:
                        theta.append(node)
            actor = self.tree.select_actor(theta)
            if actor is not None:
                if is_rho(actor):
                    self._act_rho(actor, s)
                else:
                    self._act_xi(actor, s)
            self._advance_functionals(s)
        elems = sorted(e for _, e in self.A.events)
        summary = {"A": ",".join(str(x) for x in elems) or "-"}
        for node in sorted(self.rho):
            st = self.rho[node]
            if st.follower is not None:
                state = str(st.follower)
                if st.use is not None:
                    state += f":{st.use}"
                summary[f"node.{render(node)}"] = state
        for node in sorted(self.xi):
            st = self.xi[node]
            if st.follower is not None:
                summary[f"node.{render(node)}"] = f"{st.follower}:{st.use}"
        self.trace.finalize(summary)
        return self.trace


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


ROOT_NODE = ()


class _CombReplay:
    """Verifier view of a combined trace, from the event stream alone.

    An event without a payload key the replay reads, or with a value it
    cannot parse, raises ConfigError naming the event."""

    def __init__(self, trace: RunTrace):
        self.stages = trace.stages
        self.alpha = None
        self.paths = {}  # stage -> longest visited node
        self.l = {}  # (stage, eta) -> recorded length
        self.last_init = {}  # node -> last init stage
        self.entries = {}  # (eta, x) -> [_Entry] in order
        self.bad_events = []  # structurally illegal qlist events
        self.xi_inits = {}  # node -> [stages], follower-bearing only
        self.picks = []  # (eid, stage, rho, y, u, acted_before, held)
        self.use_at_pick = {}  # (rho, u) -> (stage, acted_before)
        self.enums = {}  # stage -> (eid, node, element, marker or None)
        self.injuries = []  # (eid, stage, e, x, injurer, element)
        self.phi = {}  # (e, x) -> [(stage, use or None)] in order
        self.visits = []  # (eid, stage, payload)
        self.denials = []  # (eid, stage, node, by, x)
        has_follower = set()
        acted = {}
        uses = {}
        pending = []
        cur_diverges = []
        cur_stage = -1
        try:
            for ev in trace.events:
                s = ev.stage
                if s != cur_stage:
                    self._close_stage(pending, cur_diverges)
                    pending, cur_diverges, cur_stage = [], [], s
                p = ev.payload
                if ev.kind == "visit":
                    node = parse_node(p["node"])
                    cur = self.paths.get(s, ROOT_NODE)
                    if len(node) >= len(cur):
                        self.paths[s] = node
                    if "l" in p:
                        self.l[(s, node)] = int(p["l"])
                    self.visits.append((ev.eid, s, p))
                elif ev.kind == "init":
                    node = parse_node(p["node"])
                    self.last_init[node] = s
                    uses.pop(node, None)
                    if node in has_follower:
                        has_follower.discard(node)
                        if is_xi(node):
                            self.xi_inits.setdefault(node, []).append(s)
                elif ev.kind == "declare":
                    node = parse_node(p["node"])
                    if p["what"] == "follower":
                        has_follower.add(node)
                    elif p["what"] == "gamma" and p["act"] == "pick":
                        y, u = int(p["y"]), int(p["u"])
                        before = acted.get(node, 0)
                        held = [uses[n] for n in _holders(node)
                                if n in uses]
                        self.picks.append((ev.eid, s, node, y, u, before,
                                           held))
                        self.use_at_pick[(node, u)] = (s, before)
                        uses[node] = u
                elif ev.kind == "enumerate":
                    node, elem = parse_node(p["node"]), int(p["element"])
                    marker = (parse_cnf(p["marker"]) if "marker" in p
                              else None)
                    self.enums[s] = (ev.eid, node, elem, marker)
                    pending.append((ev.eid, node, elem))
                    acted[node] = acted.get(node, 0) + 1
                    uses.pop(node, None)
                elif ev.kind == "select" and p.get("act") == "denied":
                    self.denials.append((ev.eid, s, parse_node(p["node"]),
                                         parse_node(p["by"]), int(p["x"])))
                elif ev.kind == "qlist-set":
                    eta, x = parse_node(p["eta"]), int(p["x"])
                    members = ([] if p["members"] == "-" else
                               [parse_node(t)
                                for t in p["members"].split(",")])
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
                elif ev.kind == "inject-diverge":
                    cur_diverges.append((ev.eid, s, int(p["e"]),
                                         int(p["x"]), int(p["use"])))
                    self.phi.setdefault((int(p["e"]), int(p["x"])),
                                        []).append((s, None))
                elif ev.kind == "inject-converge":
                    self.phi.setdefault((int(p["e"]), int(p["x"])),
                                        []).append((s, int(p["use"])))
        except (KeyError, ValueError) as ex:
            raise payload_error(ev, ex) from None
        self._close_stage(pending, cur_diverges)

    def _close_stage(self, pending, diverges):
        for eid, s, e, x, use in diverges:
            for en_eid, node, elem in pending:
                if elem < use:
                    self.injuries.append((eid, s, e, x, node, elem))
                    break

    def path(self, s):
        return self.paths.get(s, ROOT_NODE)

    def etas(self):
        seen = {}
        for s, node in self.paths.items():
            for i in range(0, len(node), 3):
                if node[i] == INF:
                    seen.setdefault(node[:i], []).append(s)
        return seen

    def counted_injuries(self, eta):
        """Injuries of the protected functional at expansionary stages of
        eta, after its last initialization, gated by the recorded length."""
        e = level_index(eta)
        t0 = self.last_init.get(eta, -1)
        out = []
        for eid, s, ie, x, node, elem in self.injuries:
            if ie != e or s <= t0:
                continue
            if not is_prefix(eta + (INF,), self.path(s)):
                continue
            if x >= self.l.get((s, eta), 0):
                continue
            out.append((eid, s, x, node, elem))
        return out

    def entry_at(self, eta, x, s):
        """The quota list generation in force at stage s, if any."""
        live = None
        for entry in self.entries.get((eta, x), []):
            if entry.s_def <= s:
                live = entry
        return live


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
    checks = []
    etas = r.etas()

    # level-discipline: node spelling and visit payloads match level type
    bad = None
    for eid, s, p in r.visits:
        text = p["node"]
        node = parse_node(text)
        spelled = render(node)
        if text != spelled and text != "-":
            bad = (eid, f"node {text} spelled unlike {spelled}")
            break
        if is_eta(node) and "l" not in p:
            bad = (eid, f"eta visit {text} without length")
            break
        if is_rho(node) and ("l" in p or "x" in p):
            bad = (eid, f"rho visit {text} carries foreign fields")
            break
        if is_xi(node) and "l" in p:
            bad = (eid, f"xi visit {text} carries a length")
            break
    checks.append(CheckResult("level-discipline", bad is None,
                              bad and bad[0], bad[1] if bad else
                              f"{len(r.visits)} visits"))

    # xi-permission-scope: denials of xi come only from eta-infinity above
    bad = None
    for eid, s, node, by, x in r.denials:
        if not is_xi(node):
            continue
        if not is_eta(by) or not is_prefix(by + (INF,), node):
            bad = (eid, f"denier {render(by)} not an eta-infinity prefix "
                        f"of {render(node)}")
            break
    checks.append(CheckResult("xi-permission-scope", bad is None,
                              bad and bad[0], bad[1] if bad else
                              f"{len(r.denials)} denials"))

    # qlist-structure: legal sets and removes, budgets recomputed
    bad = None
    if r.bad_events:
        bad = (min(r.bad_events), "illegal quota list event")
    else:
        for (eta, x), gen in sorted(r.entries.items()):
            for entry in gen:
                expect = phi([entry.gs[m] for m in entry.members], entry.k)
                if entry.k != k_budget(entry.kps):
                    bad = (entry.eid, f"tolerance {entry.k} is not the "
                                      f"member max")
                    break
                if entry.value != expect or (
                        r.alpha is not None and not entry.value < r.alpha):
                    bad = (entry.eid, "budget mismatch at "
                                      f"{render(eta)} x={x}")
                    break
            if bad:
                break
    checks.append(CheckResult("qlist-structure", bad is None,
                              bad and bad[0], bad[1] if bad else
                              f"{len(r.entries)} lists"))

    # xi-injury-gate: xi hits below eta-infinity come from current members
    bad = None
    for eta in sorted(etas):
        for eid, s, x, node, elem in r.counted_injuries(eta):
            if not is_xi(node) or not is_prefix(eta + (INF,), node):
                continue
            entry = r.entry_at(eta, x, s)
            if entry is None or node not in entry.current(s):
                bad = (eid, f"{render(node)} hit {render(eta)} x={x} "
                            f"outside the list at stage {s}")
                break
        if bad:
            break
    checks.append(CheckResult("xi-injury-gate", bad is None,
                              bad and bad[0], bad[1] if bad else ""))

    # descent-witness: each list generation's xi hits descend through beta
    bad = None
    detail = ""
    streams = 0
    for (eta, x), gen in sorted(r.entries.items()):
        for entry in gen:
            if entry.value is None:
                bad = (entry.eid, "missing budget value")
                break
            hits = []
            for eid, s, hx, node, elem in r.counted_injuries(eta):
                if hx != x or s < entry.s_def or not is_xi(node):
                    continue
                if not is_prefix(eta + (INF,), node):
                    continue
                live = r.entry_at(eta, x, s)
                if live is not entry:
                    continue
                en = r.enums.get(s)
                hits.append((eid, s, node,
                             en[3] if en and en[1] == node else None))
            streams += 1
            v = verify_r_approximation(
                _xi_descent_witness(r, eta, x, entry, hits),
                entry.value + nat(1))
            if v is not None:
                bad = (v.stage, str(v))
                break
        if bad:
            break
    checks.append(CheckResult("descent-witness", bad is None,
                              bad and bad[0],
                              bad[1] if bad else f"{streams} streams"))

    # rho-recursion: per-node counts obey the layer inequality with the
    # realized xi-hit count standing in for beta
    bad = None
    realized = set()
    for p in r.paths.values():
        for i in range(1, len(p) + 1):
            if i % 3 == 1:
                realized.add(p[:i])
    for eta in sorted(etas):
        counts = {}
        xi_hits = {}
        for eid, s, x, node, elem in r.counted_injuries(eta):
            if is_rho(node):
                counts.setdefault(x, {}).setdefault(node, [0, eid])[0] += 1
            elif is_xi(node):
                xi_hits[x] = xi_hits.get(x, 0) + 1
        for x, per_node in sorted(counts.items()):
            universe = [q for q in realized if in_quota(q, x)]
            layers = {q: edge_layer(q, x, universe) for q in universe}
            for rho, (n, eid) in sorted(per_node.items()):
                if rho not in layers:
                    continue
                allowed = quota_for(rho, x) + xi_hits.get(x, 0) + sum(
                    per_node.get(q, (0, 0))[0] for q, lay in layers.items()
                    if lay < layers[rho])
                if n > allowed:
                    bad = (eid, f"{render(rho)} hit x={x} {n} times, "
                                f"layer bound {allowed}")
                    break
            if bad:
                break
        if bad:
            break
    checks.append(CheckResult("rho-recursion", bad is None,
                              bad and bad[0], bad[1] if bad else ""))

    # trigger-structure: post-quota rho hits are triggered from below or
    # by a listed xi
    bad = None
    for eta in sorted(etas):
        e = level_index(eta)
        for eid, s2, x, rho, elem in r.counted_injuries(eta):
            if not is_rho(rho) or not is_prefix(eta + (INF,), rho):
                continue
            pick = r.use_at_pick.get((rho, elem))
            if pick is None:
                continue
            s0, before = pick
            if before < quota_for(rho, x) or x >= r.l.get((s0, eta), 0):
                continue
            between = [(ie, t, nd) for ie, t, je, jx, nd, _ in r.injuries
                       if je == e and jx == x and s0 < t < s2 and nd != rho]
            if not between:
                bad = (eid, f"no trigger for hit at stage {s2} by "
                            f"{render(rho)}")
                break
            t_eid, t_s, t_node = min(between, key=lambda it: it[0])
            if is_prefix(rho + (INF,), t_node):
                continue
            entry = r.entry_at(eta, x, t_s)
            if is_xi(t_node) and entry is not None \
                    and t_node in entry.members:
                continue
            bad = (t_eid, f"trigger {render(t_node)} neither extends "
                          f"{render(rho)}-infinity nor sits in the list")
            break
        if bad:
            break
    checks.append(CheckResult("trigger-structure", bad is None,
                              bad and bad[0], bad[1] if bad else ""))

    # mind-change-cap: total hits per (eta, x) under the closed-form
    # ceiling whenever the beta budget is finite
    bad = None
    capped = 0
    for eta in sorted(etas):
        totals = {}
        for eid, s, x, node, elem in r.counted_injuries(eta):
            totals.setdefault(x, [0, eid])[0] += 1
        for x, (n, eid) in sorted(totals.items()):
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
                bad = (eid, f"x={x} hit {n} > {cap} times")
                break
        if bad:
            break
    checks.append(CheckResult("mind-change-cap", bad is None,
                              bad and bad[0],
                              bad[1] if bad else f"{capped} finite caps"))
    return checks


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
