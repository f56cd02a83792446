"""The eta/rho tree core under both tree constructions.

A level pattern fixes each node's kind by its length modulo the period:
eta nodes protect the computations of one functional, rho nodes
diagonalize a guessing opponent under the quota discipline, and, in the
period-3 tree, xi nodes act against a budgeted opponent.  On the pattern
sit the eta/rho engine, the trace replay its verifiers rebuild, and the
checks both tree constructions share.  The two-level construction is the
period-2 case; the combined one adds its xi levels through the hooks of
the engine and the replay.
"""

from __future__ import annotations

from functools import lru_cache

from .functional import Engine, EnumerableSet, FunctionalRun
from .trace import CheckResult, ConfigError, RunTrace, payload_error
from .tree import (FIN, INF, ROOT, StrategyTree, is_prefix, parse_node,
                   render_node)


def injury_bound(x: int) -> int:
    """Closed-form ceiling on the injuries of the computation at x."""
    return (x + 1) ** 2 * 4 ** ((x + 1) ** 2)


ETA, RHO, XI = 0, 1, 2  # level kinds, by node length modulo the period


class Levels:
    """Level kinds by length modulo the period: eta at 0, rho at 1, xi at
    2.  Xi levels have the single outcome INF; the others INF and FIN."""

    def __init__(self, period: int):
        self.period = period
        self.render = lru_cache(maxsize=None)(
            lambda node: render_node(node, self.alphabet))
        # bounded: replays also ask about nodes read from trace files
        self.holders = lru_cache(maxsize=1024)(self._holders)

    def kind(self, node: tuple) -> int:
        return len(node) % self.period

    def is_eta(self, node: tuple) -> bool:
        return len(node) % self.period == ETA

    def is_rho(self, node: tuple) -> bool:
        return len(node) % self.period == RHO

    def is_xi(self, node: tuple) -> bool:
        return len(node) % self.period == XI

    def alphabet(self, level: int):
        return (INF,) if level % self.period == 2 else (INF, FIN)

    def level_index(self, node: tuple) -> int:
        return len(node) // self.period

    def etas_above(self, node: tuple) -> list:
        """Eta prefixes whose infinitary outcome sits below node."""
        return [node[:i] for i in range(0, len(node), self.period)
                if node[i] == INF]

    def _holders(self, node: tuple) -> tuple:
        """Rho prefixes (plus node itself if a rho) whose live uses decide
        correctness as seen from node."""
        nodes = [node] if self.is_rho(node) else []
        for i in range(1, len(node), self.period):
            if node[i] == INF:
                nodes.append(node[:i])
        return tuple(nodes)

    def eta_correct(self, x: int, observer: tuple, uses: dict, use) -> bool:
        """True when no marker held on the way to observer undercuts the
        computation at x, whose use is given."""
        if use is None:
            raise ValueError(
                f"computation at {x} diverged; correctness undefined")
        for node in self.holders(observer):
            u = uses.get(node)
            if u is not None and u <= use:
                return False
        return True

    def in_quota(self, rho: tuple, x: int) -> bool:
        return self.is_rho(rho) and len(rho) < x and x >= 2

    def quota_for(self, rho: tuple, x: int) -> int:
        """Largest k with (rho, k) in quota(x); 0 when rho is not in it."""
        return x - 1 if self.in_quota(rho, x) else 0

    def rho_nodes_below(self, x: int) -> list:
        """Every rho node shorter than x: the nodes of quota(x)."""
        out, layer = [], [ROOT]
        for level in range(x - 1):
            layer = [t + (o,) for t in layer for o in self.alphabet(level)]
            out += [t for t in layer if self.is_rho(t)]
        return out

    def edge_layer(self, rho: tuple, x: int, universe=None) -> int:
        """Distance to the deepest quota node extending rho-infinity.

        The layer of rho is the largest node count of an interval from
        rho-infinity to a quota node above it, among the rho nodes of
        universe (default: all of them); 0 when none extends rho-infinity.
        """
        if not self.in_quota(rho, x):
            raise ValueError(f"node of length {len(rho)} not in quota({x})")
        if universe is None:
            universe = self.rho_nodes_below(x)
        best = 0
        probe = rho + (INF,)
        for cand in universe:
            if len(cand) < x and is_prefix(probe, cand):
                best = max(best, len(cand) - len(rho))
        return best


# -- the engine --------------------------------------------------------


class _RhoState:
    __slots__ = ("follower", "use", "acted", "wants")

    def __init__(self):
        self.follower = None
        self.use = None
        self.acted = 0  # enumerations since run start; survives initialization
        self.wants = None  # "pick" | "enum" | None, valid for current stage


class EtaRhoRun(Engine):
    """One deterministic run of an eta/rho tree.

    Subclasses set ``levels`` and ``construction``.  A period-3 tree
    overrides the xi hooks: visits, candidates and actions, quota-list
    upkeep at expansionary eta stages, and summary entries."""

    levels: Levels
    construction: str

    def __init__(self, psis: dict, funs: dict, stages: int, seed: int = 0,
                 fadvs: dict | None = None):
        fadvs = fadvs or {}
        p = self.levels.period
        self.depth = p * max(len(psis), len(fadvs), len(funs), 1)
        opponents = {RHO: (psis, "guessing"), XI: (fadvs, "budgeted")}
        for d in range(1, self.depth):
            advs, what = opponents.get(d % p, (None, None))
            if advs is not None and d // p not in advs:
                raise ConfigError(f"no {what} adversary for level {d // p}")
        self.psis = psis
        self.fadvs = fadvs
        self.stages = stages
        self.seed = seed
        self.render = self.levels.render
        self.tree = StrategyTree(alphabet_fn=self.levels.alphabet)
        self.A = EnumerableSet()
        self.trace = RunTrace(self.construction, stages)
        self._top = 0
        self.runs = {e: FunctionalRun(fn, self.A, large=self._fresh)
                     for e, fn in funs.items()}
        self.rho = {}  # node -> _RhoState
        self.eta_maxl = {}  # node -> best prior length at its stages
        self.cur_l = {}  # eta node -> length this stage
        self._uses_cache = {}
        self._uses_dirty = True

    def _rho_state(self, node) -> _RhoState:
        if node not in self.rho:
            self.rho[node] = _RhoState()
        return self.rho[node]

    # -- lengths and correctness --------------------------------------

    def _uses(self) -> dict:
        if self._uses_dirty:
            self._uses_cache = {node: st.use for node, st in self.rho.items()
                                if st.use is not None}
            self._uses_dirty = False
        return self._uses_cache

    def _length(self, eta, s) -> int:
        run = self.runs.get(self.levels.level_index(eta))
        uses = self._uses()
        correct = self.levels.eta_correct
        l = 0
        while l < s:
            r = run.query(l) if run else None
            if r is None or not correct(l, eta, uses, r.use):
                break
            l += 1
        return l

    # -- visits, outcomes and initialization --------------------------

    def _on_visit(self, node, s):
        kind = self.levels.kind(node)
        if kind == ETA:
            self.cur_l[node] = l = self._length(node, s)
            self.trace.emit(s, "visit", node=self.render(node), l=l)
            if node and node[-1] == FIN:  # the rho above played fin
                self._play_fin(node[:-1], s)
        elif kind == RHO:
            self.trace.emit(s, "visit", node=self.render(node))
        else:
            self._visit_xi(node, s)

    def _play_fin(self, rho, s):
        """Refresh the marker declaration while the opponent still guesses
        zero."""
        st = self.rho.get(rho)
        if st is None or st.follower is None or st.use is None:
            return
        psi = self.psis[self.levels.level_index(rho)]
        if psi.value(st.follower, s) == 0:
            self.trace.emit(s, "declare", node=self.render(rho),
                            what="gamma", y=st.follower, u=st.use, act="fin")

    def _outcome(self, node, s):
        kind = self.levels.kind(node)
        if kind == ETA:
            l = self.cur_l[node]
            expansionary = l > self.eta_maxl.get(node, 0)
            self.eta_maxl[node] = max(self.eta_maxl.get(node, 0), l)
            if expansionary:
                self._expansionary(node, s)
            return INF if expansionary else FIN
        if kind == XI:
            return INF
        st = self._rho_state(node)
        if st.follower is None:
            st.follower = self._fresh()
            self.trace.emit(s, "declare", node=self.render(node),
                            what="follower", y=st.follower)
        psi = self.psis[self.levels.level_index(node)].value(st.follower, s)
        if psi == 0 and st.use is None:
            st.wants = "pick"
        elif psi == 1 and st.use is not None:
            st.wants = "enum"
        else:
            st.wants = None
        return INF if st.wants else FIN

    def _on_init(self, node, s):
        self.trace.emit(s, "init", node=self.render(node))
        st = self.rho.get(node)
        if st is not None:
            st.follower = st.use = st.wants = None
            self._uses_dirty = True

    # -- rho permission and action ------------------------------------

    def _allows_pick(self, rho, s) -> bool:
        lv = self.levels
        st = self.rho[rho]
        for eta in lv.etas_above(rho):
            run = self.runs.get(lv.level_index(eta))
            for x in range(self.cur_l[eta]):
                if st.acted < lv.quota_for(rho, x):
                    continue  # quota not exhausted from x
                if not lv.eta_correct(x, rho, self._uses(),
                                      run.query(x).use):
                    return False
        return True

    def _allows_enum(self, rho, s) -> bool:
        lv = self.levels
        st = self.rho[rho]
        for eta in lv.etas_above(rho):
            run = self.runs.get(lv.level_index(eta))
            for x in range(self.cur_l[eta]):
                if lv.in_quota(rho, x):
                    continue
                if st.use <= run.query(x).use:
                    return False
        return True

    def _act_rho(self, rho, s):
        st = self.rho[rho]
        self._uses_dirty = True
        self.trace.emit(s, "select", node=self.render(rho))
        if st.wants == "pick":
            st.use = self._fresh()
            self.trace.emit(s, "declare", node=self.render(rho),
                            what="gamma", y=st.follower, u=st.use, act="pick")
        elif st.wants == "enum":
            if self._allows_enum(rho, s):
                elem = st.use
                self.trace.emit(s, "enumerate", node=self.render(rho),
                                element=elem)
                self.A.add(elem, s)
                st.use = None
                st.acted += 1
            else:
                self.tree.initialize_at_or_right(rho, s,
                                                 init_cb=self._on_init)

    # -- xi hooks: no xi levels in the eta/rho tree -------------------

    def _visit_xi(self, node, s):
        """Visit a xi node."""

    def _expansionary(self, eta, s):
        """Upkeep at an expansionary stage of eta."""

    def _xi_candidates(self, path) -> list:
        """Xi nodes on the path that want to act."""
        return []

    def _act_xi(self, node, s):
        """Act for the selected xi node."""

    def _xi_summary(self, summary: dict):
        """Add the xi nodes' terminal states to summary."""

    # -- stage loop ----------------------------------------------------

    def execute(self) -> RunTrace:
        period = self.levels.period
        for s in range(self.stages):
            self.cur_l = {}
            path = self.tree.run_stage(
                self._outcome, s, length=min(s, self.depth),
                init_cb=self._on_init, visit_cb=self._on_visit)
            theta = []
            for i in range(1, len(path), period):
                if path[i] != INF:
                    continue
                rho = path[:i]
                st = self.rho[rho]
                if st.wants == "enum":
                    theta.append(rho)
                elif st.wants == "pick" and self._allows_pick(rho, s):
                    theta.append(rho)
            actor = self.tree.select_actor(theta + self._xi_candidates(path))
            if actor is not None:
                act = self._act_rho if self.levels.is_rho(actor) \
                    else self._act_xi
                act(actor, s)
            self._advance_functionals(s)
        elems = sorted(e for _, e in self.A.events)
        summary = {"A": ",".join(str(x) for x in elems) or "-"}
        for node in sorted(self.rho):
            st = self.rho[node]
            if st.follower is not None:
                state = str(st.follower)
                if st.use is not None:
                    state += f":{st.use}"
                summary[f"node.{self.render(node)}"] = state
        self._xi_summary(summary)
        self.trace.finalize(summary)
        return self.trace


# -- trace replay ------------------------------------------------------


class EtaRhoReplay:
    """Verifier view of a tree trace, rebuilt from the event stream alone.

    Subclasses set ``levels`` and build through ``_read``.  A subclass
    that defines ``_extra(ev, stage, payload)`` sees every event but the
    visits after the shared handling.  An event without a payload key the
    replay reads, or with a value it cannot parse, raises ConfigError
    naming the event."""

    levels: Levels
    _extra = None
    _etas = None

    def _read(self, trace: RunTrace):
        self.stages = trace.stages
        self.paths = {}        # stage -> longest visited node
        self.l = {}            # (stage, eta) -> recorded length
        self.last_init = {}    # node -> last init stage
        self.picks = []        # (eid, stage, rho, y, u, acted_before, held)
        self.injuries = []     # (eid, stage, e, x, injurer, element)
        self.phi = {}          # (e, x) -> [(stage, use or None)] in order
        self.use_at_pick = {}  # (rho, u) -> (stage, acted_before)
        self.live_uses = uses = {}  # node -> live use
        holders = self.levels.holders
        extra = self._extra
        acted = {}
        pending = []           # enumerate events of the current stage
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
                    if len(node) >= len(self.paths.get(s, ROOT)):
                        self.paths[s] = node
                    if "l" in p:
                        self.l[(s, node)] = int(p["l"])
                    continue
                if ev.kind == "init":
                    node = parse_node(p["node"])
                    self.last_init[node] = s
                    uses.pop(node, None)
                elif ev.kind == "declare" and p["what"] == "gamma" \
                        and p["act"] == "pick":
                    node, y, u = (parse_node(p["node"]), int(p["y"]),
                                  int(p["u"]))
                    before = acted.get(node, 0)
                    held = [uses[n] for n in holders(node) if n in uses]
                    self.picks.append((ev.eid, s, node, y, u, before, held))
                    self.use_at_pick[(node, u)] = (s, before)
                    uses[node] = u
                elif ev.kind == "enumerate":
                    node, elem = parse_node(p["node"]), int(p["element"])
                    pending.append((ev.eid, node, elem))
                    acted[node] = acted.get(node, 0) + 1
                    uses.pop(node, None)
                elif ev.kind == "inject-diverge":
                    cur_diverges.append((ev.eid, s, int(p["e"]), int(p["x"]),
                                         int(p["use"])))
                    self.phi.setdefault((int(p["e"]), int(p["x"])),
                                        []).append((s, None))
                elif ev.kind == "inject-converge":
                    self.phi.setdefault((int(p["e"]), int(p["x"])),
                                        []).append((s, int(p["use"])))
                if extra is not None:
                    extra(ev, s, p)
        except (KeyError, ValueError) as ex:
            raise payload_error(ev, ex) from None
        self._close_stage(pending, cur_diverges)

    def _close_stage(self, pending, diverges):
        """Match this stage's lost computations with their destroying
        enumerations."""
        for eid, s, e, x, use in diverges:
            for en_eid, node, elem in pending:
                if elem < use:
                    self.injuries.append((eid, s, e, x, node, elem))
                    break

    def phi_use_at_start(self, e, x, s):
        """Use of the stored computation as queried during stage s, or None."""
        use = None
        for t, u in self.phi.get((e, x), []):
            if t >= s:
                break
            use = u
        return use

    def path(self, s):
        return self.paths.get(s, ROOT)

    def etas(self) -> dict:
        """Eta nodes that head at least one expansionary visit, with the
        stages of those visits.  Computed once; every check reads it."""
        if self._etas is None:
            self._etas = {}
            for s, node in self.paths.items():
                for i in range(0, len(node), self.levels.period):
                    if node[i] == INF:
                        self._etas.setdefault(node[:i], []).append(s)
        return self._etas

    def counted_injuries(self, eta):
        """Injuries of the protected functional at expansionary stages of
        eta, after its last initialization, gated by the recorded length."""
        e = self.levels.level_index(eta)
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

    def injury_totals(self, eta) -> dict:
        """x -> [counted injuries at x, event id of the first]."""
        totals = {}
        for eid, s, x, node, elem in self.counted_injuries(eta):
            totals.setdefault(x, [0, eid])[0] += 1
        return totals

    def listed(self, eta, x, s, node) -> bool:
        """Whether node sits in the quota list of (eta, x) at stage s."""
        return False


def worst_ratio(replay: EtaRhoReplay) -> float:
    """Largest counted injuries / injury_bound over every (eta, x)."""
    return max((n / injury_bound(x) for eta in replay.etas()
                for x, (n, _) in replay.injury_totals(eta).items()),
               default=0.0)


# -- checks shared by the tree constructions ---------------------------


def check_recursion(r: EtaRhoReplay, name: str, order) -> CheckResult:
    """Per-node injury counts obey the edge-layer inequality, with layers
    computed over the rho nodes realized in the trace; xi hits at x add
    to every rho node's allowance.  ``order`` (list or sorted) fixes the
    visiting order, and so which failure is the witness."""
    lv = r.levels
    realized = {p[:i] for p in r.paths.values()
                for i in range(1, len(p) + 1, lv.period)}
    for eta in order(r.etas()):
        counts = {}
        xi_hits = {}
        for eid, s, x, node, elem in r.counted_injuries(eta):
            if lv.is_rho(node):
                counts.setdefault(x, {}).setdefault(node, [0, eid])[0] += 1
            elif lv.is_xi(node):
                xi_hits[x] = xi_hits.get(x, 0) + 1
        for x, per_node in order(counts.items()):
            universe = [q for q in realized if lv.in_quota(q, x)]
            layers = {q: lv.edge_layer(q, x, universe) for q in universe}
            for rho, (n, eid) in order(per_node.items()):
                if rho not in layers:
                    continue
                allowed = lv.quota_for(rho, x) + xi_hits.get(x, 0) + sum(
                    per_node.get(q, (0, 0))[0] for q, lay in layers.items()
                    if lay < layers[rho])
                if n > allowed:
                    return CheckResult(
                        name, False, eid, f"{lv.render(rho)} injured x={x} "
                                          f"{n} times, layer bound {allowed}")
    return CheckResult(name, True)


def check_triggers(r: EtaRhoReplay, order) -> CheckResult:
    """Post-exhaustion rho injuries have a trigger: the first injury of
    the same computation between the pick and the hit comes from a node
    extending the injurer's infinitary outcome, or from a quota list
    member.  ``order`` is as for check_recursion."""
    lv = r.levels
    for eta in order(r.etas()):
        e = lv.level_index(eta)
        for eid, s2, x, rho, elem in r.counted_injuries(eta):
            if not lv.is_rho(rho) or not is_prefix(eta + (INF,), rho):
                continue
            pick = r.use_at_pick.get((rho, elem))
            if pick is None:
                continue
            s0, before = pick
            if before < lv.quota_for(rho, x) or x >= r.l.get((s0, eta), 0):
                continue
            between = [(ie, t, nd) for ie, t, je, jx, nd, _ in r.injuries
                       if je == e and jx == x and s0 < t < s2 and nd != rho]
            if not between:
                return CheckResult(
                    "trigger-structure", False, eid,
                    f"no trigger for the injury at stage {s2} by "
                    f"{lv.render(rho)} (use picked at {s0})")
            t_eid, t_s, t_node = min(between)
            if not is_prefix(rho + (INF,), t_node) \
                    and not r.listed(eta, x, t_s, t_node):
                return CheckResult(
                    "trigger-structure", False, t_eid,
                    f"trigger {lv.render(t_node)} neither extends "
                    f"{lv.render(rho)}-infinity nor sits in a quota list")
    return CheckResult("trigger-structure", True)
