"""Tree construction of a c.e. set that defeats limit-guessing opponents
while keeping every oracle computation's injury count below a fixed
computable bound.

Levels alternate: length-2e nodes (eta) protect the computations of
functional e; length-(2e+1) nodes (rho) diagonalize a guessing opponent by
declaring and destroying markers at a follower.  A quota system decides
which rho may hurt which eta(x), and the verifier re-derives every bound
claim from the emitted trace alone.
"""

from __future__ import annotations

from functools import lru_cache

from .functional import EnumerableSet, FunctionalRun
from .trace import ConfigError, RunTrace, payload_error
from .tree import FIN, INF, StrategyTree, is_prefix, parse_node

# -- quota combinatorics ----------------------------------------------


def p_nodes_below(x: int) -> list:
    """All odd-length outcome tuples shorter than x (the guessing levels)."""
    out = []
    length = 1
    while length < x:
        out.extend(_tuples(length))
        length += 2
    return out


def _tuples(n):
    if n == 0:
        return [()]
    return [t + (o,) for t in _tuples(n - 1) for o in (INF, FIN)]


def quota(x: int) -> set:
    """Pairs (rho, k): rho may perform its k-th enumeration against eta(x)."""
    return {(rho, k) for rho in p_nodes_below(x) for k in range(1, x)}


def in_quota(rho: tuple, x: int) -> bool:
    return len(rho) % 2 == 1 and len(rho) < x and x >= 2


def quota_for(rho: tuple, x: int) -> int:
    """Largest k with (rho, k) in quota(x); 0 when rho is not in it."""
    return x - 1 if in_quota(rho, x) else 0


def injury_bound(x: int) -> int:
    return (x + 1) ** 2 * 4 ** ((x + 1) ** 2)


def edge_layer(rho: tuple, x: int, universe=None) -> int:
    """Distance to the deepest quota node extending rho-infinity.

    The layer of rho is the largest node count of an interval from
    rho-infinity to a quota node above it; 0 when no quota node extends
    rho-infinity.
    """
    if not in_quota(rho, x):
        raise ValueError(f"node of length {len(rho)} not in quota({x})")
    if universe is None:
        universe = p_nodes_below(x)
    best = 0
    probe = rho + (INF,)
    for cand in universe:
        if len(cand) < x and is_prefix(probe, cand):
            best = max(best, len(cand) - len(rho))
    return best


def _relevant_holders(node):
    """Prefixes whose live uses decide correctness as seen from node."""
    nodes = [node] if len(node) % 2 == 1 else []
    for i in range(1, len(node), 2):
        if node[i] == INF:
            nodes.append(node[:i])
    return nodes


def eta_correct(x: int, observer: tuple, uses: dict, use) -> bool:
    """True when no marker held on the way to observer undercuts the
    computation at x, whose use is given."""
    if use is None:
        raise ValueError(f"computation at {x} diverged; correctness undefined")
    for node in _relevant_holders(observer):
        u = uses.get(node)
        if u is not None and u <= use:
            return False
    return True


# -- the construction --------------------------------------------------


@lru_cache(maxsize=None)
def render(node: tuple) -> str:
    return "".join("i" if o == INF else "f" for o in node) or "-"


class _RhoState:
    __slots__ = ("follower", "use", "acted", "wants")

    def __init__(self):
        self.follower = None
        self.use = None
        self.acted = 0  # enumerations since run start; survives initialization
        self.wants = None  # "pick" | "enum" | None, valid for current stage


class NonlowLow2Run:
    """One deterministic run of the construction."""

    def __init__(self, psis: dict, funs: dict, stages: int, seed: int = 0):
        self.psis = psis
        self.funs = funs
        self.stages = stages
        self.seed = seed
        depth = 2 * max(len(psis), len(funs), 1)
        for e in range((depth + 1) // 2):
            if 2 * e + 1 < depth and e not in psis:
                raise ConfigError(f"no guessing adversary for level {e}")
        self.depth = depth
        self.tree = StrategyTree()
        self.A = EnumerableSet()
        self.trace = RunTrace("nonlow-low2", stages)
        self._top = 0
        self.runs = {e: FunctionalRun(fn, self.A, large=self._fresh)
                     for e, fn in funs.items()}
        self.rho = {}  # node -> _RhoState
        self.eta_maxl = {}  # node -> best prior length at its stages
        self.cur_l = {}  # eta node -> length this stage
        self._uses_cache = {}
        self._uses_dirty = True

    def _fresh(self) -> int:
        self._top += 1
        return self._top

    def _rho_state(self, node) -> _RhoState:
        if node not in self.rho:
            self.rho[node] = _RhoState()
        return self.rho[node]

    # -- per-stage pieces ---------------------------------------------

    def _uses(self) -> dict:
        if self._uses_dirty:
            self._uses_cache = {node: st.use for node, st in self.rho.items()
                                if st.use is not None}
            self._uses_dirty = False
        return self._uses_cache

    def _length(self, eta, s) -> int:
        run = self.runs.get(len(eta) // 2)
        uses = self._uses()
        l = 0
        while l < s:
            r = run.query(l) if run else None
            if r is None or not eta_correct(l, eta, uses, r.use):
                break
            l += 1
        return l

    def _on_visit(self, node, s):
        level = len(node)
        if level % 2 == 0:
            self.cur_l[node] = l = self._length(node, s)
            self.trace.emit(s, "visit", node=render(node), l=l)
            if level and node[-1] == FIN:
                self._play_fin(node[:-1], s)
        else:
            self.trace.emit(s, "visit", node=render(node))

    def _play_fin(self, rho, s):
        """Refresh the marker declaration while the opponent still guesses 0."""
        st = self.rho.get(rho)
        if st is None or st.follower is None or st.use is None:
            return
        if self.psis[len(rho) // 2].value(st.follower, s) == 0:
            self.trace.emit(s, "declare", node=render(rho), what="gamma",
                            y=st.follower, u=st.use, act="fin")

    def _outcome(self, node, s):
        level = len(node)
        if level % 2 == 0:
            l = self.cur_l[node]
            expansionary = l > self.eta_maxl.get(node, 0)
            self.eta_maxl[node] = max(self.eta_maxl.get(node, 0), l)
            return INF if expansionary else FIN
        st = self._rho_state(node)
        if st.follower is None:
            st.follower = self._fresh()
            self.trace.emit(s, "declare", node=render(node), what="follower",
                            y=st.follower)
        psi = self.psis[level // 2].value(st.follower, s)
        if psi == 0 and st.use is None:
            st.wants = "pick"
        elif psi == 1 and st.use is not None:
            st.wants = "enum"
        else:
            st.wants = None
        return INF if st.wants else FIN

    def _on_init(self, node, s):
        self.trace.emit(s, "init", node=render(node))
        st = self.rho.get(node)
        if st is not None:
            st.follower = None
            st.use = None
            st.wants = None
            self._uses_dirty = True

    def _etas_above(self, rho):
        """Even-length prefixes eta with eta-infinity below rho."""
        return [rho[:i] for i in range(0, len(rho), 2) if rho[i] == INF]

    def _allows_pick(self, rho, s) -> bool:
        st = self.rho[rho]
        for eta in self._etas_above(rho):
            run = self.runs.get(len(eta) // 2)
            for x in range(self.cur_l[eta]):
                if st.acted < quota_for(rho, x):
                    continue  # quota not exhausted from x
                if not eta_correct(x, rho, self._uses(), run.query(x).use):
                    return False
        return True

    def _allows_enum(self, rho, s) -> bool:
        st = self.rho[rho]
        for eta in self._etas_above(rho):
            run = self.runs.get(len(eta) // 2)
            for x in range(self.cur_l[eta]):
                if in_quota(rho, x):
                    continue
                if st.use <= run.query(x).use:
                    return False
        return True

    def _act(self, rho, s):
        st = self.rho[rho]
        self._uses_dirty = True
        if st.wants == "pick":
            st.use = self._fresh()
            self.trace.emit(s, "declare", node=render(rho), what="gamma",
                            y=st.follower, u=st.use, act="pick")
        elif st.wants == "enum":
            if self._allows_enum(rho, s):
                elem = st.use
                self.trace.emit(s, "enumerate", node=render(rho), element=elem)
                self.A.add(elem, s)
                st.use = None
                st.acted += 1
            else:
                self.tree.initialize_at_or_right(rho, s, init_cb=self._on_init)

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
            for i in range(1, len(path), 2):
                if path[i] != INF:
                    continue
                rho = path[:i]
                st = self.rho[rho]
                if st.wants == "enum":
                    theta.append(rho)
                elif st.wants == "pick" and self._allows_pick(rho, s):
                    theta.append(rho)
            actor = self.tree.select_actor(theta)
            if actor is not None:
                self.trace.emit(s, "select", node=render(actor))
                self._act(actor, s)
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
        self.trace.finalize(summary)
        return self.trace


def run(psis: dict, funs: dict, stages: int, seed: int = 0) -> RunTrace:
    """Execute the construction for the given stage budget."""
    return NonlowLow2Run(psis, funs, stages, seed).execute()


# -- trace verification ------------------------------------------------


class CheckResult:
    def __init__(self, name: str, passed: bool, witness=None, detail: str = ""):
        self.name = name
        self.passed = passed
        self.witness = witness
        self.detail = detail

    def line(self) -> str:
        w = self.witness if self.witness is not None else "?"
        verdict = "pass" if self.passed else "fail"
        return f"check {self.name} {verdict} witness {w}"


class _Replay:
    """Everything the verifier needs, rebuilt from the event stream alone.

    An event without a payload key the replay reads, or with a value it
    cannot parse, raises ConfigError naming the event."""

    def __init__(self, trace: RunTrace):
        self.stages = trace.stages
        self.paths = {}        # stage -> longest visited node
        self.l = {}            # (stage, eta) -> recorded length
        self.last_init = {}    # node -> last init stage
        self.picks = []        # (eid, stage, rho, y, u, acted_before, held)
        self.enums = []        # (eid, stage, rho, element)
        self.injuries = []     # (eid, stage, e, x, injurer, element)
        self.phi = {}          # (e, x) -> [(stage, use or None)] in order
        self.use_at_pick = {}  # (rho, u) -> (stage, acted_before)
        acted = {}
        uses = {}              # live use per node during replay
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
                    cur = self.paths.get(s, ROOT_NODE)
                    if len(node) >= len(cur):
                        self.paths[s] = node
                    if "l" in p:
                        self.l[(s, node)] = int(p["l"])
                elif ev.kind == "init":
                    node = parse_node(p["node"])
                    self.last_init[node] = s
                    uses.pop(node, None)
                elif ev.kind == "declare" and p["what"] == "gamma" \
                        and p["act"] == "pick":
                    node, y, u = (parse_node(p["node"]), int(p["y"]),
                                  int(p["u"]))
                    before = acted.get(node, 0)
                    held = [uses[n] for n in _relevant_holders(node)
                            if n in uses]
                    self.picks.append((ev.eid, s, node, y, u, before, held))
                    self.use_at_pick[(node, u)] = (s, before)
                    uses[node] = u
                elif ev.kind == "enumerate":
                    node, elem = parse_node(p["node"]), int(p["element"])
                    self.enums.append((ev.eid, s, node, elem))
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
        except (KeyError, ValueError) as ex:
            raise payload_error(ev, ex) from None
        self._close_stage(pending, cur_diverges)
        self.acted_final = acted
        self.live_uses = uses

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
        return self.paths.get(s, ROOT_NODE)

    def etas(self):
        """Even nodes that head at least one expansionary visit, with their
        functional index."""
        seen = {}
        for s, node in self.paths.items():
            for i in range(0, len(node), 2):
                if node[i] == INF:
                    seen.setdefault(node[:i], []).append(s)
        return seen

    def counted_injuries(self, eta):
        """Injuries of the protected functional at expansionary stages of
        eta, after its last initialization, gated by the recorded length."""
        e = len(eta) // 2
        t0 = self.last_init.get(eta, -1)
        out = []
        for eid, s, ie, x, node, elem in self.injuries:
            if ie != e or s <= t0:
                continue
            p = self.path(s)
            if not is_prefix(eta + (INF,), p):
                continue
            if x >= self.l.get((s, eta), 0):
                continue
            out.append((eid, s, x, node, elem))
        return out


ROOT_NODE = ()

# Names of the checks verify_main_lemma_claims returns, in order.
CHECKS = ("quota-soundness", "exhaustion-gate", "trigger-structure",
          "recursion-bound", "global-bound", "diagonalization", "uniformity")


def verify_main_lemma_claims(trace: RunTrace, psis: dict | None = None,
                             settle_window: int = 10,
                             replay: "_Replay | None" = None) -> list:
    """Re-derive the construction's bound claims from a trace.

    Returns CheckResult entries for quota soundness, the exhaustion gate,
    trigger structure, the per-node recursion bound, the global injury
    bound, diagonalization, and bound uniformity.
    """
    r = replay if replay is not None else _Replay(trace)
    results = []
    etas = r.etas()

    # quota-soundness: gated injuries come only from quota nodes
    bad = None
    for eta in etas:
        for eid, s, x, node, elem in r.counted_injuries(eta):
            if not in_quota(node, x):
                bad = (eid, f"node {render(node)} injured x={x} at stage {s}")
                break
        if bad:
            break
    results.append(CheckResult("quota-soundness", bad is None,
                               bad and bad[0], bad[1] if bad else ""))

    # exhaustion-gate: post-quota picks happen only at correct moments
    bad = None
    for eid, s, rho, y, u, before, held in r.picks:
        for eta in _etas_with_inf_prefix(rho):
            e = len(eta) // 2
            for x in range(r.l.get((s, eta), 0)):
                if before < quota_for(rho, x):
                    continue
                use = r.phi_use_at_start(e, x, s)
                if use is None:
                    continue
                low = [h for h in held if h <= use]
                if low:
                    bad = (eid, f"pick at stage {s} by {render(rho)} while "
                                f"holding use {low[0]} <= {use} at x={x}")
                    break
            if bad:
                break
        if bad:
            break
    results.append(CheckResult("exhaustion-gate", bad is None,
                               bad and bad[0], bad[1] if bad else ""))

    # trigger-structure: post-exhaustion injuries have a trigger below
    bad = None
    for eta in etas:
        for eid, s2, x, rho, elem in r.counted_injuries(eta):
            if not is_prefix(eta + (INF,), rho):
                continue
            pick = r.use_at_pick.get((rho, elem))
            if pick is None:
                continue
            s0, before = pick
            if before < quota_for(rho, x) or x >= r.l.get((s0, eta), 0):
                continue
            e = len(eta) // 2
            between = [(ie, t, nd) for ie, t, je, jx, nd, _ in r.injuries
                       if je == e and jx == x and s0 < t < s2 and nd != rho]
            if not between:
                bad = (eid, f"no trigger for injury at stage {s2} by "
                            f"{render(rho)} (use picked at {s0})")
                break
            first = min(between, key=lambda it: it[0])
            if not is_prefix(rho + (INF,), first[2]):
                bad = (first[0], f"trigger {render(first[2])} does not "
                                 f"extend {render(rho)}-infinity")
                break
        if bad:
            break
    results.append(CheckResult("trigger-structure", bad is None,
                               bad and bad[0], bad[1] if bad else ""))

    # recursion-bound: per-node counts obey the edge-layer inequality,
    # with layers computed over the odd nodes realized in the trace
    bad = None
    realized = set()
    for p in r.paths.values():
        for i in range(1, len(p) + 1, 2):
            realized.add(p[:i])
    for eta in etas:
        counts = {}
        for eid, s, x, node, elem in r.counted_injuries(eta):
            counts.setdefault(x, {}).setdefault(node, [0, eid])[0] += 1
        for x, per_node in counts.items():
            universe = [q for q in realized if in_quota(q, x)]
            layers = {rho: edge_layer(rho, x, universe) for rho in universe}
            for rho, (n, eid) in per_node.items():
                if rho not in layers:
                    continue
                allowed = quota_for(rho, x) + sum(
                    per_node.get(q, (0, 0))[0] for q, lay in layers.items()
                    if lay < layers[rho])
                if n > allowed:
                    bad = (eid, f"{render(rho)} injured x={x} {n} times, "
                                f"layer bound {allowed}")
                    break
            if bad:
                break
        if bad:
            break
    results.append(CheckResult("recursion-bound", bad is None,
                               bad and bad[0], bad[1] if bad else ""))

    # global-bound: total injuries per argument under the computed ceiling
    bad = None
    worst = 0.0
    for eta in etas:
        totals = {}
        for eid, s, x, node, elem in r.counted_injuries(eta):
            totals.setdefault(x, [0, eid])[0] += 1
        for x, (n, eid) in totals.items():
            worst = max(worst, n / injury_bound(x))
            if n > injury_bound(x):
                bad = (eid, f"x={x} injured {n} > {injury_bound(x)} times")
                break
        if bad:
            break
    results.append(CheckResult(
        "global-bound", bad is None, bad and bad[0],
        bad[1] if bad else f"worst ratio {worst:.3g}"))

    # diagonalization: settled opponents end up on the losing side
    bad = None
    checked = 0
    if psis is not None and trace.stages > 0:
        end = trace.stages - 1
        followers = {}
        for ev in trace.events:
            p = ev.payload
            if ev.kind == "declare" and p.get("what") == "follower":
                followers[parse_node(p["node"])] = int(p["y"])
            elif ev.kind == "init":
                followers.pop(parse_node(p["node"]), None)
        for rho, y in sorted(followers.items()):
            psi = psis.get(len(rho) // 2)
            if psi is None:
                continue
            final = psi.value(y, end)
            settle = 0
            for s in range(end, -1, -1):
                if psi.value(y, s) != final:
                    settle = s + 1
                    break
            if end - settle < settle_window:
                continue
            if r.last_init.get(rho, -1) >= settle:
                continue
            visits = [s for s, p in r.paths.items()
                      if len(p) > len(rho) and p[:len(rho)] == rho]
            if not visits or max(visits) < settle:
                continue
            if r.path(max(visits))[len(rho)] != FIN:
                continue
            checked += 1
            # membership promise: a held use means the declaration is being
            # maintained at fin-visits; after enumeration it is gone for good
            chi = 1 if rho in r.live_uses else 0
            if chi == final:
                bad = (None, f"follower {y} of {render(rho)}: membership "
                             f"{chi} equals settled guess {final}")
                break
    results.append(CheckResult(
        "diagonalization", bad is None, bad and bad[0],
        bad[1] if bad else f"{checked} settled followers checked"))

    # uniformity: one ceiling per argument, regardless of protected node
    xs = sorted({x for eta in etas
                 for _, _, x, _, _ in r.counted_injuries(eta)})
    vals = {x: {injury_bound(x) for _ in etas} or {injury_bound(x)}
            for x in xs}
    uniform = all(len(v) == 1 for v in vals.values())
    results.append(CheckResult("uniformity", uniform, None,
                               f"{len(xs)} arguments"))
    return results


def _etas_with_inf_prefix(rho):
    return [rho[:i] for i in range(0, len(rho), 2) if rho[i] == INF]

