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

import math
from bisect import bisect_right
from functools import lru_cache

from .functional import Engine
from .trace import (CheckResult, ConfigError, RunTrace, Summary, blocks,
                    payload_error)
from .tree import FIN, INF, ROOT, StrategyTree, is_prefix


def injury_bound(x: int) -> int:
    """Closed-form ceiling on the injuries of the computation at x."""
    return (x + 1) ** 2 * 4 ** ((x + 1) ** 2)


ETA, RHO, XI = 0, 1, 2  # level kinds, by node length modulo the period


class Levels:
    """Level kinds by length modulo the period: eta at 0, rho at 1, xi at
    2.  Xi levels have the single outcome INF; the others INF and FIN.
    A node's name is '-' for the root, else one letter per level: q at a
    xi level, otherwise i for INF and f for FIN."""

    def __init__(self, period: int):
        self.period = period
        self.render = lru_cache(maxsize=None)(self._render)
        # bounded: replays also ask about nodes read from trace files
        self.holders = lru_cache(maxsize=1024)(self._holders)
        self.parse = lru_cache(maxsize=1024)(self._parse)

    def _render(self, node: tuple) -> str:
        return "".join("q" if level % self.period == XI else "if"[o]
                       for level, o in enumerate(node)) or "-"

    def _parse(self, text: str) -> tuple:
        """The node that text names; ValueError unless text is that node's
        name under this pattern."""
        node = ROOT if text == "-" else tuple(FIN if c == "f" else INF
                                              for c in text)
        if self._render(node) != text:
            raise ValueError(f"{text!r} is not a node name")
        return node

    def is_eta(self, node: tuple) -> bool:
        return len(node) % self.period == ETA

    def is_rho(self, node: tuple) -> bool:
        return len(node) % self.period == RHO

    def is_xi(self, node: tuple) -> bool:
        return len(node) % self.period == XI

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

    def in_quota(self, rho: tuple, x: int) -> bool:
        return self.is_rho(rho) and len(rho) < x and x >= 2

    def quota_for(self, rho: tuple, x: int) -> int:
        """Largest k with (rho, k) in quota(x); 0 when rho is not in it."""
        return x - 1 if self.in_quota(rho, x) else 0

    def edge_layer(self, rho: tuple, x: int, universe) -> int:
        """Distance to the deepest quota node extending rho-infinity.

        The layer of rho is the largest node count of an interval from
        rho-infinity to a quota node above it, among the rho nodes of
        universe; 0 when none extends rho-infinity.
        """
        if not self.in_quota(rho, x):
            raise ValueError(f"node of length {len(rho)} not in quota({x})")
        best = 0
        probe = rho + (INF,)
        for cand in universe:
            if len(cand) < x and is_prefix(probe, cand):
                best = max(best, len(cand) - len(rho))
        return best


# -- the engine --------------------------------------------------------


class EtaRhoRun(Engine):
    """One deterministic run of an eta/rho tree.

    Subclasses set ``levels`` and ``construction``.  A period-3 tree
    overrides the xi hooks (visits, candidates and actions, quota-list
    upkeep at expansionary eta stages) and adds the xi nodes' summary
    entries."""

    levels: Levels

    def __init__(self, psis: dict, funs: dict, stages: int,
                 fadvs: dict | None = None):
        fadvs = fadvs or {}
        p = self.levels.period
        self.depth = p * max(len(psis), len(fadvs), len(funs), 1)
        opponents = {RHO: (psis, "guessing"), XI: (fadvs, "budgeted")}
        for d in range(1, self.depth):
            advs, what = opponents.get(d % p, (None, None))
            if advs is not None and d // p not in advs:
                raise ConfigError(f"no {what} adversary for level {d // p}")
        super().__init__(stages, funs)
        self.psis = psis
        self.fadvs = fadvs
        self.render = self.levels.render
        self.tree = StrategyTree()
        # rho state by node, shaped as in the replay; inits keep only acted
        self.followers = {}  # node -> live follower
        self.uses = {}  # node -> live use
        self.acted = {}  # node -> enumerations since run start
        self.eta_maxl = {}  # node -> best prior length at its stages
        self.cur_l = {}  # eta node -> length this stage

    # -- lengths and correctness --------------------------------------

    def _least_held(self, observer):
        """Least live use held on the way to observer; math.inf when none.
        A computation is correct as seen from observer iff its use is
        below it."""
        uses = self.uses
        return min((uses[n] for n in self.levels.holders(observer)
                    if n in uses), default=math.inf)

    def _length(self, eta, s) -> int:
        run = self.runs.get(len(eta) // self.levels.period)
        if run is None:
            return 0
        least = self._least_held(eta)
        l = 0
        while l < s:
            r = run.query(l)
            if r is None or least <= r.use:
                break
            l += 1
        return l

    # -- visits, outcomes and initialization --------------------------

    def _on_visit(self, node, s):
        kind = len(node) % self.levels.period
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
        """Refresh the marker declaration of a held use: a rho at FIN that
        holds one has an opponent still guessing zero."""
        use = self.uses.get(rho)
        if use is not None:
            self.trace.emit(s, "declare", node=self.render(rho),
                            what="gamma", y=self.followers[rho], u=use,
                            act="fin")

    def _outcome(self, node, s):
        kind = len(node) % self.levels.period
        if kind == ETA:
            l = self.cur_l[node]
            if l <= self.eta_maxl.get(node, 0):
                return FIN
            self.eta_maxl[node] = l
            self._expansionary(node, s)
            return INF
        if kind == XI:
            return INF
        y = self.followers.get(node)
        if y is None:
            y = self.followers[node] = self._fresh()
            self.trace.emit(s, "declare", node=self.render(node),
                            what="follower", y=y)
        # a guess (0 or 1) equal to holding a use wants a pick or an enum
        psi = self._ask(self.psis[len(node) // self.levels.period], y, s)
        return INF if psi == (node in self.uses) else FIN

    def _on_init(self, node, s):
        self.trace.emit(s, "init", node=self.render(node))
        self.followers.pop(node, None)
        self.uses.pop(node, None)

    # -- rho permission and action ------------------------------------

    def _protected(self, node):
        """(eta, x, use) per computation the etas above node protect this
        stage: each x below an eta's length converges, by _length."""
        for eta in self.levels.etas_above(node):
            run = self.runs.get(len(eta) // self.levels.period)
            for x in range(self.cur_l[eta]):
                yield eta, x, run.query(x).use

    def _allows_pick(self, rho) -> bool:
        """The least held use is below each x whose quota rho has spent."""
        acted = self.acted.get(rho, 0)
        least = self._least_held(rho)
        return all(least > use for _, x, use in self._protected(rho)
                   if acted >= self.levels.quota_for(rho, x))

    def _allows_enum(self, rho) -> bool:
        """Each computation outside rho's quota lies below rho's use."""
        return all(self.uses[rho] > use for _, x, use in self._protected(rho)
                   if not self.levels.in_quota(rho, x))

    def _act_rho(self, rho, s):
        """Pick a use when rho holds none; enumerate it otherwise."""
        self.trace.emit(s, "select", node=self.render(rho))
        if rho not in self.uses:
            self.uses[rho] = use = self._fresh()
            self.trace.emit(s, "declare", node=self.render(rho),
                            what="gamma", y=self.followers[rho], u=use,
                            act="pick")
        elif self._allows_enum(rho):
            elem = self.uses.pop(rho)
            self.trace.emit(s, "enumerate", node=self.render(rho),
                            element=elem)
            self.A.add(elem, s)
            self.acted[rho] = self.acted.get(rho, 0) + 1
        else:
            self.tree.initialize_at_or_right(rho, s, self._on_init)

    # -- xi hooks: no xi levels in the eta/rho tree -------------------

    def _visit_xi(self, node, s):
        """Visit a xi node."""

    def _expansionary(self, eta, s):
        """Upkeep at an expansionary stage of eta."""

    def _xi_candidates(self, path, s) -> list:
        """Xi nodes on the path that want to act at stage s."""
        return []

    def _act_xi(self, node, s):
        """Act for the selected xi node."""

    # -- stage loop ----------------------------------------------------

    def _walk(self, s) -> bool:
        period = self.levels.period
        self.cur_l = {}
        length = min(s, self.depth)
        path = self.tree.run_stage(self._outcome, s, length, self._on_init,
                                   self._on_visit)
        rhos = (path[:i] for i in range(1, len(path), period)
                if path[i] == INF)
        theta = [rho for rho in rhos
                 if rho in self.uses or self._allows_pick(rho)]
        actor = self.tree.select_actor(theta + self._xi_candidates(path, s))
        if actor is not None:
            act = self._act_rho if self.levels.is_rho(actor) \
                else self._act_xi
            act(actor, s)
        # in full: at full depth, every eta at fin (none expansionary) and
        # no length at its cap
        return length == self.depth and INF not in path[::period] \
            and s not in self.cur_l.values()

    def _summary(self, summary: dict):
        for node in sorted(self.followers):
            state = str(self.followers[node])
            if node in self.uses:
                state += f":{self.uses[node]}"
            summary[f"node.{self.render(node)}"] = state


# -- trace replay ------------------------------------------------------


class EtaRhoReplay:
    """Verifier view of a tree trace, rebuilt from the event stream alone.

    Subclasses set ``levels`` and build through ``_read``.  A subclass
    that defines ``_extra(eid, stage, payload)`` sees every event but the
    visits before the shared handling.  Node names are parsed through
    ``levels.parse``.  An event without a payload key the replay reads,
    the length ``l`` of an eta visit included, with a value it cannot
    parse, a misspelt node name included, or of a kind in ``refused``,
    which the construction never writes, raises ConfigError naming the
    event.  The replay is the one pass over the events: the checks and
    the terminal summary read only what it derives.  A stage that a
    recorded run copies is read once with its copies (see
    ``trace.blocks``), and its path and lengths hold for the whole run."""

    levels: Levels
    _extra = None
    refused = frozenset()

    def _read(self, trace: RunTrace):
        self.stages = trace.stages
        # [first, stop, path, lengths] per stage or quiet run, in order:
        # the longest node visited (None for none), node -> recorded
        # length; the first stands for a stage without events
        self.stage_facts = intervals = [[-1, 0, None, {}]]
        self.last_init = {}    # node -> last init stage
        self.picks = []        # (eid, stage, rho, y, u, acted_before, held)
        self.injuries = []     # (eid, stage, e, x, injurer, element)
        self.phi = {}          # (e, x) -> [(stage, use or None)] in order
        self.use_at_pick = {}  # (rho, u) -> (stage, acted_before)
        self.live_uses = uses = {}  # node -> live use
        self.followers = followers = {}  # node -> live follower
        self.summary = summary = Summary()
        holders, parse = self.levels.holders, self.levels.parse
        period = self.levels.period
        extra, refused = self._extra, self.refused
        acted = {}
        visits = 0
        # (eid, node) of the first rho or xi visit that carries a field of
        # another level kind
        foreign = None
        pending, diverges = [], []  # this stage's enumerates, lost uses
        try:
            for s, start, block, copies in blocks(trace):
                self._close_stage(pending, diverges)  # the stage before
                pending, diverges = [], []
                path, lengths, seen = None, {}, visits
                for eid, p in enumerate(block, start):
                    kind = p.kind
                    if kind == "visit":
                        node = parse(p["node"])
                        n = len(node)
                        if path is None or n >= len(path):
                            path = node
                        if "l" in p:
                            lengths[node] = int(p["l"])
                            if n % period != ETA and foreign is None:
                                foreign = (eid, node)
                        elif n % period == ETA:  # an eta visit has a length
                            raise KeyError("l")
                        elif "x" in p and n % period == RHO \
                                and foreign is None:
                            foreign = (eid, node)
                        visits += 1
                        continue
                    if kind in refused:
                        raise ValueError(f"not a {trace.construction} event")
                    summary.read(kind, p)
                    if extra is not None:
                        extra(eid, s, p)
                    if kind == "init":
                        node = parse(p["node"])
                        self.last_init[node] = s
                        uses.pop(node, None)
                        followers.pop(node, None)
                    elif kind == "declare" and p["what"] == "follower":
                        followers[parse(p["node"])] = int(p["y"])
                    elif kind == "declare" and p["what"] == "gamma" \
                            and p["act"] == "pick":
                        node, y, u = (parse(p["node"]), int(p["y"]),
                                      int(p["u"]))
                        before = acted.get(node, 0)
                        held = [uses[n] for n in holders(node) if n in uses]
                        self.picks.append((eid, s, node, y, u, before, held))
                        self.use_at_pick[(node, u)] = (s, before)
                        uses[node] = u
                    elif kind == "enumerate":
                        node, elem = parse(p["node"]), int(p["element"])
                        pending.append((eid, node, elem))
                        acted[node] = acted.get(node, 0) + 1
                        uses.pop(node, None)
                    elif kind == "inject-diverge":
                        diverges.append((eid, s, int(p["e"]), int(p["x"]),
                                         int(p["use"])))
                        self.phi.setdefault((int(p["e"]), int(p["x"])),
                                            []).append((s, None))
                    elif kind == "inject-converge":
                        self.phi.setdefault((int(p["e"]), int(p["x"])),
                                            []).append((s, int(p["use"])))
                # a run's copies repeat this stage's facts
                intervals.append([s, s + copies + 1, path, lengths])
                visits += (visits - seen) * copies
            self._close_stage(pending, diverges)
        except (KeyError, ValueError) as ex:
            raise payload_error(eid, kind, ex) from None
        self.visits, self.foreign = visits, foreign
        self.distinct_paths = list(dict.fromkeys(  # in first-seen order
            f[2] for f in intervals if f[2] is not None))
        self._etas = list(dict.fromkeys(
            node[:i] for node in self.distinct_paths
            for i in range(0, len(node), period) if node[i] == INF))
        # An injury of functional e at stage s can count only for the eta
        # path(s)[:period*e], when the path takes its infinitary outcome
        # there, the eta was not initialized since, and x is below its
        # length; each eta's list keeps trace order.
        self.counted = {}  # eta -> [(eid, stage, x, injurer, element)]
        self.totals = {}  # eta -> {x: [counted injuries, first eid]}
        for eid, s, e, x, node, elem in self.injuries:
            path, cut = self.path(s), period * e
            if not 0 <= cut < len(path) or path[cut] != INF:
                continue
            eta = path[:cut]
            if s <= self.last_init.get(eta, -1) or x >= self.length(s, eta):
                continue
            self.counted.setdefault(eta, []).append((eid, s, x, node, elem))
            self.totals.setdefault(eta, {}).setdefault(x, [0, eid])[0] += 1

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

    def _facts_at(self, s) -> list:
        """The interval of stage_facts that holds stage s."""
        at = bisect_right(self.stage_facts, [s, math.inf]) - 1  # first <= s
        facts = self.stage_facts[at]
        return facts if facts[0] <= s < facts[1] else self.stage_facts[0]

    def path(self, s):
        """The longest node visited at stage s; the root when none is."""
        return self._facts_at(s)[2] or ROOT

    def length(self, s, node) -> int:
        """The length recorded at node's visit in stage s; 0 without one."""
        return self._facts_at(s)[3].get(node, 0)

    def etas(self) -> list:
        """Eta nodes that head at least one expansionary visit: each eta
        on a stage's path at its infinitary outcome, in the order the
        paths first show them."""
        return self._etas

    def counted_injuries(self, eta) -> list:
        """Injuries of the protected functional that count against eta."""
        return self.counted.get(eta, [])

    def injury_totals(self, eta) -> dict:
        """x -> [counted injuries at x, event id of the first]."""
        return self.totals.get(eta, {})

    def listed(self, eta, x, s, node) -> bool:
        """Whether node sits in the quota list of (eta, x) at stage s."""
        return False


def worst_ratio(replay: EtaRhoReplay) -> float:
    """Largest counted injuries / injury_bound over every (eta, x)."""
    return max((n / injury_bound(x) for eta in replay.etas()
                for x, (n, _) in replay.injury_totals(eta).items()),
               default=0.0)


# -- checks shared by the tree constructions ---------------------------


def check_recursion(r: EtaRhoReplay, name: str) -> CheckResult:
    """Per-node injury counts obey the edge-layer inequality, with layers
    computed over the rho nodes realized in the trace; xi hits at x add
    to every rho node's allowance.  A rho injuring x from outside
    quota(x) fails at its first such injury.  Etas, arguments and nodes
    are visited in trace order, which fixes the witness."""
    lv = r.levels
    realized = {p[:i] for p in r.distinct_paths
                for i in range(1, len(p) + 1, lv.period)}
    for eta in r.etas():
        counts = {}
        xi_hits = {}
        for eid, s, x, node, elem in r.counted_injuries(eta):
            if lv.is_rho(node):
                counts.setdefault(x, {}).setdefault(node, [0, eid])[0] += 1
            elif lv.is_xi(node):
                xi_hits[x] = xi_hits.get(x, 0) + 1
        for x, per_node in counts.items():
            universe = [q for q in realized if lv.in_quota(q, x)]
            layers = {q: lv.edge_layer(q, x, universe) for q in universe}
            for rho, (n, eid) in per_node.items():
                if rho not in layers:
                    return CheckResult(
                        name, False, eid, f"{lv.render(rho)} injured x={x} "
                                          f"outside quota({x})")
                allowed = lv.quota_for(rho, x) + xi_hits.get(x, 0) + sum(
                    per_node.get(q, (0, 0))[0] for q, lay in layers.items()
                    if lay < layers[rho])
                if n > allowed:
                    return CheckResult(
                        name, False, eid, f"{lv.render(rho)} injured x={x} "
                                          f"{n} times, layer bound {allowed}")
    return CheckResult(name, True)


def check_triggers(r: EtaRhoReplay) -> CheckResult:
    """Post-exhaustion rho injuries have a trigger: the first injury of
    the same computation between the pick and the hit comes from a node
    extending the injurer's infinitary outcome, or from a quota list
    member.  Etas are visited in trace order."""
    lv = r.levels
    for eta in r.etas():
        e = lv.level_index(eta)
        for eid, s2, x, rho, elem in r.counted_injuries(eta):
            if not lv.is_rho(rho) or not is_prefix(eta + (INF,), rho):
                continue
            pick = r.use_at_pick.get((rho, elem))
            if pick is None:
                continue
            s0, before = pick
            if before < lv.quota_for(rho, x) or x >= r.length(s0, eta):
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
