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

from .etarho import (EtaRhoReplay, EtaRhoRun, Levels, check_recursion,
                     check_triggers, injury_bound)
from .trace import CheckResult, RunTrace
from .tree import FIN, parse_node

LEVELS = Levels(2)
render, in_quota, quota_for = LEVELS.render, LEVELS.in_quota, LEVELS.quota_for
edge_layer, eta_correct = LEVELS.edge_layer, LEVELS.eta_correct


def quota(x: int) -> set:
    """Pairs (rho, k): rho may perform its k-th enumeration against eta(x)."""
    return {(rho, k) for rho in LEVELS.rho_nodes_below(x) for k in range(1, x)}


class NonlowLow2Run(EtaRhoRun):
    """One deterministic run of the two-level construction."""

    levels = LEVELS
    construction = "nonlow-low2"


def run(psis: dict, funs: dict, stages: int, seed: int = 0) -> RunTrace:
    """Execute the construction for the given stage budget."""
    return NonlowLow2Run(psis, funs, stages, seed).execute()


# -- trace verification ------------------------------------------------


class _Replay(EtaRhoReplay):
    """Verifier view of a two-level trace, from the event stream alone."""

    levels = LEVELS

    def __init__(self, trace: RunTrace):
        # Each replay class has its own __init__, so that per-layer timing
        # (bench/layers.py) can wrap each construction's build alone.
        self._read(trace)


# Names of the checks verify_main_lemma_claims returns, in order.
CHECKS = ("quota-soundness", "exhaustion-gate", "trigger-structure",
          "recursion-bound", "global-bound", "diagonalization", "uniformity")


def verify_main_lemma_claims(trace: RunTrace, psis: dict | None = None,
                             settle_window: int = 10,
                             replay: "_Replay | None" = None) -> list:
    """Re-derive the construction's bound claims from a trace.

    Returns CheckResult entries for quota soundness, the exhaustion gate,
    trigger structure, the per-node recursion bound, the global injury
    bound, diagonalization, and bound uniformity.  A caller that already
    replayed the trace passes that replay in.
    """
    r = replay if replay is not None else _Replay(trace)
    return [_quota_soundness(r), _exhaustion_gate(r),
            check_triggers(r, list),
            check_recursion(r, "recursion-bound", list),
            _global_bound(r), _diagonalization(trace, r, psis, settle_window),
            _uniformity(r)]


def _quota_soundness(r: _Replay) -> CheckResult:
    """Gated injuries come only from quota nodes."""
    for eta in r.etas():
        for eid, s, x, node, elem in r.counted_injuries(eta):
            if not in_quota(node, x):
                return CheckResult("quota-soundness", False, eid,
                                   f"node {render(node)} injured x={x} at "
                                   f"stage {s}")
    return CheckResult("quota-soundness", True)


def _exhaustion_gate(r: _Replay) -> CheckResult:
    """Post-quota picks happen only at correct moments."""
    for eid, s, rho, y, u, before, held in r.picks:
        for eta in LEVELS.etas_above(rho):
            e = LEVELS.level_index(eta)
            for x in range(r.l.get((s, eta), 0)):
                if before < quota_for(rho, x):
                    continue
                use = r.phi_use_at_start(e, x, s)
                if use is None:
                    continue
                low = [h for h in held if h <= use]
                if low:
                    return CheckResult(
                        "exhaustion-gate", False, eid,
                        f"pick at stage {s} by {render(rho)} while holding "
                        f"use {low[0]} <= {use} at x={x}")
    return CheckResult("exhaustion-gate", True)


def _global_bound(r: _Replay) -> CheckResult:
    """Total injuries per argument stay under the computed ceiling."""
    worst = 0.0
    for eta in r.etas():
        for x, (n, eid) in r.injury_totals(eta).items():
            worst = max(worst, n / injury_bound(x))
            if n > injury_bound(x):
                return CheckResult("global-bound", False, eid,
                                   f"x={x} injured {n} > {injury_bound(x)} "
                                   f"times")
    return CheckResult("global-bound", True, None, f"worst ratio {worst:.3g}")


def _diagonalization(trace, r: _Replay, psis, settle_window) -> CheckResult:
    """Settled opponents end up on the losing side."""
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
                return CheckResult("diagonalization", False, None,
                                   f"follower {y} of {render(rho)}: "
                                   f"membership {chi} equals settled guess "
                                   f"{final}")
    return CheckResult("diagonalization", True, None,
                       f"{checked} settled followers checked")


def _uniformity(r: _Replay) -> CheckResult:
    """One ceiling per argument, regardless of protected node."""
    etas = r.etas()
    xs = sorted({x for eta in etas
                 for _, _, x, _, _ in r.counted_injuries(eta)})
    vals = {x: {injury_bound(x) for _ in etas} or {injury_bound(x)}
            for x in xs}
    uniform = all(len(v) == 1 for v in vals.values())
    return CheckResult("uniformity", uniform, None, f"{len(xs)} arguments")
