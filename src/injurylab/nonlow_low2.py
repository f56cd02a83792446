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
                     check_triggers, injury_bound, worst_ratio)
from .trace import CheckResult, RunTrace
from .tree import FIN

LEVELS = Levels(2)
render, in_quota, quota_for = LEVELS.render, LEVELS.in_quota, LEVELS.quota_for


class NonlowLow2Run(EtaRhoRun):
    """One deterministic run of the two-level construction."""

    levels = LEVELS
    construction = "nonlow-low2"


def run(psis: dict, funs: dict, stages: int, seed: int = 0) -> RunTrace:
    """Execute the construction for the given stage budget; the opponents
    carry their own seeds."""
    return NonlowLow2Run(psis, funs, stages).execute()


# -- trace verification ------------------------------------------------


class _Replay(EtaRhoReplay):
    """Verifier view of a two-level trace, from the event stream alone."""

    levels = LEVELS

    def __init__(self, trace: RunTrace):
        # Each replay class has its own __init__, so that per-layer timing
        # (bench/layers.py) can wrap each construction's build alone.
        self._read(trace)


# Stages a follower's guess must stay unchanged, up to the last stage,
# before diagonalization holds its follower to the guess.
SETTLE_WINDOW = 10

# Names of the checks verify_main_lemma_claims returns, in order.
CHECKS = ("quota-soundness", "exhaustion-gate", "trigger-structure",
          "recursion-bound", "global-bound", "diagonalization", "uniformity")


def verify_main_lemma_claims(psis: dict | None, replay: _Replay) -> list:
    """Re-derive the construction's bound claims from the trace's replay.

    Returns CheckResult entries for quota soundness, the exhaustion gate,
    trigger structure, the per-node recursion bound, the global injury
    bound, diagonalization, and bound uniformity.
    """
    return [_quota_soundness(replay), _exhaustion_gate(replay),
            check_triggers(replay),
            check_recursion(replay, "recursion-bound"),
            _global_bound(replay), _diagonalization(replay, psis),
            _uniformity(replay)]


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
    # e -> its arguments with a recorded computation, ascending; no other
    # argument has a use to hold, whatever length the trace gives
    args = {}
    for e, x in sorted(k for k in r.phi if k[1] >= 0):
        args.setdefault(e, []).append(x)
    for eid, s, rho, y, u, before, held in r.picks:
        for eta in LEVELS.etas_above(rho):
            e = LEVELS.level_index(eta)
            length = r.length(s, eta)
            for x in args.get(e, ()):
                if x >= length:
                    break
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
    for eta in r.etas():
        for x, (n, eid) in r.injury_totals(eta).items():
            if n > injury_bound(x):
                return CheckResult("global-bound", False, eid,
                                   f"x={x} injured {n} > {injury_bound(x)} "
                                   f"times")
    return CheckResult("global-bound", True, None,
                       f"worst ratio {worst_ratio(r):.3g}")


def _diagonalization(r: _Replay, psis) -> CheckResult:
    """Settled opponents end up on the losing side."""
    checked = 0
    if psis is not None and r.stages > 0 and r.followers:
        end = r.stages - 1
        wanted = {rho for rho in r.followers
                  if LEVELS.level_index(rho) in psis}
        below = {}  # rho -> (last stage whose path passes below it, outcome)
        later = None  # the path of the stages after, already scanned
        for _, stop, p, _ in reversed(r.stage_facts):
            if p is None or p == later:
                continue
            later = p
            for rho in [rho for rho in wanted
                        if len(rho) < len(p) and p[:len(rho)] == rho]:
                below[rho] = (stop - 1, p[len(rho)])
                wanted.discard(rho)
            if not wanted:
                break
        for rho, y in sorted(r.followers.items()):
            psi = psis.get(LEVELS.level_index(rho))
            if psi is None:
                continue
            final = psi.value(y, end)
            changes = psi.change_stages(y, end)
            settle = changes[-1] if changes else 0
            # checked: settled long enough, not initialized since, and
            # passed below at fin on the last stage that passed below
            last, outcome = below.get(rho, (-1, None))
            if end - settle < SETTLE_WINDOW or outcome != FIN \
                    or last < settle or r.last_init.get(rho, -1) >= settle:
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
    xs = {x for eta in etas for x in r.injury_totals(eta)}
    vals = {x: {injury_bound(x) for _ in etas} or {injury_bound(x)}
            for x in xs}
    uniform = all(len(v) == 1 for v in vals.values())
    return CheckResult("uniformity", uniform, None, f"{len(xs)} arguments")
