"""The construction registry: how scenarios and the command run, replay,
check and report each construction, keyed by its name."""

from typing import Callable, NamedTuple

from . import etarho, low_alpha, nonlow_alpha, nonlow_low2
from .trace import ConfigError


class Construction(NamedTuple):
    run: Callable          # (psis, fs, funs, alpha, stages) -> RunTrace
    replay: type           # built once per trace, shared by every consumer
    verify: Callable       # (psis, replay) -> [CheckResult]
    checks: tuple          # names of the checks verify returns, in order
    needs_alpha: bool      # whether a scenario must name the bound alpha
    worst_ratio: Callable  # replay -> largest injuries / ceiling
    extras: Callable       # replay -> report lines after the checks


# The entries call run and the verifiers through their modules at call
# time, so a wrapper installed on a module attribute after import is used.
CONSTRUCTIONS = {
    "nonlow-low2": Construction(
        lambda psis, fs, funs, alpha, stages:
            nonlow_low2.run(psis, funs, stages),
        nonlow_low2._Replay,
        lambda psis, replay:
            nonlow_low2.verify_main_lemma_claims(psis, replay),
        nonlow_low2.CHECKS, False, etarho.worst_ratio,
        lambda replay: []),
    "low-alpha": Construction(
        lambda psis, fs, funs, alpha, stages: low_alpha.run(
            [fs[e] for e in sorted(fs)], [funs[e] for e in sorted(funs)],
            alpha, stages),
        low_alpha._LowReplay,
        lambda psis, replay: low_alpha.verify_lowness_budget(replay),
        low_alpha.CHECKS, True, low_alpha.worst_ratio, low_alpha.phi_lines),
    "nonlow-alpha": Construction(
        lambda psis, fs, funs, alpha, stages:
            nonlow_alpha.run(psis, fs, funs, alpha, stages),
        nonlow_alpha._CombReplay,
        lambda psis, replay: nonlow_alpha.verify_combined_bounds(replay),
        nonlow_alpha.CHECKS, True, etarho.worst_ratio,
        nonlow_alpha.bound_table),
}


def construction(name: str) -> Construction:
    """The registry entry of name; ConfigError when there is none."""
    entry = CONSTRUCTIONS.get(name)
    if entry is None:
        raise ConfigError(f"unknown construction {name!r}")
    return entry
