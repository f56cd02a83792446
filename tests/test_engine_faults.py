"""Engine faults reach a check.

Each ENGINE_FAULTS entry breaks one permission rule of an engine with a
test-local monkeypatch, names a shipped scenario whose trace the fault
changes, and pins the checks that must fail under it, with their witness
event at seeds 0-3.  Nothing in the library switches a rule off.  The
scenarios written for a fault, scenarios/fault-*.txt, also pin their
unfaulted report.
"""

import io
import os

import pytest

from injurylab.cli import checks_for, main, replay_of
from injurylab.etarho import EtaRhoRun
from injurylab.low_alpha import LowAlphaRun
from injurylab.scenario import load_scenario

SCEN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SEEDS = range(4)


def allow_every_enumeration(monkeypatch):
    """A rho enumerates its use even where a protected computation
    outside its quota would be injured."""
    monkeypatch.setattr(EtaRhoRun, "_allows_enum", lambda self, rho: True)


def allow_every_pick(monkeypatch):
    """A rho picks a follower even where its quota from an argument is
    spent and its least held use would injure that argument's
    computation."""
    monkeypatch.setattr(EtaRhoRun, "_allows_pick", lambda self, rho: True)


def deny_nothing(monkeypatch):
    """No watcher refuses an act, even one that injures its computation
    from outside its quota list."""
    monkeypatch.setattr(LowAlphaRun, "_denier", lambda self, q, use: None)


# (construction, rule) -> (fault, scenario, check -> witness per seed)
ENGINE_FAULTS = {
    # q1 acts at stage 9 although it has left watcher 0's list, and its
    # enumeration injures the watcher (event 43); descent-witness names
    # the stage
    ("low-alpha", "LowAlphaRun._denier"): (
        deny_nothing, "fault-low-alpha-denial",
        {"injury-gate": [43, 43, 43, 43],
         "descent-witness": [9, 9, 9, 9]}),
    ("nonlow-alpha", "EtaRhoRun._allows_enum"): (
        allow_every_enumeration, "nonlow-alpha-mixed",
        {"rho-recursion": [228, 228, 228, 228]}),
    # iif picks at stage 45 (event 533), which the gate refuses
    ("nonlow-low2", "EtaRhoRun._allows_pick"): (
        allow_every_pick, "fault-low2-pick",
        {"exhaustion-gate": [533, 533, 533, 533]}),
    ("nonlow-low2", "EtaRhoRun._allows_enum"): (
        allow_every_enumeration, "nonlow-low2-random",
        {"quota-soundness": [52, 52, 158, 53],
         "recursion-bound": [52, 52, 158, 53]}),
}

KEYS = sorted(ENGINE_FAULTS)
IDS = [f"{c}:{rule}" for c, rule in KEYS]


def scenario(key):
    with open(os.path.join(SCEN, ENGINE_FAULTS[key][1] + ".txt")) as fh:
        sc = load_scenario(fh.read())
    assert sc.construction == key[0]
    return sc


def failures(sc, seed):
    """The trace of seed and its failing checks, name -> witness."""
    trace, psis = sc.execute(seed=seed)
    return trace, {c.name: c.witness
                   for c in checks_for(trace, replay_of(trace), sc, psis)
                   if not c.passed}


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_fault_fails_its_checks_at_their_witnesses(key, monkeypatch):
    fault, _, witnesses = ENGINE_FAULTS[key]
    sc = scenario(key)
    fault(monkeypatch)
    for seed in SEEDS:
        assert failures(sc, seed)[1] == \
            {name: by_seed[seed] for name, by_seed in witnesses.items()}


@pytest.mark.parametrize("key", KEYS, ids=IDS)
def test_fault_changes_a_trace_that_passes_unfaulted(key, monkeypatch):
    # the scenario exercises the rule: without the fault every check
    # passes, and the fault changes each seed's trace
    fault, _, _ = ENGINE_FAULTS[key]
    sc = scenario(key)
    clean = []
    for seed in SEEDS:
        trace, failed = failures(sc, seed)
        assert failed == {}
        clean.append(trace.digest())
    fault(monkeypatch)
    assert all(failures(sc, seed)[0].digest() != digest
               for seed, digest in zip(SEEDS, clean))


# the unfaulted `run` report of each fault scenario
FAULT_REPORTS = {
    "fault-low-alpha-denial": (
        "check quota-list-structure pass witness ?\n"
        "check budget-formula pass witness ?\n"
        "check injury-gate pass witness ?\n"
        "check mind-change-cap pass witness ?\n"
        "check descent-witness pass witness ?\n"
        "check redeclare pass witness ?\n"
        "check diagonalization pass witness ?\n"
        "phi e=0 value=w*4\n"),
    "fault-low2-pick": (
        "check quota-soundness pass witness ?\n"
        "check exhaustion-gate pass witness ?\n"
        "check trigger-structure pass witness ?\n"
        "check recursion-bound pass witness ?\n"
        "check global-bound pass witness ?\n"
        "check diagonalization pass witness ?\n"
        "check uniformity pass witness ?\n"),
}


def test_every_fault_scenario_has_a_pinned_report():
    shipped = {f[:-4] for f in os.listdir(SCEN)
               if f.startswith("fault-") and f.endswith(".txt")}
    assert shipped == set(FAULT_REPORTS)


@pytest.mark.parametrize("name", sorted(FAULT_REPORTS))
def test_fault_scenario_reports_as_pinned(name):
    out = io.StringIO()
    assert main(["run", "--scenario", os.path.join(SCEN, name + ".txt")],
                out) == 0
    assert out.getvalue() == FAULT_REPORTS[name]
