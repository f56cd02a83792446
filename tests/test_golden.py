"""Byte-exact replay of checked-in scenario traces.

Each fixture pairs a small scripted scenario with the trace it must
produce.  Any drift in event ordering, payload formatting, or summary
bookkeeping shows up here first.
"""

import collections
import io
import os

import pytest

from injurylab.approximation import DeltaTwoAdversary
from injurylab.cli import checks_for, main, reduce_summary, replay_of
from injurylab.scenario import load_scenario

from stage_maps import stage_of

HERE = os.path.dirname(__file__)
SCEN = os.path.join(HERE, os.pardir, "scenarios")
FIX = os.path.join(HERE, "fixtures")

NAMES = ("golden-nonlow-low2", "golden-low-alpha", "golden-nonlow-alpha")

# The full verify-trace report of each fixture: check names, order,
# verdicts and witnesses, then the construction's report lines.
REPORTS = {
    "golden-nonlow-low2": (
        "check self-consistency pass witness ?\n"
        "check quota-soundness pass witness ?\n"
        "check exhaustion-gate pass witness ?\n"
        "check trigger-structure pass witness ?\n"
        "check recursion-bound pass witness ?\n"
        "check global-bound pass witness ?\n"
        "check diagonalization pass witness ?\n"
        "check uniformity pass witness ?\n"),
    "golden-low-alpha": (
        "check self-consistency pass witness ?\n"
        "check quota-list-structure pass witness ?\n"
        "check budget-formula pass witness ?\n"
        "check injury-gate pass witness ?\n"
        "check mind-change-cap pass witness ?\n"
        "check descent-witness pass witness ?\n"
        "check redeclare pass witness ?\n"
        "check diagonalization pass witness ?\n"
        "phi e=0 value=w*2\n"),
    "golden-nonlow-alpha": (
        "check self-consistency pass witness ?\n"
        "check level-discipline pass witness ?\n"
        "check xi-permission-scope pass witness ?\n"
        "check qlist-structure pass witness ?\n"
        "check xi-injury-gate pass witness ?\n"
        "check descent-witness pass witness ?\n"
        "check rho-recursion pass witness ?\n"
        "check trigger-structure pass witness ?\n"
        "check mind-change-cap pass witness ?\n"
        "bound eta=- x=0 beta=0 rho_bound=4\n"
        "bound eta=- x=1 beta=w*1029 rho_bound=1024\n"
        "bound eta=- x=2 beta=w*2360325 rho_bound=2359296\n"
        "bound eta=- x=3 beta=w*68721837061 rho_bound=68719476736\n"
        "bound eta=- x=4 beta=w*28147566392902661 "
        "rho_bound=28147497671065600\n"
        "bound eta=- x=5 beta=w*170005221530873620595717 "
        "rho_bound=170005193383307227693056\n"),
}


def by_kind(trace, kind):
    """The ids of the events of trace of one kind, in trace order."""
    return [eid for eid, p in enumerate(trace.events) if p.kind == kind]


def run_golden(name):
    with open(os.path.join(SCEN, name + ".txt")) as fh:
        sc = load_scenario(fh.read())
    trace, psis = sc.execute()
    return sc, trace, psis


class TestGoldenTraces:
    @pytest.mark.parametrize("name", NAMES)
    def test_byte_identical(self, name):
        _, trace, _ = run_golden(name)
        with open(os.path.join(FIX, name + ".trace"), "rb") as fh:
            assert trace.to_text().encode() == fh.read()

    @pytest.mark.parametrize("name", NAMES)
    def test_checks_pass(self, name):
        sc, trace, psis = run_golden(name)
        checks = checks_for(trace, replay_of(trace), sc, psis)
        assert checks and all(c.passed for c in checks)
        assert trace.summary == reduce_summary(replay_of(trace))

    @pytest.mark.parametrize("name", NAMES)
    def test_verify_trace_accepts_fixture(self, name):
        out = io.StringIO()
        code = main(["verify-trace", "--trace",
                     os.path.join(FIX, name + ".trace")], out)
        assert code == 0
        assert out.getvalue() == REPORTS[name]

    def test_low_alpha_fixture_reads_as_expected(self):
        _, trace, _ = run_golden("golden-low-alpha")
        events, enums = trace.events, by_kind(trace, "enumerate")
        markers = [events[eid]["marker"] for eid in enums]
        assert markers == ["3", "2"]
        elements = [events[eid]["element"] for eid in enums]
        assert elements == ["1", "4"]
        assert trace.summary["A"] == "1,4"

    def test_nonlow_alpha_fixture_has_left_stage_removal(self):
        _, trace, _ = run_golden("golden-nonlow-alpha")
        events = trace.events
        removed = [eid for eid in by_kind(trace, "qlist-remove")
                   if events[eid]["cause"] == "left-stage"]
        assert len(removed) == 1 and stage_of(trace)[removed[0]] == 11


class TestCallCounts:
    """The stage loop derives each fact once: one guess per opponent,
    argument and stage.  Calls are counted, not timed, so the guard is
    deterministic."""

    @pytest.mark.parametrize("name", ("golden-nonlow-low2",
                                      "golden-nonlow-alpha"))
    def test_each_fact_asked_once(self, name, monkeypatch):
        guesses = collections.Counter()  # (opponent, y, s) -> calls
        value = DeltaTwoAdversary.value

        def counted_value(adv, y, s):
            guesses[(adv, y, s)] += 1
            return value(adv, y, s)

        monkeypatch.setattr(DeltaTwoAdversary, "value", counted_value)
        run_golden(name)
        assert guesses and max(guesses.values()) == 1
