"""The replays read each distinct stage once: a stage whose events are the
very payloads of a quiet stage before it is not read again (see
``trace.stage_spans``).

The reference here rebuilds a trace with a fresh payload per event, so
that no stage shares a payload with another and every stage is read in
full, event by event.  On every golden fixture, shipped scenario and cut
bench shape, the shipped replay must derive the same facts and the same
check results as the reference.
"""

import glob
import os

import pytest

from injurylab.cli import checks_for, replay_of
from injurylab.scenario import load_scenario
from injurylab.trace import Payload, RunTrace, stage_spans

from test_golden import FIX, NAMES

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCENARIOS = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.txt")))
SHAPES = sorted(glob.glob(os.path.join(ROOT, "bench", "scenarios", "*.txt")))


def per_event(trace: RunTrace) -> RunTrace:
    """A copy of trace with a payload of its own for each event."""
    out = RunTrace(trace.construction, trace.stages)
    out.events = [Payload(p.kind, p.items()) for p in trace.events]
    out.stage_of = list(trace.stage_of)
    out.summary = dict(trace.summary)
    return out


def copied(trace: RunTrace) -> int:
    """The number of stages the replays do not read again."""
    return sum(len(copies) for *_, copies in stage_spans(trace))


def facts(x):
    """x as plain data: containers element by element, and the objects
    of this package without an equality of their own by their fields."""
    if isinstance(x, dict):
        return {k: facts(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [facts(v) for v in x]
    if type(x).__module__.startswith("injurylab.") \
            and type(x).__eq__ is object.__eq__:
        names = getattr(type(x), "__slots__", None) or vars(x)
        return (type(x).__name__,
                {k: facts(getattr(x, k)) for k in names if hasattr(x, k)})
    return x


def results(checks):
    return [(c.name, c.passed, c.witness, c.detail) for c in checks]


def assert_matches_reference(trace, sc=None, psis=None):
    """The shipped replay of trace derives what the per-event one does."""
    reference = per_event(trace)
    assert copied(reference) == 0
    shipped, full = replay_of(trace), replay_of(reference)
    assert facts(vars(shipped)) == facts(vars(full))
    assert results(checks_for(trace, shipped, sc, psis)) \
        == results(checks_for(reference, full, sc, psis))
    return shipped


@pytest.mark.parametrize("name", NAMES)
def test_golden_fixture_matches_reference(name):
    with open(os.path.join(FIX, name + ".trace")) as fh:
        trace = RunTrace.from_text(fh.read())
    assert_matches_reference(trace)


def run(path, seed, stages=None):
    with open(path) as fh:
        sc = load_scenario(fh.read())
    trace, psis = sc.execute(seed=seed, stages=stages)
    return sc, trace, psis


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("path", SCENARIOS, ids=os.path.basename)
def test_scenario_matches_reference(path, seed):
    sc, trace, psis = run(path, seed)
    assert_matches_reference(trace, sc, psis)
    # the text form shares payloads the same way
    assert_matches_reference(RunTrace.from_text(trace.to_text()), sc, psis)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("path", SHAPES, ids=os.path.basename)
def test_cut_bench_shape_matches_reference(path, seed):
    sc, trace, psis = run(path, seed, 2000)
    assert copied(trace) > 1000
    assert_matches_reference(trace, sc, psis)


def test_an_init_in_a_repeated_stage_is_read():
    # a stage that repeats the one before it, but for one rho visit that
    # becomes an init of the same node: the two payloads hold equal
    # mappings, so only identity tells the stages apart
    with open(os.path.join(FIX, "golden-nonlow-low2.trace")) as fh:
        trace = RunTrace.from_text(fh.read())
    visit = next(p for p in trace.events if p.tail == "visit node=f")
    stage, start, block, copies = next(
        span for span in stage_spans(trace)
        if span[3] and any(p is visit for p in span[2]))
    at = start + len(block) + [p is visit for p in block].index(True)
    init = Payload("init", visit.items())
    assert init == visit and trace.stage_of[at] == copies[0]
    trace.events[at] = init
    replay = assert_matches_reference(trace)
    assert replay.last_init[(1,)] == copies[0]
    assert [s for s, _, _, _ in stage_spans(trace)].count(copies[0]) == 1


# stage -> events of a synthetic trace whose stages 1 and 2 hold the same
# payloads, not only visits and fin re-declarations
SAME_ACTS = {
    "low-alpha": [("visit", dict(node="q0", x=0, f=0)),
                  ("init", dict(node="q0", cause="preempt:0"))],
    "nonlow-low2": [("visit", dict(node="-", l=0)),
                    ("visit", dict(node="f")),
                    ("declare", dict(node="f", what="gamma", y=1, u=2,
                                     act="pick"))],
}


@pytest.mark.parametrize("construction", sorted(SAME_ACTS))
def test_a_repeat_of_a_stage_that_acts_is_read(construction):
    trace = RunTrace(construction, 3)
    for s in (1, 2):
        for kind, payload in SAME_ACTS[construction]:
            trace.emit(s, kind, **payload)
    half = len(trace.events) // 2
    assert all(a is b for a, b in zip(trace.events[:half],
                                      trace.events[half:]))
    assert copied(trace) == 0
    replay = assert_matches_reference(trace)
    if construction == "low-alpha":
        assert replay.inits == {0: [1, 2]}
    else:
        assert [pick[1] for pick in replay.picks] == [1, 2]
