"""The replays read each recorded run of copied stages from its template
(``trace.blocks``): a run of quiet payloads once, at its first stage,
whose stage facts then hold for the whole run; a run whose template acts,
or that starts at a stage a block before it reached, stage by stage.  A
trace stores no copied event, and the replays read each stored event
once.

The reference here rebuilds a trace with a fresh payload per event and
no recorded run, so that every stage is read in full, event by event.
On every golden fixture, shipped scenario and cut bench shape, and on
the runs below that end, go on or repeat differently, the shipped
replay must derive the same facts and the same check results as the
reference.  The stage-keyed facts are compared stage by stage.
"""

import glob
import hashlib
import os

import pytest

from injurylab.cli import checks_for, replay_of
from injurylab.scenario import load_scenario
from injurylab.trace import Payload, RunTrace

from stage_maps import runs, stage_lengths, stage_of, stage_paths
from test_golden import FIX, NAMES
from test_repeat import LATE, LOW_ALPHA, steps
from test_replay import CountingList
from test_trace import contents, oracle_from_text, oracle_to_text

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCENARIOS = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.txt")))
SHAPES = sorted(glob.glob(os.path.join(ROOT, "bench", "scenarios", "*.txt")))


def per_event(trace: RunTrace) -> RunTrace:
    """A copy of trace with a payload of its own for each event, each
    event stored, and no recorded run."""
    out = RunTrace(trace.construction, trace.stages)
    out.stored = [Payload(p.kind, p.items()) for p in trace.events]
    out.stored_stage = stage_of(trace)
    out.summary = dict(trace.summary)
    return out


def copied(trace: RunTrace) -> int:
    """The number of stages the trace's recorded runs copied."""
    return sum(stop - first for _, first, stop, _, _ in trace.repeats)


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


def fields(replay) -> dict:
    """The replay's fields as plain data, a tree replay's stage intervals
    as one path and one set of lengths per stage.  The intervals must be
    in stage order, each nonempty, and must not overlap: then ``path``
    and ``length`` answer for each stage what its interval holds."""
    out = dict(vars(replay))
    if "stage_facts" in out:
        intervals = out.pop("stage_facts")
        assert all(first < stop for first, stop, *_ in intervals)
        assert all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))
        out["paths"], out["l"] = stage_paths(replay), stage_lengths(replay)
    return facts(out)


def results(checks):
    return [(c.name, c.passed, c.witness, c.detail) for c in checks]


def assert_matches_reference(trace, sc=None, psis=None):
    """The shipped replay of trace derives what the per-event one does."""
    reference = per_event(trace)
    shipped, full = replay_of(trace), replay_of(reference)
    assert fields(shipped) == fields(full)
    assert results(checks_for(trace, shipped, sc, psis)) \
        == results(checks_for(reference, full, sc, psis))
    return shipped


def assert_matches_reference_as_text(trace, sc=None, psis=None):
    """As assert_matches_reference, for trace and for its parsed text,
    whose runs the parser finds on its own; the replay of trace."""
    assert_matches_reference(RunTrace.from_text(trace.to_text()), sc, psis)
    return assert_matches_reference(trace, sc, psis)


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
    assert_matches_reference_as_text(trace, sc, psis)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("path", SHAPES, ids=os.path.basename)
def test_cut_bench_shape_matches_reference(path, seed):
    sc, trace, psis = run(path, seed, 2000)
    assert copied(trace) > 1000
    assert_matches_reference(trace, sc, psis)


def test_an_init_in_a_repeated_stage_is_read():
    # a stage that repeats the one before it, but for one rho visit that
    # becomes an init of the same node: the parser ends the run there
    with open(os.path.join(FIX, "golden-nonlow-low2.trace")) as fh:
        text = fh.read()
    trace = RunTrace.from_text(text)
    eid, first, stop, start, end = next(
        run for run in runs(trace)
        if "visit node=f" in [p.tail for p in trace.stored[run[3]:run[4]]])
    lines = text.splitlines()
    at = 1 + eid + [p.tail for p in trace.stored[start:end]].index(
        "visit node=f")
    assert lines[at] == f"{at - 1} {first} visit node=f"
    lines[at] = f"{at - 1} {first} init node=f"
    trace = RunTrace.from_text("\n".join(lines) + "\n")
    assert not any(a <= first < b for _, a, b, _, _ in trace.repeats)
    replay = assert_matches_reference(trace)
    assert replay.last_init[(1,)] == first


# stage -> events of a synthetic trace whose stages 1 to 3 hold the same
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
    trace = RunTrace(construction, 4)
    for s in (1, 2, 3):
        for kind, payload in SAME_ACTS[construction]:
            trace.emit(s, kind, **payload)
    # the parser records stages 2 and 3 as a run with an acting template
    back = RunTrace.from_text(trace.to_text())
    assert not trace.repeats
    assert [run[1:3] for run in back.repeats] == [(2, 4)]
    for replay in (assert_matches_reference(trace),
                   assert_matches_reference(back)):
        if construction == "low-alpha":
            assert replay.inits == {0: [1, 2, 3]}
        else:
            assert [pick[1] for pick in replay.picks] == [1, 2, 3]


def test_a_repeated_fin_declaration_of_a_watcher_is_read():
    # a quiet payload, but low-alpha keeps each delta declaration, so a
    # run that repeats one is read stage by stage
    trace = RunTrace("low-alpha", 4)
    for s in (1, 2, 3):
        trace.emit(s, "visit", node="q0", x=0, f=0)
        trace.emit(s, "declare", node="q0", what="delta", x=0, u=3,
                   value=1, act="fin")
    back = RunTrace.from_text(trace.to_text())
    assert [run[1:3] for run in back.repeats] == [(2, 4)]
    replay = assert_matches_reference(back)
    assert [stage for _, stage, _, _ in replay.declares[0]] == [1, 2, 3]


# -- runs that end, go on or repeat otherwise ---------------------------


def ends_with_injects(trace) -> bool:
    """Whether a recorded run's last stage goes on with inject-* events
    after its copies."""
    events, stages = trace.events, stage_of(trace)
    for eid, first, stop, start, end in runs(trace):
        after = eid + (stop - first) * (end - start)
        if after < len(events) and stages[after] == stop - 1 \
                and events[after].kind.startswith("inject-"):
            return True
    return False


# the delayed reconvergence of tests/test_repeat.py: the run of stages
# 603..640 copies stage 640 too, whose functional step brings the new
# computation
DELAYED = (LOW_ALPHA.replace("fun 0 arg 0 first 2\n",
                             "fun 0 arg 0 first 2 delay 40\n")
           + steps("f0", 600, 1, " marker 3"))
RUN_ENDS = {"delayed-reconvergence": DELAYED,
            **{name: LATE[name][0] for name in
               ("late-argument", "late-argument-low-alpha",
                "late-argument-nonlow-alpha")}}


@pytest.mark.parametrize("name", sorted(RUN_ENDS))
def test_a_run_that_ends_with_injects_matches_reference(name):
    sc = load_scenario(RUN_ENDS[name])
    trace, psis = sc.execute()
    assert ends_with_injects(trace)
    assert_matches_reference_as_text(trace, sc, psis)


def two_templates() -> RunTrace:
    """A two-level trace whose second run goes on with the template of the
    first, past a stage that enumerates the use the template re-declares;
    the second run's last stage goes on with visits, and a third run
    starts inside a stage."""
    trace = RunTrace("nonlow-low2", 20)
    quiet = [("visit", dict(node="-", l=1)), ("visit", dict(node="f")),
             ("declare", dict(node="f", what="gamma", y=1, u=2, act="fin"))]
    for kind, payload in quiet:
        trace.emit(0, kind, **payload)
    trace.repeat(1, 4, 0, 3)
    trace.emit(4, "visit", node="-", l=2)
    trace.emit(4, "visit", node="i")
    trace.emit(4, "enumerate", node="f", element=2)
    trace.repeat(5, 9, 0, 3)
    trace.emit(8, "visit", node="-", l=3)
    trace.emit(8, "visit", node="i")
    trace.emit(9, "visit", node="ii", l=4)
    trace.repeat(9, 12, 0, 3)
    trace.finalize({"A": 2})
    return trace


def test_a_run_on_an_earlier_template_matches_reference():
    trace = two_templates()
    replay = assert_matches_reference_as_text(trace)
    assert replay.summary.use == {"f": "2"}
    assert replay.path(7) == (1,) and replay.path(8) == (0,)
    assert replay.length(8, ()) == 3 and replay.length(7, ()) == 1
    assert replay.path(9) == (0, 0) and replay.path(10) == (1,)


# the trace that run_at_the_last_stage builds: its second run starts at
# stage 3, the last stage of its first run, on another template
LAST_STAGE_TEXT = """trace nonlow-low2 stages=6
0 0 visit node=- l=2
1 1 visit node=- l=1
2 1 visit node=f
3 2 visit node=- l=1
4 2 visit node=f
5 3 visit node=- l=1
6 3 visit node=f
7 3 visit node=- l=2
8 4 visit node=- l=2
9 5 visit node=- l=2
summary A -
"""


def run_at_the_last_stage() -> RunTrace:
    """A two-level trace whose second run starts at the last stage of the
    first, on the template of stage 0: stage 3 holds both templates, and
    stages 4 and 5 the second alone."""
    trace = RunTrace("nonlow-low2", 6)
    trace.emit(0, "visit", node="-", l=2)
    trace.emit(1, "visit", node="-", l=1)
    trace.emit(1, "visit", node="f")
    trace.repeat(2, 4, 1, 3)
    trace.repeat(3, 6, 0, 1)
    trace.finalize({"A": "-"})
    return trace


@pytest.mark.parametrize("source", ["repeat", "text"])
def test_a_run_at_the_last_stage_of_the_one_before(source):
    # blocks must read stage 3 of the second run as a stage that goes on,
    # not one the run opens, though the stored event before the run is at
    # stage 1
    trace = (run_at_the_last_stage() if source == "repeat"
             else RunTrace.from_text(LAST_STAGE_TEXT))
    reference = oracle_from_text(LAST_STAGE_TEXT)
    assert contents(trace) == contents(reference)
    assert trace.to_text() == oracle_to_text(reference) == LAST_STAGE_TEXT
    assert trace.digest() == \
        hashlib.sha256(LAST_STAGE_TEXT.encode()).hexdigest()
    replay = assert_matches_reference(trace)
    assert [replay.path(s) for s in range(6)] == [(), (1,), (1,), (1,), (),
                                                   ()]
    assert [replay.length(s, ()) for s in range(6)] == [2, 1, 1, 2, 2, 2]


# -- what a replay costs ------------------------------------------------


def test_replay_cost_does_not_grow_with_the_stage_budget():
    # the low2 bench shape settles well before stage 2,000, so a longer
    # budget only lengthens its last run: the trace stores as many events,
    # and the replay reads each of them once
    path = os.path.join(ROOT, "bench", "scenarios", "campaign-low2.txt")
    seen = []
    for stages in (2_000, 20_000):
        _, trace, _ = run(path, 0, stages)
        trace.stored = CountingList(trace.stored)
        replay = replay_of(trace)
        reads = trace.stored.reads
        assert reads == dict.fromkeys(range(len(trace.stored)), 1)
        seen.append((len(trace.stored), len(trace.stored_stage),
                     len(trace.repeats), len(replay.stage_facts),
                     sum(len(f[3]) for f in replay.stage_facts)))
    assert seen[0] == seen[1]
