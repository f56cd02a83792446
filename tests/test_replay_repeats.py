"""The replays read each stored stage once with the recorded run that
copies it (``trace.blocks``), and its stage facts then hold for the
whole run.  A run copies a stage of quiet payloads alone
(``Payload.quiet``), in the engine and in the parser, so a repeat of a
stage that acts is stored and read stage by stage.  A trace stores no
copied event, and the replays read each stored event once.

The reference here rebuilds a trace with a fresh payload per event and
no recorded run, so that every stage is read in full, event by event.
On every golden fixture, shipped scenario and cut bench shape, and on
the texts below whose stages repeat and then go on, or repeat an
earlier stage, the shipped replay must derive the same facts and the
same check results as the reference.  The stage-keyed facts are
compared stage by stage.
"""

import glob
import hashlib
import os

import pytest

from injurylab.cli import checks_for, replay_of
from injurylab.scenario import load_scenario
from injurylab.trace import Payload, RunTrace, blocks

from stage_maps import (assert_quiet_runs, assert_whole_stages, runs,
                        stage_lengths, stage_of, stage_paths)
from test_golden import FIX, NAMES
from test_repeat import LATE, LOW_ALPHA, steps
from test_replay import count_reads, read_once
from test_trace import contents, entries, oracle_from_text, oracle_to_text

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCENARIOS = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.txt")))
SHAPES = sorted(glob.glob(os.path.join(ROOT, "bench", "scenarios", "*.txt")))


def per_event(trace: RunTrace) -> RunTrace:
    """A copy of trace with a payload of its own for each event, each
    event stored, and no recorded run."""
    out = RunTrace(trace.construction, trace.stages)
    out.stored = [[t, [Payload(p.kind, p.items()) for p in block], 0]
                  for s, _, block, copies in blocks(trace)
                  for t in range(s, s + copies + 1)]
    out.summary = dict(trace.summary)
    return out


def copied(trace: RunTrace) -> int:
    """The number of stages the trace's recorded runs copied."""
    return sum(stop - first for _, first, stop, _ in runs(trace))


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


def assert_matches_reference(trace, psis=None):
    """The shipped replay of trace derives what the per-event one does."""
    reference = per_event(trace)
    shipped, full = replay_of(trace), replay_of(reference)
    assert fields(shipped) == fields(full)
    assert results(checks_for(trace, shipped, psis)) \
        == results(checks_for(reference, full, psis))
    return shipped


def assert_matches_reference_as_text(trace, psis=None):
    """As assert_matches_reference, for trace and for its parsed text,
    whose runs the parser finds on its own; the replay of trace."""
    back = RunTrace.from_text(trace.to_text().encode())
    assert_whole_stages(back)
    assert_quiet_runs(back)
    assert_matches_reference(back, psis)
    return assert_matches_reference(trace, psis)


@pytest.mark.parametrize("name", NAMES)
def test_golden_fixture_matches_reference(name):
    with open(os.path.join(FIX, name + ".trace")) as fh:
        trace = RunTrace.from_text(fh.read().encode())
    assert_matches_reference(trace)


def run(path, seed, stages=None):
    with open(path) as fh:
        sc = load_scenario(fh.read())
    return sc.execute(seed=seed, stages=stages)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("path", SCENARIOS, ids=os.path.basename)
def test_scenario_matches_reference(path, seed):
    trace, psis = run(path, seed)
    assert_matches_reference_as_text(trace, psis)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("path", SHAPES, ids=os.path.basename)
def test_cut_bench_shape_matches_reference(path, seed):
    trace, psis = run(path, seed, 2000)
    assert copied(trace) > 1000
    assert_matches_reference(trace, psis)


def test_an_init_in_a_repeated_stage_is_read():
    # a stage that repeats the one before it, but for one rho visit that
    # becomes an init of the same node: the parser ends the run there
    with open(os.path.join(FIX, "golden-nonlow-low2.trace")) as fh:
        text = fh.read()
    trace = RunTrace.from_text(text.encode())
    eid, first, stop, payloads = next(
        run for run in runs(trace)
        if "visit node=f" in [p.tail for p in run[3]])
    lines = text.splitlines()
    at = 1 + eid + [p.tail for p in payloads].index("visit node=f")
    assert lines[at] == f"{at - 1} {first} visit node=f"
    lines[at] = f"{at - 1} {first} init node=f"
    trace = RunTrace.from_text(("\n".join(lines) + "\n").encode())
    assert not any(a <= first < b for _, a, b, _ in runs(trace))
    replay = assert_matches_reference(trace)
    assert replay.last_init[(1,)] == first


# the events of each of stages 1 to 3 of a synthetic trace: the same
# payloads, not only visits and gamma fin re-declarations
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
    # the repeated stage acts, so the parser records no run of it and
    # stores stages 2 and 3 line by line
    back = RunTrace.from_text(trace.to_text().encode())
    assert not runs(trace) and not runs(back)
    assert entries(back) == entries(trace)
    for replay in (assert_matches_reference(trace),
                   assert_matches_reference(back)):
        if construction == "low-alpha":
            assert replay.inits == {0: [1, 2, 3]}
        else:
            assert [pick[1] for pick in replay.picks] == [1, 2, 3]


def test_a_repeated_fin_declaration_of_a_watcher_is_read():
    # a fin re-declaration of a watcher's delta is not quiet: low-alpha
    # keeps each delta declaration, so the parser records no run of it
    trace = RunTrace("low-alpha", 4)
    for s in (1, 2, 3):
        trace.emit(s, "visit", node="q0", x=0, f=0)
        trace.emit(s, "declare", node="q0", what="delta", x=0, u=3,
                   value=1, act="fin")
    back = RunTrace.from_text(trace.to_text().encode())
    assert not runs(back)
    replay = assert_matches_reference(back)
    assert [stage for _, stage, _, _ in replay.declares[0]] == [1, 2, 3]


def test_a_run_of_a_visit_and_a_gamma_fin_declaration_is_read():
    # both payloads are quiet, so the parser records a run; low-alpha
    # reads the declaration once and moves the visit's guess to the run's
    # last stage
    trace = RunTrace("low-alpha", 6)
    for s in (1, 2, 3, 4):
        trace.emit(s, "visit", node="q0", x=0, f=1)
        trace.emit(s, "declare", node="q0", what="gamma", y=0, u=3,
                   act="fin")
    trace.emit(5, "visit", node="q1", x=2, f=0)
    back = RunTrace.from_text(trace.to_text().encode())
    assert_whole_stages(back)
    assert_quiet_runs(back)
    assert [run[1:3] for run in runs(back)] == [(2, 5)]
    replay = assert_matches_reference(back)
    assert replay.last_f == {0: (4, 1), 1: (5, 0)}
    assert replay.summary.use == {"q0": "3"}


# -- stages that repeat and then go on, or repeat an earlier stage ------


def stops_at_injects(trace) -> bool:
    """Whether the stage that a recorded run stops before repeats the
    run's stage and then goes on with inject-* events."""
    for (s, run, copies), (after_s, after, _) in zip(trace.stored,
                                                     trace.stored[1:]):
        size = len(run)
        if copies and after_s == s + copies + 1 and after[:size] == run \
                and after[size:] and all(p.kind.startswith("inject-")
                                         for p in after[size:]):
            return True
    return False


# the delayed reconvergence of tests/test_repeat.py: stage 640, whose
# functional step brings the new computation, is walked
DELAYED = (LOW_ALPHA.replace("fun 0 arg 0 first 2\n",
                             "fun 0 arg 0 first 2 delay 40\n")
           + steps("f0", 600, 1, " marker 3"))
RUN_ENDS = {"delayed-reconvergence": DELAYED,
            **{name: LATE[name][0] for name in
               ("late-argument", "late-argument-low-alpha",
                "late-argument-nonlow-alpha")}}


@pytest.mark.parametrize("name", sorted(RUN_ENDS))
def test_a_run_that_ends_with_injects_matches_reference(name):
    # the stage where a computation changes repeats the quiet stage and
    # goes on with inject-* lines; a run stops before it, in the engine
    # and in the parser, so it is stored whole
    sc = load_scenario(RUN_ENDS[name])
    trace, psis = sc.execute()
    for t in (trace, RunTrace.from_text(trace.to_text().encode())):
        assert stops_at_injects(t)
        assert_whole_stages(t)
        assert_quiet_runs(t)
    assert_matches_reference_as_text(trace, psis)


def goes_on_text(edge: str) -> str:
    """A two-level text whose stages 1 to 5 repeat stage 0 and whose stage
    5 then goes on with an inject-converge line; stage 6 follows, or the
    summary does.  edge puts a blank line before the inject, writes its
    stage as 05 or ends the lines with \\r\\n."""
    lines = ["trace nonlow-low2 stages=9"]
    for s in range(6):
        lines += [f"{2 * s} {s} visit node=- l=1", f"{2 * s + 1} {s} visit "
                  f"node=f"]
    lines += [""] if edge == "blank" else []
    lines.append(f"12 {'05' if edge == '05' else 5} inject-converge e=0 x=0 "
                 f"use=3 value=0")
    if edge != "summary":
        lines += ["13 6 visit node=- l=1", "14 6 visit node=f"]
    lines.append("summary A -")
    ending = "\r\n" if edge == "crlf" else "\n"
    return ending.join(lines) + ending


@pytest.mark.parametrize("edge", ["mid-text", "summary", "blank", "05",
                                  "crlf"])
def test_a_stage_that_goes_on_is_read_line_by_line(edge):
    # the run the parser records stops before stage 5, which it stores
    # with stage 0's payloads and the inject, so no stored event shares a
    # stage with a copy
    text = goes_on_text(edge)
    trace = RunTrace.from_text(text.encode())
    assert contents(trace) == contents(oracle_from_text(text))
    assert_whole_stages(trace)
    assert_quiet_runs(trace)
    assert [run[1:3] for run in runs(trace)] == [(1, 5)]
    assert [len(ps) for s, ps, _ in trace.stored if s == 5] == [3]
    replay = assert_matches_reference(trace)
    assert replay.phi == {(0, 0): [(5, 3)]}


# stage 5 spelled 05 on its second line, and a stage 6 that holds that
# line's payload alone: stage 6 repeats no whole stage
RESPELLED_TEXT = """trace nonlow-low2 stages=10
0 5 visit node=- l=0
1 05 visit node=i
2 6 visit node=i
"""


def test_a_respelled_stage_is_read_whole():
    # the events of stage 5 are one stored stage, however its token is
    # spelled, so stage 6 starts no run and stays as read
    trace = RunTrace.from_text(RESPELLED_TEXT.encode())
    reference = oracle_from_text(RESPELLED_TEXT)
    assert contents(trace) == contents(reference)
    assert not runs(trace)
    assert entries(trace) == [(5, ["visit node=- l=0", "visit node=i"], 0),
                              (6, ["visit node=i"], 0)]
    assert trace.to_text() == oracle_to_text(reference)
    assert_matches_reference(trace)


def earlier_stage_text() -> str:
    """The text of a two-level trace whose stages 1 to 3 and 5 to 7 repeat
    stage 0, past a stage 4 that enumerates the use stage 0 re-declares;
    stage 8 repeats stage 0 and goes on with visits, stage 9 opens with a
    visit and then repeats stage 0, and stages 10 and 11 repeat stage 0."""
    quiet = [("visit", dict(node="-", l=1)), ("visit", dict(node="f")),
             ("declare", dict(node="f", what="gamma", y=1, u=2, act="fin"))]
    stages = {4: [("visit", dict(node="-", l=2)), ("visit", dict(node="i")),
                  ("enumerate", dict(node="f", element=2))],
              8: quiet + [("visit", dict(node="-", l=3)),
                          ("visit", dict(node="i"))],
              9: [("visit", dict(node="ii", l=4))] + quiet}
    trace = RunTrace("nonlow-low2", 20)
    for s in range(12):
        for kind, payload in stages.get(s, quiet):
            trace.emit(s, kind, **payload)
    trace.finalize({"A": 2})
    return trace.to_text()


def test_a_run_on_an_earlier_template_matches_reference():
    text = earlier_stage_text()
    trace = RunTrace.from_text(text.encode())
    assert contents(trace) == contents(oracle_from_text(text))
    assert_whole_stages(trace)
    assert_quiet_runs(trace)
    # runs copy stages 0, 5 and 10, each the last stored stage before it:
    # stage 8 goes on, so it leaves the second run, and stage 9 opens with
    # another payload
    assert [run[1:3] for run in runs(trace)] == [(1, 4), (6, 8), (11, 12)]
    replay = assert_matches_reference(trace)
    assert replay.summary.use == {"f": "2"}
    assert replay.path(7) == (1,) and replay.path(8) == (0,)
    assert replay.length(8, ()) == 3 and replay.length(7, ()) == 1
    assert replay.path(9) == (0, 0) and replay.path(10) == (1,)


# a text whose stage 3 repeats stages 1 and 2 and then goes on with the
# payload of stage 0, which stages 4 and 5 repeat
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


@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["text", "crlf"])
def test_a_run_at_the_last_stage_of_the_one_before(ending):
    # stage 3 leaves the run of stage 1 where its third line goes on at
    # it; stage 5 is a run of stage 4
    trace = RunTrace.from_text(
        LAST_STAGE_TEXT.replace("\n", ending).encode())
    reference = oracle_from_text(LAST_STAGE_TEXT)
    assert contents(trace) == contents(reference)
    assert_whole_stages(trace)
    assert_quiet_runs(trace)
    assert [run[1:3] for run in runs(trace)] == [(2, 3), (5, 6)]
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
    # budget only lengthens its last run: the trace stores as many stages
    # and events and copies as many of its stages, the parser records as
    # many runs, and the replay reads each stored event once
    path = os.path.join(ROOT, "bench", "scenarios", "campaign-low2.txt")
    seen = []
    for stages in (2_000, 20_000):
        trace, _ = run(path, 0, stages)
        parsed = RunTrace.from_text(trace.to_text().encode())
        count_reads(trace)
        replay = replay_of(trace)
        assert read_once(trace)
        seen.append((len(trace.stored),
                     sum(len(ps) for _, ps, _ in trace.stored),
                     len(runs(trace)), len(runs(parsed)),
                     len(replay.stage_facts),
                     sum(len(f[3]) for f in replay.stage_facts)))
    assert seen[0] == seen[1]
