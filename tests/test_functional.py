"""Tests for the use-based functional model against a replay oracle."""

import collections
import glob
import io
import itertools
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from injurylab.cli import main
from injurylab.functional import (
    ArgSchedule,
    Converged,
    Engine,
    EnumerableSet,
    FunctionalRun,
    UseFunctional,
)
from injurylab.scenario import load_scenario

from orderings import evaluate

SCEN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def oracle_replay(fn, A, x, s):
    """Straight-line re-derivation of the computation state at stage s.

    Walks the stages keeping (converged use, injury count, wait counter)
    with no shared code beyond the data types.
    """
    if x not in fn.args:
        return None
    sched = fn.args[x]
    use = None
    injuries = 0
    wait = None  # stages still to wait before reconverging
    prior_uses = []
    members = set()
    started = False
    events = {}
    for t, e in A.events:
        events.setdefault(t, []).append(e)
    for t in range(s + 1):
        arrivals = events.get(t, [])
        if use is not None and any(e < use for e in arrivals):
            injuries += 1
            use = None
            wait = sched.delay
        members.update(arrivals)
        if not started and t >= sched.first:
            started = True
            wait = 0
        if started and use is None:
            if wait == 0:
                if sched.policy == "low":
                    use = (max(members, default=0)) + sched.offset
                else:
                    use = max([x] + prior_uses + sorted(members)) + 1
                prior_uses.append(use)
                wait = None
            else:
                wait -= 1
    if use is None:
        return None
    return Converged(use, injuries)


def test_divergent_before_first_convergence():
    fn = UseFunctional(0)
    fn.configure(3, first=3)
    A = EnumerableSet()
    assert evaluate(fn, A, 3, 2) is None
    assert evaluate(fn, A, 3, 3) is not None


def test_unconfigured_argument_never_converges():
    fn = UseFunctional(0)
    A = EnumerableSet()
    assert evaluate(fn, A, 5, 100) is None


def test_persistence_without_injury():
    fn = UseFunctional(0)
    fn.configure(0, first=3)
    A = EnumerableSet()
    A.add(50, 4)  # above the use, harmless
    r = evaluate(fn, A, 0, 3)
    assert r is not None and r.value == 0
    for s in range(3, 10):
        assert evaluate(fn, A, 0, s) == r


def test_injury_and_reconvergence_with_delay():
    fn = UseFunctional(0)
    fn.configure(0, first=3, delay=2)
    A = EnumerableSet()
    r0 = evaluate(fn, A, 0, 3)
    A.add(r0.use - 1, 6)
    assert evaluate(fn, A, 0, 6) is None
    assert evaluate(fn, A, 0, 7) is None
    r1 = evaluate(fn, A, 0, 8)
    assert r1 is not None
    assert r1.value == 1
    assert r1.use > r0.use


def test_fresh_uses_strictly_increase():
    fn = UseFunctional(0)
    fn.configure(2, first=0, delay=0)
    A = EnumerableSet()
    uses = []
    stage = 0
    for k in range(8):
        r = evaluate(fn, A, 2, stage)
        uses.append(r.use)
        stage += 1
        A.add(r.use - 1, stage)
        stage += 1
    assert uses == sorted(set(uses))


def test_adversarial_low_policy_tracks_set_maximum():
    fn = UseFunctional(0)
    fn.configure(0, first=0, policy="low", offset=2)
    A = EnumerableSet()
    assert evaluate(fn, A, 0, 0).use == 2
    A.add(1, 3)  # below use 2: injury, then use = 1 + 2
    r = evaluate(fn, A, 0, 3)
    assert r.value == 1 and r.use == 3


def test_matches_replay_oracle_randomized():
    rng = random.Random(13)
    for trial in range(60):
        fn = UseFunctional(0)
        nargs = rng.randrange(1, 4)
        for x in range(nargs):
            fn.configure(x, first=rng.randrange(6), delay=rng.randrange(3),
                         policy=rng.choice(["fresh", "low"]),
                         offset=rng.randrange(1, 4))
        A = EnumerableSet()
        pool = list(range(1, 40))
        rng.shuffle(pool)
        stage = 0
        for _ in range(rng.randrange(12)):
            stage += rng.randrange(3)
            A.add(pool.pop(), stage)
        horizon = stage + 5
        for x in range(nargs):
            for s in range(horizon + 1):
                assert evaluate(fn, A, x, s) == oracle_replay(fn, A, x, s), \
                    (trial, x, s)


def test_incremental_run_matches_evaluate():
    # a fresh use here is 100 + its stage, a rule that needs no argument,
    # so the run of three arguments and the replay of each agree on it
    rng = random.Random(17)
    fn = UseFunctional(1)
    for x in range(3):
        fn.configure(x, first=x, delay=x % 2, policy="fresh")
    A = EnumerableSet()
    pool = list(range(1, 100))
    rng.shuffle(pool)

    def stage_use(t):
        return 100 + t
    run = FunctionalRun(fn, A, lambda: stage_use(run.stage))
    for s in range(40):
        if rng.random() < 0.4:
            A.add(pool.pop(), s)
        run.advance(s)
        for x in range(3):
            assert run.query(x) == evaluate(fn, A, x, s, stage_use), (x, s)


def test_injury_log_matches_sub_use_enumerations():
    fn = UseFunctional(0)
    fn.configure(0, first=0, policy="low", offset=3)
    A = EnumerableSet()
    run = FunctionalRun(fn, A, itertools.count(200).__next__)
    rng = random.Random(23)
    pool = list(range(1, 200))
    rng.shuffle(pool)
    for s in range(60):
        if rng.random() < 0.5:
            A.add(pool.pop(), s)
        before = run.query(0)
        for x, old_use, _ in run.advance(s):
            if old_use is not None:
                assert before is not None and before.use == old_use
                assert any(e < old_use for e in A.events_at(s))


def test_same_use_injury_is_a_change():
    # under low:5 with no delay, element 3 injures the computation at use
    # 15 and it is rebuilt at once at max(A) + 5, the same use: its value
    # rises, so advance reports the injury
    fn = UseFunctional(0)
    fn.configure(0, first=0, policy="low", offset=5)
    A = EnumerableSet()
    run = FunctionalRun(fn, A, itertools.count(100).__next__)
    A.add(10, 0)
    assert run.advance(0) == [(0, None, Converged(15, 0))]
    assert run.advance(1) == []
    A.add(3, 2)
    assert run.advance(2) == [(0, 15, Converged(15, 1))]
    assert run.query(0) == Converged(15, 1)


def test_enumerable_set_invariants():
    A = EnumerableSet()
    A.add(5, 2)
    with pytest.raises(ValueError):
        A.add(5, 3)
    with pytest.raises(ValueError):
        A.add(6, 1)
    assert A.members_at(1) == set()
    assert A.members_at(2) == {5}
    assert A.max_at(10) == 5


def test_large_hook_supplies_uses():
    fn = UseFunctional(0)
    fn.configure(0, first=0)
    A = EnumerableSet()
    counter = [100]

    def large():
        counter[0] += 1
        return counter[0]

    run = FunctionalRun(fn, A, large=large)
    run.advance(0)
    assert run.query(0).use == 101


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(adds=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 60)),
                     unique_by=lambda p: p[1], max_size=30))
def test_events_at_matches_full_filter(adds):
    """events_at, which scans back from the newest event, gives every
    stage's elements in order, as a filter over all events does.  Each
    add comes a gap of 0 to 3 stages after the one before."""
    A = EnumerableSet()
    stage = 0
    for gap, element in adds:
        stage += gap
        A.add(element, stage)
    for s in range(-1, stage + 3):
        assert A.events_at(s) == [e for t, e in A.events if t == s]


def test_jumping_to_next_change_matches_stepping():
    # one run jumps from each stage straight to next_change(), the other
    # steps through every stage: after each step both hold the same
    # computations and name the same next change, no step in between
    # changes a computation, and with no enumeration the named stage
    # brings a change
    rng = random.Random(29)
    for trial in range(40):
        fn = UseFunctional(0)
        for x in range(rng.randrange(1, 4)):
            fn.configure(x, first=rng.randrange(30), delay=rng.randrange(25),
                         policy=rng.choice(["fresh", "low"]))
        A = EnumerableSet()
        pool = list(range(1, 400))
        rng.shuffle(pool)
        stepped = FunctionalRun(fn, A, itertools.count(400).__next__)
        jumped = FunctionalRun(fn, A, itertools.count(400).__next__)

        def agree():
            assert stepped.next_change() == jumped.next_change()
            for x in fn.args:
                assert stepped.query(x) == jumped.query(x), (trial, x)
        s, due = 0, False
        while s < 200:
            grows = rng.random() < 0.3
            if grows:
                A.add(pool.pop(), s)
            changed = stepped.advance(s)
            assert jumped.advance(s) == changed
            assert changed or grows or not due
            agree()
            t = stepped.next_change()
            due = t < 200
            t = min(t, 200)
            assert t > s
            for u in range(s + 1, t):
                assert stepped.advance(u) == []
                agree()
            s = t


def test_advance_refuses_a_jump_over_a_change():
    fn = UseFunctional(0)
    fn.configure(0, first=5)
    A = EnumerableSet()
    run = FunctionalRun(fn, A, itertools.count(1).__next__)
    with pytest.raises(ValueError):
        run.advance(6)  # past next_change(), 5
    A.add(9, 2)
    with pytest.raises(ValueError):
        run.advance(4)  # over stage 2, which enumerates 9
    assert run.advance(2) == []
    assert run.advance(5) == [(0, None, Converged(1, 0))]
    with pytest.raises(ValueError):
        run.advance(5)  # not a step on


def test_value_classes_compare_by_value():
    c = Converged(3, 1)
    assert c == Converged(3, 1) != Converged(3, 2)
    assert hash(c) == hash(Converged(3, 1))
    assert repr(c) == "Converged(use=3, value=1)"
    a = ArgSchedule(5, 1, "low", 5)
    assert a == ArgSchedule(5, 1, "low", 5) != ArgSchedule(5, 1, "low", 6)
    assert repr(a) == "ArgSchedule(first=5, delay=1, policy='low', offset=5)"


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SCEN,
                                                               "*.txt"))),
                         ids=os.path.basename)
def test_every_injury_reaches_the_trace(monkeypatch, path, seed):
    # the injuries each functional run counts at (e, x) are the trace's
    # inject-diverge events for the pair
    engines = []
    execute = Engine.execute

    def keep(engine):
        engines.append(engine)
        return execute(engine)
    monkeypatch.setattr(Engine, "execute", keep)
    with open(path) as fh:
        trace = load_scenario(fh.read()).execute(seed=seed)[0]
    diverges = collections.Counter((p["e"], p["x"]) for p in trace.events
                                   if p.kind == "inject-diverge")
    [engine] = engines
    for e, run in engine.runs.items():
        for x in run.fn.args:
            conv = run.query(x)
            injuries = run._due[x][1] if conv is None else conv.value
            assert diverges[str(e), str(x)] == injuries, (e, x)


# the run report of the scenario in which delay-0 low computations are
# rebuilt at the same use after an injury
SAME_USE_REPORT = (
    "check quota-soundness pass witness ?\n"
    "check exhaustion-gate pass witness ?\n"
    "check trigger-structure pass witness ?\n"
    "check recursion-bound pass witness ?\n"
    "check global-bound pass witness ?\n"
    "check diagonalization pass witness ?\n"
    "check uniformity pass witness ?\n")


def test_same_use_scenario_reports_as_pinned():
    out = io.StringIO()
    assert main(["run", "--scenario",
                 os.path.join(SCEN, "stress-low2-same-use.txt")], out) == 0
    assert out.getvalue() == SAME_USE_REPORT
