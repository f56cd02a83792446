"""Quiet stages repeat: after a quiet stage, the run of stages up to the
first one whose walk or functional step can differ is copied in one step
instead of walking the tree.  The stage where a functional run changes
is walked, and its change lands in that stage's functional step.

Each case runs a scenario as shipped and again on the plain loop, where
``Engine._quiet_until`` is patched so that no run is copied and every
stage is walked, and the two traces must be byte-identical.  The
late-change cases also check that the stage whose input changed was
walked, and that the stage before it was a copy, so the run had gone
quiet first.  No run starts where the one before it stopped: a walked
stage comes before each run.
"""

import collections
import glob
import os

import pytest

from injurylab.approximation import DeltaTwoAdversary
from injurylab.functional import Engine
from injurylab.scenario import load_scenario
from injurylab.trace import RunTrace

from stage_maps import (assert_quiet_runs, assert_whole_stages, stage_of,
                        tree_paths)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCENARIOS = sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.txt")))
SHAPES = sorted(glob.glob(os.path.join(ROOT, "bench", "scenarios", "*.txt")))


def load(path):
    with open(path) as fh:
        return load_scenario(fh.read())


def copying(sc, seed=None, stages=None):
    """The trace of sc and the (first, stop) stages of each copy."""
    runs = []
    repeat = RunTrace.repeat

    def counted(trace, stop):
        runs.append((trace.stored[-1][0] + 1, stop))
        repeat(trace, stop)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RunTrace, "repeat", counted)
        trace, _ = sc.execute(seed=seed, stages=stages)
    return trace, runs


def plain(sc, seed=None, stages=None):
    """The trace of sc with every stage walked."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_quiet_until", lambda self, asked, s: s)
        trace, runs = copying(sc, seed, stages)
    assert not runs
    return trace


def assert_matches_plain(sc, seed=None, stages=None):
    trace, runs = copying(sc, seed, stages)
    assert trace.digest() == plain(sc, seed, stages).digest()
    assert_whole_stages(trace)
    assert_quiet_runs(trace)
    # each run goes on to the first stage whose walk can differ, so the
    # stage after it is walked and the next run starts later
    assert all(stop < first for (_, stop), (first, _) in zip(runs, runs[1:]))
    return trace, {s for first, stop in runs for s in range(first, stop)}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("path", SCENARIOS, ids=os.path.basename)
def test_scenario_matches_plain_loop(path, seed):
    assert_matches_plain(load(path), seed)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("path", SHAPES, ids=os.path.basename)
def test_cut_bench_shape_matches_plain_loop(path, seed):
    _, copied = assert_matches_plain(load(path), seed, 2000)
    assert len(copied) > 1000


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("path", SHAPES, ids=os.path.basename)
def test_bench_shape_matches_plain_loop(path, seed):
    _, copied = assert_matches_plain(load(path), seed)
    assert len(copied) > 9000


# -- inputs that change after the run has gone quiet --------------------


def steps(aid, stage, value, marker=""):
    """One scripted step per argument 0..39, at stage."""
    return "".join(f"adv {aid} step arg {x} stage {stage} value {value}"
                   f"{marker}\n" for x in range(40))


LOW2 = """\
construction nonlow-low2
stages 900
adv p0 psi level 0 mode scripted
adv p1 psi level 1 mode scripted
fun 0 arg 0 first 2
fun 0 arg 1 first 5
fun 1 arg 0 first 3
"""

LOW_ALPHA = """\
construction low-alpha
alpha w^2
stages 900
adv f0 f level 0 g w mode scripted
adv f1 f level 1 g 4 mode scripted
fun 0 arg 0 first 2
fun 1 arg 1 first 3
"""

COMBINED = """\
construction nonlow-alpha
alpha w^w
stages 900
adv p0 psi level 0 mode scripted
adv f0 f level 0 g w mode scripted
fun 0 arg 0 first 2
fun 0 arg 1 first 6
"""

# scenario text -> the stages whose inputs change late: an opponent's
# answer, or a functional's computation in the stage's own step
LATE = {
    "delta2-flip": (LOW2 + steps("p0", 500, 1) + steps("p1", 500, 1),
                    [500]),
    "late-argument": (LOW2 + "fun 1 arg 1 first 700 delay 3\n", [700]),
    "late-argument-low-alpha": (LOW_ALPHA + "fun 0 arg 1 first 700\n",
                                [700]),
    "late-argument-nonlow-alpha": (COMBINED + "fun 0 arg 2 first 700\n",
                                   [700]),
    "alternating": ("construction nonlow-low2\nstages 900\n"
                    "adv p0 psi level 0 mode alternating period 37\n"
                    "fun 0 arg 0 first 2\nfun 0 arg 1 first 5\n",
                    list(range(74, 900, 37))),
    "budgeted-change": (LOW_ALPHA + steps("f0", 600, 1, " marker 3")
                        + steps("f1", 650, 1, " marker 2"), [600, 650]),
    "xi-change": (COMBINED + steps("f0", 600, 1, " marker 3"), [600]),
}


@pytest.mark.parametrize("name", sorted(LATE))
def test_late_change_is_walked(name, monkeypatch):
    text, changes = LATE[name]
    guesses = collections.Counter()  # (opponent, y, s) -> calls
    value = DeltaTwoAdversary.value

    def counted_value(adv, y, s):
        guesses[(adv, y, s)] += 1
        return value(adv, y, s)

    monkeypatch.setattr(DeltaTwoAdversary, "value", counted_value)
    _, copied = assert_matches_plain(load_scenario(text))
    for s in changes:
        assert s - 1 in copied and s not in copied
    # finding where a run ends asks no guess: each is asked once, by a walk
    assert max(guesses.values(), default=1) == 1


def test_length_at_its_cap_is_walked():
    # forty arguments converge at once, so the eta's length is held back
    # only by the stage number for a while
    sc = load_scenario("construction nonlow-low2\nstages 200\n"
                       "adv p0 psi level 0 mode random seed 1 stab 20\n"
                       + "".join(f"fun 0 arg {x} first 1\n"
                                 for x in range(40)))
    trace, copied = assert_matches_plain(sc)
    capped = {s for s, p in zip(stage_of(trace), trace.events)
              if p.kind == "visit" and p.get("l") == str(s)}
    assert len(capped) > 30
    assert not copied & {s + 1 for s in capped}
    assert copied  # the run goes quiet once the length passes the cap


def test_watcher_coming_into_play_is_walked():
    # watcher 2 sees its computation converged at stage 0 but is first
    # stepped at stage 2, after a stage of visits alone
    sc = load_scenario("construction low-alpha\nalpha w^2\nstages 40\n"
                       "adv f0 f level 0 g w mode scripted\n"
                       "fun 0 arg 0 first 9\nfun 1 arg 1 first 9\n"
                       "fun 2 arg 2 first 0\n")
    trace, copied = assert_matches_plain(sc)
    activation = [s for s, p in zip(stage_of(trace), trace.events)
                  if p.kind == "qlist-set" and p["e"] == "2"]
    assert activation == [2] and 2 not in copied and copied


# -- where a run of copied stages ends ----------------------------------


def test_run_ends_at_a_delayed_reconvergence():
    # q0 fires at stage 600 and injures watcher 0's computation, which
    # waits 40 stages before it converges again, inside a quiet run
    sc = load_scenario(LOW_ALPHA.replace("fun 0 arg 0 first 2\n",
                                         "fun 0 arg 0 first 2 delay 40\n")
                       + steps("f0", 600, 1, " marker 3"))
    trace, runs = copying(sc)
    assert trace.digest() == plain(sc).digest()
    back = [s for s, p in zip(stage_of(trace), trace.events)
            if p.kind == "inject-converge" and p["e"] == "0" and s > 600]
    assert back == [640]
    # the run stops before stage 640, whose functional step brings the
    # new computation, so stage 640 is walked
    assert (603, 640) in runs
    assert not any(first <= 640 < stop for first, stop in runs)


@pytest.mark.parametrize("name", sorted(LATE))
def test_run_ends_at_the_stage_budget(name):
    trace, runs = copying(load_scenario(LATE[name][0]))
    assert runs[-1][1] == trace.stages == 900
    assert all(stop <= trace.stages for _, stop in runs)


@pytest.mark.parametrize("path", SHAPES, ids=os.path.basename)
def test_copied_stages_keep_their_paths(path, monkeypatch):
    # a tree engine keeps each stage's path, copied stages included, as
    # the plain loop does
    engines = []
    execute = Engine.execute

    def kept(engine):
        engines.append(engine)
        return execute(engine)

    monkeypatch.setattr(Engine, "execute", kept)
    sc = load(path)
    copying(sc, 0, 2000)
    plain(sc, 0, 2000)
    paths = [getattr(e, "tree", None) and tree_paths(e.tree, 2000)
             for e in engines]
    assert paths[0] == paths[1]
    assert paths[0] is None or len(paths[0]) == 2000


@pytest.mark.parametrize("text", [
    "construction low-alpha\nalpha w^2\nstages 40\n",
    "construction low-alpha\nalpha w^2\nstages 40\nfun 0 arg 0 first 0\n",
], ids=["no requirement", "a lone watcher"])
def test_an_empty_walk_starts_no_run(text):
    # every walk after the phi-sets is played in full and emits nothing;
    # a run would copy the last stored stage, its phi-sets, so none starts
    trace, copied = assert_matches_plain(load_scenario(text))
    assert not copied and not any(c for _, _, c in trace.stored)
    # no phi-set is copied
    assert trace.events == [p for _, ps, _ in trace.stored for p in ps]
