"""What a run must not depend on.

A run of N stages is the first N stages of a longer run of the same
scenario and seed: the run-copying loop reads the stage budget where it
ends a run (``Engine._quiet_until``), so a budget that cut a run short
must change nothing before it.  A run's output does not depend on the
interpreter's string hashing: a campaign prints the same bytes under
two hash seeds.  Nor does it depend on how a scenario spells its
declarations: the order of its ``fun`` lines or of its ``adv``
declarations, or the ids of its opponents.
"""

import os
import subprocess
import sys

import pytest

from injurylab.scenario import load_scenario

from stage_maps import stage_of
from test_repeat import ROOT, SCENARIOS, SHAPES, load

SRC = os.path.join(ROOT, "src")
LONG = 1500
BUDGETS = (1, 2, 9, 40, 333, 999)  # shorter budgets, fixed


def stage_events(trace) -> list:
    """(stage, payload line tail) of each event, copies included."""
    return [(s, p.tail) for s, p in zip(stage_of(trace), trace.events)]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("path", SCENARIOS + SHAPES, ids=os.path.basename)
def test_shorter_budget_is_a_prefix(path, seed):
    sc = load(path)
    long, _ = sc.execute(seed=seed, stages=LONG)
    events = stage_events(long)
    for n in BUDGETS:
        short, _ = sc.execute(seed=seed, stages=n)
        assert stage_events(short) == [e for e in events if e[0] < n], n


def campaign_stdout(path, hash_seed) -> str:
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed}
    out = subprocess.run(
        [sys.executable, "-B", "-m", "injurylab.cli", "campaign",
         "--scenario", path, "--seeds", "2", "--stages", "2000"],
        capture_output=True, text=True, env=env, check=True)
    return out.stdout


@pytest.mark.parametrize("path", SHAPES, ids=os.path.basename)
def test_campaign_ignores_the_hash_seed(path):
    # one drawn shape per construction
    assert campaign_stdout(path, "0") == campaign_stdout(path, "1")


def words(line: str) -> list:
    return line.split("#", 1)[0].split()


def reorder(lines, picked) -> list:
    """lines with those that picked holds of in reverse order, in the
    places they held."""
    back = reversed([ln for ln in lines if picked(ln)])
    return [next(back) if picked(ln) else ln for ln in lines]


def renamed(lines) -> list:
    """lines with each opponent id renamed, the ids sorting in the reverse
    of their order of declaration."""
    ids = list(dict.fromkeys(w[1] for w in map(words, lines)
                             if w[:1] == ["adv"]))
    names = {aid: f"q{len(ids) - i}" for i, aid in enumerate(ids)}
    return [" ".join(["adv", names[w[1]]] + w[2:]) if w[:1] == ["adv"]
            else ln for ln, w in zip(lines, map(words, lines))]


def is_step(line: str) -> bool:
    return words(line)[:1] == ["adv"] and words(line)[2] == "step"


def declarations_reversed(lines) -> list:
    """lines with the adv declarations in reverse order, and the steps,
    which must follow their opponent's declaration, after them all."""
    rest = [ln for ln in lines if not is_step(ln)]
    return reorder(rest, lambda ln: words(ln)[:1] == ["adv"]) + \
        list(filter(is_step, lines))


RESPELLINGS = {
    "reversed fun lines": lambda lines: reorder(
        lines, lambda ln: words(ln)[:1] == ["fun"]),
    "reversed adv declarations": declarations_reversed,
    "renamed opponents": renamed,
}


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("path", SCENARIOS + SHAPES, ids=os.path.basename)
def test_respelled_scenario_gives_the_same_trace(path, seed):
    with open(path) as fh:
        lines = fh.read().splitlines()
    stages = min(load_scenario("\n".join(lines)).stages, 2000)

    def digest(lines):
        sc = load_scenario("\n".join(lines))
        return sc.execute(seed=seed, stages=stages)[0].digest()
    want = digest(lines)
    for name, respell in RESPELLINGS.items():
        assert digest(respell(lines)) == want, name
