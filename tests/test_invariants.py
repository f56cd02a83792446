"""What a run must not depend on.

A run of N stages is the first N stages of a longer run of the same
scenario and seed: the run-copying loop reads the stage budget where it
ends a run (``Engine._quiet_until``), so a budget that cut a run short
must change nothing before it.  And a run's output does not depend on
the interpreter's string hashing: a campaign prints the same bytes under
two hash seeds.
"""

import os
import subprocess
import sys

import pytest

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
