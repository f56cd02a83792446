"""The traced benchmark's contract with the trace layer.

``bench/run.py --trace 1`` wraps entry points by name with
``bench/layers.py`` and counts events by kind from ``trace.events`` and
stages from ``trace.stages``.  A change to the trace layer that breaks
those reads would break only the traced bench run, so each case here
installs the unchanged tracer, runs and re-verifies a golden scenario,
and compares the counts with the fixture.  The engine copies a quiet
stage to each stage of a run at once through ``RunTrace.repeat``, not
``emit``, so the child also records each run, and the copied and
emitted events together must make up the fixture.  (``from_text``
records a run of repeated stages through ``RunTrace.repeat`` too, so
the runs are taken before ``verify-trace`` parses.)  It runs in a fresh
interpreter so that no wrapper stays installed in the test process.
"""

import collections
import json
import os
import subprocess
import sys

import pytest

from test_golden import NAMES

HERE = os.path.dirname(__file__)
ROOT = os.path.join(HERE, os.pardir)

CHILD = """\
import io, json, sys
from layers import Tracer
tracer = Tracer()
tracer.install()
from injurylab import cli
from injurylab.trace import RunTrace
copies = []  # (first, stop, events per stage) per run of stages copied
repeat = RunTrace.repeat
def counted_repeat(trace, stop):
    stage, payloads, _ = trace.stored[-1]
    copies.append((stage + 1, stop, len(payloads)))
    repeat(trace, stop)
RunTrace.repeat = counted_repeat
scenario, fixture, out = sys.argv[1:]
codes = [cli.main(["run", "--scenario", scenario, "--trace", out],
                  io.StringIO())]
after_run = tracer.report()
after_run = {"kinds": after_run["kinds"], "stages": after_run["stages"],
             "emits": after_run["layers"]["trace.emit"][0],
             "copies": list(copies)}
codes.append(cli.main(["verify-trace", "--trace", fixture], io.StringIO()))
report = tracer.report()
print(json.dumps({"codes": codes, "after_run": after_run,
                  "kinds": report["kinds"], "stages": report["stages"],
                  "from_text": report["layers"]["trace.from_text"][0]}))
"""


def fixture_counts(path):
    """The header's stage count, the event lines per kind, and each
    stage's payload texts in order."""
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    events = [ln.split(None, 2) for ln in lines
              if not ln.startswith("summary ")]
    kinds = collections.Counter(tail.split()[0] for _, _, tail in events)
    by_stage = collections.defaultdict(list)
    for _, stage, tail in events:
        by_stage[int(stage)].append(tail)
    return int(header.split("stages=")[1]), dict(kinds), by_stage


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_counts_match_the_fixture(name, tmp_path):
    fixture = os.path.join(HERE, "fixtures", name + ".trace")
    out = tmp_path / "run.trace"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD,
         os.path.join(ROOT, "scenarios", name + ".txt"), fixture, str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    stages, kinds, by_stage = fixture_counts(fixture)
    # the wrapped run writes the fixture byte for byte and verifies it
    assert got["codes"] == [0, 0]
    with open(fixture) as fh:
        assert out.read_text() == fh.read()
    # the run counts each event once, as the wrapped emit saw it or as
    # the copy of a quiet stage
    copies = got["after_run"].pop("copies")
    # the combined golden's one copied stage, 6, is also where a
    # computation converges, so it is walked; the others go quiet
    assert bool(copies) == (name != "golden-nonlow-alpha")
    copied = sum((stop - first) * size for first, stop, size in copies)
    emits = got["after_run"].pop("emits")
    assert got["after_run"] == {"kinds": kinds, "stages": stages}
    assert emits + copied == sum(kinds.values())
    # a copied stage is the stage before it, line for line
    for first, stop, size in copies:
        for stage in range(first, stop):
            assert by_stage[stage] == by_stage[stage - 1]
            assert len(by_stage[stage]) == size
    # verify-trace parses the fixture once and counts it again
    assert got["from_text"] == 1
    assert got["kinds"] == {k: 2 * n for k, n in kinds.items()}
    assert got["stages"] == 2 * stages
