"""One measured benchmark unit, run in a fresh interpreter.

Usage: python3 bench/child.py '<json spec>'

The spec names the repository root, a list of ``injury-lab`` argument
lists to pass to ``cli.main`` one after another, an optional scenario to
load during set-up, and whether to trace layers.  The last line of
standard output is one JSON object with the set-up time, each call's
exit code, time taken and output lines with the time each was written,
the peak resident memory, the calibration times and, when traced, the
layer statistics.

Every time here is the process's own CPU time (``time.process_time``).
The program is single-threaded and CPU-bound, so this is its running
time without the time the host gives to other processes.  CPU time
still varies with how fast the host runs this process, so the child
also times a fixed calibration loop before set-up and after the last
call; ``run.py`` scales the times by it.
"""

import json
import os
import resource
import sys
import time


class StampedOut:
    """Output stream for ``cli.main`` that timestamps every line."""

    def __init__(self):
        self.lines = []  # (CPU time at write, line)
        self._part = ""  # text after the last newline

    def write(self, text):
        now = time.process_time()
        buf = self._part + text
        *whole, self._part = buf.split("\n")
        self.lines.extend((now, ln) for ln in whole)
        return len(text)


def calibrate(n=60_000) -> float:
    """CPU seconds of a fixed pure-Python loop of dict, tuple, string and
    sort work, the same mix of operations the program spends its time on.
    About 40 ms on a 2.1 GHz Xeon."""
    t0 = time.process_time()
    table = {}
    words = []
    for i in range(n):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i * i % 13
        if i % 4 == 0:
            words.append(f"{key[0]}:{i}")
        if len(words) > 256:
            words.sort()
            words.clear()
    return time.process_time() - t0


def main(spec: dict) -> dict:
    before = calibrate()
    t0 = time.process_time()
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from injurylab import cli
    from injurylab.scenario import load_scenario
    if spec.get("scenario"):
        with open(spec["scenario"]) as fh:
            load_scenario(fh.read())
    setup = time.process_time() - t0

    tracer = None
    if spec.get("trace"):
        from layers import Tracer
        tracer = Tracer()
        tracer.install()

    calls = []
    for argv in spec["calls"]:
        out = StampedOut()
        start = time.process_time()
        rc = cli.main(argv, out=out)
        end = time.process_time()
        calls.append({"rc": rc, "elapsed": end - start,
                      "lines": [ln for _, ln in out.lines],
                      "stamps": [t - start for t, _ in out.lines]})
    result = {"setup": setup, "calls": calls,
              "calibration": [before, calibrate()],
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
