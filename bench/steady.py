"""Steadiness report: is the benchmark steady enough to judge a change?

Usage, from the repository root:

    python3 bench/steady.py [--runs 10] [--sets 2] [--first-seed 1]
                            [--workloads campaign-low2,verify-trace]

Runs ``bench/run.py --trace 0`` ``--runs`` times per workload in each of
``--sets`` sets, one run at a time and each with its own seed, using the
``run_seconds`` of BENCHMARK.json.  For each end-to-end metric and
workload it prints the median and quartiles of every set, the spread
(quartile distance over the median) and the gap between the first and
each later set's median, and flags any spread or any gap, in either
direction, above the metric's bound.  Exits 1 if anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(last)


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    values = {}  # (set, workload, metric) -> [value per run]
    flagged = False
    for j in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + j * args.runs + i
            for wl in workloads:
                res = _run(wl, seed, bench["run_seconds"])
                if not res["correct"] or res["failed"]:
                    print(f"set {j} {wl} seed {seed}: incorrect result")
                    flagged = True
                for name, m in res["metrics"].items():
                    values.setdefault((j, wl, name), []).append(m["value"])
                print(f"set {j} seed {seed} {wl} " + " ".join(
                    f"{k}={m['value']:.5g}" for k, m in
                    res["metrics"].items()), flush=True)
    print(f"\n{'workload':22} {'metric':16} {'set':>3} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'gap':>7} bound")
    for wl in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for j in range(args.sets):
                vals = values[(j, wl, name)]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                first = med if first is None else first
                gap = (med - first) / first
                bad = spread > bound or abs(gap) > bound
                flagged |= bad
                print(f"{wl:22} {name:16} {j:3d} {med:10.5g} {q1:10.5g} "
                      f"{q3:10.5g} {spread:7.3f} {gap:+7.3f} {bound}"
                      f"{'  FLAG' if bad else ''}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
