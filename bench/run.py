"""injurylab benchmark: acceptance-shape campaigns and trace re-verification.

Usage, from the repository root:

    python3 bench/run.py --workload campaign-low2 --seed 0 --trace 0

A workload is a fixed list of units chosen by ``--seed``.  Each unit is
one fresh ``python3 bench/child.py`` process, run one at a time, which
imports ``injurylab.cli`` from ``src/`` and calls ``cli.main`` with the
real ``campaign`` or ``verify-trace`` arguments.  The run cycles through
the units at least ``MIN_CYCLES`` times, and then as long as another
whole cycle would end closer to ``--seconds`` than stopping now.

With ``--trace 0`` it reports the end-to-end metrics.  Every seed (or
trace) is timed on each repetition, in CPU time of the child, from the
stamps of the verdict lines the call writes.  On a shared 2-core VM the
host's speed drifts by 20-40% over seconds to minutes, and CPU time
drifts with it.  Every time is therefore scaled by the child's own
calibration loop: it is reported in reference seconds, the time the
same work takes when the loop takes ``REFERENCE_CALIBRATION_S``.  Each
seed then counts with its fastest repetition.  Set-up time and memory
are first reduced per unit, so every unit counts once however many
cycles ran.  With ``--trace 1`` each unit runs untraced and then traced,
and the run reports the per-layer figures of the traced calls.  The
last line of standard output is the JSON result; the lines before it
are a report.

The workload seed ``n`` selects campaign seeds from ``n * SEED_SPAN`` on,
so the same seed gives the same inputs.  On the default seed every
campaign digest and every verdict is compared with ``pins.json``; on any
seed every call must exit 0 with all checks passing.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIOS = os.path.join(HERE, "scenarios")
STAGES = 10_000  # every bench scenario runs the acceptance-gate length
DEFAULT_SEED = 0
SEED_SPAN = 1000  # campaign seeds reserved for each workload seed
MIN_CYCLES = 2  # every unit repeats at least this often
LAUNCH_LIMIT_S = 150  # launch no unit after this; a run ends within 180 s
# Calibration time of child.calibrate on the baseline host (2.1 GHz Xeon,
# Python 3.11) in a quiet phase, so reference seconds read close to the
# seconds a user of that host sees.
REFERENCE_CALIBRATION_S = 0.040
# Fixed here, not imported, so the metric names do not depend on the
# program under test.
EVENT_KINDS = ("visit", "init", "select", "declare", "enumerate",
               "inject-converge", "inject-diverge", "qlist-set",
               "qlist-remove", "phi-set")

from layers import LAYERS, REPLAY_LAYERS  # noqa: E402


class Campaign:
    """``injury-lab campaign`` over consecutive seeds of one scenario.

    The run's seeds are split into ``units`` campaigns of two seeds; a
    campaign of more than one seed is what lets ``first_verdict_s`` see
    output held back until the end.
    """

    k = 2

    def __init__(self, scenario, units):
        self.scenario = os.path.join(SCENARIOS, scenario)
        self.n = units

    def prepare(self, base, workdir, pins):
        return []

    def units(self, base):
        out = []
        for i in range(self.n):
            first = base + i * self.k
            argv = ["campaign", "--scenario", self.scenario,
                    "--seeds", str(self.k), "--seed", str(first)]
            out.append((list(range(first, first + self.k)), [argv],
                        self.scenario))
        return out

    def check(self, result, seeds, pins):
        """Failed seeds and a fingerprint of what the unit produced."""
        call = result["calls"][0]
        passed = {}
        bad = set()
        aggregate = None
        for ln in call["lines"]:
            tok = ln.split()
            if ln.startswith("seed ") and tok[2].startswith("digest="):
                ok, total = tok[3][len("checks="):].split("/")
                passed[int(tok[1])] = tok[2][len("digest="):]
                if ok != total:
                    bad.add(int(tok[1]))
            elif ln.startswith("seed "):
                bad.add(int(tok[1]))  # "seed N error ..."
            elif ln.startswith("fail "):
                bad.add(int(tok[1][len("seed="):]))
            elif ln.startswith("campaign "):
                aggregate = tok[-1][len("digest="):]
        digests = [passed[s] for s in seeds if s in passed]
        joined = hashlib.sha256(",".join(digests).encode()).hexdigest()[:16]
        if call["rc"] != 0 or aggregate != joined:
            return set(seeds), None
        for s in seeds:
            if s not in passed or (pins is not None
                                   and pins[str(s)] != passed[s]):
                bad.add(s)
        return bad, tuple(passed.get(s) for s in seeds)

    def timings(self, result, seeds):
        """Seconds each seed took, and seconds to the first verdict of
        each call."""
        call = result["calls"][0]
        stamps = [t for t, ln in zip(call["stamps"], call["lines"])
                  if ln.startswith("seed ")]
        durations = [b - a for a, b in zip([0.0] + stamps, stamps)]
        return durations, [stamps[0]]


class VerifyTrace:
    """``injury-lab verify-trace`` on traces written during preparation.

    Preparation runs ``injury-lab run --trace`` on ``pairs`` seeds of the
    two tree shapes in one untimed process.  Each unit re-verifies one
    pair, the low2 trace and then the combined one.
    """

    shapes = ("campaign-low2", "campaign-nonlow-alpha")

    def __init__(self, pairs):
        self.pairs = pairs
        self.traces = []  # (shape, seed, path)
        self.unpinned = set()  # traces whose digest differs from the pin

    def prepare(self, base, workdir, pins):
        calls = []
        for j in range(self.pairs):
            for shape in self.shapes:
                path = os.path.join(workdir, f"{shape}-{base + j}.trace")
                self.traces.append((shape, base + j, path))
                calls.append(["run", "--scenario",
                              os.path.join(SCENARIOS, shape + ".txt"),
                              "--seed", str(base + j), "--trace", path])
        result = run_child({"calls": calls}, timeout=60)
        if result is None or any(c["rc"] for c in result["calls"]):
            return ["preparation: injury-lab run did not exit 0"]
        issues = []
        for i, (shape, seed, path) in enumerate(self.traces):
            with open(path, "rb") as fh:
                d = hashlib.sha256(fh.read()).hexdigest()[:16]
            if pins is not None and pins[shape][str(seed)] != d:
                self.unpinned.add(i)
                issues.append(f"preparation: {shape} seed {seed} trace "
                              f"digest {d} is not the pinned campaign "
                              f"digest {pins[shape][str(seed)]}")
        return issues

    def units(self, base):
        out = []
        for j in range(self.pairs):
            pair = self.traces[2 * j:2 * j + 2]
            out.append(([2 * j, 2 * j + 1],
                        [["verify-trace", "--trace", p] for _, _, p in pair],
                        None))
        return out

    def check(self, result, items, pins):
        bad = self.unpinned.intersection(items)
        verdicts = []
        for i, call in zip(items, result["calls"]):
            checks = [ln.split() for ln in call["lines"]
                      if ln.startswith("check ")]
            text = "\n".join(call["lines"])
            d = hashlib.sha256(text.encode()).hexdigest()[:16]
            verdicts.append(d)
            if call["rc"] != 0 or not checks \
                    or checks[0][:3] != ["check", "self-consistency", "pass"] \
                    or any(c[2] != "pass" for c in checks) \
                    or (pins is not None and pins["verify-trace"][i] != d):
                bad.add(i)
        return bad, tuple(verdicts)

    def timings(self, result, items):
        calls = result["calls"]
        return [c["elapsed"] for c in calls], [c["stamps"][0] for c in calls]


# Units per run are sized so that one cycle takes about 9 seconds on a
# 2-core VM, and a run of 18 seconds makes two cycles.  Seeds differ in
# how much work they make (about 12% between seeds of one campaign shape,
# 20% between traces), so more seeds per run, not more repetitions, is
# what keeps the figures of different workload seeds together.
WORKLOADS = {
    "campaign-low2": lambda: Campaign("campaign-low2.txt", 5),
    "campaign-low-alpha": lambda: Campaign("campaign-low-alpha.txt", 11),
    "campaign-nonlow-alpha": lambda: Campaign("campaign-nonlow-alpha.txt", 6),
    "verify-trace": lambda: VerifyTrace(6),
}


def run_child(spec, timeout=120):
    """Run one unit in a fresh interpreter; None if it produced no result.

    The hash seed is fixed so that every repetition of a unit does the
    same work, down to the order of its sets and dicts.
    """
    spec = dict(spec, root=os.getcwd())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout,
            env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rescale(result):
    """Turn the child's CPU seconds into reference seconds, in place."""
    f = REFERENCE_CALIBRATION_S / statistics.mean(result["calibration"])
    result["setup"] *= f
    for call in result["calls"]:
        call["elapsed"] *= f
        call["stamps"] = [t * f for t in call["stamps"]]
    for stat in result.get("trace", {}).get("layers", {}).values():
        stat[1] *= f
        stat[2] *= f


def load_pins(workload, seed):
    """The gate of the default seed, or None on any other seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    return pins if workload == "verify-trace" else pins[workload]


def layer_metrics():
    """(name, unit, better) of every per-layer metric, in output order."""
    out = [("traced.ms_per_seed", "ms", "lower"),
           ("traced.overhead_pct", "%", "lower")]
    for name, *_ in LAYERS:
        out.append((f"{name}.self_ms", "ms/seed", "lower"))
        out.append((f"{name}.calls", "count/seed", "lower"))
    out += [(f"trace.events.{k}", "count/seed", "lower")
            for k in EVENT_KINDS]
    out += [("trace.events_per_stage", "count", "lower"),
            ("trace.bytes_per_stage", "B", "lower"),
            ("replay.builds_per_seed", "count", "lower"),
            ("functional.advance.changed_ratio", "ratio", "higher")]
    return out


def _elapsed(run_):
    return sum(c["elapsed"] for c in run_["result"]["calls"])


def by_unit(runs):
    out = {}
    for r in runs:
        out.setdefault(r["unit"], []).append(r)
    return out


def end_to_end(wl, runs):
    """Best-of-repetitions timings (first verdict: mean over calls);
    set-up (median per unit, then median over units) and memory (peak
    per unit, then mean over units)."""
    best_item = {}
    best_first = {}
    for r in runs:
        durations, firsts = wl.timings(r["result"], r["items"])
        for item, d in zip(r["items"], durations):
            best_item[item] = min(d, best_item.get(item, d))
        for call, f in enumerate(firsts):
            key = (r["unit"], call)
            best_first[key] = min(f, best_first.get(key, f))
    units = by_unit(runs).values()
    metrics = {
        "stages_per_s": (len(best_item) * STAGES / sum(best_item.values()),
                         "1/s"),
        "first_verdict_s": (statistics.mean(best_first.values()), "s"),
        "setup_s": (statistics.median(
            statistics.median(r["result"]["setup"] for r in rs)
            for rs in units), "s"),
        "peak_rss_mb": (statistics.mean(
            max(r["result"]["maxrss_kb"] for r in rs) / 1024
            for rs in units), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def exact_counts(tr):
    calls = {name: st[0] for name, st in tr["layers"].items()}
    return (tuple(sorted(tr["kinds"].items())), calls["trace.emit"],
            sum(calls[name] for name in REPLAY_LAYERS),
            calls["functional.advance"], tr["text_bytes"])


def per_layer(traced, plain):
    """Per-layer metrics and a report table from the traced calls."""
    traced_by, plain_by = by_unit(traced), by_unit(plain)
    first = [rs[0] for rs in traced_by.values()]  # counts repeat exactly
    n = sum(len(r["items"]) for r in first)
    trs = [r["result"]["trace"] for r in first]
    calls = {name: sum(t["layers"][name][0] for t in trs)
             for name, *_ in LAYERS}
    kinds = {k: sum(t["kinds"].get(k, 0) for t in trs) for k in EVENT_KINDS}
    stages = sum(t["stages"] for t in trs) or 1
    best_t = sum(min(map(_elapsed, rs)) for rs in traced_by.values())
    best_p = sum(min(map(_elapsed, rs)) for rs in plain_by.values())
    ms_per_seed = best_t / n * 1000
    metrics = {
        "traced.ms_per_seed": ms_per_seed,
        "traced.overhead_pct": 100 * (best_t / best_p - 1),
    }

    def ms(name, field):
        """Median over a unit's traced runs, summed over units, per seed."""
        return sum(statistics.median(r["result"]["trace"]["layers"][name]
                                     [field] for r in rs)
                   for rs in traced_by.values()) / n * 1000

    table = []
    for name, *_ in LAYERS:
        self_ms = ms(name, 2)
        metrics[f"{name}.self_ms"] = self_ms
        metrics[f"{name}.calls"] = calls[name] / n
        table.append((name, calls[name] / n, ms(name, 1), self_ms,
                      100 * self_ms / ms_per_seed))
    for k in EVENT_KINDS:
        metrics[f"trace.events.{k}"] = kinds[k] / n
    metrics["trace.events_per_stage"] = sum(kinds.values()) / stages
    metrics["trace.bytes_per_stage"] = \
        sum(t["text_bytes"] for t in trs) / stages
    metrics["replay.builds_per_seed"] = \
        sum(calls[name] for name in REPLAY_LAYERS) / n
    changed = sum(t["advance_changed"] for t in trs)
    metrics["functional.advance.changed_ratio"] = \
        changed / calls["functional.advance"] \
        if calls["functional.advance"] else 0.0
    units_of = {name: unit for name, unit, _ in layer_metrics()}
    return table, {k: {"value": metrics[k], "unit": units_of[k]}
                   for k in units_of}


def run(workload, seed, seconds, traced):
    """Prepare, then cycle through the units; returns the unit runs,
    the attempted and failed counts, and any correctness issues."""
    wl = WORKLOADS[workload]()
    pins = load_pins(workload, seed)
    base = seed * SEED_SPAN
    issues = []
    runs = []
    attempted = failed = 0
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    start = time.perf_counter()
    try:
        issues += wl.prepare(base, workdir, pins)
        units = wl.units(base)
        modes = (False, True) if traced else (False,)
        measure = time.perf_counter()
        cycle = 0
        cycle_s = 0.0
        while cycle < MIN_CYCLES or \
                time.perf_counter() - measure + cycle_s / 2 < seconds:
            began = time.perf_counter()
            for index, (items, calls, scenario) in enumerate(units):
                for trace_on in modes:
                    elapsed = time.perf_counter() - start
                    if elapsed >= LAUNCH_LIMIT_S:
                        issues.append("launch limit reached")
                        return wl, runs, attempted, failed, issues
                    result = run_child({"calls": calls,
                                        "scenario": scenario,
                                        "trace": trace_on},
                                       timeout=170 - elapsed)
                    attempted += len(items)
                    if result is None:
                        failed += len(items)
                        issues.append(f"unit {index}: no result")
                        continue
                    rescale(result)
                    bad, fingerprint = wl.check(result, items, pins)
                    failed += len(bad)
                    if bad:
                        issues.append(f"unit {index}: failed {sorted(bad)}")
                        continue
                    runs.append({"unit": index, "items": items,
                                 "result": result, "traced": trace_on,
                                 "fingerprint": fingerprint})
            cycle += 1
            cycle_s = time.perf_counter() - began
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return wl, runs, attempted, failed, issues


def consistency(runs):
    """Issues where repeated runs of one unit disagree: digests or
    verdicts between any two runs, exact counts between traced runs."""
    issues = []
    for unit, rs in sorted(by_unit(runs).items()):
        if len({r["fingerprint"] for r in rs}) > 1:
            issues.append(f"unit {unit}: repeated runs disagree on digests "
                          f"or verdicts")
        counts = {exact_counts(r["result"]["trace"]) for r in rs
                  if r["traced"]}
        if len(counts) > 1:
            issues.append(f"unit {unit}: exact counts differ between "
                          f"traced runs")
    return issues


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed wants a natural number")
    if not os.path.isfile(os.path.join("src", "injurylab", "cli.py")):
        sys.stderr.write("run from the repository root: src/injurylab is "
                         "missing\n")
        return 2
    # On SIGTERM, unwind so the running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wl, runs, attempted, failed, issues = run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    issues += consistency(runs)
    print(f"workload {args.workload} seed {args.seed} runs {len(runs)} "
          f"attempted {attempted} failed {failed} "
          f"fail_ratio {failed / max(attempted, 1):.3g}")
    for msg in issues:
        print("issue " + msg)
    if not plain or (args.trace and not traced):
        sys.stderr.write("no unit passed its checks; no result\n")
        return 1
    if args.trace:
        table, metrics = per_layer(traced, plain)
        print(f"{'layer':40} {'calls/seed':>11} {'total ms':>9} "
              f"{'self ms':>9} {'self %':>7}")
        for name, calls, total, self_ms, pct in table:
            print(f"{name:40} {calls:11.1f} {total:9.1f} {self_ms:9.1f} "
                  f"{pct:7.2f}")
    else:
        metrics = end_to_end(wl, plain)
        for r in plain:
            durations, firsts = wl.timings(r["result"], r["items"])
            print(f"unit {r['unit']} first "
                  + " ".join(f"{f:.4f}" for f in firsts) + " each "
                  + " ".join(f"{d:.4f}" for d in durations)
                  + f" setup {r['result']['setup']:.4f} "
                  f"rss {r['result']['maxrss_kb'] / 1024:.1f} calibration "
                  + " ".join(f"{c:.4f}" for c in r["result"]["calibration"]))
    print(json.dumps({"correct": failed == 0 and not issues,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
