"""Recompute bench/pins.json, the correctness gate of the default seed.

Usage, from the repository root:  python3 bench/make_pins.py

Pins the digest of every campaign seed a default-seed run uses, and the
digest of each ``verify-trace`` report on the default-seed traces.  Rerun
it only when a trace or a verdict is meant to change, and say so where
the change is recorded.
"""

import json
import os
import shutil

import run


def main():
    pins = {}
    base = run.DEFAULT_SEED * run.SEED_SPAN
    for name, make in run.WORKLOADS.items():
        if name == "verify-trace":
            continue
        wl = make()
        pins[name] = {}
        for seeds, calls, scenario in wl.units(base):
            result = run.run_child({"calls": calls, "scenario": scenario})
            bad, digests = wl.check(result, seeds, None)
            if bad:
                raise SystemExit(f"{name}: seeds {sorted(bad)} fail")
            pins[name].update({str(s): d for s, d in zip(seeds, digests)})
    wl = run.WORKLOADS["verify-trace"]()
    workdir = os.path.join(run.HERE, "_work", f"pins-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        issues = wl.prepare(base, workdir, pins)
        if issues:
            raise SystemExit("\n".join(issues))
        pins["verify-trace"] = []
        for items, calls, _ in wl.units(base):
            bad, verdicts = wl.check(run.run_child({"calls": calls}), items,
                                     None)
            if bad:
                raise SystemExit(f"verify-trace: traces {sorted(bad)} fail")
            pins["verify-trace"] += verdicts
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
