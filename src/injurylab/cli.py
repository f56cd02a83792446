"""Command line front end: run scenarios, batch campaigns, verify traces.

Exit codes: 0 when every enabled check passes, 1 when a violation is
found, 2 on configuration or usage errors, malformed traces included,
and for a campaign in which any seed errors.
"""

import argparse
import hashlib
import sys

from .constructions import CONSTRUCTIONS, construction
from .ordinal import format_cnf, parse_cnf
from .scenario import load_scenario
from .trace import ConfigError, RunTrace, reduce_summary


def digest(trace: RunTrace) -> str:
    return hashlib.sha256(trace.to_text().encode()).hexdigest()[:16]


def replay_of(trace: RunTrace):
    """The trace's replay, built once and handed to the checks,
    worst_ratio and report_lines."""
    return construction(trace.construction).replay(trace)


def worst_ratio(trace: RunTrace, replay) -> float:
    """Largest observed injuries / closed-form ceiling over protected
    computations; 0.0 when nothing was hit or no finite ceiling applies."""
    return construction(trace.construction).worst_ratio(replay)


def report_lines(trace: RunTrace, checks, replay) -> list:
    return [c.line() for c in checks] + \
        construction(trace.construction).extras(trace, replay)


def checks_for(trace: RunTrace, replay, sc=None, psis=None) -> list:
    if sc is not None:
        return sc.checks(trace, psis, replay)
    return construction(trace.construction).verify(trace, psis, replay)


def _load(path: str):
    try:
        with open(path) as fh:
            return load_scenario(fh.read())
    except OSError as ex:
        raise ConfigError(str(ex))


def cmd_run(args, out) -> int:
    sc = _load(args.scenario)
    if args.construction:
        sc.construction = args.construction
    if args.alpha:
        try:
            sc.alpha = parse_cnf(args.alpha)
        except ValueError as ex:
            raise ConfigError(f"--alpha: {ex}") from None
    sc.validate()
    trace, psis = sc.execute(seed=args.seed, stages=args.stages)
    if trace.summary != reduce_summary(trace):
        raise ConfigError("trace summary does not replay")
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace.to_text())
    replay = replay_of(trace)
    checks = checks_for(trace, replay, sc, psis)
    lines = report_lines(trace, checks, replay)
    text = "\n".join(lines) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    out.write(text)
    return 0 if all(c.passed for c in checks) else 1


def _campaign_seed(sc, seed: int, stages, out):
    """Run, check and report one campaign seed.  Returns its digest, worst
    ratio and failed checks, or None when the seed errors.  The trace and
    its replay die with this call, before the next seed runs."""
    try:
        trace, psis = sc.execute(seed=seed, stages=stages)
        replay = replay_of(trace)
        checks = checks_for(trace, replay, sc, psis)
    except ConfigError as ex:
        out.write(f"seed {seed} error {ex}\n")
        return None
    d = digest(trace)
    ratio = worst_ratio(trace, replay)
    bad = [c for c in checks if not c.passed]
    out.write(f"seed {seed} digest={d} "
              f"checks={len(checks) - len(bad)}/{len(checks)} "
              f"worst-ratio={ratio:.3g}\n")
    for c in bad:
        out.write(f"fail seed={seed} check={c.name} "
                  f"witness={'-' if c.witness is None else c.witness}\n")
    return d, ratio, bad


def cmd_campaign(args, out) -> int:
    """Exit 2 when any seed errors, else 1 when any check fails."""
    sc = _load(args.scenario)
    if args.seeds < 1:
        raise ConfigError("campaign wants at least one seed")
    failures = 0
    errors = 0
    digests = []
    worst = 0.0
    for seed in range(args.seed, args.seed + args.seeds):
        result = _campaign_seed(sc, seed, args.stages, out)
        if result is None:
            errors += 1
            continue
        d, ratio, bad = result
        digests.append(d)
        worst = max(worst, ratio)
        failures += len(bad)
    out.write(f"campaign construction={sc.construction} "
              f"seeds={args.seeds} failures={failures} "
              f"errors={errors} worst-ratio={worst:.3g} "
              f"digest={hashlib.sha256(','.join(digests).encode()).hexdigest()[:16]}\n")
    if errors:
        return 2
    return 1 if failures else 0


def cmd_verify_trace(args, out) -> int:
    try:
        with open(args.trace) as fh:
            trace = RunTrace.from_text(fh.read())
    except OSError as ex:
        raise ConfigError(str(ex))
    replay_cls = construction(trace.construction).replay
    if trace.summary != reduce_summary(trace):
        out.write("check self-consistency fail witness ?\n")
        return 1
    replay = replay_cls(trace)
    checks = checks_for(trace, replay)
    out.write("check self-consistency pass witness ?\n")
    text = "\n".join(report_lines(trace, checks, replay)) + "\n"
    out.write(text)
    return 0 if all(c.passed for c in checks) else 1


def cmd_cnf_eval(args, out) -> int:
    toks = list(args.expr)
    if not toks:
        raise ConfigError("empty expression")
    try:
        acc = parse_cnf(toks[0])
        i = 1
        while i < len(toks):
            op, val = toks[i], toks[i + 1] if i + 1 < len(toks) else None
            if val is None:
                raise ConfigError(f"operator {op!r} wants an operand")
            if op == "+":
                acc = acc + parse_cnf(val)
            elif op == "*":
                acc = acc.times_nat(int(val))
            elif op == "cmp":
                other = parse_cnf(val)
                rel = "lt" if acc < other else (
                    "eq" if acc == other else "gt")
                out.write(rel + "\n")
                return 0
            else:
                raise ConfigError(f"unknown operator {op!r}")
            i += 2
    except (ValueError, IndexError) as ex:
        raise ConfigError(str(ex))
    out.write(format_cnf(acc) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="injury-lab")
    sub = p.add_subparsers(dest="verb", required=True)

    r = sub.add_parser("run", help="execute one scenario")
    r.add_argument("--scenario", required=True)
    r.add_argument("--construction", choices=tuple(CONSTRUCTIONS))
    r.add_argument("--alpha")
    r.add_argument("--stages", type=int)
    r.add_argument("--seed", type=int)
    r.add_argument("--trace")
    r.add_argument("--report")
    r.set_defaults(fn=cmd_run)

    c = sub.add_parser("campaign", help="replay a scenario over many seeds")
    c.add_argument("--scenario", required=True)
    c.add_argument("--seeds", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--stages", type=int)
    c.set_defaults(fn=cmd_campaign)

    v = sub.add_parser("verify-trace", help="recheck a written trace")
    v.add_argument("--trace", required=True)
    v.set_defaults(fn=cmd_verify_trace)

    n = sub.add_parser("cnf", help="ordinal notation utilities")
    nsub = n.add_subparsers(dest="cnf_verb", required=True)
    ne = nsub.add_parser("eval")
    ne.add_argument("expr", nargs="+")
    ne.set_defaults(fn=cmd_cnf_eval)
    return p


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code else 0
    try:
        return args.fn(args, out)
    except ConfigError as ex:
        out.write(f"error {ex}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
