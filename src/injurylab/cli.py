"""Command line front end: run scenarios, batch campaigns, verify traces.

The verbs and their flags are one table, VERBS, read by read_argv.  A
flag takes its value as the next argument or after '=' (``--seed=3``).
An argument that starts with '-' and is not '-' alone or a negative
number is a flag, so a flag followed by one wants a value.  The last
repeat of a flag wins, and flags are never abbreviated.  ``cnf eval``
takes the remaining arguments as its expression.  ``-h`` or ``--help``
anywhere prints USAGE and exits 0.

Exit codes: 0 when every enabled check passes, 1 when a violation is
found, 2 on configuration or usage errors, malformed traces and a
negative --stages included, and for a campaign in which any seed
errors.  A usage error, like any other exit 2 before a run, is one
``error ...`` line on the output stream.
"""

import hashlib
import mmap
import re
import sys

from .constructions import CONSTRUCTIONS, construction
from .ordinal import format_cnf, parse_cnf, printable, read_nat
from .scenario import load_scenario
from .trace import ConfigError, RunTrace


def digest(trace: RunTrace) -> str:
    return trace.digest()[:16]


def replay_of(trace: RunTrace):
    """The trace's replay, built once and handed to the checks,
    worst_ratio and report_lines."""
    return construction(trace.construction).replay(trace)


def reduce_summary(replay) -> dict:
    """The terminal summary the replay derived from the events."""
    return replay.summary.entries()


def run_replay(trace: RunTrace):
    """The run's replay; ConfigError when it derives another summary."""
    replay = replay_of(trace)
    if trace.summary != reduce_summary(replay):
        raise ConfigError("trace summary does not replay")
    return replay


def worst_ratio(trace: RunTrace, replay) -> float:
    """Largest observed injuries / closed-form ceiling over protected
    computations; 0.0 when nothing was hit or no finite ceiling applies."""
    return construction(trace.construction).worst_ratio(replay)


def report_lines(trace: RunTrace, checks, replay) -> list:
    return [c.line() for c in checks] + \
        construction(trace.construction).extras(replay)


def checks_for(trace: RunTrace, replay, sc=None, psis=None) -> list:
    """The construction's checks on the trace's replay, less those the
    scenario sc turns off."""
    checks = construction(trace.construction).verify(psis, replay)
    if sc is None:
        return checks
    return [c for c in checks if sc.verify.get(c.name, True)]


def _unreadable(path: str, ex: Exception) -> ConfigError:
    """The ConfigError for an OSError or UnicodeDecodeError met reading
    the file at path."""
    if isinstance(ex, UnicodeDecodeError):
        return ConfigError(f"cannot read {path}: not UTF-8 ({ex.reason} "
                           f"at byte {ex.start})")
    return ConfigError(f"cannot read {path}: {ex.strerror or ex}")


def _read(path: str) -> str:
    """The text of the file at path.  A file that cannot be read, or is
    not UTF-8, is a ConfigError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise _unreadable(path, ex) from None


def _read_trace(path: str) -> RunTrace:
    """The trace in the file at path, parsed in place from a read-only
    map of the file, which is closed before this returns.  A file that
    cannot be mapped, an empty file or a pipe, is read whole into bytes
    for the same parser.  A file that cannot be read, or is not UTF-8, is
    a ConfigError naming the path."""
    try:
        with open(path, "rb") as fh:
            try:
                text = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                return RunTrace.from_text(fh.read())
            with text:
                return RunTrace.from_text(text)
    except (OSError, UnicodeDecodeError) as ex:
        raise _unreadable(path, ex) from None


def _write(path: str, text: str) -> None:
    """Write text to the file at path; a failure is a ConfigError naming
    the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as ex:
        raise ConfigError(f"cannot write {path}: {ex.strerror or ex}") \
            from None


def cmd_run(out, scenario, construction, alpha, stages, seed, trace,
            report) -> int:
    sc = load_scenario(_read(scenario))
    if construction:
        sc.construction = construction
    if alpha:
        try:
            sc.alpha = parse_cnf(alpha)
        except ValueError as ex:
            raise ConfigError(f"--alpha: {ex}") from None
    sc.validate()
    tr, psis = sc.execute(seed=seed, stages=stages)
    replay = run_replay(tr)
    if trace:
        _write(trace, tr.to_text())
    checks = checks_for(tr, replay, sc, psis)
    lines = report_lines(tr, checks, replay)
    text = "\n".join(lines) + "\n"
    if report:
        _write(report, text)
    out.write(text)
    return 0 if all(c.passed for c in checks) else 1


def _campaign_seed(sc, seed: int, stages, out):
    """Run, check and report one campaign seed.  Returns its digest, worst
    ratio and failed checks, or None when the seed errors.  The trace and
    its replay die with this call, before the next seed runs."""
    try:
        trace, psis = sc.execute(seed=seed, stages=stages)
        replay = run_replay(trace)
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


def cmd_campaign(out, scenario, seeds, seed, stages) -> int:
    """Exit 2 when any seed errors, else 1 when any check fails."""
    sc = load_scenario(_read(scenario))
    if seeds < 1:
        raise ConfigError("campaign wants at least one seed")
    failures = 0
    errors = 0
    digests = []
    worst = 0.0
    for n in range(seed, seed + seeds):
        result = _campaign_seed(sc, n, stages, out)
        if result is None:
            errors += 1
            continue
        d, ratio, bad = result
        digests.append(d)
        worst = max(worst, ratio)
        failures += len(bad)
    out.write(f"campaign construction={sc.construction} "
              f"seeds={seeds} failures={failures} "
              f"errors={errors} worst-ratio={worst:.3g} "
              f"digest={hashlib.sha256(','.join(digests).encode()).hexdigest()[:16]}\n")
    if errors:
        return 2
    return 1 if failures else 0


def cmd_verify_trace(out, trace) -> int:
    tr = _read_trace(trace)
    replay = replay_of(tr)
    if tr.summary != reduce_summary(replay):
        out.write("check self-consistency fail witness ?\n")
        return 1
    checks = checks_for(tr, replay)
    out.write("check self-consistency pass witness ?\n")
    text = "\n".join(report_lines(tr, checks, replay)) + "\n"
    out.write(text)
    return 0 if all(c.passed for c in checks) else 1


def cmd_cnf_eval(out, expr) -> int:
    try:
        acc = parse_cnf(expr[0])  # read_argv rejects an empty expression
        i = 1
        while i < len(expr):
            op, val = expr[i], expr[i + 1] if i + 1 < len(expr) else None
            if val is None:
                raise ConfigError(f"operator {op!r} wants an operand")
            if op == "+":
                acc = acc + parse_cnf(val)
            elif op == "*":
                acc = acc.times_nat(read_nat(val, "'*' operand"))
            elif op == "cmp":
                other = parse_cnf(val)
                rel = "lt" if acc < other else (
                    "eq" if acc == other else "gt")
                out.write(rel + "\n")
                return 0
            else:
                raise ConfigError(f"unknown operator {op!r}")
            i += 2
        # a sum or product of literals within the limit can pass it
        if not all(printable(c) for _, c in acc):
            raise ConfigError(f"result has a coefficient past "
                              f"{sys.get_int_max_str_digits()} digits")
        out.write(format_cnf(acc) + "\n")
    except (ValueError, IndexError) as ex:
        raise ConfigError(str(ex))
    return 0


USAGE = """\
usage: injury-lab run --scenario FILE [--construction NAME] [--alpha CNF]
                      [--stages N] [--seed INT] [--trace FILE] [--report FILE]
       injury-lab campaign --scenario FILE --seeds INT [--seed INT]
                           [--stages N]
       injury-lab verify-trace --trace FILE
       injury-lab cnf eval CNF [OP OPERAND]...    (OP: + CNF, * INT, cmp CNF)

A flag takes its value as the next argument or after '=' (--seed=3); the
last repeat of a flag wins, and a flag is never abbreviated.  A usage
error is one 'error ...' line on standard output, with exit 2.
"""

NATURAL = "natural"  # the kind of an int that must not be negative

# verb -> (handler, {flag: (kind, required, default)}).  A kind is str,
# int, NATURAL or the mapping whose keys are the accepted values.  The
# handler takes the output stream and each flag's value as the keyword
# of its name.  "cnf eval" takes no flags: its handler takes the
# remaining arguments as expr.
VERBS = {
    "run": (cmd_run, {"--scenario": (str, True, None),
                      "--construction": (CONSTRUCTIONS, False, None),
                      "--alpha": (str, False, None),
                      "--stages": (NATURAL, False, None),
                      "--seed": (int, False, None),
                      "--trace": (str, False, None),
                      "--report": (str, False, None)}),
    "campaign": (cmd_campaign, {"--scenario": (str, True, None),
                                "--seeds": (int, True, None),
                                "--seed": (int, False, 0),
                                "--stages": (NATURAL, False, None)}),
    "verify-trace": (cmd_verify_trace, {"--trace": (str, True, None)}),
    "cnf eval": (cmd_cnf_eval, None),
}

# what argparse reads as a negative number rather than a flag
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _is_flag(arg: str) -> bool:
    """Whether arg reads as a flag, not a value: it starts with '-' and
    is neither '-' alone nor a negative number."""
    return arg[:1] == "-" and arg != "-" and not _NEGATIVE.fullmatch(arg)


def _value(verb: str, flag: str, kind, arg: str):
    """arg read as a value of flag's kind."""
    if kind is str:
        return arg
    if kind is int or kind is NATURAL:
        try:
            n = int(arg)
        except ValueError:
            raise ConfigError(f"{verb}: {flag} wants an int, got {arg!r}") \
                from None
        if n < 0 and kind is NATURAL:
            raise ConfigError(f"{flag} wants a natural, got {n}")
        return n
    if arg not in kind:
        raise ConfigError(f"{verb}: {flag} wants one of "
                          f"{', '.join(kind)}, got {arg!r}")
    return arg


def read_argv(argv: list) -> tuple:
    """The handler that argv names and the keyword values to call it
    with.  Any usage error is a ConfigError naming the verb and the flag
    or argument at fault."""
    words = 2 if argv[:1] == ["cnf"] else 1
    verb = " ".join(argv[:words])
    if verb not in VERBS:
        raise ConfigError(f"wants a verb ({', '.join(VERBS)}), got {verb!r}")
    handler, flags = VERBS[verb]
    rest = argv[words:]
    if flags is None:
        flag = next((arg for arg in rest if _is_flag(arg)), None)
        if flag is not None:
            raise ConfigError(f"{verb}: unknown flag {flag!r}")
        if not rest:
            raise ConfigError(f"{verb}: wants an expression")
        return handler, {"expr": rest}
    values = {flag[2:]: default for flag, (_, _, default) in flags.items()}
    seen = set()
    i = 0
    while i < len(rest):
        flag, eq, arg = rest[i].partition("=")
        if flag not in flags:
            what = "unknown flag" if _is_flag(rest[i]) \
                else "unexpected argument"
            raise ConfigError(f"{verb}: {what} {rest[i]!r}")
        if not eq:
            i += 1
            if i == len(rest) or _is_flag(rest[i]):
                raise ConfigError(f"{verb}: {flag} wants a value")
            arg = rest[i]
        values[flag[2:]] = _value(verb, flag, flags[flag][0], arg)
        seen.add(flag)
        i += 1
    missing = [flag for flag, (_, required, _) in flags.items()
               if required and flag not in seen]
    if missing:
        raise ConfigError(f"{verb}: missing {' and '.join(missing)}")
    return handler, values


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        out.write(USAGE)
        return 0
    try:
        handler, values = read_argv(argv)
        return handler(out, **values)
    except ConfigError as ex:
        out.write(f"error {ex}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
