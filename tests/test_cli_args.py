"""The verb table reads argv as the argparse parser it replaced did.

``reference`` rebuilds that parser, with the --stages check that main ran
after it, as tests/test_repeat.py keeps the plain loop: on every argv
that the old parser read without abbreviating a flag, ``cli.read_argv``
gives the same handler and values, or rejects it too.  A rejected argv
ends in exit 2 and one ``error`` line that names the verb and the flag
or argument at fault; only a negative --stages keeps its old message,
which names the flag alone.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from injurylab import cli
from injurylab.cli import USAGE, VERBS, main, read_argv
from injurylab.constructions import CONSTRUCTIONS
from injurylab.trace import ConfigError


def reference_parser() -> argparse.ArgumentParser:
    """The parser that cli.main built on every call before the table."""
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
    r.set_defaults(fn=cli.cmd_run)

    c = sub.add_parser("campaign", help="replay a scenario over many seeds")
    c.add_argument("--scenario", required=True)
    c.add_argument("--seeds", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--stages", type=int)
    c.set_defaults(fn=cli.cmd_campaign)

    v = sub.add_parser("verify-trace", help="recheck a written trace")
    v.add_argument("--trace", required=True)
    v.set_defaults(fn=cli.cmd_verify_trace)

    n = sub.add_parser("cnf", help="ordinal notation utilities")
    nsub = n.add_subparsers(dest="cnf_verb", required=True)
    ne = nsub.add_parser("eval")
    ne.add_argument("expr", nargs="+")
    ne.set_defaults(fn=cli.cmd_cnf_eval)
    return p


def reference(argv):
    """(handler, values) as the old parser and main's --stages check
    read argv; None when they reject it."""
    with contextlib.redirect_stderr(io.StringIO()), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            args = vars(reference_parser().parse_args(argv))
        except SystemExit:
            return None
    if (args.get("stages") or 0) < 0:
        return None
    fn = args.pop("fn")
    args.pop("verb")
    args.pop("cnf_verb", None)
    return fn, args


def table(argv):
    """(handler, values) as the verb table reads argv; None on a usage
    error."""
    try:
        return read_argv(argv)
    except ConfigError:
        return None


def run_cli(argv):
    out = io.StringIO()
    return main(argv, out), out.getvalue()


VALID = [
    ["run", "--scenario", "s.txt"],
    ["run", "--scenario=s.txt", "--construction", "low-alpha", "--alpha",
     "w^2", "--stages", "40", "--seed", "-2", "--trace", "t.trace",
     "--report", "r.txt"],
    ["run", "--construction=nonlow-alpha", "--scenario", "a",
     "--scenario", "b", "--alpha=-1.5"],
    ["run", "--stages", "0", "--scenario", "-", "--stages=7", "--seed=-0"],
    ["run", "--scenario", "", "--report=x=y", "--trace", "-3"],
    ["run", "--scenario", "s", "--alpha", "-1.5", "--report", "-.5"],
    ["campaign", "--scenario", "s.txt", "--seeds", "3"],
    ["campaign", "--seeds=2", "--seed", "-5", "--stages", "10",
     "--scenario", "x"],
    ["campaign", "--scenario", "s", "--seeds", "1", "--seeds", "4",
     "--seed=3", "--seed", "1"],
    ["verify-trace", "--trace", "t.trace"],
    ["verify-trace", "--trace=t=u", "--trace", "-"],
    ["cnf", "eval", "w"],
    ["cnf", "eval", "w", "-", "1"],
    ["cnf", "eval", "w", "*", "-3"],
    ["cnf", "eval", "w*2+3", "+", "w*3", "cmp", "w*5"],
    ["cnf", "eval", "-3"],
    ["cnf", "eval", "eval", "run"],
]


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_valid_argv_reads_as_the_reference_reads_it(argv):
    assert reference(argv) is not None
    assert table(argv) == reference(argv)


def test_corpus_covers_every_verb_and_flag():
    used = {(argv[0], arg.partition("=")[0]) for argv in VALID
            for arg in argv}
    for verb, (_, flags) in VERBS.items():
        assert verb.split()[0] in {argv[0] for argv in VALID}
        for flag in flags or ():
            assert (verb, flag) in used


FLAGS = ["--scenario", "--construction", "--alpha", "--stages", "--seed",
         "--seeds", "--trace", "--report"]
VALUES = ["0", "3", "12", "-", "-3", "w", "junk", "s.txt", "low-alpha",
          "nonlow-low2"]
TOKENS = ["run", "campaign", "verify-trace", "cnf", "eval", "+", "*",
          "cmp", "--bogus"] + FLAGS + VALUES
PREFIXES = [[], ["run"], ["campaign"], ["verify-trace"], ["cnf"],
            ["cnf", "eval"]]

# token lists that often read as a verb and its flags: a prefix, then
# single tokens, flag-value pairs and --flag=value tokens
argvs = st.tuples(
    st.sampled_from(PREFIXES),
    st.lists(st.one_of(
        st.sampled_from(TOKENS).map(lambda t: [t]),
        st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list),
        st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(
            lambda fv: ["=".join(fv)])), max_size=8),
).map(lambda t: t[0] + [tok for part in t[1] for tok in part])


@settings(max_examples=400, deadline=None)
@given(argvs)
def test_table_accepts_exactly_what_the_reference_accepts(argv):
    assert table(argv) == reference(argv)


@settings(max_examples=200, deadline=None)
@given(argvs)
def test_a_rejected_argv_is_one_error_line(argv):
    if table(argv) is not None:
        return  # accepted: the handler runs (on files that do not exist)
    code, text = run_cli(argv)
    assert code == 2
    assert text.startswith("error ") and text.count("\n") == 1


VERB_LIST = "(run, campaign, verify-trace, cnf eval)"


@pytest.mark.parametrize("argv, line", [
    ([], f"error wants a verb {VERB_LIST}, got ''"),
    (["frobnicate"], f"error wants a verb {VERB_LIST}, got 'frobnicate'"),
    (["run", "--scenario", "s", "--bogus", "1"],
     "error run: unknown flag '--bogus'"),
    (["verify-trace", "--trace", "t", "extra"],
     "error verify-trace: unexpected argument 'extra'"),
    (["campaign", "--scenario", "s", "--seeds"],
     "error campaign: --seeds wants a value"),
    (["campaign", "--seeds", "--scenario", "s"],
     "error campaign: --seeds wants a value"),
    (["campaign", "--scenario", "s"], "error campaign: missing --seeds"),
    (["campaign", "--seed", "1"],
     "error campaign: missing --scenario and --seeds"),
    (["campaign", "--scenario", "s", "--seeds", "two"],
     "error campaign: --seeds wants an int, got 'two'"),
    (["run", "--scenario", "s", "--stages=1.5"],
     "error run: --stages wants an int, got '1.5'"),
    (["run", "--scenario", "s", "--stages", "-3"],
     "error --stages wants a natural, got -3"),
    (["run", "--scenario", "s", "--construction", "low3"],
     "error run: --construction wants one of nonlow-low2, low-alpha, "
     "nonlow-alpha, got 'low3'"),
    (["cnf"], f"error wants a verb {VERB_LIST}, got 'cnf'"),
    (["cnf", "evil", "w"], f"error wants a verb {VERB_LIST}, got 'cnf evil'"),
    (["cnf", "eval"], "error cnf eval: wants an expression"),
    (["cnf", "eval", "w", "--seed", "3"],
     "error cnf eval: unknown flag '--seed'"),
])
def test_usage_error_is_one_located_error_line(argv, line):
    assert reference(argv) is None
    assert run_cli(argv) == (2, line + "\n")


def test_abbreviated_flag_is_unknown():
    # argparse read --scen as --scenario; the table takes no abbreviation
    argv = ["run", "--scen", "scenarios/golden-low-alpha.txt"]
    assert reference(argv) is not None
    assert run_cli(argv) == (2, "error run: unknown flag '--scen'\n")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "-h"],
                                  ["campaign", "--seeds", "x", "--help"],
                                  ["cnf", "eval", "w", "-h"]])
def test_help_prints_the_usage(argv):
    assert run_cli(argv) == (0, USAGE)


def test_usage_names_every_verb_and_flag():
    for verb, (_, flags) in VERBS.items():
        assert f"injury-lab {verb} " in USAGE
        for flag in flags or ():
            assert flag in USAGE
