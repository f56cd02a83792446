"""Scenario grammar and command line front end."""

import gc
import glob
import inspect
import io
import os
import re
import sys
import time
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from injurylab import cli, nonlow_low2
from injurylab.cli import (checks_for, digest, main, reduce_summary,
                           replay_of)
from injurylab.constructions import CONSTRUCTIONS
from injurylab.functional import ArgSchedule
from injurylab.ordinal import MAX_NESTING, nat, omega_power
from injurylab.scenario import OPPONENTS, ScenarioError, load_scenario
from injurylab.trace import CheckResult, RunTrace

from test_golden import REPORTS

HERE = os.path.dirname(__file__)
NINES = "9" * 4300
SCEN = os.path.join(HERE, os.pardir, "scenarios")


def set_payload(line, **values):
    """A trace line with the given payload values put in place."""
    for key, value in values.items():
        line = re.sub(rf"(?<= ){key}=\S*", f"{key}={value}", line)
    return line


def fixture_lines(name):
    with open(os.path.join(HERE, "fixtures", name + ".trace")) as fh:
        return fh.read().splitlines()


GOLDEN = {name: fixture_lines(name) for name in (
    "golden-nonlow-low2", "golden-low-alpha", "golden-nonlow-alpha")}


def edited(name, lineno, **values):
    """The text of a golden trace with payload values set on one line."""
    lines = list(GOLDEN[name])
    lines[lineno - 1] = set_payload(lines[lineno - 1], **values)
    return "\n".join(lines) + "\n"


def appended(name, payload):
    """The text of a golden trace with an event of payload appended at
    its last stage, and that event's id."""
    lines = list(GOLDEN[name])
    last = max(i for i, line in enumerate(lines) if line[:1].isdigit())
    eid, stage = map(int, lines[last].split()[:2])
    lines.insert(last + 1, f"{eid + 1} {stage} {payload}")
    return "\n".join(lines) + "\n", eid + 1


LOW2_TEXT = """\
# comments and blank lines are fine

construction nonlow-low2
stages 40
seed 0
adv p0 psi level 0 mode random seed 1 flip 0.3 stab 30
adv p1 psi level 1 mode random seed 2 flip 0.3 stab 30
fun 0 arg 0 first 2
fun 0 arg 1 first 5 delay 1 policy low:5
fun 1 arg 0 first 3
"""

LOWA_TEXT = """\
construction low-alpha
alpha w^2
stages 40
adv f0 f level 0 g w mode random seed 3 change 0.3
adv f1 f level 1 g 4 mode scripted
adv f1 step arg 0 stage 5 value 1 marker 3
adv f1 step arg 0 stage 9 value 0 marker 2
fun 0 arg 0 first 2
fun 1 arg 0 first 4
"""

NALPHA_TEXT = """\
construction nonlow-alpha
alpha w^w
stages 34
adv p0 psi level 0 mode random seed 5 stab 25
adv f0 f level 0 g w mode random seed 6 change 0.3
fun 0 arg 0 first 2
fun 0 arg 1 first 6
fun 0 arg 2 first 10
fun 0 arg 3 first 14
"""


# Scripts and their opponents: an opponent is scripted or drawn, never
# both; a script's steps rise in stage at each argument, and a psi step
# flips the 0/1 value.  A fun line configures an argument once, and an
# adv line takes a level no opponent of its kind holds.
NARROWED = [
    *[(f"adv p0 psi{mode}\nadv p0 step arg 0 stage 2 value 1\n",
       "line 3: opponent 'p0' is not scripted: it takes no steps")
      for mode in ("", " mode random", " mode alternating")],
    ("adv f0 f g w mode random\nadv f0 step arg 0 stage 1 value 1 "
     "marker 3\n",
     "line 3: opponent 'f0' is not scripted: it takes no steps"),
    ("adv p0 psi mode scripted\nadv p0 step arg 0 stage 4 value 1\n"
     "adv p0 step arg 0 stage 4 value 0\n",
     "line 4: stages must increase at arg 0"),
    ("adv f0 f g w\nadv f0 step arg 1 stage 5 value 1 marker 3\n"
     "adv f0 step arg 0 stage 2 value 1 marker 3\n"
     "adv f0 step arg 1 stage 2 value 2 marker 2\n",
     "line 5: stages must increase at arg 1"),
    ("adv p0 psi mode scripted\nadv p0 step arg 0 stage 3 value 2\n",
     "line 3: step at arg 0 wants value 1, got 2"),
    ("adv p0 psi mode scripted\nadv p0 step arg 0 stage 3 value 1\n"
     "adv p0 step arg 0 stage 5 value 1\n",
     "line 4: step at arg 0 wants value 0, got 1"),
    ("fun 0 arg 0 first 3\nfun 0 arg 0 first 80 delay 4\n",
     "line 3: fun 0 arg 0 declared twice"),
    ("adv p0 psi level 0\nadv p1 psi level 0 mode random\n",
     "line 3: psi level 0 declared twice: 'p0' holds it"),
]


class TestGrammar:
    def test_round_trip_fields(self):
        sc = load_scenario(LOW2_TEXT)
        assert sc.construction == "nonlow-low2"
        assert sc.stages == 40 and sc.seed == 0
        assert sorted(sc.levels("psi")) == [0, 1]
        p0 = sc.advs["p0"].build(0)
        assert p0.flip == 0.3 and p0.stab == 30
        assert sorted(sc.funs) == [0, 1]
        assert sc.funs[0].args[1] == ArgSchedule(5, 1, "low", 5)

    def test_alpha_and_budget(self):
        sc = load_scenario(LOWA_TEXT)
        assert sc.alpha == omega_power(nat(2))
        assert sc.advs["f0"].build(0).g == omega_power(nat(1))
        f1 = sc.advs["f1"].build(0)
        assert f1.g == nat(4)
        assert [(f1.value(0, s), f1.marker(0, s)) for s in (4, 5, 9)] == [
            (0, nat(4)), (1, nat(3)), (0, nat(2))]
        assert [f1.next_change(0, s, 40) for s in (0, 5, 9)] == [5, 9, 40]

    def test_table_fields_are_class_keywords(self):
        # each field a mode reads sets a keyword of what the mode builds,
        # every field is read by some mode, and every mode reads its
        # kind's budget
        for spec in OPPONENTS.values():
            read = set()
            for build, reads in spec.modes.values():
                params = inspect.signature(build).parameters
                assert {spec.fields[f][0] for f in reads} <= set(params)
                assert not spec.budget or spec.budget in reads
                read |= set(reads)
            assert read == set(spec.fields)

    def errors(self, text):
        with pytest.raises(ScenarioError) as ex:
            load_scenario(text)
        return ex.value

    def test_unknown_construction(self):
        err = self.errors("construction frobnicate\n")
        assert err.lineno == 1 and "construction" in str(err)

    def test_unknown_directive_line_number(self):
        err = self.errors("construction nonlow-low2\n\nbogus 3\n")
        assert err.lineno == 3

    def test_bad_alpha_cnf(self):
        err = self.errors("construction low-alpha\nalpha w^^2\n")
        assert err.lineno == 2

    def test_missing_alpha(self):
        err = self.errors("construction low-alpha\nstages 5\n"
                          "adv f0 f level 0 g w\nfun 0 arg 0 first 2\n")
        assert "alpha" in str(err)

    def test_step_for_undeclared_opponent(self):
        err = self.errors("construction nonlow-low2\n"
                          "adv p9 step arg 0 stage 1 value 1\n")
        assert err.lineno == 2 and "undeclared" in str(err)

    def test_noncontiguous_levels(self):
        err = self.errors("construction nonlow-low2\nstages 5\n"
                          "adv p0 psi level 1\nfun 0 arg 0 first 2\n")
        assert "contiguous" in str(err)

    def test_duplicate_opponent(self):
        err = self.errors("construction nonlow-low2\n"
                          "adv p0 psi level 0\nadv p0 psi level 1\n")
        assert err.lineno == 3

    def test_f_without_budget(self):
        err = self.errors("construction low-alpha\nalpha w\n"
                          "adv f0 f level 0 mode random\n")
        assert "budget" in str(err)

    def test_dangling_token(self):
        err = self.errors("construction nonlow-low2\n"
                          "adv p0 psi level\n")
        assert err.lineno == 2 and "dangling" in str(err)

    def test_bad_natural(self):
        err = self.errors("construction nonlow-low2\nstages minus\n")
        assert "natural" in str(err)

    def test_unknown_psi_mode(self):
        err = self.errors("construction nonlow-low2\n"
                          "adv p0 psi level 0 mode chaotic\n")
        assert "mode" in str(err)

    @pytest.mark.parametrize("body, field", [
        ("adv p0 psi level 0 change 0.3\n", "opponent field 'change'"),
        ("adv f0 f level 0 g w flip 0.3\n", "opponent field 'flip'"),
        ("adv f0 f level 0 g w stab 40\n", "opponent field 'stab'"),
        ("adv f0 f level 0 g w period 2\n", "opponent field 'period'"),
        ("adv p0 psi level 0 mode scripted\n"
         "adv p0 step arg 0 stage 1 value 1 marker 3\n",
         "step field 'marker'"),
    ])
    def test_field_no_class_of_the_kind_reads(self, body, field):
        err = self.errors("construction nonlow-alpha\nalpha w\n" + body)
        assert err.lineno == body.count("\n") + 2
        assert str(err) == f"line {err.lineno}: unknown {field}"

    @pytest.mark.parametrize("line", ["verify uniformity off",
                                      "verify budget-formula off",
                                      "verify no-such-check off",
                                      "verify budget maybe"])
    def test_verify_line_is_an_unknown_directive(self, line):
        err = self.errors(f"construction nonlow-low2\n{line}\n")
        assert str(err) == "line 2: unknown directive 'verify'"

    @pytest.mark.parametrize("field", ["flip 0.3x", "flip 1.5",
                                       "change lots", "change nan"])
    def test_bad_probability(self, field):
        kind = "psi" if field.startswith("flip") else "f g w"
        err = self.errors(f"construction nonlow-low2\n"
                          f"adv a0 {kind} level 0 {field}\n")
        assert err.lineno == 2 and field.split()[0] in str(err)

    def test_script_steps_load_in_linear_time(self):
        # each step is checked as it is read; replaying every earlier step
        # at its argument took 5.7 s of CPU for these 4,000
        text = "construction nonlow-low2\nadv p0 psi mode scripted\n" + \
            "".join(f"adv p0 step arg 0 stage {t} value {t % 2}\n"
                    for t in range(1, 4001))
        start = time.process_time()
        sc = load_scenario(text)
        assert time.process_time() - start < 1.0
        assert len(sc.advs["p0"].steps) == 4000
        assert sc.advs["p0"].build(0).value(0, 4000) == 0


class TestExecute:
    @pytest.mark.parametrize("text", [LOW2_TEXT, LOWA_TEXT, NALPHA_TEXT])
    def test_runs_and_replays(self, text):
        sc = load_scenario(text)
        trace, psis = sc.execute()
        assert trace.summary == reduce_summary(replay_of(trace))
        checks = checks_for(trace, replay_of(trace), psis)
        assert checks and all(c.passed for c in checks)

    def test_reports_every_check(self):
        # no scenario line turns a check off: a run reports every check
        # of its construction, in registry order
        for text in (LOW2_TEXT, LOWA_TEXT, NALPHA_TEXT):
            sc = load_scenario(text)
            trace, psis = sc.execute()
            names = [c.name for c in checks_for(trace, replay_of(trace),
                                                psis)]
            assert names == list(CONSTRUCTIONS[sc.construction].checks)

    def test_seed_shifts_opponents(self):
        sc = load_scenario(LOW2_TEXT)
        t0, _ = sc.execute(seed=0)
        t1, _ = sc.execute(seed=1)
        assert digest(t0) != digest(t1)

    def test_same_seed_same_trace(self):
        sc = load_scenario(NALPHA_TEXT)
        t0, _ = sc.execute()
        t1, _ = sc.execute()
        assert t0.to_text() == t1.to_text()


CONSTRUCTION_IDS = ("nonlow-low2", "low-alpha", "nonlow-alpha")


@pytest.fixture
def refcount_only():
    """Cyclic collection off: only reference counting frees objects."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestLifetime:
    """A finished run holds no reference cycle, so its engine and trace
    are freed as soon as the caller drops them, not at some later
    collection."""

    @pytest.mark.parametrize("text", [LOW2_TEXT, LOWA_TEXT, NALPHA_TEXT],
                             ids=CONSTRUCTION_IDS)
    def test_execute_trace_dies_with_its_caller(self, text, refcount_only):
        trace, _ = load_scenario(text).execute()
        ref = weakref.ref(trace)
        del trace
        assert ref() is None

    @pytest.mark.parametrize("text", [LOW2_TEXT, LOWA_TEXT, NALPHA_TEXT],
                             ids=CONSTRUCTION_IDS)
    def test_campaign_seed_trace_dies_with_the_seed(self, text, monkeypatch,
                                                   refcount_only):
        sc = load_scenario(text)
        execute, refs = sc.execute, []

        def spy(**kwargs):
            trace, psis = execute(**kwargs)
            refs.append(weakref.ref(trace))
            return trace, psis

        monkeypatch.setattr(sc, "execute", spy)
        assert cli._campaign_seed(sc, 0, None, io.StringIO()) is not None
        assert len(refs) == 1 and refs[0]() is None


class TestCli:
    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out)
        return code, out.getvalue()

    def scenario_path(self, tmp_path, text):
        p = tmp_path / "s.txt"
        p.write_text(text)
        return str(p)

    def test_run_reports_checks(self, tmp_path):
        path = self.scenario_path(tmp_path, LOWA_TEXT)
        report = tmp_path / "r.txt"
        code, text = self.run_cli(["run", "--scenario", path,
                                   "--report", str(report)])
        assert code == 0
        assert "check budget-formula pass" in text
        assert "phi e=0 value=" in text
        assert report.read_text() == text

    def test_run_trace_then_verify(self, tmp_path):
        path = self.scenario_path(tmp_path, NALPHA_TEXT)
        tr = tmp_path / "t.trace"
        code, text = self.run_cli(["run", "--scenario", path,
                                   "--trace", str(tr)])
        assert code == 0 and "bound " in text
        code2, text2 = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert code2 == 0
        assert text2.startswith("check self-consistency pass")

    def test_verify_trace_catches_tampering(self, tmp_path):
        path = self.scenario_path(tmp_path, LOWA_TEXT)
        tr = tmp_path / "t.trace"
        self.run_cli(["run", "--scenario", path, "--trace", str(tr)])
        lines = tr.read_text().splitlines()
        lines[-1] = lines[-1].replace("summary ", "summary 9")
        tr.write_text("\n".join(lines) + "\n")
        code, text = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert code == 1
        assert text == "check self-consistency fail witness ?\n"

    def test_run_overrides(self, tmp_path):
        path = self.scenario_path(tmp_path, LOWA_TEXT)
        code, text = self.run_cli(["run", "--scenario", path,
                                   "--stages", "12", "--seed", "4"])
        assert code == 0 and "check diagonalization" in text

    def test_campaign_deterministic(self, tmp_path):
        path = self.scenario_path(tmp_path, LOW2_TEXT)
        argv = ["campaign", "--scenario", path, "--seeds", "3",
                "--stages", "30"]
        code, first = self.run_cli(argv)
        code2, second = self.run_cli(argv)
        assert code == code2 == 0
        assert first == second
        last = first.strip().splitlines()[-1]
        assert last.startswith("campaign construction=nonlow-low2 seeds=3 "
                               "failures=0 errors=0 ")
        assert "digest=" in last
        seed_lines = [l for l in first.splitlines() if l.startswith("seed ")]
        assert len(seed_lines) == 3
        assert all("checks=" in l and "worst-ratio=" in l
                   for l in seed_lines)

    def test_campaign_seed_offset_changes_digest(self, tmp_path):
        path = self.scenario_path(tmp_path, LOWA_TEXT)
        _, a = self.run_cli(["campaign", "--scenario", path, "--seeds", "1"])
        _, b = self.run_cli(["campaign", "--scenario", path, "--seeds", "1",
                             "--seed", "7"])
        assert a.splitlines()[0] != b.splitlines()[0]

    def test_cnf_eval_sum(self):
        code, text = self.run_cli(["cnf", "eval", "w*2+3", "+", "w*3"])
        assert code == 0 and text == "w*5\n"

    def test_cnf_eval_product(self):
        code, text = self.run_cli(["cnf", "eval", "w+1", "*", "3"])
        assert code == 0 and text == "w*3+1\n"

    def test_cnf_eval_cmp(self):
        assert self.run_cli(["cnf", "eval", "w^2", "cmp", "w*900"]) \
            == (0, "gt\n")
        assert self.run_cli(["cnf", "eval", "w", "+", "1", "cmp", "w+1"]) \
            == (0, "eq\n")
        assert self.run_cli(["cnf", "eval", "4", "cmp", "w"]) == (0, "lt\n")

    def test_cnf_eval_bad_expression(self):
        code, text = self.run_cli(["cnf", "eval", "w", "+"])
        assert code == 2 and text.startswith("error ")
        assert self.run_cli(["cnf", "eval", "w^(w"]) == \
            (2, "error missing ')'\n")

    def test_cnf_eval_unknown_operator(self):
        assert self.run_cli(["cnf", "eval", "w", "-", "1"]) \
            == (2, "error unknown operator '-'\n")

    def test_cnf_eval_empty_expression_is_usage_error(self):
        assert self.run_cli(["cnf", "eval"]) == \
            (2, "error cnf eval: wants an expression\n")

    def test_missing_scenario_file(self, tmp_path):
        code, text = self.run_cli(["run", "--scenario",
                                   str(tmp_path / "nope.txt")])
        assert code == 2 and text.startswith("error ")

    def test_scenario_error_is_usage_error(self, tmp_path):
        path = self.scenario_path(tmp_path, "construction frobnicate\n")
        code, text = self.run_cli(["run", "--scenario", path])
        assert code == 2 and "line 1" in text

    def test_scenario_value_error_exits_2(self, tmp_path):
        for line in ("verify no-such-check off",
                     "adv p9 psi level 2 flip often"):
            path = self.scenario_path(tmp_path, LOW2_TEXT + line + "\n")
            code, text = self.run_cli(["run", "--scenario", path])
            assert code == 2 and text.startswith("error line 11: ")

    @pytest.mark.parametrize("body, where", [
        ("adv p0\n", "line 2: adv wants an id and a kind"),
        ("adv p0 psi mode scripted\n"
         "adv p0 step when 3 arg 0 stage 1 value 0\n",
         "line 3: unknown step field 'when'"),
        ("adv p0 psi mode scripted\nadv p0 step stage 1 arg 0\n",
         "line 3: step misses value"),
        ("adv f0 f g w\nadv f0 step arg 0 stage 1 value 1 marker w^^\n",
         "line 3: marker: bad exponent '^'"),
        ("adv p0 zeta\n", "line 2: unknown opponent kind 'zeta'"),
        ("adv f0 f g w+\n", "line 2: g: expected a term"),
        ("adv p0 psi colour red\n",
         "line 2: unknown opponent field 'colour'"),
        ("adv f0 f g w mode stabilizing\n",
         "line 2: unknown f mode 'stabilizing'"),
        ("adv p0 psi mode chaotic\n", "line 2: unknown psi mode 'chaotic'"),
        ("adv p0 psi mode stabilizing\n",
         "line 2: unknown psi mode 'stabilizing'"),
        ("adv p0 psi mode alternating period 0\n",
         "line 2: period wants at least 1, got 0"),
        # a field its mode does not read would change nothing
        *[(f"adv p0 psi mode {mode} {field} 1\n",
           f"line 2: psi mode {mode} reads no {field}")
          for mode, fields in (("alternating", ("flip", "stab", "seed")),
                               ("scripted", ("flip", "stab", "seed",
                                             "period")),
                               ("random", ("period",)))
          for field in fields],
        ("adv p0 psi flip 0.2 period 2\n",
         "line 2: psi without a mode reads no period"),
        *[(f"adv f0 f g w{mode} {field} 1\n",
           f"line 2: f {which} reads no {field}")
          for mode, which in (("", "without a mode"),
                              (" mode scripted", "mode scripted"))
          for field in ("seed", "change")],
        ("fun\n", "line 2: fun wants an index"),
        ("fun 0 arg 0 first 2 colour red\n",
         "line 2: unknown fun field 'colour'"),
        ("fun 0 arg 0\n", "line 2: fun wants arg and first"),
        ("fun 0 arg 0 first 2 policy lazy\n",
         "line 2: unknown policy 'lazy'"),
        ("alpha w w\n", "line 2: alpha wants one CNF value"),
        ("stages 10 20\n", "line 2: stages wants one natural"),
        ("seed\n", "line 2: seed wants one natural"),
        *NARROWED,
    ])
    def test_run_rejects_scenario_lines(self, tmp_path, body, where):
        path = self.scenario_path(tmp_path,
                                  "construction nonlow-low2\n" + body)
        assert self.run_cli(["run", "--scenario", path]) == \
            (2, f"error {where}\n")

    @pytest.mark.parametrize("body, where", NARROWED)
    def test_campaign_rejects_narrowed_scripts(self, tmp_path, body, where):
        path = self.scenario_path(tmp_path,
                                  "construction nonlow-low2\n" + body)
        assert self.run_cli(["campaign", "--scenario", path, "--seeds",
                             "2"]) == (2, f"error {where}\n")

    def test_run_rejects_scenario_without_construction(self, tmp_path):
        path = self.scenario_path(tmp_path, "stages 10\n")
        assert self.run_cli(["run", "--scenario", path]) == \
            (2, "error line 0: no construction named\n")

    def test_campaign_of_no_seeds_exits_2(self, tmp_path):
        path = self.scenario_path(tmp_path, LOW2_TEXT)
        assert self.run_cli(["campaign", "--scenario", path,
                             "--seeds", "0"]) == \
            (2, "error campaign wants at least one seed\n")

    def test_verify_trace_of_missing_file_exits_2(self, tmp_path):
        missing = str(tmp_path / "nope.trace")
        code, text = self.run_cli(["verify-trace", "--trace", missing])
        assert code == 2
        assert text.startswith("error ") and missing in text, text

    def test_scenario_file_not_utf8_exits_2(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(LOW2_TEXT.encode() + b"seed \xff\n")
        assert self.run_cli(["run", "--scenario", str(path)]) == \
            (2, f"error cannot read {path}: not UTF-8 (invalid start byte "
                f"at byte {len(LOW2_TEXT) + 5})\n")

    def test_trace_file_not_utf8_exits_2(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(b"trace nonlow-low2 stages=1\n0 0 visit node=\xff\n")
        assert self.run_cli(["verify-trace", "--trace", str(path)]) == \
            (2, f"error cannot read {path}: not UTF-8 (invalid start byte "
                f"at byte 42)\n")

    @pytest.mark.parametrize("option", ["--trace", "--report"])
    def test_run_output_file_it_cannot_write_exits_2(self, tmp_path,
                                                     option):
        target = tmp_path / "no-such-dir" / "out"
        path = self.scenario_path(tmp_path, LOW2_TEXT)
        assert self.run_cli(["run", "--scenario", path,
                             option, str(target)]) == \
            (2, f"error cannot write {target}: No such file or directory\n")

    def test_campaign_reports_failing_checks(self, tmp_path, monkeypatch):
        # the registry looks the verifier up at call time
        def failing(psis, replay):
            return [CheckResult("quota-soundness", True),
                    CheckResult("global-bound", False, 7),
                    CheckResult("diagonalization", False)]
        monkeypatch.setattr(nonlow_low2, "verify_main_lemma_claims",
                            failing)
        path = self.scenario_path(tmp_path, LOW2_TEXT)
        code, out = self.run_cli(["campaign", "--scenario", path,
                                  "--seeds", "2", "--stages", "10"])
        assert code == 1
        assert re.sub(r"digest=\w+", "digest=D", out) == (
            "seed 0 digest=D checks=1/3 worst-ratio=0\n"
            "fail seed=0 check=global-bound witness=7\n"
            "fail seed=0 check=diagonalization witness=-\n"
            "seed 1 digest=D checks=1/3 worst-ratio=0\n"
            "fail seed=1 check=global-bound witness=7\n"
            "fail seed=1 check=diagonalization witness=-\n"
            "campaign construction=nonlow-low2 seeds=2 failures=4 errors=0 "
            "worst-ratio=0 digest=D\n")

    def test_campaign_with_erroring_seeds_exits_2(self, tmp_path):
        text = LOW2_TEXT.replace("adv p1 psi level 1 mode random seed 2 "
                                 "flip 0.3 stab 30\n", "")
        path = self.scenario_path(tmp_path, text)
        code, out = self.run_cli(["campaign", "--scenario", path,
                                  "--seeds", "2"])
        assert code == 2
        assert out.splitlines()[0] == ("seed 0 error no guessing adversary "
                                       "for level 1")
        assert " errors=2 " in out.splitlines()[-1]
        assert self.run_cli(["run", "--scenario", path])[0] == 2

    @pytest.mark.parametrize("text", [LOW2_TEXT, LOWA_TEXT, NALPHA_TEXT],
                             ids=CONSTRUCTION_IDS)
    def test_summary_that_does_not_replay_exits_2(self, tmp_path, text,
                                                  monkeypatch):
        # an engine whose summary holds an entry its events do not derive:
        # run and each campaign seed make the same self-consistency check
        finalize = RunTrace.finalize
        monkeypatch.setattr(RunTrace, "finalize", lambda trace, summary:
                            finalize(trace, {**summary, "node.bogus": "1"}))
        path = self.scenario_path(tmp_path, text)
        assert self.run_cli(["run", "--scenario", path]) == \
            (2, "error trace summary does not replay\n")
        code, out = self.run_cli(["campaign", "--scenario", path,
                                  "--seeds", "2"])
        assert code == 2
        assert out.splitlines()[:2] == [
            f"seed {s} error trace summary does not replay" for s in (0, 1)]
        assert " failures=0 errors=2 " in out.splitlines()[-1]

    @pytest.mark.parametrize("body, where", [
        ("0 4 bogus-kind\n1 4 visit node=- l=0\n", "line 2: unknown event"),
        ("0 4 visit node=- l=0\n1 2 visit node=- l=0\n", "line 3: stage 2"),
        ("0 0 visit node=- l=0\n2 0 visit node=- l=0\n", "line 3: event id"),
        ("0 0 visit node=- l=0\n1 5 visit node=- l=0\n",
         "line 3: stage 5 past stages=5"),
        ("0 zero visit node=-\n", "line 2: malformed"),
        ("0 0 visit node\n", "line 2: malformed"),
        ("0 0 visit\n", "event 0: visit without payload key 'node'"),
        ("0 0 enumerate node=i\n",
         "event 0: enumerate without payload key 'element'"),
        ("0 0 visit node=- l=0\n1 0 visit node=i l=two\n",
         "event 1: bad visit payload"),
    ])
    def test_verify_trace_rejects_malformed_events(self, tmp_path, body,
                                                   where):
        tr = tmp_path / "t.trace"
        tr.write_text("trace nonlow-low2 stages=5\n" + body + "summary A -\n")
        code, text = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert code == 2
        assert text.startswith("error " + where), text

    @pytest.mark.parametrize("construction", ["nonlow-low2", "low-alpha",
                                              "nonlow-alpha"])
    def test_replay_rejects_missing_payload_key(self, tmp_path,
                                                construction):
        tr = tmp_path / "t.trace"
        tr.write_text(f"trace {construction} stages=5\n"
                      "0 0 inject-diverge e=0 x=0\nsummary A -\n")
        code, text = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert code == 2
        assert text == ("error event 0: inject-diverge without payload key "
                        "'use'\n")

    def test_verify_trace_rejects_bad_header(self, tmp_path):
        tr = tmp_path / "t.trace"
        for text, where in (("", "missing trace header"),
                            ("\ntrace nonlow-low2\n", "line 2: malformed"),
                            ("trace nonlow-low2 stages=x\n",
                             "line 1: malformed")):
            tr.write_text(text)
            code, out = self.run_cli(["verify-trace", "--trace", str(tr)])
            assert code == 2 and out.startswith("error " + where), out

    @pytest.mark.parametrize("line, code", [
        ("summary  A 1,4", 0), ("summary\tA  1,4 ", 0), (" summary A 1,4", 0),
        ("summary A ", 2), ("summary  A", 2), ("summary A 1,4 5", 2),
    ])
    def test_verify_trace_reads_summary_as_three_tokens(self, tmp_path, line,
                                                        code):
        # runs of blanks between and around the tokens are read as on
        # event lines; any other token count is a malformed line
        lines = list(GOLDEN["golden-low-alpha"])
        assert lines[36] == "summary A 1,4"
        lines[36] = line
        tr = tmp_path / "t.trace"
        tr.write_text("\n".join(lines) + "\n")
        expected = REPORTS["golden-low-alpha"] if code == 0 else \
            f"error line 37: malformed trace line {line!r}\n"
        assert self.run_cli(["verify-trace", "--trace", str(tr)]) == \
            (code, expected)

    def test_exhaustion_gate_reads_no_argument_past_the_computations(
            self, tmp_path, monkeypatch):
        # an eta length of 10**12 in the trace: the gate looks only at the
        # arguments with a recorded computation, so it finishes at once
        # with the golden's verdicts, and a gate that walks every argument
        # below the length fails here instead of running for hours
        lines = [set_payload(ln, l=10 ** 12) if ln[0].isdigit()
                 and int(ln.split()[1]) >= 3 else ln
                 for ln in GOLDEN["golden-nonlow-low2"]]
        assert sum(" l=1000000000000" in ln for ln in lines) > 50
        calls = iter(range(10_000))
        quota_for = nonlow_low2.quota_for

        def counted(rho, x):
            if next(calls, None) is None:
                raise RuntimeError("quota_for called 10,000 times")
            return quota_for(rho, x)

        monkeypatch.setattr(nonlow_low2, "quota_for", counted)
        tr = tmp_path / "t.trace"
        tr.write_text("\n".join(lines) + "\n")
        assert self.run_cli(["verify-trace", "--trace", str(tr)]) == \
            (0, REPORTS["golden-nonlow-low2"])

    def test_verify_trace_rejects_unknown_construction(self, tmp_path):
        # the construction is looked up before the summary is replayed,
        # so a bogus name is a usage error, not a failed check
        tr = tmp_path / "t.trace"
        tr.write_text("trace bogus stages=1\n0 0 visit node=-\n")
        code, text = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert (code, text) == (2, "error unknown construction 'bogus'\n")

    @pytest.mark.parametrize("construction", ["nonlow-alpha", "low-alpha"])
    def test_run_construction_flag_exits_2(self, construction):
        # the scenario file alone names the construction
        code, text = self.run_cli(
            ["run", "--scenario", os.path.join(SCEN, "golden-nonlow-low2.txt"),
             "--construction", construction])
        assert (code, text) == (2, "error run: unknown flag '--construction'\n")

    @pytest.mark.parametrize("verb", [["run"], ["campaign", "--seeds", "2"]])
    def test_verify_line_exits_2(self, tmp_path, verb):
        path = self.scenario_path(tmp_path,
                                  LOWA_TEXT + "verify budget-formula off\n")
        code, text = self.run_cli(verb[:1] + ["--scenario", path] + verb[1:])
        assert (code, text) == (2, "error line 10: unknown directive "
                                   "'verify'\n")

    @pytest.mark.parametrize("name, renames, eid", [
        ("golden-nonlow-low2", {"f": "z", "if": "iz"}, 2),
        ("golden-low-alpha", {"q0": "z0"}, 1),
        ("golden-nonlow-alpha", {"iiq": "iii"}, 50),
    ])
    def test_verify_trace_rejects_misspelt_nodes(self, tmp_path, name,
                                                 renames, eid):
        # every occurrence is renamed, the summary keys included, so the
        # trace stays self-consistent; eid is the first renamed visit
        with open(os.path.join(HERE, "fixtures", name + ".trace")) as fh:
            text = fh.read()
        for old, new in renames.items():
            text = re.sub(rf"\bnode([=.]){old}(?= |$)", rf"node\g<1>{new}",
                          text, flags=re.M)
        tr = tmp_path / "t.trace"
        tr.write_text(text)
        code, out = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert code == 2
        assert out.startswith(f"error event {eid}: bad visit payload: "), out

    @pytest.mark.parametrize("name, line, eid", [
        ("golden-low-alpha", "7 3 qlist-set e=0 k=1 members=0 gs=w", 7),
        ("golden-nonlow-alpha", "39 7 qlist-set eta=- x=1 k=1028 "
                                "members=if gs=w", 39),
    ])
    def test_verify_trace_rejects_members_without_budgets(self, tmp_path,
                                                          name, line, eid):
        with open(os.path.join(HERE, "fixtures", name + ".trace")) as fh:
            text = fh.read()
        assert line in text
        tr = tmp_path / "t.trace"
        tr.write_text(text.replace(line, line[:-len("gs=w")] + "gs=-"))
        code, out = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert (code, out) == (2, f"error event {eid}: bad qlist-set "
                                  f"payload: 1 members but 0 budgets\n")

    @pytest.mark.parametrize("name, lineno, values, why", [
        ("golden-low-alpha", 9, {"k": -5}, "negative k -5"),
        ("golden-nonlow-alpha", 41, {"k": -5, "kps": -5}, "negative k -5"),
        ("golden-nonlow-alpha", 41, {"kps": -5},
         "negative kps entry in -5"),
        # a repeated member counts its budget twice
        ("golden-low-alpha", 9, {"members": "0,0", "gs": "w;w"},
         "repeated member in 0,0"),
        ("golden-nonlow-alpha", 41,
         {"members": "if,if", "gs": "w;w", "kps": "1028;1028"},
         "repeated member in if,if"),
        # a tolerance for no member
        ("golden-nonlow-alpha", 41, {"kps": "1028;7"},
         "1 members but 2 tolerances"),
    ])
    def test_verify_trace_rejects_negative_tolerance(self, tmp_path, name,
                                                     lineno, values, why):
        tr = tmp_path / "t.trace"
        tr.write_text(edited(name, lineno, **values))
        code, out = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert (code, out) == (2, f"error event {lineno - 2}: bad qlist-set "
                                  f"payload: {why}\n")

    # A phi-set that names no list generation, a second value for one, or
    # a second bound, appended at the last stage, fails the list check at
    # its own event id.
    @pytest.mark.parametrize("name, payload, check", [
        ("golden-low-alpha", "phi-set e=7 value=3", "quota-list-structure"),
        ("golden-nonlow-alpha", "phi-set e=-.9 value=3", "qlist-structure"),
        ("golden-low-alpha", "phi-set e=0 value=w*2", "quota-list-structure"),
        ("golden-nonlow-alpha", "phi-set e=-.5 value=w*2", "qlist-structure"),
        ("golden-low-alpha", "phi-set e=alpha value=w^2",
         "quota-list-structure"),
        ("golden-nonlow-alpha", "phi-set e=alpha value=w^w",
         "qlist-structure"),
    ])
    def test_verify_trace_rejects_stray_phi_set(self, tmp_path, name,
                                                payload, check):
        tr = tmp_path / "t.trace"
        text, eid = appended(name, payload)
        tr.write_text(text)
        code, out = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert code == 1
        assert [l for l in out.splitlines() if " fail " in l] == [
            f"check {check} fail witness {eid}"]

    # A phi-set tag with another number of fields than a list's head
    # names no list at all: a malformed payload, not a failed check.
    @pytest.mark.parametrize("name, tag", [
        ("golden-low-alpha", "0.1"),
        ("golden-low-alpha", "-.0"),
        ("golden-nonlow-alpha", "0"),
        ("golden-nonlow-alpha", "-.0.1"),
    ])
    def test_verify_trace_rejects_phi_set_tag_of_wrong_arity(self, tmp_path,
                                                             name, tag):
        tr = tmp_path / "t.trace"
        text, eid = appended(name, f"phi-set e={tag} value=3")
        tr.write_text(text)
        code, out = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert (code, out) == (2, f"error event {eid}: bad phi-set "
                                  f"payload: {tag!r} names no quota list\n")

    @pytest.mark.parametrize("payload", [
        "phi-set e=0 value=3", "qlist-set e=0 k=1 members=0 gs=w",
        "qlist-remove e=0 member=0 cause=init"])
    def test_verify_trace_rejects_list_events_in_a_low2_trace(self, tmp_path,
                                                              payload):
        tr = tmp_path / "t.trace"
        text, eid = appended("golden-nonlow-low2", payload)
        tr.write_text(text)
        code, out = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert (code, out) == (2, f"error event {eid}: bad "
                                  f"{payload.split()[0]} payload: not a "
                                  f"nonlow-low2 event\n")

    @pytest.mark.parametrize("verb", [["run"], ["campaign", "--seeds", "2"]])
    @pytest.mark.parametrize("old, new, where", [
        ("stage 9 value 0 marker 2", "stage 9 value 0 marker 5",
         "line 9: marker schedule must descend at arg 0"),
        # a first step is held to the start row (0, g) like any other
        ("stage 0 value 0 marker w\n", "stage 0 value 0 marker w^2\n",
         "line 7: marker schedule must descend at arg 0"),
        ("stage 0 value 0 marker w\nadv f0 step arg 0 stage 5 value 1 "
         "marker 3\n", "stage 5 value 1 marker w\n",
         "line 7: marker schedule must descend at arg 0"),
    ])
    def test_bad_marker_schedule_exits_2(self, tmp_path, verb, old, new,
                                         where):
        with open(os.path.join(SCEN, "golden-low-alpha.txt")) as fh:
            text = fh.read()
        assert old in text
        path = self.scenario_path(tmp_path, text.replace(old, new))
        code, out = self.run_cli(verb[:1] + ["--scenario", path] + verb[1:])
        assert (code, out) == (2, f"error {where}\n")

    # 1000 levels of exponent nesting overflowed the recursion of the CNF
    # parser, formatter and comparison
    @pytest.mark.parametrize("entry", ["cnf eval", "run", "verify-trace"])
    def test_deeply_nested_ordinal_exits_2(self, tmp_path, entry):
        deep = "w^(" * 1000 + "1" + ")" * 1000
        why = f"exponents nested deeper than {MAX_NESTING} levels"
        tr = tmp_path / "t.trace"
        tr.write_text(edited("golden-low-alpha", 2, value=deep))
        argv, where = {
            "cnf eval": (["cnf", "eval", deep], ""),
            "run": (["run", "--scenario", self.scenario_path(
                tmp_path, LOWA_TEXT.replace("alpha w^2", "alpha " + deep))],
                "line 2: alpha: "),
            "verify-trace": (["verify-trace", "--trace", str(tr)],
                             "event 0: bad phi-set payload: "),
        }[entry]
        assert self.run_cli(argv) == (2, f"error {where}{why}\n")

    # k' sums injury_bound(x) = (x+1)^2 * 4^((x+1)^2) over the arguments,
    # and past 84 of them it has more digits than the interpreter prints
    # by default (4300); 0 lifts the limit
    @pytest.mark.parametrize("verb", [["run"], ["campaign", "--seeds", "1"]])
    @pytest.mark.parametrize("args, limit, code", [(84, 4300, 0),
                                                   (85, 4300, 2),
                                                   (85, 0, 0)])
    def test_ceiling_past_int_digit_limit_exits_2(self, tmp_path, verb,
                                                 args, limit, code):
        text = NALPHA_TEXT.split("fun ")[0].replace("stages 34",
                                                    "stages 120")
        text += "".join(f"fun 0 arg {x} first 2\n" for x in range(args))
        path = self.scenario_path(tmp_path, text)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            got, out = self.run_cli(verb[:1] + ["--scenario", path]
                                    + verb[1:])
        finally:
            sys.set_int_max_str_digits(old)
        assert got == code
        if code:
            seed = "seed 0 " if verb[0] == "campaign" else ""
            assert out.splitlines()[0] == (
                f"{seed}error functional 0 argument 84: injury ceilings "
                f"exceed 4300 digits")

    # Literals within the interpreter's limit on int digits (4300) whose
    # sum, product or budget passes it, NINES having 4300 digits, and
    # literals past it. The two `cnf eval` results keep the case ids they
    # have always had
    @pytest.mark.parametrize("entry, where", [
        (["cnf", "eval", f"w*{NINES}+w"], "sum has a coefficient past 4300 "
                                          "digits"),
        pytest.param(["cnf", "eval", f"w*{NINES}", "+", "w"],
                     "result has a coefficient past 4300 digits",
                     id="entry1-Exceeds the limit (4300 digits)"),
        pytest.param(["cnf", "eval", f"w*{NINES}", "*", "2"],
                     "result has a coefficient past 4300 digits",
                     id="entry2-Exceeds the limit (4300 digits)"),
        (["run", f"g w*{NINES}+w "],
         "line 4: g: sum has a coefficient past 4300 digits"),
        # the budget phi-set of a watcher, at k up to 2, multiplies g
        (["run", f"g w*{NINES} "], "budgets at k=2 exceed 4300 digits"),
        (["verify-trace", f"w^2*{NINES}+w^2"],
         "event 0: bad phi-set payload: sum has a coefficient past 4300 "
         "digits"),
        # a literal past the limit itself: NINES + "9" has 4301 digits
        (["cnf", "eval", f"w*{NINES}9"], "coefficient past 4300 digits"),
        (["cnf", "eval", f"w^{NINES}9"], "exponent past 4300 digits"),
        (["cnf", "eval", "w", "*", f"{NINES}9"],
         "'*' operand past 4300 digits"),
        (["run", f"g w*{NINES}9 "], "line 4: g: coefficient past 4300 "
                                    "digits"),
        (["verify-trace", f"w^2*{NINES}9"],
         "event 0: bad phi-set payload: coefficient past 4300 digits"),
    ])
    def test_ordinal_past_int_digit_limit_exits_2(self, tmp_path, entry,
                                                  where):
        if entry[0] == "run":
            entry = ["run", "--scenario", self.scenario_path(
                tmp_path, LOWA_TEXT.replace("g w ", entry[1]))]
        elif entry[0] == "verify-trace":
            tr = tmp_path / "t.trace"
            tr.write_text(edited("golden-low-alpha", 2, value=entry[1]))
            entry = ["verify-trace", "--trace", str(tr)]
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out = self.run_cli(entry)
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 2 and out.count("\n") == 1, out[:200]
        assert out.startswith(f"error {where}"), out[:200]

    @pytest.mark.parametrize("verb", [["run"], ["campaign", "--seeds", "2"]])
    def test_f_step_without_marker_exits_2(self, tmp_path, verb):
        path = self.scenario_path(tmp_path, LOWA_TEXT +
                                  "adv f1 step arg 1 stage 3 value 1\n")
        code, out = self.run_cli(verb[:1] + ["--scenario", path] + verb[1:])
        assert (code, out) == (2, "error line 10: step misses marker\n")

    @pytest.mark.parametrize("name, eid", [("golden-nonlow-low2", 0),
                                           ("golden-nonlow-alpha", 1)])
    def test_verify_trace_rejects_eta_visit_without_length(self, tmp_path,
                                                           name, eid):
        # with every length stripped the summary still replays; eid is
        # the first eta visit
        with open(os.path.join(HERE, "fixtures", name + ".trace")) as fh:
            text = re.sub(r" l=\d+", "", fh.read())
        tr = tmp_path / "t.trace"
        tr.write_text(text)
        code, out = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert (code, out) == (2, f"error event {eid}: visit without "
                                  f"payload key 'l'\n")

    @pytest.mark.parametrize("verb", [["run"], ["campaign", "--seeds", "2"]])
    def test_negative_stages_option_exits_2(self, verb):
        code, text = self.run_cli(
            verb[:1] + ["--scenario",
                        os.path.join(SCEN, "golden-nonlow-low2.txt"),
                        "--stages", "-3"] + verb[1:])
        assert (code, text) == (2, "error --stages wants a natural, "
                                   "got -3\n")

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_trace_of_no_stages_verifies(self, tmp_path, name):
        # the alpha constructions set their bound at stage 0 even here
        tr = tmp_path / "t.trace"
        code, out = self.run_cli(["run", "--scenario",
                                  os.path.join(SCEN, name + ".txt"),
                                  "--stages", "0", "--trace", str(tr)])
        assert code == 0, out
        code, out = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert code == 0, out

    def test_verify_trace_rejects_negative_stages(self, tmp_path):
        tr = tmp_path / "t.trace"
        tr.write_text("trace nonlow-low2 stages=-3\nsummary A -\n")
        code, text = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert (code, text) == (2, "error line 1: malformed trace header "
                                   "'trace nonlow-low2 stages=-3'\n")

    def test_bad_usage(self, capsys):
        assert main(["frobnicate"], io.StringIO()) == 2
        capsys.readouterr()


class TestShippedScenarios:
    @pytest.mark.parametrize("name", ["nonlow-low2-random.txt",
                                      "low-alpha-two-watchers.txt",
                                      "nonlow-alpha-mixed.txt"])
    def test_pass_all_checks(self, name):
        out = io.StringIO()
        code = main(["run", "--scenario", os.path.join(SCEN, name)], out)
        assert code == 0
        assert " fail " not in out.getvalue()


# -- crash property ----------------------------------------------------


# every payload key of the goldens, and one that no event has
KEYS = sorted({key for lines in GOLDEN.values() for ln in lines
               for key in re.findall(r"(?<= )(\w+)=", ln)} | {"zz"})


@st.composite
def golden_mutations(draw):
    """A golden trace after one to three line edits: a line dropped,
    duplicated or swapped with the next; one payload value set to -5, x,
    the empty string, a non-ASCII letter or a line break other than
    "\\n" (a lone "\\r", "\\x0b", "\\x85", "\\u2028"), or its key
    repeated with such a value; one k=v pair dropped, or its key
    renamed; a space doubled or turned into a tab; a blank put before or
    after a line; or a token without = put at its end."""
    lines = list(GOLDEN[draw(st.sampled_from(sorted(GOLDEN)))])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("drop", "duplicate", "swap", "set",
                                   "repeat", "unset", "rename", "space",
                                   "tab", "lead", "trail", "bare")))
        if op in ("set", "repeat", "unset", "rename"):
            i = draw(st.sampled_from([j for j, ln in enumerate(lines)
                                      if "=" in ln]))
            key = draw(st.sampled_from(re.findall(r"(?<= )(\w+)=",
                                                  lines[i])))
            if op == "unset":
                lines[i] = re.sub(rf" {key}=\S*", "", lines[i], count=1)
            elif op == "rename":
                lines[i] = re.sub(rf"(?<= ){key}(?==)",
                                  draw(st.sampled_from(KEYS)), lines[i],
                                  count=1)
            else:
                value = draw(st.sampled_from(("-5", "x", "", "\u00fc",
                                              "\r", "\x0b", "\x85",
                                              "\u2028")))
                if op == "set":
                    lines[i] = set_payload(lines[i], **{key: value})
                else:
                    lines[i] += f" {key}={value}"
            continue
        i = draw(st.integers(0, len(lines) - 2))
        if op in ("space", "tab"):
            spaces = [j for j, c in enumerate(lines[i]) if c == " "]
            j = draw(st.sampled_from(spaces))
            blank = "  " if op == "space" else "\t"
            lines[i] = lines[i][:j] + blank + lines[i][j + 1:]
        elif op in ("lead", "trail"):
            blank = draw(st.sampled_from((" ", "\t")))
            lines[i] = blank + lines[i] if op == "lead" else lines[i] + blank
        elif op == "bare":
            lines[i] += " x"
        elif op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "t.trace"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(text=golden_mutations())
@example(text=edited("golden-low-alpha", 9, k=-5))
@example(text=edited("golden-nonlow-alpha", 41, k=-5, kps=-5))
@example(text=edited("golden-low-alpha", 9, members="0,0", gs="w;w").replace(
    "phi-set e=0 value=w*2", "phi-set e=0 value=w*4"))
@example(text=edited("golden-nonlow-alpha", 41, members="if,if", gs="w;w",
                     kps="1028;1028").replace("value=w*1029",
                                              "value=w*2058"))
@example(text=edited("golden-nonlow-alpha", 41, kps="1028;7"))
def test_verify_trace_survives_mutated_goldens(trace_file, text):
    # a verdict, a failed check or a located error; never a traceback
    trace_file.write_text(text, encoding="utf-8")
    code = main(["verify-trace", "--trace", str(trace_file)], io.StringIO())
    assert code in (0, 1, 2)


def scenario_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


SCENARIO_LINES = {os.path.basename(path): scenario_lines(path)
                  for path in sorted(glob.glob(os.path.join(SCEN, "*.txt")))}


@st.composite
def scenario_mutations(draw):
    """A shipped scenario with one token of a directive line set to -5,
    x or the empty string, or dropped."""
    lines = list(SCENARIO_LINES[draw(st.sampled_from(sorted(
        SCENARIO_LINES)))])
    i = draw(st.sampled_from([j for j, ln in enumerate(lines)
                              if ln.split() and not ln.startswith("#")]))
    toks = lines[i].split()
    j = draw(st.integers(0, len(toks) - 1))
    value = draw(st.sampled_from(("-5", "x", "", None)))
    if value is None:
        del toks[j]
    else:
        toks[j] = value
    lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "s.txt"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(text=scenario_mutations())
def test_run_survives_mutated_scenarios(scenario_file, text):
    # a verdict, a failed check or a located error; never a traceback
    scenario_file.write_text(text)
    code = main(["run", "--scenario", str(scenario_file)], io.StringIO())
    assert code in (0, 1, 2)
