"""Scenario grammar and command line front end."""

import io
import os

import pytest

from injurylab.cli import digest, main
from injurylab.ordinal import nat, omega_power
from injurylab.scenario import ScenarioError, load_scenario
from injurylab.trace import RunTrace, reduce_summary

HERE = os.path.dirname(__file__)
SCEN = os.path.join(HERE, os.pardir, "scenarios")

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


class TestGrammar:
    def test_round_trip_fields(self):
        sc = load_scenario(LOW2_TEXT)
        assert sc.construction == "nonlow-low2"
        assert sc.stages == 40 and sc.seed == 0
        assert sorted(sc.psi_levels()) == [0, 1]
        assert sc.advs["p0"].flip == 0.3 and sc.advs["p0"].stab == 30
        assert sorted(sc.funs) == [0, 1]
        assert sc.funs[0].args[1] == (1, 5, 1, "low", 5)

    def test_alpha_and_budget(self):
        sc = load_scenario(LOWA_TEXT)
        assert sc.alpha == omega_power(nat(2))
        assert sc.advs["f0"].g == omega_power(nat(1))
        assert sc.advs["f1"].g == nat(4)
        assert sc.advs["f1"].steps == [(0, 5, 1, nat(3)), (0, 9, 0, nat(2))]

    def test_step_without_marker_defaults_to_budget(self):
        sc = load_scenario(LOWA_TEXT +
                           "adv f1 step arg 1 stage 3 value 1\n")
        adv = sc.advs["f1"].build()
        assert adv.script[1][-1] == (3, 1, nat(4))

    def test_verify_toggle(self):
        sc = load_scenario(LOWA_TEXT + "verify budget-formula off\n")
        assert sc.verify == {"budget-formula": False}

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

    def test_verify_wants_on_off(self):
        err = self.errors("construction nonlow-low2\nverify budget maybe\n")
        assert err.lineno == 2

    @pytest.mark.parametrize("name", ["no-such-check", "budget-formula"])
    def test_verify_unknown_check(self, name):
        err = self.errors(f"construction nonlow-low2\nverify {name} off\n")
        assert err.lineno == 2 and name in str(err)

    @pytest.mark.parametrize("field", ["flip 0.3x", "flip 1.5",
                                       "change lots", "change nan"])
    def test_bad_probability(self, field):
        kind = "psi" if field.startswith("flip") else "f g w"
        err = self.errors(f"construction nonlow-low2\n"
                          f"adv a0 {kind} level 0 {field}\n")
        assert err.lineno == 2 and field.split()[0] in str(err)


class TestExecute:
    @pytest.mark.parametrize("text", [LOW2_TEXT, LOWA_TEXT, NALPHA_TEXT])
    def test_runs_and_replays(self, text):
        sc = load_scenario(text)
        trace, psis = sc.execute()
        assert trace.summary == reduce_summary(trace)
        checks = sc.checks(trace, psis)
        assert checks and all(c.passed for c in checks)

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

    def test_toggle_filters_checks(self):
        sc = load_scenario(LOWA_TEXT + "verify budget-formula off\n")
        trace, _ = sc.execute()
        names = {c.name for c in sc.checks(trace)}
        assert "budget-formula" not in names and "diagonalization" in names


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

    @pytest.mark.parametrize("body, where", [
        ("0 4 bogus-kind\n1 4 visit node=- l=0\n", "line 2: unknown event"),
        ("0 4 visit node=- l=0\n1 2 visit node=- l=0\n", "line 3: stage 2"),
        ("0 0 visit node=- l=0\n2 0 visit node=- l=0\n", "line 3: event id"),
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

    def test_verify_trace_rejects_unknown_construction(self, tmp_path):
        # the construction is looked up before the summary is replayed,
        # so a bogus name is a usage error, not a failed check
        tr = tmp_path / "t.trace"
        tr.write_text("trace bogus stages=1\n0 0 visit node=-\n")
        code, text = self.run_cli(["verify-trace", "--trace", str(tr)])
        assert (code, text) == (2, "error unknown construction 'bogus'\n")

    @pytest.mark.parametrize("construction", ["nonlow-alpha", "low-alpha"])
    def test_run_construction_override_wants_alpha(self, construction):
        code, text = self.run_cli(
            ["run", "--scenario", os.path.join(SCEN, "golden-nonlow-low2.txt"),
             "--construction", construction])
        assert (code, text) == (
            2, f"error line 0: {construction} wants an alpha\n")

    def test_run_construction_override_rechecks_verify_lines(self, tmp_path):
        path = self.scenario_path(tmp_path,
                                  LOWA_TEXT + "verify budget-formula off\n")
        code, text = self.run_cli(["run", "--scenario", path,
                                   "--construction", "nonlow-alpha"])
        assert (code, text) == (
            2, "error line 10: nonlow-alpha has no check 'budget-formula'\n")

    def test_run_rejects_bad_alpha_option(self, tmp_path):
        path = self.scenario_path(tmp_path, LOWA_TEXT)
        code, text = self.run_cli(["run", "--scenario", path,
                                   "--alpha", "w^^"])
        assert code == 2 and text.startswith("error --alpha: "), text

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
