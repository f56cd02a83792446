"""Tests for the finite-injury low construction and its budget verifier."""

import io
import os
import random
import re

import pytest

import injurylab.low_alpha as la
from injurylab.approximation import ScriptedCaAdversary
from injurylab.budgeted import QuotaList, descent_witness, phi
from injurylab.functional import UseFunctional
from injurylab.ordinal import (format_cnf, nat, omega_power, parse_cnf,
                               random_cnf_below)
from injurylab.cli import main, reduce_summary, replay_of
from injurylab.scenario import load_scenario
from injurylab.trace import ConfigError, RunTrace

from stage_maps import stage_of
from test_golden import by_kind

W = omega_power(nat(1))


def flip_adversary(aid, g, flips, markers, args=10):
    """Scripted opponent alternating 1, 0, 1, ... at the given stages.

    Followers are numbered globally, so the same schedule is written at
    every argument a follower might take.
    """
    adv = ScriptedCaAdversary(aid, g)
    for x in range(args):
        for i, (s, m) in enumerate(zip(flips, markers)):
            adv.add_step(x, s, (i + 1) % 2, m)
    return adv


class TestPhi:
    def test_empty(self):
        assert phi([], 5) == nat(0)

    def test_single_omega(self):
        assert phi([W], 0) == W

    def test_two_terms_absorb(self):
        got = phi([W, W.times_nat(2)], 2)
        assert got == parse_cnf("w*9")

    def test_finite(self):
        assert phi([nat(3), nat(5)], 1) == nat(16)

    def test_order_matters(self):
        assert phi([nat(1), W], 0) == W
        assert phi([W, nat(1)], 0) == W + nat(1)


class TestRunBasics:
    def test_zero_stages(self):
        tr = la.run([ScriptedCaAdversary("f0", W)], [], omega_power(W), 0)
        assert tr.summary == {"A": "-"}
        assert [p.kind for p in tr.events] == ["phi-set"]

    def test_alpha_must_be_power_of_omega(self):
        with pytest.raises(ConfigError):
            la.run([], [], parse_cnf("w*2"), 5)

    def test_opponent_budget_below_alpha(self):
        with pytest.raises(ConfigError):
            la.run([ScriptedCaAdversary("f0", W)], [], W, 5)

    def test_constant_opponent(self):
        # Hand simulation: the follower is assigned once at stage 0 and
        # the single declaration never contradicts a constant opponent.
        tr = la.run([ScriptedCaAdversary("f0", W)], [], omega_power(W), 20)
        events = tr.events
        deltas = [events[eid] for eid in by_kind(tr, "declare")
                  if events[eid].get("what") == "delta"]
        assert len(deltas) == 1
        assert deltas[0]["value"] == "1"
        assert not by_kind(tr, "enumerate")
        assert not by_kind(tr, "select")
        assert tr.summary == {"A": "-", "node.q0": "0:1"}

    def test_three_mind_changes(self):
        # Hand simulation: flips at 4, 8, 12 each contradict the current
        # declaration, the watcher is active from stage 1, and every act
        # lands below its use, so exactly three enumerations result.
        adv = flip_adversary("f0", W, [4, 8, 12], [nat(9), nat(6), nat(3)])
        fun = UseFunctional(0)
        fun.configure(0, first=0)
        tr = la.run([adv], [fun], omega_power(W), 16)
        events, stages = tr.events, stage_of(tr)
        enums = by_kind(tr, "enumerate")
        assert [stages[eid] for eid in enums] == [4, 8, 12]
        hits = [eid for eid in by_kind(tr, "inject-diverge")
                if events[eid]["x"] == "0"]
        assert [stages[eid] for eid in hits] == [4, 8, 12]
        sets = by_kind(tr, "qlist-set")
        assert len(sets) == 1 and stages[sets[0]] == 1
        assert events[sets[0]]["members"] == "0"
        budget = [events[eid] for eid in by_kind(tr, "phi-set")
                  if events[eid]["e"] == "0"]
        assert budget[0]["value"] == format_cnf(W.times_nat(2))
        deltas = [events[eid] for eid in by_kind(tr, "declare")
                  if events[eid].get("what") == "delta"]
        assert deltas[-1]["value"] == "0"  # opponent settled on 1
        for check in la.verify_lowness_budget(replay_of(tr)):
            assert check.passed, check.line()

    def test_determinism_and_round_trip(self):
        adv = flip_adversary("f0", W, [3, 5], [nat(4), nat(2)])
        fun = UseFunctional(0)
        fun.configure(0, first=1)
        one = la.run([adv], [fun], omega_power(W), 12).to_text()
        adv2 = flip_adversary("f0", W, [3, 5], [nat(4), nat(2)])
        fun2 = UseFunctional(0)
        fun2.configure(0, first=1)
        two = la.run([adv2], [fun2], omega_power(W), 12)
        assert one == two.to_text()
        back = RunTrace.from_text(one.encode())
        assert back.to_text() == one
        assert two.summary == reduce_summary(replay_of(two))


def denial_setup(stages=14):
    """A low-use watcher denies the second requirement its first act.

    q0 acts at 3 and 7; the second act injures the watcher, which is
    pruned of q1 by the preempt clause and reconverges with a low-policy
    use at least q1's fresh use, so q1's want at stage 9 is refused.
    """
    advs = [flip_adversary("f0", W, [3, 7], [nat(9), nat(8)]),
            flip_adversary("f1", W, [9], [nat(1)])]
    fun = UseFunctional(0)
    fun.configure(0, first=4, delay=1, policy="low", offset=20)
    return la.run(advs, [fun], omega_power(W), stages)


class TestPermission:
    def test_denial_initializes(self):
        tr = denial_setup()
        events, stages = tr.events, stage_of(tr)
        denied = [eid for eid in by_kind(tr, "init")
                  if events[eid]["cause"].startswith("denied")]
        assert len(denied) == 1
        assert events[denied[0]] == {"node": "q1", "cause": "denied:0"}
        assert stages[denied[0]] == 9
        sel = [events[eid] for eid in by_kind(tr, "select")
               if events[eid]["act"] == "denied"]
        assert len(sel) == 1 and sel[0]["by"] == "0"
        # denied means no enumeration at that stage, and a fresh restart
        assert all(stages[eid] != 9 for eid in by_kind(tr, "enumerate"))
        assert tr.summary["node.q1"] == "4:24"
        removed = [events[eid] for eid in by_kind(tr, "qlist-remove")]
        assert [(p["q"], p["cause"]) for p in removed] == [
            ("1", "preempted")]
        for check in la.verify_lowness_budget(replay_of(tr)):
            assert check.passed, check.line()

    def test_fault_scenario_refuses_q1_at_stage_9(self):
        # the shipped input that takes the denied branch of the act path
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "scenarios", "fault-low-alpha-denial.txt")
        with open(path) as fh:
            tr = load_scenario(fh.read()).execute()[0]
        stages = stage_of(tr)
        assert [(stages[eid], tr.events[eid]) for eid in by_kind(tr, "select")
                if tr.events[eid]["act"] == "denied"] == [
            (9, {"node": "q1", "act": "denied", "by": "0"})]

    def test_preempt_initializes_lower(self):
        # q0 wants at stage 5, exactly when the watcher activates with
        # all three requirements in quota; q1 and q2 are reset and then
        # pruned from the list.
        advs = [flip_adversary("f0", W, [5], [nat(1)]),
                ScriptedCaAdversary("f1", W),
                ScriptedCaAdversary("f2", W)]
        fun = UseFunctional(0)
        fun.configure(0, first=4)
        tr = la.run(advs, [fun], omega_power(W), 9)
        events = tr.events
        sets = by_kind(tr, "qlist-set")
        assert stage_of(tr)[sets[0]] == 5
        assert events[sets[0]]["members"] == "0,1,2"
        inits = [events[eid] for eid in by_kind(tr, "init")]
        assert {p["node"] for p in inits} == {"q1", "q2"}
        assert all(p["cause"] == "preempt:0" for p in inits)
        removed = [events[eid] for eid in by_kind(tr, "qlist-remove")]
        assert {(p["q"], p["cause"]) for p in removed} == {
            ("1", "preempted"), ("2", "preempted")}
        assert len(by_kind(tr, "enumerate")) == 1
        for check in la.verify_lowness_budget(replay_of(tr)):
            assert check.passed, check.line()

    def test_exhaustion_prunes(self):
        # White box: the quota clause fires once a member collects more
        # initializations than the watcher tolerates.
        run = la.LowAlphaRun([ScriptedCaAdversary("f0", W),
                              ScriptedCaAdversary("f1", W)],
                             [UseFunctional(0)], omega_power(W), 0)
        qlist = run.lists[0] = QuotaList(run, 1, {"e": 0}, "q",
                                         dict(enumerate(run.q)), str, 1)
        run.q[1].inits[:] = [2, 3]
        run._n_step(0, 4)
        removed = by_kind(run.trace, "qlist-remove")
        assert len(removed) == 1
        assert run.trace.events[removed[0]] == {"e": "0", "q": "1",
                                                "cause": "exhausted"}
        assert list(qlist.members) == [0]


# a watcher under w: its budget phi is finite
FINITE_BUDGET = """construction low-alpha
alpha w
stages 200
adv f0 f level 0 g 4 mode random seed 3 change 0.3
fun 0 arg 0 first 2
"""

# the alpha ladder's w cell: two watchers, both with finite budgets
LADDER_W = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "ladder-low-alpha-w.txt")


class TestVerifier:
    def test_empty_trace_vacuous(self):
        checks = la.verify_lowness_budget(replay_of(RunTrace("low-alpha", 0)))
        assert all(c.passed for c in checks)
        assert len(checks) == 7

    def test_witness_markers(self):
        # Same run as the three-mind-change oracle: the witness starts at
        # w*2 and steps through w+9 > w+6 > w+3.
        adv = flip_adversary("f0", W, [4, 8, 12], [nat(9), nat(6), nat(3)])
        fun = UseFunctional(0)
        fun.configure(0, first=0)
        tr = la.run([adv], [fun], omega_power(W), 16)
        r = la._LowReplay(tr)
        witness = descent_witness(r.budgets[0], r.hits(0), r.inits, 0)
        rows = witness.records[0]
        assert [(s, format_cnf(m)) for s, _, m in rows] == [
            (1, "w*2"), (4, "w+9"), (8, "w+6"), (12, "w+3")]

    def test_budget_exhausted_within_bound(self):
        # Opponent spends a w*2 budget over six flips; every witness
        # marker stays within w*2*(k+1) = w*4.
        flips = [3, 5, 7, 9, 11, 13]
        marks = [W + nat(5), W, nat(3), nat(2), nat(1), nat(0)]
        adv = flip_adversary("f0", W.times_nat(2), flips, marks)
        fun = UseFunctional(0)
        fun.configure(0, first=0)
        tr = la.run([adv], [fun], omega_power(W), 16)
        assert len(by_kind(tr, "enumerate")) == 6
        checks = {c.name: c for c in la.verify_lowness_budget(replay_of(tr))}
        assert all(c.passed for c in checks.values())
        r = la._LowReplay(tr)
        witness = descent_witness(r.budgets[0], r.hits(0), r.inits, 0)
        top = W.times_nat(4)
        assert all(not top < m for _, _, m in witness.records[0])

    def test_finite_cap(self):
        adv = flip_adversary("f0", nat(3), [3, 5, 7],
                             [nat(2), nat(1), nat(0)])
        fun = UseFunctional(0)
        fun.configure(0, first=0)
        tr = la.run([adv], [fun], omega_power(W), 10)
        assert len(by_kind(tr, "enumerate")) == 3
        checks = {c.name: c for c in la.verify_lowness_budget(replay_of(tr))}
        assert checks["mind-change-cap"].passed
        assert checks["mind-change-cap"].detail == "1 finite budgets"

    def test_worst_ratio_under_a_finite_budget(self, tmp_path):
        # a watcher under w gets a finite budget, and seed 1 injures its
        # own computation: the campaign prints own injuries / phi
        path = tmp_path / "s.txt"
        path.write_text(FINITE_BUDGET)
        out = io.StringIO()
        assert main(["campaign", "--scenario", str(path), "--seeds", "2"],
                    out) == 0
        printed = re.search(r"^seed 1 .* worst-ratio=(\S+)$",
                            out.getvalue(), re.M)[1]
        r = replay_of(load_scenario(FINITE_BUDGET).execute(seed=1)[0])
        own, budget = len(r.own_injuries(0)), r.budgets[0].value.nat_value()
        assert own > 0 and budget > 0
        assert printed == f"{own / budget:.3g}"

    def test_ladder_cell_w_examines_both_budgets(self):
        # mind-change-cap examines both finite budgets at seeds 0-3, and
        # seeds 0-2 injure a computation under its budget
        with open(LADDER_W) as fh:
            sc = load_scenario(fh.read())
        for seed in range(4):
            checks = {c.name: c for c in la.verify_lowness_budget(
                replay_of(sc.execute(seed=seed)[0]))}
            assert checks["mind-change-cap"].passed
            assert checks["mind-change-cap"].detail == "2 finite budgets"
        out = io.StringIO()
        assert main(["campaign", "--scenario", LADDER_W, "--seeds", "4"],
                    out) == 0
        assert re.findall(r"^seed \d+ .* worst-ratio=(\S+)$", out.getvalue(),
                          re.M) == ["0.1", "0.1", "0.1", "0"]

def descending_chain(start, length, rng):
    """A strictly descending chain of at most length ordinals from start,
    stopping at 0."""
    chain = [start]
    while len(chain) < length and chain[-1]:
        chain.append(random_cnf_below(chain[-1], rng))
    return chain


def stress(seed, stages=40, levels=3):
    rng = random.Random(seed)
    advs = []
    for i in range(levels):
        g = [W.times_nat(3), W + nat(4), nat(6)][i % 3]
        flips = sorted(rng.sample(range(2, stages - 2), 6))
        marks = descending_chain(g, 7, rng)[1:]
        advs.append(flip_adversary(f"f{i}", g, flips[:len(marks)], marks))
    funs = []
    for e in range(2):
        fn = UseFunctional(e)
        if e == 0:
            fn.configure(0, first=rng.randrange(1, 5))
        else:
            fn.configure(1, first=rng.randrange(3, 9), policy="low",
                         offset=rng.randrange(10, 50))
        funs.append(fn)
    return la.run(advs, funs, omega_power(nat(2)), stages, seed=seed)


class TestStress:
    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8])
    def test_random_scenarios_verify(self, seed):
        tr = stress(seed)
        for check in la.verify_lowness_budget(replay_of(tr)):
            assert check.passed, f"seed {seed}: {check.line()}"

    def test_scenarios_reach_injuries(self):
        total = sum(len(by_kind(stress(seed), "inject-diverge"))
                    for seed in range(1, 9))
        assert total > 0


FIX = os.path.join(os.path.dirname(__file__), "fixtures")


class TestFaultInjection:
    """The golden low-alpha trace, the base of the low-alpha rows of the
    mutation table in test_mutations.py, passes every check unmutated."""

    def test_golden_passes(self):
        with open(os.path.join(FIX, "golden-low-alpha.trace")) as fh:
            trace = RunTrace.from_text(fh.read().encode())
        for check in la.verify_lowness_budget(replay_of(trace)):
            assert check.passed, check.line()
