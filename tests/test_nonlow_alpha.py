"""Tests for the combined three-level tree construction.

Pure combinatorics are checked against brute-force oracles; the engine is
checked on scripted scenarios with frozen event expectations and on the
trace verifier, including a hand-written trace; tests/test_mutations.py
corrupts traces until each check fails.
"""

import itertools
import os

import pytest

from injurylab.approximation import (BoundedCaAdversary, DeltaTwoAdversary,
                                     ScriptedCaAdversary)
from injurylab.budgeted import (QuotaList, Requirement, check_bound,
                                descent_witness, phi)
from injurylab.functional import UseFunctional
from injurylab import nonlow_alpha as na
from injurylab.nonlow_low2 import injury_bound
from injurylab.ordinal import Cnf, format_cnf, nat, omega_power, parse_cnf
from injurylab.cli import reduce_summary, replay_of
from injurylab.scenario import load_scenario
from injurylab.trace import ConfigError, RunTrace

from stage_maps import stage_of
from test_golden import by_kind
from stage_maps import last_visit_length, stage_lengths

W = omega_power(nat(1))
ALPHA = omega_power(W)


def all_nodes(max_len):
    out = []
    for n in range(1, max_len + 1):
        out.extend(itertools.product((0, 1), repeat=n))
    return out


class TestLevelGeometry:
    def test_level_types_cycle(self):
        assert na.is_eta(())
        assert na.is_rho((0,))
        assert na.is_xi((0, 0))
        assert na.is_eta((0, 0, 0))
        assert na.is_rho((0, 0, 0, 1))
        assert na.is_xi((0, 0, 0, 1, 0))

    def test_render_single_outcome_level(self):
        assert na.render(()) == "-"
        assert na.render((0, 1)) == "if"
        assert na.render((0, 0, 0)) == "iiq"
        assert na.render((0, 1, 0, 0)) == "ifqi"

    def test_etas_above(self):
        assert na.etas_above((0, 0)) == [()]
        assert na.etas_above((1, 0)) == []
        assert na.etas_above((0, 0, 0, 0, 1)) == [(), (0, 0, 0)]
        assert na.etas_above((0, 0, 0, 1, 1)) == [()]

    def test_in_quota(self):
        # guessing nodes sit at levels 1 mod 3 and owe x - 1 acts once
        # x reaches 2 and exceeds their depth
        assert not na.LEVELS.in_quota((0,), 0)
        assert not na.LEVELS.in_quota((0,), 1)
        assert na.LEVELS.in_quota((0,), 2)
        assert na.LEVELS.in_quota((1,), 5)
        assert not na.LEVELS.in_quota((0, 0), 2)  # xi level
        assert not na.LEVELS.in_quota((0, 0, 0, 0), 3)  # too deep
        assert na.LEVELS.in_quota((0, 0, 0, 0), 5)

    def test_quota_for(self):
        for x in range(7):
            for node in all_nodes(5):
                expected = x - 1 if na.LEVELS.in_quota(node, x) else 0
                assert na.LEVELS.quota_for(node, x) == expected

    def test_edge_layer_orders_by_depth(self):
        universe = [(0,), (1,), (0, 0, 0, 0)]
        assert na.LEVELS.edge_layer((0, 0, 0, 0), 5, universe) == 0
        assert na.LEVELS.edge_layer((0,), 5, universe) == 3
        assert na.LEVELS.edge_layer((1,), 5, universe) == 0


class TestKPrime:
    def test_no_eta_prefix(self):
        assert na.k_prime((1, 0), {}) == 0

    def test_one_eta_length_one(self):
        assert na.k_prime((0, 0), {(): 1}) == 4

    def test_one_eta_length_two(self):
        assert na.k_prime((0, 0), {(): 2}) == 1028

    def test_sums_over_all_protected_computations(self):
        xi = (0, 0, 0, 0, 0)
        lengths = {(): 2, (0, 0, 0): 3}
        expect = sum(injury_bound(x) for x in range(2))
        expect += sum(injury_bound(x) for x in range(3))
        assert na.k_prime(xi, lengths) == expect

    def test_every_infinite_prefix_counts(self):
        # the second-level protector sits below the first guesser's
        # finite outcome but still shields its own computations
        assert na.k_prime((0, 1, 0, 0, 0), {(): 2, (0, 1, 0): 0}) == 1028
        assert na.k_prime((0, 1, 0, 0, 0), {(): 2, (0, 1, 0): 1}) == 1032


class TestKBudget:
    def test_empty(self):
        assert na.k_budget([]) == 0

    def test_singleton(self):
        assert na.k_budget([1028]) == 1028

    def test_max(self):
        assert na.k_budget([4, 1028]) == 1028
        assert na.k_budget(iter([7, 3, 9])) == 9


class TestBetaBound:
    """The beta budget of a quota list: phi over the members' budgets,
    under a bound that check_bound accepts."""

    def test_empty(self):
        assert phi([], 5) == nat(0)

    def test_single_member(self):
        assert format_cnf(phi([W], 1028)) == "w*1029"

    def test_absorption(self):
        got = phi([W, omega_power(nat(2))], 1)
        assert format_cnf(got) == "w^2*2"

    def test_matches_ordinal_arithmetic(self):
        gs = [W, W, omega_power(nat(2))]
        k = 3
        total = nat(0)
        for g in gs:
            total = total + g.times_nat(k + 1)
        assert phi(gs, k) == total

    def test_rejects_non_closed_alpha(self):
        with pytest.raises(ConfigError):
            check_bound(parse_cnf("w*2"), [])

    def test_accepts_closed_alpha(self):
        check_bound(ALPHA, [ScriptedCaAdversary("f0", W)])
        assert phi([W], 1) == W.times_nat(2)


class TestQlistUpdate:
    members = [(0, 0), (0, 1), (0, 0, 0, 0, 1)]

    def update(self, members, *args):
        """The members kept and the (member, cause) pairs dropped."""
        removed = na.qlist_update(members, *args)
        gone = {m for m, _ in removed}
        return [m for m in members if m not in gone], removed

    def test_no_events_unchanged(self):
        kept, removed = self.update(self.members, 4, {}, [], [], [])
        assert kept == self.members and removed == []

    def test_exhausted(self):
        kept, removed = self.update(self.members, 2, {(0, 1): 3},
                                    [], [], [])
        assert kept == [(0, 0), (0, 0, 0, 0, 1)]
        assert removed == [((0, 1), "exhausted")]

    def test_exhausted_needs_strictly_more_than_k(self):
        kept, removed = self.update(self.members, 2, {(0, 1): 2},
                                    [], [], [])
        assert removed == []

    def test_want_above(self):
        kept, removed = self.update(self.members, 4, {}, [(0, 0)],
                                    [], [])
        assert kept == [(0, 0), (0, 1)]
        assert removed == [((0, 0, 0, 0, 1), "want-above")]

    def test_rho_init(self):
        kept, removed = self.update(self.members, 4, {}, [], [(0,)],
                                    [])
        assert kept == []
        assert {c for _, c in removed} == {"rho-init"}

    def test_left_stage(self):
        # a stage at a prefix is not to the left; only the truly passed
        # member goes
        kept, removed = self.update(self.members, 4, {}, [], [],
                                    [(0, 0, 0)])
        assert kept == [(0, 0), (0, 0, 0, 0, 1)]
        assert removed == [((0, 1), "left-stage")]
        kept, removed = self.update(self.members, 4, {}, [], [],
                                    [(0, 0, 0, 0, 0)])
        assert kept == [(0, 0)]
        assert removed == [((0, 1), "left-stage"),
                           ((0, 0, 0, 0, 1), "left-stage")]

    def test_clause_precedence(self):
        # a member qualifying twice reports the earliest clause
        kept, removed = self.update([(0, 1)], 0, {(0, 1): 1}, [], [],
                                    [(0, 0)])
        assert removed == [((0, 1), "exhausted")]


def frozen_budgeted(levels=1, zmax=10):
    advs = {}
    for e in range(levels):
        adv = ScriptedCaAdversary(f"f{e}", W)
        for z in range(zmax):
            adv.add_step(z, 0, 0, W)
        advs[e] = adv
    return advs


def basic_functional(firsts=(2, 6, 10, 14, 18, 22, 26, 30)):
    fn = UseFunctional(0)
    for i, first in enumerate(firsts):
        fn.configure(i, first=first, delay=0)
    return fn


class TestRunBasics:
    def test_zero_stages(self):
        tr = na.run({0: DeltaTwoAdversary("p0", "scripted")},
                    frozen_budgeted(), {0: basic_functional()}, ALPHA, 0)
        assert tr.summary == {"A": "-"}

    def test_rejects_non_closed_alpha(self):
        with pytest.raises(ConfigError):
            na.run({0: DeltaTwoAdversary("p0", "scripted")},
                   frozen_budgeted(), {0: basic_functional()},
                   parse_cnf("w*2"), 5)

    def test_rejects_budget_at_alpha(self):
        adv = ScriptedCaAdversary("f0", ALPHA)
        with pytest.raises(ConfigError):
            na.run({0: DeltaTwoAdversary("p0", "scripted")}, {0: adv},
                   {0: basic_functional()}, ALPHA, 5)

    def test_rejects_missing_guessing_adversary(self):
        with pytest.raises(ConfigError):
            na.run({}, frozen_budgeted(), {0: basic_functional()}, ALPHA, 5)

    def test_rejects_missing_budgeted_adversary(self):
        with pytest.raises(ConfigError):
            na.run({0: DeltaTwoAdversary("p0", "scripted")}, {},
                   {0: basic_functional()}, ALPHA, 5)

    def test_emits_alpha_header(self):
        tr = na.run({0: DeltaTwoAdversary("p0", "scripted")},
                    frozen_budgeted(), {0: basic_functional()}, ALPHA, 3)
        first = tr.events[0]
        assert first.kind == "phi-set"
        assert first == {"e": "alpha", "value": "w^w"}


class TestFrozenOpponents:
    """A frozen budgeted opponent never wants, so the run reduces to the
    guessing and functional machinery on the tree."""

    def test_no_xi_activity(self):
        psi = DeltaTwoAdversary("p0", "scripted")
        tr = na.run({0: psi}, frozen_budgeted(), {0: basic_functional()},
                    ALPHA, 30)
        events = tr.events
        for kind in ("select", "enumerate"):
            for eid in by_kind(tr, kind):
                assert not na.is_xi(na.parse(events[eid]["node"]))

    def test_lists_seed_and_stay(self):
        psi = DeltaTwoAdversary("p0", "scripted")
        tr = na.run({0: psi}, frozen_budgeted(), {0: basic_functional()},
                    ALPHA, 30)
        events, sets = tr.events, by_kind(tr, "qlist-set")
        assert [int(events[eid]["x"]) for eid in sets] == list(range(7))
        assert by_kind(tr, "qlist-remove") == []
        for check in na.verify_combined_bounds(replay_of(tr)):
            assert check.passed, check.line()


def mixed_scenario(stages=34):
    """Staggered convergence drives two organic listed-opponent injuries.

    The first expansionary stage hands the leftmost budgeted node a
    follower; later expansionary stages seed fresh lists containing it
    while its use still undercuts the newest computation, so its next
    want is permitted and counts.  A guessing flip at 23 is refused for
    height and tears the subtree down, exercising the rho-init clause.
    """
    psi = DeltaTwoAdversary("p0", "scripted")
    for y in range(60):
        psi.add_step(y, 7, 1)
        psi.add_step(y, 8, 0)
        psi.add_step(y, 23, 1)
        psi.add_step(y, 24, 0)
    f0 = ScriptedCaAdversary("f0", W)
    for z in range(10):
        f0.add_step(z, 0, 0, W)
        f0.add_step(z, 7, 1, nat(5))
        f0.add_step(z, 11, 0, nat(4))
        f0.add_step(z, 15, 1, nat(3))
    return na.run({0: psi}, {0: f0}, {0: basic_functional()}, ALPHA, stages)


class TestMixedScenario:
    def test_all_checks_pass(self):
        tr = mixed_scenario()
        for check in na.verify_combined_bounds(replay_of(tr)):
            assert check.passed, check.line()

    def test_counted_xi_injuries(self):
        tr = mixed_scenario()
        r = na._CombReplay(tr)
        hits = [(s, x, na.render(node))
                for eta in r.etas()
                for _, s, x, node, _ in r.counted_injuries(eta)]
        assert hits == [(7, 1, "ii"), (15, 3, "if")]

    def test_first_list_payload(self):
        tr = mixed_scenario()
        events, sets = tr.events, by_kind(tr, "qlist-set")
        one = next(eid for eid in sets if events[eid]["x"] == "1")
        assert stage_of(tr)[one] == 7
        assert events[one]["k"] == "1028"
        assert events[one]["members"] == "ii"
        assert events[one]["gs"] == "w"
        assert events[one]["kps"] == "1028"
        budget = next(events[eid] for eid in by_kind(tr, "phi-set")
                      if events[eid]["e"] == "-.1")
        assert budget["value"] == "w*1029"

    def test_later_list_gains_second_member(self):
        tr = mixed_scenario()
        events = tr.events
        three = next(eid for eid in by_kind(tr, "qlist-set")
                     if events[eid]["x"] == "3")
        assert stage_of(tr)[three] == 15
        assert events[three]["members"] == "ii,if"

    def test_refused_guess_prunes_lists(self):
        tr = mixed_scenario()
        events, stages = tr.events, stage_of(tr)
        removed = [(stages[eid], events[eid]["x"], events[eid]["xi"],
                    events[eid]["cause"])
                   for eid in by_kind(tr, "qlist-remove")]
        assert removed == [
            (27, "1", "ii", "rho-init"), (27, "2", "ii", "rho-init"),
            (27, "3", "ii", "rho-init"), (27, "3", "if", "rho-init"),
            (27, "4", "ii", "rho-init"), (27, "4", "if", "rho-init"),
            (27, "5", "ii", "rho-init"), (27, "5", "if", "rho-init")]

    def test_bound_table(self):
        tr = mixed_scenario()
        lines = na.bound_table(replay_of(tr))
        assert lines[0] == "bound eta=- x=0 beta=0 rho_bound=4"
        assert lines[1] == "bound eta=- x=1 beta=w*1029 rho_bound=1024"
        assert lines[2] == "bound eta=- x=2 beta=w*2360325 rho_bound=2359296"
        assert len(lines) == 8

    def test_summary_and_round_trip(self):
        tr = mixed_scenario()
        assert tr.summary == reduce_summary(replay_of(tr))
        assert tr.summary["A"] == "6,20"
        text = tr.to_text()
        assert RunTrace.from_text(text.encode()).to_text() == text
        assert mixed_scenario().to_text() == text

    def test_near_stabilization(self):
        # everything is frozen after stage 24; the leftover
        # initializations of each budgeted node stay within its tolerance
        tr = mixed_scenario()
        r = na._CombReplay(tr)
        final_l = max(v for (s, eta), v in stage_lengths(r).items()
                      if eta == ())
        for node, stages in r.xi_inits.items():
            if not na.etas_above(node):
                continue  # never shields anything, tolerance is void
            late = [s for s in stages if s > 24]
            assert len(late) <= na.k_prime(node, {(): final_l})


def left_stage_scenario(stages=26):
    """The right branch leads early, so its budgeted node joins the first
    list and is later passed on the left when the guesser picks."""
    psi = DeltaTwoAdversary("p0", "scripted")
    for y in range(60):
        psi.add_step(y, 0, 1)
        psi.add_step(y, 7, 0)
        psi.add_step(y, 11, 1)
        psi.add_step(y, 12, 0)
        psi.add_step(y, 19, 1)
        psi.add_step(y, 20, 0)
    f0 = ScriptedCaAdversary("f0", W)
    for z in range(10):
        f0.add_step(z, 0, 0, W)
        f0.add_step(z, 18, 1, nat(2))
    return na.run({0: psi}, {0: f0},
                  {0: basic_functional((2, 6, 10, 14, 18, 22))},
                  ALPHA, stages)


class TestLeftStageScenario:
    def test_all_checks_pass(self):
        tr = left_stage_scenario()
        for check in na.verify_combined_bounds(replay_of(tr)):
            assert check.passed, check.line()

    def test_left_stage_removal(self):
        tr = left_stage_scenario()
        events, stages = tr.events, stage_of(tr)
        removed = [(stages[eid], events[eid]["x"], events[eid]["xi"],
                    events[eid]["cause"])
                   for eid in by_kind(tr, "qlist-remove")]
        assert removed == [(11, "1", "if", "left-stage")]

    def test_counted_mixture(self):
        tr = left_stage_scenario()
        r = na._CombReplay(tr)
        hits = [(s, x, na.render(node))
                for eta in r.etas()
                for _, s, x, node, _ in r.counted_injuries(eta)]
        assert hits == [(11, 2, "i"), (19, 4, "i"), (23, 2, "ii"),
                        (23, 3, "ii"), (23, 4, "ii"), (23, 5, "ii")]


def synthetic_descent_trace():
    """A hand-written trace of one listed opponent spending its budget.

    The leftmost budgeted node is listed at x = 0 with tolerance 4 and
    budget w*5; it injures the protected computation twice with falling
    markers, so the witness stream stays below w*5 + 1.
    """
    tr = RunTrace("nonlow-alpha", 7)
    tr.emit(0, "phi-set", e="alpha", value="w^w")
    tr.emit(1, "visit", node="-", l=0)
    tr.emit(2, "visit", node="-", l=0)
    tr.emit(2, "inject-converge", e=0, x=0, use=10, value=0)
    tr.emit(3, "visit", node="-", l=1)
    tr.emit(3, "qlist-set", eta="-", x=0, k=4, members="ii", gs="w",
            kps="4", horizon=1)
    tr.emit(3, "phi-set", e="-.0", value="w*5")
    tr.emit(3, "visit", node="i")
    tr.emit(3, "visit", node="ii", x=0, f=0)
    tr.emit(3, "declare", node="ii", what="follower", y=0)
    tr.emit(3, "declare", node="ii", what="delta", x=0, u=2, value=1,
            marker="w")
    tr.emit(4, "visit", node="-", l=1)
    tr.emit(4, "visit", node="i")
    tr.emit(4, "visit", node="ii", x=0, f=1)
    tr.emit(4, "select", node="ii", act="act")
    tr.emit(4, "enumerate", node="ii", element=2, marker="3")
    tr.emit(4, "declare", node="ii", what="delta", x=0, u=12, value=0,
            marker="3")
    tr.emit(4, "inject-diverge", e=0, x=0, use=10)
    tr.emit(4, "inject-converge", e=0, x=0, use=13, value=1)
    tr.emit(5, "visit", node="-", l=1)
    tr.emit(5, "visit", node="i")
    tr.emit(5, "visit", node="ii", x=0, f=1)
    tr.emit(6, "visit", node="-", l=1)
    tr.emit(6, "visit", node="i")
    tr.emit(6, "visit", node="ii", x=0, f=0)
    tr.emit(6, "select", node="ii", act="act")
    tr.emit(6, "enumerate", node="ii", element=12, marker="2")
    tr.emit(6, "declare", node="ii", what="delta", x=0, u=14, value=1,
            marker="2")
    tr.emit(6, "inject-diverge", e=0, x=0, use=13)
    tr.emit(6, "inject-converge", e=0, x=0, use=15, value=2)
    return tr


class TestSyntheticDescent:
    def test_all_checks_pass(self):
        for check in na.verify_combined_bounds(
                replay_of(synthetic_descent_trace())):
            assert check.passed, check.line()

    def test_two_counted_hits(self):
        r = na._CombReplay(synthetic_descent_trace())
        hits = [(s, x, na.render(node))
                for _, s, x, node, _ in r.counted_injuries(())]
        assert hits == [(4, 0, "ii"), (6, 0, "ii")]

    def test_witness_descends_below_budget(self):
        r = na._CombReplay(synthetic_descent_trace())
        entry = r.quota.lists[((), 0)][0]
        hits = [(s, node, r.enums[s][3])
                for eid, s, x, node, _ in r.counted_injuries(())]
        stream = descent_witness(entry, hits, r.xi_inits, 0)
        vals = [m for _, _, m in stream.records[0]]
        assert vals[0] == parse_cnf("w*5")
        assert vals[1] == parse_cnf("w*4+3")
        assert vals[2] == parse_cnf("w*4+2")
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDeniedPermission:
    """Refusal requires a held use at most a protected use with no list
    membership; every organic route to that state also initializes the
    node first, so the branch is driven directly."""

    def make_run(self):
        psi = DeltaTwoAdversary("p0", "scripted")
        r = na.NonlowAlphaRun({0: psi}, frozen_budgeted(),
                              {0: basic_functional((1,))}, ALPHA, 0)
        r._advance_functionals(0)
        r._advance_functionals(1)
        r.cur_l[()] = r._length((), 3)  # the stage-3 walk visits the root
        return r

    def test_denied_want_reassigns(self):
        r = self.make_run()
        conv = r.runs[0].query(0)
        assert conv is not None
        st = Requirement(r.fadvs[0], "ii")
        st.follower, st.use, st.decl = 0, conv.use, 1
        r.xi[(0, 0)] = st
        r._xi_wants[(0, 0)] = 3
        assert r._xi_candidates((0, 0), 3) == [(0, 0)]
        r._act_xi((0, 0), 3)
        tr = r.trace
        events = tr.events
        sel = [events[eid] for eid in by_kind(tr, "select")
               if events[eid].get("act") == "denied"]
        assert len(sel) == 1
        assert sel[0]["node"] == "ii"
        assert sel[0]["by"] == "-"
        assert sel[0]["x"] == "0"
        inits = [eid for eid in by_kind(tr, "init")
                 if events[eid]["node"] == "ii"]
        assert len(inits) == 1 and stage_of(tr)[inits[0]] == 3
        # same-stage restart: fresh follower and a use above the refuser
        assert r.xi[(0, 0)].use > conv.use
        assert r._xi_candidates((0, 0), 4) == []
        redecl = [events[eid] for eid in by_kind(tr, "declare")
                  if events[eid].get("what") == "delta"]
        assert int(redecl[-1]["u"]) == r.xi[(0, 0)].use
        assert r.xi[(0, 0)].inits == [3]
        assert by_kind(r.trace, "enumerate") == []

    def test_higher_use_is_permitted(self):
        r = self.make_run()
        conv = r.runs[0].query(0)
        st = Requirement(r.fadvs[0], "ii")
        st.follower, st.use, st.decl = 0, conv.use + 1, 1
        r.xi[(0, 0)] = st
        assert r._denier((0, 0), st.use) is None

    def test_membership_overrides_height(self):
        r = self.make_run()
        conv = r.runs[0].query(0)
        st = Requirement(r.fadvs[0], "ii")
        r.qlists[()] = {0: QuotaList(r, 2, {"eta": "-", "x": 0}, "xi",
                                     {(0, 0): st}, na.render, 4)}
        assert r._denier((0, 0), conv.use) is None


class TestStress:
    def test_random_seeds_pass(self):
        counted = 0
        for seed in range(12):
            psi = DeltaTwoAdversary("p0", "random", seed=seed, flip=0.3,
                                    stab=30)
            f0 = BoundedCaAdversary("f0", W, seed=seed, change_prob=0.3)
            tr = na.run({0: psi}, {0: f0}, {0: basic_functional()},
                        ALPHA, 40)
            for check in na.verify_combined_bounds(replay_of(tr)):
                assert check.passed, f"seed {seed}: {check.line()}"
            assert tr.summary == reduce_summary(replay_of(tr))
            r = na._CombReplay(tr)
            counted += sum(len(r.counted_injuries(eta)) for eta in r.etas())
        assert counted >= 10


# -- two levels --------------------------------------------------------

SCEN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

# A drawn two-level run (every shipped combined scenario but
# stress-nonlow-alpha-two-levels has one level).  At seed 0 the counted injury at event 408 is the xi node "if" (level
# 0) enumerating under the use of the eta "ifq" (level 1), which lies
# below it.  That eta's list is empty, so its cap is (0 + 0) * 1 * 4 = 0.
CAP_BELOW_THE_INJURER = """\
construction nonlow-alpha
alpha w^w
stages 300
seed 0
adv p0 psi level 0 mode random seed 2460 flip 0.48 stab 66
adv p1 psi level 1 mode random seed 2461 flip 0.26 stab 80
adv f0 f level 0 mode random seed 2465 g 3 change 0.21
adv f1 f level 1 mode random seed 2466 g w change 0.47
fun 0 arg 0 first 11 delay 5
fun 0 arg 1 first 8 delay 4
fun 0 arg 2 first 22 delay 4 policy low:3
fun 0 arg 3 first 21 delay 2 policy low:0
fun 0 arg 4 first 5 delay 3
fun 1 arg 0 first 22 delay 0 policy low:0
fun 1 arg 1 first 2 delay 2
fun 1 arg 2 first 25 delay 4
"""


class TestTwoLevels:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "mind-change-cap counts the hit of xi 'if' under the use of the "
        "eta 'ifq' below it, whose empty list caps x=0 at 0"))
    def test_a_hit_from_above_an_eta_stays_under_its_cap(self):
        trace, _ = load_scenario(CAP_BELOW_THE_INJURER).execute(seed=0)
        failed = [c.line() for c in na.verify_combined_bounds(
            replay_of(trace)) if not c.passed]
        assert failed == []

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "5 of 43 kps entries at seeds 0-3 take the length an unvisited "
        "eta would have at the list's stage, not its last visit's"))
    def test_listed_k_prime_reads_the_last_visits(self):
        with open(os.path.join(
                SCEN, "stress-nonlow-alpha-two-levels.txt")) as fh:
            sc = load_scenario(fh.read())
        differ = []
        for seed in range(4):
            trace, _ = sc.execute(seed=seed)
            replay = replay_of(trace)
            recorded = stage_lengths(replay)
            for gen in replay.quota.lists.values():
                for entry in gen:
                    for member, kp in zip(entry.members, entry.kps):
                        lengths = {eta: last_visit_length(recorded, eta,
                                                          entry.s_def)
                                   for eta in na.etas_above(member)}
                        if kp != na.k_prime(member, lengths):
                            differ.append((seed, entry.s_def, member))
        assert differ == []
