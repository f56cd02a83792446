"""Tests for the tree construction with quota-bounded injury.

Combinatorial operations are checked against independent brute-force
oracles; runs are checked against hand simulations of the stage loop and
against the trace verifier.
"""

import itertools

import pytest

from injurylab.approximation import DeltaTwoAdversary
from injurylab.functional import UseFunctional
from injurylab import nonlow_low2 as nl
from injurylab.trace import ConfigError, RunTrace, reduce_summary


def all_nodes(max_len):
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product((0, 1), repeat=n))
    return out


def quota_oracle(x):
    """Brute force: odd nodes shorter than x, each with 1 <= k < x."""
    pairs = set()
    for node in all_nodes(max(x - 1, 0)):
        if len(node) % 2 == 1 and len(node) < x:
            for k in range(1, x):
                pairs.add((node, k))
    return pairs


class TestQuota:
    def test_empty_below_two(self):
        assert nl.quota(0) == set()
        assert nl.quota(1) == set()

    def test_two(self):
        assert nl.quota(2) == {((0,), 1), ((1,), 1)}

    def test_matches_oracle(self):
        for x in range(7):
            assert nl.quota(x) == quota_oracle(x)

    def test_monotone(self):
        for x in range(6):
            assert nl.quota(x) <= nl.quota(x + 1)

    def test_quota_for(self):
        for x in range(7):
            for node in all_nodes(6):
                expected = max(k for _, k in quota_oracle(x)
                               if _ == node) if any(
                    n == node for n, _ in quota_oracle(x)) else 0
                assert nl.quota_for(node, x) == expected

    def test_in_quota(self):
        for x in range(7):
            members = {n for n, _ in quota_oracle(x)}
            for node in all_nodes(6):
                assert nl.in_quota(node, x) == (node in members)


class TestInjuryBound:
    def test_values(self):
        assert nl.injury_bound(0) == 4
        assert nl.injury_bound(1) == 1024
        assert nl.injury_bound(2) == 9 * 4 ** 9 == 2359296

    def test_formula(self):
        for x in range(6):
            assert nl.injury_bound(x) == (x + 1) ** 2 * 4 ** ((x + 1) ** 2)


def edge_layer_oracle(rho, x):
    """Count interval nodes from rho-infinity up to each quota node."""
    best = 0
    for cand, _ in quota_oracle(x):
        if cand[:len(rho) + 1] == rho + (0,):
            interval = [cand[:i] for i in range(len(rho) + 1, len(cand) + 1)
                        if cand[:i][:len(rho) + 1] == rho + (0,)]
            best = max(best, len(interval))
    return best


class TestEdgeLayer:
    def test_not_in_quota(self):
        with pytest.raises(ValueError):
            nl.edge_layer((), 4)
        with pytest.raises(ValueError):
            nl.edge_layer((0,), 1)

    def test_maximal_length_is_zero(self):
        assert nl.edge_layer((0, 1, 0), 4) == 0

    def test_x_four_exhaustive(self):
        for rho, _ in quota_oracle(4):
            assert nl.edge_layer(rho, 4) == edge_layer_oracle(rho, 4)
        assert nl.edge_layer((0,), 4) == 2

    def test_deeper_means_smaller(self):
        x = 6
        for rho, _ in quota_oracle(x):
            for ext, _ in quota_oracle(x):
                if ext[:len(rho) + 1] == rho + (0,):
                    assert nl.edge_layer(ext, x) < nl.edge_layer(rho, x)


class TestEtaCorrect:
    def test_vacuous(self):
        assert nl.eta_correct(3, (0, 0), {}, 9)

    def test_low_use_fails(self):
        assert not nl.eta_correct(0, (0,), {(0,): 5}, 9)

    def test_repick_clears(self):
        uses = {(0,): 5}
        assert not nl.eta_correct(0, (0, 0, 0), uses, 9)
        uses[(0,)] = 20
        assert nl.eta_correct(0, (0, 0, 0), uses, 9)

    def test_divergent_errors(self):
        with pytest.raises(ValueError):
            nl.eta_correct(0, (0,), {}, None)

    def test_fin_prefixes_irrelevant(self):
        assert nl.eta_correct(0, (0, 1, 0, 1, 0), {(0, 1, 0): 1}, 9)


def scripted(aid="p"):
    return DeltaTwoAdversary(aid, "scripted")


class TestRunBasics:
    def test_zero_stages(self):
        tr = nl.run({0: scripted()}, {}, 0)
        assert tr.events == []
        assert tr.summary == {"A": "-"}

    def test_missing_adversary(self):
        fn = UseFunctional(1)
        with pytest.raises(ConfigError):
            nl.run({0: scripted()}, {0: UseFunctional(0), 1: fn}, 5)

    def test_constant_zero_hand_simulation(self):
        # stage 1: root plays fin (l = 0), path ends at the P node
        # stage 2: P node gets follower 1, wants pick, is selected, picks 2
        # stages 3+: psi still 0 and use held, so fin redeclares each visit
        tr = nl.run({0: scripted()}, {}, 10)
        picks = [e for e in tr.events
                 if e.kind == "declare" and e.payload.get("act") == "pick"]
        enums = [e for e in tr.events if e.kind == "enumerate"]
        assert len(picks) == 1 and not enums
        assert picks[0].stage == 2
        assert picks[0].payload == {"node": "f", "y": "1", "u": "2"} | {
            "what": "gamma", "act": "pick"}
        fins = [e for e in tr.events
                if e.kind == "declare" and e.payload.get("act") == "fin"]
        assert [e.stage for e in fins] == list(range(3, 10))
        assert tr.summary == {"A": "-", "node.f": "1:2"}

    def test_flip_every_stage(self):
        psi = DeltaTwoAdversary("p0", "alternating", period=1, stab=None)
        fn = UseFunctional(0)
        for x in range(6):
            fn.configure(x, first=x + 1, delay=0)
        tr = nl.run({0: psi}, {0: fn}, 50)
        enums = [e for e in tr.events if e.kind == "enumerate"]
        assert enums
        picks = {}
        for e in tr.events:
            if e.kind == "declare" and e.payload.get("act") == "pick":
                picks[(e.payload["node"], e.payload["u"])] = (
                    e.stage, int(e.payload["y"]))
        for e in enums:
            key = (e.payload["node"], e.payload["element"])
            assert key in picks, "enumeration without a matching declaration"
            s0, y = picks[key]
            assert s0 < e.stage
            assert psi.value(y, s0) == 0 and psi.value(y, e.stage) == 1

    def test_summary_matches_reducer(self):
        psi = DeltaTwoAdversary("p0", "alternating", period=2, stab=None)
        fn = UseFunctional(0)
        for x in range(5):
            fn.configure(x, first=2 * x + 1, delay=1)
        tr = nl.run({0: psi}, {0: fn}, 40)
        assert tr.summary == reduce_summary(tr)

    def test_deterministic_and_round_trips(self):
        def make():
            psi = DeltaTwoAdversary("p0", "random", seed=5, flip=0.4,
                                    stab=None)
            fn = UseFunctional(0)
            for x in range(5):
                fn.configure(x, first=x + 1, delay=0)
            return nl.run({0: psi}, {0: fn}, 60)
        a, b = make(), make()
        assert a.digest() == b.digest()
        assert RunTrace.from_text(a.to_text()).digest() == a.digest()


def stress(seed, stages=300):
    psis = {0: DeltaTwoAdversary("p0", "stabilizing", seed=seed,
                                 stab=stages // 3),
            1: DeltaTwoAdversary("p1", "alternating", period=3, stab=None),
            2: DeltaTwoAdversary("p2", "random", seed=seed + 1, flip=0.4,
                                 stab=stages // 2)}
    f0 = UseFunctional(0)
    for x in range(8):
        f0.configure(x, first=2 * x + 1, delay=0)
    f1 = UseFunctional(1)
    for x in range(6):
        f1.configure(x, first=x + 2, delay=1, policy="low", offset=3)
    f2 = UseFunctional(2)
    for x in range(4):
        f2.configure(x, first=3 * x + 4, delay=2)
    return psis, {0: f0, 1: f1, 2: f2}


def dense_low(stages=160, offset=20):
    """Alternating opponents over a low-use functional with one new argument
    converging every other stage, which keeps expansionary stages frequent."""
    psis = {0: DeltaTwoAdversary("p0", "alternating", period=2, stab=None),
            1: DeltaTwoAdversary("p1", "alternating", period=3, stab=None)}
    fn = UseFunctional(0)
    for x in range(stages // 2 + 2):
        fn.configure(x, first=2 * x + 2, delay=0, policy="low", offset=offset)
    return psis, {0: fn}


class TestVerifier:
    def test_empty_trace_vacuous(self):
        tr = RunTrace("nonlow-low2", 0)
        tr.finalize({"A": "-"})
        assert all(c.passed for c in nl.verify_main_lemma_claims(tr))

    def test_stress_seeds_pass(self):
        for seed in range(4):
            psis, funs = stress(seed)
            tr = nl.run(psis, funs, 300, seed=seed)
            results = nl.verify_main_lemma_claims(tr, psis=psis)
            assert all(c.passed for c in results), [
                (c.name, c.detail) for c in results if not c.passed]

    def test_diagonalization_checks_settled_followers(self):
        hits = 0
        for seed in range(6):
            psis, funs = stress(seed)
            tr = nl.run(psis, funs, 300, seed=seed)
            diag = next(c for c in nl.verify_main_lemma_claims(tr, psis=psis)
                        if c.name == "diagonalization")
            assert diag.passed, diag.detail
            hits += int(diag.detail.split()[0])
        assert hits > 0

    def test_posts_exhaustion_triggers_exercised(self):
        psis, funs = dense_low()
        tr = nl.run(psis, funs, 160, seed=0)
        r = nl._Replay(tr)
        post = total = 0
        for eta in r.etas():
            for eid, s2, x, rho, elem in r.counted_injuries(eta):
                total += 1
                pick = r.use_at_pick.get((rho, elem))
                if pick and pick[1] >= nl.quota_for(rho, x) \
                        and x < r.l.get((pick[0], eta), 0):
                    post += 1
        assert total > 100 and post > 0
        results = nl.verify_main_lemma_claims(tr, psis=psis)
        assert all(c.passed for c in results), [
            (c.name, c.detail) for c in results if not c.passed]

    def test_low_use_bound_at_one(self):
        psis, funs = dense_low()
        tr = nl.run(psis, funs, 160, seed=0)
        r = nl._Replay(tr)
        for eta in r.etas():
            n = sum(1 for _, _, x, _, _ in r.counted_injuries(eta) if x == 1)
            assert n <= nl.injury_bound(1) == 1024

    def test_quota_soundness_catches_corruption(self):
        # a length-1 node destroying the computation at x = 1 at an
        # expansionary stage is outside quota(1)
        tr = RunTrace("nonlow-low2", 6)
        tr.emit(5, "visit", node="-", l=2)
        tr.emit(5, "visit", node="i")
        tr.emit(5, "enumerate", node="i", element=3)
        tr.emit(5, "inject-diverge", e=0, x=1, use=5)
        tr.finalize({"A": "3"})
        bad = next(c for c in nl.verify_main_lemma_claims(tr)
                   if c.name == "quota-soundness")
        assert not bad.passed
        assert bad.witness == 3

    def test_injuries_are_paired_with_enumerations(self):
        psis, funs = dense_low()
        tr = nl.run(psis, funs, 160, seed=0)
        r = nl._Replay(tr)
        enum_stages = {e.stage for e in tr.events if e.kind == "enumerate"}
        for eid, s, e, x, node, elem in r.injuries:
            assert s in enum_stages
            assert elem < next(
                int(ev.payload["use"]) for ev in tr.events
                if ev.eid == eid)


def injury_stage(tr, s, injurer, x, l, path=("-", "i"), element=3, use=5):
    """One stage of a hand-written trace: the path visits, the injurer
    enumerates element and destroys the computation at x."""
    for node in path:
        if node == "-":
            tr.emit(s, "visit", node=node, l=l)
        else:
            tr.emit(s, "visit", node=node)
    tr.emit(s, "enumerate", node=injurer, element=element)
    return tr.emit(s, "inject-diverge", e=0, x=x, use=use)


def check_named(results, name):
    return next(c for c in results if c.name == name)


class TestFaultInjection:
    """Each named check fails, with a pinned witness, on a trace built to
    break exactly the claim it re-derives."""

    def test_recursion_bound_catches_excess(self):
        # quota node "i" owes x - 1 = 1 act against x = 2 and nothing
        # below it in the layer order may lend it more; it injures twice
        tr = RunTrace("nonlow-low2", 4)
        first = injury_stage(tr, 1, "i", x=2, l=3)
        injury_stage(tr, 2, "i", x=2, l=3, element=4)
        tr.finalize({"A": "3,4"})
        bad = check_named(nl.verify_main_lemma_claims(tr), "recursion-bound")
        assert not bad.passed
        assert bad.witness == first.eid == 3

    def test_trigger_structure_catches_foreign_trigger(self):
        # "i" picks use 3 after its quota from x = 0 (which is empty) is
        # spent; the injury it then causes must be triggered by a node
        # extending i-infinity, but the only earlier hit comes from "f"
        tr = RunTrace("nonlow-low2", 4)
        tr.emit(1, "visit", node="-", l=1)
        tr.emit(1, "visit", node="i")
        tr.emit(1, "declare", node="i", what="gamma", y=1, u=3, act="pick")
        trigger = injury_stage(tr, 2, "f", x=0, l=1, element=2)
        injury_stage(tr, 3, "i", x=0, l=1, element=3)
        tr.finalize({"A": "2,3", "node.i": "1"})
        bad = check_named(nl.verify_main_lemma_claims(tr),
                          "trigger-structure")
        assert not bad.passed
        assert bad.witness == trigger.eid == 6

    def test_trigger_structure_catches_missing_trigger(self):
        tr = RunTrace("nonlow-low2", 3)
        tr.emit(1, "visit", node="-", l=1)
        tr.emit(1, "visit", node="i")
        tr.emit(1, "declare", node="i", what="gamma", y=1, u=3, act="pick")
        hit = injury_stage(tr, 2, "i", x=0, l=1, element=3)
        tr.finalize({"A": "3", "node.i": "1"})
        bad = check_named(nl.verify_main_lemma_claims(tr),
                          "trigger-structure")
        assert not bad.passed
        assert bad.witness == hit.eid == 6

    def test_global_bound_catches_excess(self):
        # x = 0 tolerates injury_bound(0) = 4 injuries; this trace has 5
        tr = RunTrace("nonlow-low2", 6)
        hits = [injury_stage(tr, s, "i", x=0, l=1, element=s, use=9)
                for s in range(1, 6)]
        tr.finalize({"A": "1,2,3,4,5"})
        bad = check_named(nl.verify_main_lemma_claims(tr), "global-bound")
        assert not bad.passed
        assert bad.witness == hits[0].eid == 3
