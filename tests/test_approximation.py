"""Tests for approximation traces, the descent verifier, and adversaries."""

import random

import pytest

from injurylab.approximation import (
    ApproxTrace,
    BoundedCaAdversary,
    DeltaTwoAdversary,
    ScriptedCaAdversary,
    Violation,
    verify_r_approximation,
)
from injurylab.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    nat,
    omega_power,
    parse_cnf,
    random_cnf_below,
)

from orderings import changes, collapse_to_omega


def scan_oracle(trace, bound):
    """Brute-force re-check of the descent contract by pairwise scan."""
    bad = []
    for x, rows in trace.records.items():
        for _, _, m in rows:
            if not m < bound:
                bad.append((min(s for s, _, mm in rows if not mm < bound), x))
                break
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                si, vi, mi = rows[i]
                sj, vj, mj = rows[j]
                if mj > mi:
                    bad.append((sj, x))
        for (s0, v0, m0), (s1, v1, m1) in zip(rows, rows[1:]):
            if v1 != v0 and not m1 < m0:
                bad.append((s1, x))
    return min(bad) if bad else None


def random_trace(rng, valid: bool, bound):
    trace = ApproxTrace()
    for x in range(rng.randrange(1, 4)):
        marker = random_cnf_below(bound, rng)
        value = 0
        stage = 0
        for _ in range(rng.randrange(1, 18)):
            trace.record(x, stage, value, marker)
            stage += rng.randrange(1, 4)
            if marker and rng.random() < 0.5:
                value += 1
                marker = random_cnf_below(marker, rng)
    if not valid:
        # corrupt one argument: repeat a marker across a value change
        x = rng.choice(list(trace.records))
        rows = trace.records[x]
        s, v, m = rows[-1]
        rows.append((s + 1, v + 1, m))
    return trace


def test_verifier_examples():
    t = ApproxTrace()
    for s in range(5):
        t.record(0, s, 7, OMEGA)
    assert verify_r_approximation(t, OMEGA + ONE) is None

    t = ApproxTrace()
    t.record(0, 0, 0, OMEGA)
    t.record(0, 1, 1, OMEGA)
    v = verify_r_approximation(t, OMEGA + ONE)
    assert v == Violation(1, 0, "strict-descent")


def test_violations_compare_by_value():
    v = Violation(4, 1, "marker-increase")
    assert v == Violation(4, 1, "marker-increase") != Violation(4, 2, "x")
    assert hash(v) == hash(Violation(4, 1, "marker-increase"))
    assert repr(v) == ("Violation(stage=4, argument=1, "
                       "reason='marker-increase')")


def test_verifier_empty_trace_is_valid():
    assert verify_r_approximation(ApproxTrace(), OMEGA) is None


def test_verifier_marker_bound():
    t = ApproxTrace()
    t.record(0, 3, 0, OMEGA)
    v = verify_r_approximation(t, OMEGA)
    assert v == Violation(3, 0, "marker-bound")


def test_verifier_marker_increase():
    t = ApproxTrace()
    t.record(1, 0, 0, nat(2))
    t.record(1, 4, 0, nat(3))
    v = verify_r_approximation(t, OMEGA)
    assert v == Violation(4, 1, "marker-increase")


def test_verifier_agrees_with_scan_oracle():
    bound = omega_power(nat(2))
    rng = random.Random(5)
    for i in range(300):
        trace = random_trace(rng, valid=(i % 2 == 0), bound=bound)
        got = verify_r_approximation(trace, bound)
        want = scan_oracle(trace, bound)
        if want is None:
            assert got is None, got
        else:
            assert got is not None
            assert (got.stage, got.argument) == want


def test_trace_records_stage_sorted():
    t = ApproxTrace()
    t.record(0, 2, 0, OMEGA)
    with pytest.raises(ValueError):
        t.record(0, 2, 1, ONE)


def test_trace_changes_feed_collapse():
    t = ApproxTrace()
    t.record(0, 0, 0, nat(3))
    t.record(0, 2, 1, nat(2))
    t.record(1, 0, 5, nat(3))
    t.record(1, 4, 6, nat(1))
    assert changes(t) == [(0, 1), (1, 3)]
    r = collapse_to_omega(t)
    assert r.less((0, 1), (1, 3))


def test_delta2_stabilizing_settles():
    adv = DeltaTwoAdversary("p0", mode="random", seed=7, stab=40)
    for x in range(3):
        assert all(t < 40 for t in adv.change_stages(x, 200))
        settled = adv.value(x, 40)
        assert all(adv.value(x, s) == settled for s in range(40, 60))


def test_delta2_alternating_flips_every_period():
    adv = DeltaTwoAdversary("p0", mode="alternating", period=3)
    assert adv.change_stages(0, 12) == [3, 6, 9, 12]
    assert adv.value(0, 0) == 0
    assert adv.value(0, 3) == 1
    assert adv.value(0, 5) == 1
    assert adv.value(0, 6) == 0


def test_delta2_deterministic_given_seed():
    a = DeltaTwoAdversary("p0", mode="random", seed=99, flip=0.4, stab=None)
    b = DeltaTwoAdversary("p0", mode="random", seed=99, flip=0.4, stab=None)
    for x in range(3):
        assert [a.value(x, s) for s in range(50)] == [b.value(x, s) for s in range(50)]


def test_delta2_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown psi mode 'chaotic'"):
        DeltaTwoAdversary("p0", mode="chaotic")


def test_delta2_scripted():
    adv = DeltaTwoAdversary("p0", mode="scripted")
    adv.add_step(4, 10, 1)
    adv.add_step(4, 20, 0)
    assert adv.value(4, 9) == 0
    assert adv.value(4, 10) == 1
    assert adv.value(4, 25) == 0


def test_delta2_script_steps_flip_in_rising_stages():
    adv = DeltaTwoAdversary("p0", mode="scripted")
    adv.add_step(0, 0, 1)  # a step at stage 0 sets the start
    assert adv.change_stages(0, 9) == [] and adv.value(0, 0) == 1
    for stage, value, why in ((0, 0, "stages must increase at arg 0"),
                              (4, 1, "step at arg 0 wants value 0, got 1"),
                              (4, 2, "step at arg 0 wants value 0, got 2")):
        with pytest.raises(ValueError, match=why):
            adv.add_step(0, stage, value)
    with pytest.raises(ValueError, match="wants value 1, got 0"):
        adv.add_step(1, 3, 0)  # every argument starts at 0
    adv.add_step(0, 4, 0)
    assert adv.change_stages(0, 9) == [4]


@pytest.mark.parametrize("adv", [
    DeltaTwoAdversary("p0"),
    DeltaTwoAdversary("p0", "random", stab=None),
    DeltaTwoAdversary("p0", "alternating", period=2),
    BoundedCaAdversary("f0", OMEGA),
], ids=["default", "random", "alternating", "budgeted"])
def test_drawn_opponents_take_no_steps(adv):
    before = [adv.value(x, s) for x in range(3) for s in range(60)]
    step = (0, 5, 1) if isinstance(adv, DeltaTwoAdversary) \
        else (0, 5, 1, nat(3))
    with pytest.raises(ValueError, match=f"opponent '{adv.aid}' is not "
                                         f"scripted: it takes no steps"):
        adv.add_step(*step)
    assert [adv.value(x, s) for x in range(3) for s in range(60)] == before


def test_bca_generated_traces_verify():
    # the seeded schedule each argument follows out to stage 60, read at
    # stage 0 and at each stage next_change names
    g = parse_cnf("w*2")
    for seed in range(1000):
        adv = BoundedCaAdversary("q0", g=g, seed=seed)
        trace = ApproxTrace()
        for x in range(3):
            s = 0
            while s < 61:
                trace.record(x, s, adv.value(x, s), adv.marker(x, s))
                s = adv.next_change(x, s, 61)
        assert verify_r_approximation(trace, g + ONE) is None


def test_bca_frozen_after_marker_zero():
    adv = BoundedCaAdversary("q0", g=nat(3), seed=2, change_prob=0.9)
    vals = [adv.value(0, s) for s in range(100)]
    assert len(set(vals)) <= 4  # at most 3 changes under marker bound 3
    zero_at = next(s for s in range(100) if adv.marker(0, s) == ZERO)
    assert len(set(vals[zero_at:])) == 1


def test_bca_scripted_rejects_bad_schedules():
    adv = ScriptedCaAdversary("q0", g=OMEGA)
    adv.add_step(0, 0, 0, OMEGA)
    adv.add_step(0, 3, 1, nat(5))
    with pytest.raises(ValueError):
        adv.add_step(0, 5, 2, nat(5))  # change without descent
    bad = ScriptedCaAdversary("q1", g=nat(2))
    with pytest.raises(ValueError):
        bad.add_step(0, 0, 0, OMEGA)  # above the bound



# -- the opponents against naive per-query references -------------------


def naive_delta2(mode, seed, flip, stab, period, script, x, horizon):
    """The values at stages 0..horizon, from scratch: the last scripted
    step at or before each stage, or one flip draw per stage before
    stab."""
    if mode == "scripted":
        steps = sorted(script.get(x, []))
        return [([v for t, v in steps if t <= s] or [0])[-1]
                for s in range(horizon + 1)]
    if mode == "alternating":
        stab = None
    vals = [0]
    for t in range(1, horizon + 1):
        v = vals[-1]
        if stab is None or t < stab:
            if mode == "alternating":
                v ^= t % period == 0
            else:
                v ^= random.Random(f"{seed}:{x}:{t}").random() < flip
        vals.append(v)
    return vals


def naive_bca(g, seed, change, script, scripted, x, s):
    """(value, marker) at (x, s) from scratch: the rows scripted for x (or
    the start row), one draw per stage up to s unless scripted, then a
    scan in row order up to the first row past s."""
    rows = list(script.get(x, [(0, 0, g)]))
    for t in range(1, s + 1):
        _, value, marker = rows[-1]
        if scripted or not marker:
            break
        rng = random.Random(f"{seed}:{x}:{t}")
        if rng.random() < change:
            rows.append((t, value + 1, random_cnf_below(marker, rng)))
    val, mark = 0, g
    for stage, v, m in rows:
        if stage > s:
            break
        val, mark = v, m
    return val, mark


@pytest.mark.parametrize("period", [1, 2, 3, 7, 40])
def test_delta2_alternating_matches_the_flip_oracle(period):
    # the closed form against one flip per multiple of period
    ref = naive_delta2("alternating", 0, 0.3, None, period, {}, 0, 700)
    adv = DeltaTwoAdversary("p0", "alternating", period=period)
    assert [adv.value(x, s) for x in range(2) for s in range(701)] == ref * 2
    for horizon in range(0, 701, 13):
        assert adv.change_stages(3, horizon) == [
            t for t in range(1, horizon + 1) if ref[t] != ref[t - 1]]
    for s in range(0, 600, 11):
        for horizon in (s, s + 1, s + 2, s + period, s + period + 1, 700):
            assert adv.next_change(5, s, horizon) == next(
                (t for t in range(s + 1, horizon) if ref[t] != ref[s]),
                horizon)
    far = 10 ** 12  # no cache grows to reach it
    assert adv.value(0, far) == far // period % 2
    assert adv.next_change(0, far, 2 * far) == (far // period + 1) * period


def queries(rng, n=120):
    """(x, s) pairs with stages that jump back and forth."""
    return [(rng.randrange(4), rng.choice([rng.randrange(80),
                                           rng.randrange(400)]))
            for _ in range(n)]


@pytest.mark.parametrize("mode, stab", [("random", 25), ("random", None),
                                        ("random", 40), ("random", 0),
                                        ("alternating", 40),
                                        ("scripted", 40)])
def test_delta2_matches_naive_reference(mode, stab):
    for seed in range(6):
        rng = random.Random(seed)
        script = {}
        adv = DeltaTwoAdversary("p0", mode, seed=seed, flip=0.3, stab=stab,
                                period=1 + seed % 3)
        if mode == "scripted":
            for x in range(4):
                t, v = -1, 0
                for _ in range(rng.randrange(5)):
                    t, v = t + 1 + rng.randrange(80), 1 - v
                    adv.add_step(x, t, v)
                    script.setdefault(x, []).append((t, v))
        refs = {x: naive_delta2(mode, seed, 0.3, stab, 1 + seed % 3,
                                script, x, 600) for x in range(4)}
        for x, s in queries(rng):
            ref = refs[x]
            assert adv.value(x, s) == ref[s]
            assert adv.change_stages(x, s) == [
                t for t in range(1, s + 1) if ref[t] != ref[t - 1]]
            horizon = s + 1 + rng.randrange(200)
            assert adv.next_change(x, s, horizon) == next(
                (t for t in range(s + 1, horizon) if ref[t] != ref[s]),
                horizon)


def scripted_rows(rng, g):
    """Legal step rows for one argument, in rising stages; a step may
    keep the value, with the marker held or lowered."""
    rows, stage, value, marker = [], -1, 0, g
    for _ in range(rng.randrange(5)):
        if rng.random() < 0.5 and marker:
            value, marker = value + 1, random_cnf_below(marker, rng)
        stage += 1 + rng.randrange(50)
        rows.append((stage, value, marker))
    return rows


@pytest.mark.parametrize("kind", ["budgeted", "scripted"])
def test_bca_matches_naive_reference(kind):
    g = parse_cnf("w*2")
    for seed in range(8):
        rng = random.Random(seed)
        scripted = kind == "scripted"
        cls = ScriptedCaAdversary if scripted else BoundedCaAdversary
        adv = cls("f0", g) if scripted else cls("f0", g, seed=seed,
                                                change_prob=0.3)
        script = {}
        if scripted:
            for x in range(3):
                for t, v, m in scripted_rows(rng, g):
                    adv.add_step(x, t, v, m)
                    script.setdefault(x, []).append((t, v, m))
        for x, s in queries(rng):
            ref = naive_bca(g, seed, 0.3, script, scripted, x, s)
            assert (adv.value(x, s), adv.marker(x, s)) == ref


def naive_bca_values(g, seed, change, script, scripted, x, horizon):
    """The values at stages 0..horizon, by naive_bca's rows drawn once out
    to the horizon: a row drawn past a stage never decides its value."""
    rows = list(script.get(x, [(0, 0, g)]))
    for t in range(1, horizon + 1):
        _, value, marker = rows[-1]
        if scripted or not marker:
            break
        rng = random.Random(f"{seed}:{x}:{t}")
        if rng.random() < change:
            rows.append((t, value + 1, random_cnf_below(marker, rng)))
    vals = []
    for s in range(horizon + 1):
        val = 0
        for stage, v, _ in rows:
            if stage > s:
                break
            val = v
        vals.append(val)
    return vals


@pytest.mark.parametrize("kind", ["budgeted", "scripted"])
def test_bca_next_change_holds_the_value(kind):
    # the value holds from s up to the stage next_change names; a seeded
    # schedule changes its value at every row, so there it is exact
    g = parse_cnf("w*2")
    for seed in range(8):
        rng = random.Random(seed)
        scripted = kind == "scripted"
        cls = ScriptedCaAdversary if scripted else BoundedCaAdversary
        adv = cls("f0", g) if scripted else cls("f0", g, seed=seed,
                                                change_prob=0.3)
        script = {}
        if scripted:
            for x in range(3):
                for t, v, m in scripted_rows(rng, g):
                    adv.add_step(x, t, v, m)
                    script.setdefault(x, []).append((t, v, m))
        vals = {x: naive_bca_values(g, seed, 0.3, script, scripted, x, 600)
                for x in range(4)}
        for x, s in queries(rng):
            horizon = s + 1 + rng.randrange(200)
            t = adv.next_change(x, s, horizon)
            ref = vals[x]
            assert s < t <= horizon
            assert ref[s:t] == [ref[s]] * (t - s)
            if kind == "budgeted":
                assert t == horizon or ref[t] != ref[s]
            assert adv.value(x, s) == ref[s]
