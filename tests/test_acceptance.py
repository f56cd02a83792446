"""End-to-end acceptance gate.

Each test prints one pass/fail line.  The campaign criteria run the full
stated scales (100 or 50 seeds at ten thousand stages), so this file is
the slow part of the suite; everything else in tests/ stays fast.
"""

import io
import itertools
import random
import time

import pytest

from injurylab import low_alpha, nonlow_alpha, nonlow_low2
from injurylab.approximation import (ApproxTrace, BoundedCaAdversary,
                                     DeltaTwoAdversary,
                                     verify_r_approximation)
from injurylab.budgeted import descent_witness
from injurylab.cli import digest, main
from injurylab.functional import UseFunctional
from injurylab.nonlow_low2 import injury_bound
from injurylab.ordinal import OMEGA, Cnf, nat, omega_power, random_cnf_below
from injurylab.trace import RunTrace

from orderings import collapse_to_omega
from stage_maps import stage_lengths

# The whole file is the slow gate: `pytest -m "not slow"` leaves it out.
pytestmark = pytest.mark.slow

W = OMEGA
ALPHA_SQ = omega_power(nat(2))
ALPHA_WW = omega_power(W)


def report(num, name, passed, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num} {name} {'pass' if passed else 'fail'}{tail}")
    assert passed, f"criterion {num} {name}: {detail}"


# -- criterion 1: ordinal arithmetic against a positional oracle -------

def _triple(a: Cnf):
    """(c2, c1, c0) for a = w^2*c2 + w*c1 + c0; requires a < w^3."""
    out = [0, 0, 0]
    for exp, coeff in a:
        out[2 - exp.nat_value()] = coeff
    return tuple(out)


def _from_triple(t):
    terms = [(nat(2 - i), c) for i, c in enumerate(t) if c]
    return Cnf(tuple(terms))


def _oracle_add(a, b):
    if b[0]:
        return (a[0] + b[0], b[1], b[2])
    if b[1]:
        return (a[0], a[1] + b[1], b[2])
    if b[2]:
        return (a[0], a[1], a[2] + b[2])
    return a


def test_criterion_1_ordinal_oracle():
    t0 = time.monotonic()
    triples = list(itertools.product(range(5), repeat=3))
    values = {t: _from_triple(t) for t in triples}
    pairs = 0
    for ta, tb in itertools.product(triples, repeat=2):
        a, b = values[ta], values[tb]
        assert (a < b) == (ta < tb) and (a == b) == (ta == tb)
        assert _triple(a + b) == _oracle_add(ta, tb)
        pairs += 1
    dt = time.monotonic() - t0
    report(1, "ordinal-oracle", dt < 10.0, f"{pairs} pairs in {dt:.2f}s")


# -- criterion 2: additive closure versus pair sampling ----------------

def test_criterion_2_additive_closure():
    rng = random.Random(42)
    mismatches = 0
    closed_seen = open_seen = 0
    for _ in range(200):
        alpha = random_cnf_below(ALPHA_WW, rng)
        if not alpha:
            sampled_closed = True
        else:
            sampled_closed = all(
                random_cnf_below(alpha, rng) + random_cnf_below(alpha, rng)
                < alpha for _ in range(1000))
        if alpha.is_additively_closed():
            closed_seen += 1
        else:
            open_seen += 1
        if sampled_closed != alpha.is_additively_closed():
            mismatches += 1
    report(2, "additive-closure", mismatches == 0,
           f"{closed_seen} closed, {open_seen} open, "
           f"{mismatches} mismatches")


# -- criteria 3 and 4: the two-level campaign --------------------------

def _low2_seed(seed):
    shift = 1000 * seed
    psis = {0: DeltaTwoAdversary("p0", "random", seed=1 + shift,
                                 flip=0.3, stab=45),
            1: DeltaTwoAdversary("p1", "random", seed=2 + shift,
                                 flip=0.3, stab=45)}
    funs = {}
    for e in range(2):
        fn = UseFunctional(e)
        for x in range(4):
            fn.configure(x, first=2 + 3 * x + e, delay=1, policy="low",
                         offset=5)
        funs[e] = fn
    return nonlow_low2.run(psis, funs, 10_000, seed), psis


@pytest.fixture(scope="module")
def low2_campaign():
    t0 = time.monotonic()
    rows = []
    for seed in range(100):
        trace, psis = _low2_seed(seed)
        replay = nonlow_low2._Replay(trace)
        checks = nonlow_low2.verify_main_lemma_claims(psis, replay)
        counts = {}
        for eta in replay.etas():
            for _, _, x, _, _ in replay.counted_injuries(eta):
                counts[(eta, x)] = counts.get((eta, x), 0) + 1
        rows.append((seed, checks, counts))
    return rows, time.monotonic() - t0


def test_criterion_3_injury_bound(low2_campaign):
    rows, elapsed = low2_campaign
    worst = 0.0
    hits = 0
    ok = True
    for seed, checks, counts in rows:
        for name in ("quota-soundness", "recursion-bound", "global-bound"):
            ok &= next(c for c in checks if c.name == name).passed
        for (eta, x), n in counts.items():
            hits += n
            if x <= 3:
                worst = max(worst, n / injury_bound(x))
                ok &= n <= injury_bound(x)
    ok &= elapsed < 120.0
    report(3, "injury-bound", ok,
           f"100 seeds, {hits} counted hits, worst ratio {worst:.3g}, "
           f"{elapsed:.1f}s")


def test_criterion_4_diagonalization(low2_campaign):
    rows, _ = low2_campaign
    settled = 0
    ok = True
    for seed, checks, _ in rows:
        diag = next(c for c in checks if c.name == "diagonalization")
        ok &= diag.passed
        settled += int(diag.detail.split()[0])
    ok &= settled > 0
    report(4, "diagonalization", ok, f"{settled} settled followers, "
                                     f"all disagree")


def test_parser_keeps_pace_with_the_digest():
    # the parse and the digest both render every run in the chunks of
    # trace._run_chunks, most of them one block rewritten in place by
    # digit columns, the parse to match them against the text and the
    # digest to hash them, so they are timed against each other (CPU
    # time, interleaved, best of 9).  The digest's extra is its sha256,
    # whose share varies by host: on a shared 2-core x86 VM the parse
    # reads 0.79 to 0.84 of the digest, and 1.04 in the 1 of 12 processes
    # in which both ran slower (the parse about 1.5 times, the digest 1.2
    # times).  The bound was set when the digest rendered
    # every chunk fresh, between a parse that did so too (0.94 to 1.04 of
    # that digest) and one that split the whole text into lines (1.59 to
    # 1.67).
    trace = _low2_seed(0)[0]
    text = trace.to_text().encode()
    parse = write = float("inf")
    for _ in range(9):
        t0 = time.process_time()
        RunTrace.from_text(text)
        t1 = time.process_time()
        digest(trace)
        t2 = time.process_time()
        parse, write = min(parse, t1 - t0), min(write, t2 - t1)
    assert parse <= 1.25 * write, \
        f"from_text {parse * 1e3:.1f} ms, digest {write * 1e3:.1f} ms"


# -- criterion 5: watcher budgets under w^2 ----------------------------

def test_criterion_5_phi_budget():
    t0 = time.monotonic()
    activated = 0
    ok = True
    for seed in range(100):
        shift = 1000 * seed
        advs = [BoundedCaAdversary("f0", W, seed=3 + shift,
                                   change_prob=0.3),
                BoundedCaAdversary("f1", nat(4), seed=4 + shift,
                                   change_prob=0.3)]
        funs = []
        for e in range(2):
            fn = UseFunctional(e)
            fn.configure(e, first=2 + e)
            funs.append(fn)
        trace = low_alpha.run(advs, funs, ALPHA_SQ, 10_000, seed)
        replay = low_alpha._LowReplay(trace)
        checks = low_alpha.verify_lowness_budget(replay)
        ok &= all(c.passed for c in checks)
        for e, budget in replay.budgets.items():
            if budget.value is None:
                continue
            activated += 1
            ok &= budget.value < ALPHA_SQ
            witness = descent_witness(budget, replay.hits(e),
                                      replay.inits, e)
            ok &= verify_r_approximation(witness,
                                         budget.value + nat(1)) is None
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    report(5, "phi-budget", ok,
           f"100 seeds, {activated} activated watchers, {elapsed:.1f}s")


# -- criterion 6: combined construction under w^w ----------------------

def _length_lookup(lengths, eta, stage):
    best = None
    for (s, node), l in lengths.items():
        if node == eta and s <= stage and (best is None or s > best[0]):
            best = (s, l)
    return 0 if best is None else best[1]


def test_criterion_6_combined_bounds():
    t0 = time.monotonic()
    ok = True
    lists = members_checked = 0
    for seed in range(50):
        shift = 1000 * seed
        psis = {0: DeltaTwoAdversary("p0", "random", seed=5 + shift,
                                     flip=0.3, stab=60)}
        fadvs = {0: BoundedCaAdversary("f0", W, seed=6 + shift,
                                       change_prob=0.3)}
        fn = UseFunctional(0)
        for x in range(8):
            fn.configure(x, first=2 + 4 * x)
        trace = nonlow_alpha.run(psis, fadvs, {0: fn}, ALPHA_WW,
                                 10_000, seed)
        replay = nonlow_alpha._CombReplay(trace)
        checks = nonlow_alpha.verify_combined_bounds(replay)
        for name in ("descent-witness", "rho-recursion", "xi-injury-gate",
                     "qlist-structure"):
            ok &= next(c for c in checks if c.name == name).passed
        ok &= all(c.passed for c in checks)
        recorded = stage_lengths(replay)
        for (eta, x), gen in replay.quota.lists.items():
            for entry in gen:
                lists += 1
                for i, member in enumerate(entry.members):
                    lengths = {h: _length_lookup(recorded, h, entry.s_def)
                               for h in nonlow_alpha.etas_above(member)}
                    ok &= (entry.kps[i]
                           == nonlow_alpha.k_prime(member, lengths))
                    members_checked += 1
    elapsed = time.monotonic() - t0
    ok &= elapsed < 180.0
    report(6, "combined-bounds", ok,
           f"50 seeds, {lists} quota lists, {members_checked} tolerances "
           f"recomputed, {elapsed:.1f}s")


# -- criterion 7: golden traces ----------------------------------------

def test_criterion_7_golden_traces():
    from test_golden import NAMES, FIX, run_golden
    import os
    ok = True
    for name in NAMES:
        _, trace, _ = run_golden(name)
        with open(os.path.join(FIX, name + ".trace"), "rb") as fh:
            ok &= trace.to_text().encode() == fh.read()
    report(7, "golden-traces", ok, f"{len(NAMES)} fixtures byte-identical")


# -- criterion 8: campaign determinism ---------------------------------

FROZEN_CAMPAIGN_DIGEST = "879dc055dd5c9ce8"


def test_criterion_8_determinism():
    import os
    scenario = os.path.join(os.path.dirname(__file__), os.pardir,
                            "scenarios", "golden-low-alpha.txt")
    argv = ["campaign", "--scenario", scenario, "--seeds", "3"]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        assert main(argv, buf) == 0
        outs.append(buf.getvalue())
    ok = outs[0] == outs[1]
    ok &= f"digest={FROZEN_CAMPAIGN_DIGEST}" in outs[0]
    report(8, "determinism", ok, "identical outputs, frozen digest")


# -- criterion 9: collapse orderings on random traces ------------------

def _random_approx_trace(rng):
    stages = rng.randrange(5, 40)
    trace = ApproxTrace()
    for x in range(rng.randrange(1, 5)):
        value = rng.randrange(2)
        marker = nat(40)
        trace.record(x, 0, value, marker)
        for s in sorted(rng.sample(range(1, stages),
                                   rng.randrange(1, 4))):
            value = 1 - value
            marker = nat(marker.nat_value() - 1)
            trace.record(x, s, value, marker)
    return trace


def test_criterion_9_hierarchy_collapse():
    rng = random.Random(7)
    ok = True
    queried = 0
    for _ in range(100):
        trace = _random_approx_trace(rng)
        ordering = collapse_to_omega(trace)
        elems = ordering.elements
        ok &= len(elems) == len(set(elems)) > 0
        ok &= sorted(ordering.rank(z) for z in elems) \
            == list(range(len(elems)))
        for a, b in itertools.product(elems[:12], repeat=2):
            ok &= ordering.less(a, b) == (ordering.rank(a)
                                          < ordering.rank(b))
            ok &= ordering.normal_form(a) == nat(ordering.rank(a))
        scaled = ordering.omega_variant()
        for n, z in itertools.product(range(3), elems[:8]):
            elem = (n, z)
            value = scaled.value(elem)
            ok &= scaled.value(scaled.successor(elem)) == value + nat(1)
            limit = bool(value) and not value[-1][0] == nat(0)
            ok &= scaled.is_limit(elem) == limit
            for other in ((n + 1, z), (n, z)):
                ok &= scaled.less(elem, other) \
                    == (value < scaled.value(other))
            queried += 1
    report(9, "hierarchy-collapse", ok,
           f"100 traces, {queried} scaled queries")
