"""Tests for CNF ordinal arithmetic, checked against independent oracles.

The main oracle embeds ordinals below w^3 into lexicographic coefficient
triples, where comparison and addition have elementary definitions that do
not share any code with the Cnf class.
"""

import functools
import random
import time

import pytest

from injurylab.approximation import ApproxTrace
from injurylab.ordinal import (
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    Cnf,
    CnfParseError,
    format_cnf,
    nat,
    omega_power,
    parse_cnf,
    random_cnf_below,
)

from orderings import ChangeOrdering, collapse_to_omega

W2 = omega_power(nat(2))
W_OMEGA = omega_power(OMEGA)


def validate(a: Cnf) -> bool:
    """Walk the term structure and re-check the CNF invariant everywhere."""
    prev = None
    for exp, coeff in a:
        if coeff < 1 or not validate(exp):
            return False
        if prev is not None and not exp < prev:
            return False
        prev = exp
    return True


# -- the lexicographic-triple oracle below w^3 -------------------------


def triple_to_cnf(t):
    """(a, b, c) denotes w^2*a + w*b + c."""
    a, b, c = t
    out = ZERO
    if a:
        out = out + omega_power(nat(2), a)
    if b:
        out = out + omega_power(ONE, b)
    if c:
        out = out + nat(c)
    return out


def triple_add(s, t):
    """Ordinal addition below w^3 written directly on coefficient triples."""
    a, b, c = s
    x, y, z = t
    if x:
        return (a + x, y, z)
    if y:
        return (a, b + y, z)
    return (a, b, c + z)


def all_triples(bound=5):
    return [
        (a, b, c)
        for a in range(bound)
        for b in range(bound)
        for c in range(bound)
    ]


def test_compare_matches_lex_embedding():
    ts = all_triples()
    cs = [triple_to_cnf(t) for t in ts]
    for t1, c1 in zip(ts, cs):
        for t2, c2 in zip(ts, cs):
            assert (c1 < c2) == (t1 < t2), (t1, t2)
            assert (c1 == c2) == (t1 == t2)


def test_compare_examples():
    assert OMEGA == OMEGA
    a = omega_power(nat(2), 2) + nat(3)
    b = omega_power(nat(2), 2) + OMEGA
    assert a < b
    # w^w sits above everything below w^3: give it a top rank in the
    # embedding, i.e. it beats every triple.
    big = W2.times_nat(9) + OMEGA.times_nat(9) + nat(9)
    assert W_OMEGA > big
    for t in all_triples(10):
        assert W_OMEGA > triple_to_cnf(t)


def test_add_matches_triple_oracle():
    ts = all_triples(4)
    for t1 in ts:
        for t2 in ts:
            want = triple_to_cnf(triple_add(t1, t2))
            got = triple_to_cnf(t1) + triple_to_cnf(t2)
            assert got == want, (t1, t2)


def test_add_examples():
    assert ONE + OMEGA == OMEGA
    assert OMEGA + ONE == Cnf(((ONE, 1), (ZERO, 1)))
    assert (W2 + OMEGA) + (OMEGA + ONE) == W2 + OMEGA.times_nat(2) + ONE


def test_add_identity_and_associativity():
    rng = random.Random(7)
    vals = [random_cnf_below(W_OMEGA, rng) for _ in range(300)]
    for a in vals:
        assert a + ZERO == a
        assert ZERO + a == a
    for i in range(0, 297, 3):
        a, b, c = vals[i], vals[i + 1], vals[i + 2]
        assert (a + b) + c == a + (b + c)


def test_compare_total_order_properties():
    rng = random.Random(11)
    vals = [random_cnf_below(W_OMEGA, rng) for _ in range(200)]
    pairs = [(rng.choice(vals), rng.choice(vals)) for _ in range(10_000)]
    for a, b in pairs:
        assert (a < b) + (a == b) + (b < a) == 1  # totality + antisymmetry
    for _ in range(2000):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        if a < b and b < c:
            assert a < c


def test_mul_nat_matches_repeated_add():
    rng = random.Random(3)
    for _ in range(200):
        a = random_cnf_below(W_OMEGA, rng)
        n = rng.randrange(6)
        total = ZERO
        for _ in range(n):
            total = total + a
        assert a.times_nat(n) == total


def test_mul_nat_examples():
    assert OMEGA.times_nat(0) == ZERO
    a = OMEGA.times_nat(2) + nat(3)
    assert a.times_nat(1) == a
    assert (W2 + OMEGA.times_nat(2)).times_nat(3) == W2.times_nat(3) + OMEGA.times_nat(2)


def closure_counterexample(a, rng, samples=1000):
    """Search for b, c < a with b + c >= a; None when no sample works."""
    for _ in range(samples):
        b = random_cnf_below(a, rng)
        c = random_cnf_below(a, rng)
        if not (b + c) < a:
            return b, c
    return None


def test_additively_closed_examples():
    assert W_OMEGA.is_additively_closed()
    assert not OMEGA.times_nat(2).is_additively_closed()
    assert OMEGA + OMEGA.times_nat(2) >= OMEGA.times_nat(2)
    a = W2 + ONE
    assert not a.is_additively_closed()
    assert W2 + ONE == a  # the witness pair b = w^2, c = 1 reaches a
    assert closure_counterexample(a, random.Random(0)) is not None


def test_additively_closed_matches_sampling_oracle():
    rng = random.Random(19)
    checked_closed = checked_open = 0
    for _ in range(60):
        a = random_cnf_below(W_OMEGA, rng)
        if not a:
            continue
        cex = closure_counterexample(a, rng)
        if a.is_additively_closed():
            assert cex is None, (a, cex)
            checked_closed += 1
        else:
            assert cex is not None, a
            checked_open += 1
    assert checked_closed and checked_open


def test_closed_iff_power_of_omega():
    assert ZERO.is_additively_closed()
    assert ONE.is_additively_closed()
    assert OMEGA.is_additively_closed()
    assert W2.is_additively_closed()
    assert not (W2 + OMEGA).is_additively_closed()
    assert not nat(2).is_additively_closed()


def test_operations_preserve_invariant():
    rng = random.Random(23)
    for _ in range(500):
        a = random_cnf_below(W_OMEGA, rng)
        b = random_cnf_below(W_OMEGA, rng)
        assert validate(a) and validate(b)
        assert validate(a + b)
        assert validate(a.times_nat(rng.randrange(5)))


def test_cnf_invariant_enforced_at_construction():
    with pytest.raises(ValueError):
        Cnf(((ZERO, 0),))
    with pytest.raises(ValueError):
        Cnf(((ZERO, 1), (ONE, 1)))  # increasing exponents
    with pytest.raises(TypeError):
        Cnf(((1, 1),))
    with pytest.raises(AttributeError):
        setattr(ONE, "terms", ())


def test_big_coefficients():
    # injury bounds like (x+1)^2 * 4^((x+1)^2) need arbitrary precision
    n = 16 * 4 ** 16
    a = OMEGA.times_nat(n)
    assert a[0][1] == n
    assert a + a == OMEGA.times_nat(2 * n)


# -- text grammar ------------------------------------------------------


def test_parse_examples():
    assert parse_cnf("0") == ZERO
    assert parse_cnf("w") == OMEGA
    assert parse_cnf("w^w") == W_OMEGA
    assert parse_cnf("w^2*3+w+5") == W2.times_nat(3) + OMEGA + nat(5)
    assert parse_cnf("w^(w+1)*2+3") == omega_power(OMEGA + ONE, 2) + nat(3)
    assert parse_cnf("7") == nat(7)


def test_format_round_trip():
    rng = random.Random(31)
    for _ in range(500):
        a = random_cnf_below(omega_power(W2), rng)
        assert parse_cnf(format_cnf(a)) == a


def test_format_canonical_sugar():
    assert format_cnf(W_OMEGA) == "w^w"
    assert format_cnf(W2.times_nat(3) + OMEGA + nat(5)) == "w^2*3+w+5"
    assert format_cnf(OMEGA) == "w"
    assert format_cnf(ZERO) == "0"


def test_parse_errors():
    for bad in ["", "w^", "w*", "1+", "w^()", "w)", "x", "w^*2"]:
        with pytest.raises(CnfParseError):
            parse_cnf(bad)


def nested(depth):
    """w^(w^(...w^(2)...)) with depth parenthesized exponents."""
    return "w^(" * depth + "2" + ")" * depth


def test_nesting_limit():
    deepest = parse_cnf(nested(MAX_NESTING))
    # formatting and comparing recurse per level, and stay within the limit
    assert parse_cnf(format_cnf(deepest)) == deepest
    assert parse_cnf(nested(MAX_NESTING - 1)) < deepest
    with pytest.raises(CnfParseError,
                       match=f"nested deeper than {MAX_NESTING} levels"):
        parse_cnf(nested(MAX_NESTING + 1))


@pytest.mark.parametrize("text, value", [
    ("+".join(["w"] * 20_000), OMEGA.times_nat(20_000)),
    ("+".join(f"w^{n}" for n in range(20_000, 0, -1)),
     Cnf(tuple((nat(n), 1) for n in range(20_000, 0, -1)))),
])
def test_parse_is_linear(text, value):
    # each token is read once and each term added once: a parser that
    # sliced the token list per token and re-added the sum per term took
    # 3.35 s on the first and over 300 s on the second
    start = time.process_time()
    assert parse_cnf(text) == value
    assert time.process_time() - start < 1.0


# -- the tuple order is the ordinal order ------------------------------


def reference_cmp(a: Cnf, b: Cnf) -> int:
    """-1, 0 or 1 by the term-by-term CNF comparison, written out: the
    first differing term decides by exponent, then coefficient, and a
    proper prefix is smaller."""
    for (ea, ca), (eb, cb) in zip(a, b):
        c = reference_cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def test_tuple_order_matches_reference():
    rng = random.Random(11)
    bound = omega_power(W_OMEGA)
    values = [random_cnf_below(bound, rng) for _ in range(2_000)]
    chain = [parse_cnf(nested(d)) for d in range(MAX_NESTING + 1)]
    pairs = list(zip(values, values[1:] + values[:1]))
    pairs += [(a, parse_cnf(format_cnf(a))) for a in values[:200]]
    pairs += [(a, b) for a in chain for b in chain[::10]]
    for a, b in pairs:
        c = reference_cmp(a, b)
        assert (a < b, a == b, a > b) == (c < 0, c == 0, c > 0)
        if c == 0:
            assert hash(a) == hash(b)
    for group in (values, chain[::-1]):
        key = functools.cmp_to_key(reference_cmp)
        assert sorted(group) == sorted(group, key=key)


def test_tuple_repetition_is_no_product():
    with pytest.raises(TypeError):
        OMEGA * 2
    with pytest.raises(TypeError):
        2 * OMEGA


# -- random generation helpers -----------------------------------------


def test_random_cnf_below_stays_below():
    rng = random.Random(37)
    for bound in [ONE, nat(9), OMEGA, W2 + OMEGA.times_nat(2) + nat(3), W_OMEGA]:
        for _ in range(300):
            a = random_cnf_below(bound, rng)
            assert a < bound
            assert validate(a)


def flips(changes):
    """An ApproxTrace whose value at x flips between s and s + 1 for each
    (x, s) in changes, and nowhere else."""
    t = ApproxTrace()
    for x, s in sorted(changes):
        if x not in t.records:
            t.record(x, 0, 0, ZERO)
        t.record(x, s + 1, 1 - t.records[x][-1][1], ZERO)
    return t


def test_collapse_to_omega_examples():
    r = collapse_to_omega(flips([]))
    assert r.elements == []

    r = collapse_to_omega(flips([(0, 1), (1, 0)]))
    assert r.less((0, 1), (1, 0))

    r = collapse_to_omega(flips([(0, 1), (0, 3)]))
    assert r.less((0, 3), (0, 1))


def test_change_ordering_ranks():
    r = ChangeOrdering([(0, 2), (0, 5), (2, 1), (1, 4)])
    assert r.elements == [(0, 5), (0, 2), (1, 4), (2, 1)]
    assert [r.rank(e) for e in r.elements] == [0, 1, 2, 3]
    assert r.normal_form((2, 1)) == nat(3)
    assert r.order_type == OMEGA


def test_omega_variant_structure():
    base = ChangeOrdering([(0, 1), (0, 3), (1, 0)])
    v = base.omega_variant()
    assert v.order_type == W2
    elems = [(n, z) for z in base.elements for n in range(4)]
    for e in elems:
        for f in elems:
            assert v.less(e, f) == (v.value(e) < v.value(f))
    for e in elems:
        # limit points are exactly the nonzero values with no finite part
        val = v.value(e)
        is_limit_val = bool(val) and bool(val[-1][0])
        assert v.is_limit(e) == is_limit_val
        assert v.value(v.successor(e)) == val + ONE
