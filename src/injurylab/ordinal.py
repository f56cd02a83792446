"""Ordinals below epsilon_0 in Cantor normal form.

An ordinal is the tuple of its CNF terms ``(exponent, coefficient)``, read
``w^exponent * coefficient``, with strictly decreasing exponents (themselves
ordinals) and coefficients >= 1.  The empty tuple is 0.  Tuple order is
ordinal order: the first term that differs decides, by exponent and then by
coefficient, and a proper prefix is the smaller ordinal.
"""

from __future__ import annotations

import re
import sys


class Cnf(tuple):
    """An ordinal below epsilon_0 in Cantor normal form, immutable."""

    __slots__ = ()

    def __new__(cls, terms: tuple):
        """terms is a tuple of (Cnf exponent, int coefficient)."""
        prev = None
        for exp, coeff in terms:
            if not isinstance(exp, Cnf):
                raise TypeError("exponent must be a Cnf")
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError("coefficient must be a positive integer")
            if prev is not None and not exp < prev:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp
        return tuple.__new__(cls, terms)

    # tuple repetition is no ordinal product; times_nat is the only one
    __mul__ = __rmul__ = None

    def __add__(self, other: "Cnf") -> "Cnf":
        """Ordinal sum.  Terms of self below other's leading exponent vanish."""
        if not isinstance(other, Cnf):
            return NotImplemented
        if not (self and other):
            return self or other
        return _sum((*self, *other))

    def times_nat(self, n: int) -> "Cnf":
        """Product with a natural number (the only multiplication needed)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0 or not self:
            return ZERO
        (exp, coeff), rest = self[0], self[1:]
        return Cnf(((exp, coeff * n),) + rest)

    def is_additively_closed(self) -> bool:
        """True iff every sum of two smaller ordinals stays smaller.

        Holds exactly for 0 and the powers of omega (single term,
        coefficient 1); 1 = w^0 counts as a power.
        """
        return not self or (len(self) == 1 and self[0][1] == 1)

    def is_finite(self) -> bool:
        return not self or (len(self) == 1 and not self[0][0])

    def nat_value(self) -> int:
        """The value of a finite ordinal as an int."""
        if not self:
            return 0
        if not self.is_finite():
            raise ValueError(f"{self} is not finite")
        return self[0][1]

    def __str__(self):
        return format_cnf(self)

    def __repr__(self):
        return f"Cnf[{format_cnf(self)}]"


ZERO = Cnf(())
ONE = Cnf(((ZERO, 1),))


def _sum(terms) -> Cnf:
    """The ordinal sum of a sequence of terms in one pass: a term absorbs
    the smaller ones before it and merges with an equal one."""
    out = []
    for exp, coeff in terms:
        while out and out[-1][0] < exp:
            out.pop()
        if out and out[-1][0] == exp:
            coeff += out.pop()[1]
        out.append((exp, coeff))
    return Cnf(tuple(out))


def nat(n: int) -> Cnf:
    """The finite ordinal n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Cnf(((ZERO, n),)) if n else ZERO


def omega_power(exp: Cnf, coeff: int = 1) -> Cnf:
    """w^exp * coeff as a single-term ordinal."""
    return Cnf(((exp, coeff),))


OMEGA = omega_power(ONE)


# -- text grammar ------------------------------------------------------
#
#   EXPR  := '0' | TERM ('+' TERM)*
#   TERM  := NAT | 'w' [ '^' (NAT | 'w' | '(' EXPR ')') ] [ '*' NAT ]

_TOKEN = re.compile(r"\s*(\d+|[w^*+()])")

# Deepest exponent nesting parse_cnf accepts, far above the w^(w^w) a
# construction writes: parsing, formatting and comparing recurse per level.
MAX_NESTING = 100


class CnfParseError(ValueError):
    pass


def _tokenize(text: str):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise CnfParseError(f"bad character at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_cnf(text: str) -> Cnf:
    """Parse the CNF text grammar: e.g. '0', 'w^w', 'w^2*3+w+5'."""
    toks = _tokenize(text)
    if not toks:
        raise CnfParseError("empty ordinal expression")
    toks.append("")  # the end sentinel, matched by no rule
    val, i = _parse_expr(toks, 0, 0)
    if toks[i]:
        raise CnfParseError(f"trailing tokens {toks[i:-1]!r} in {text!r}")
    return val


def _parse_expr(toks, i, depth):
    """The sum starting at token i, and the index after it."""
    terms = []
    while True:
        term, i = _parse_term(toks, i, depth)
        terms += term  # none for a 0
        if toks[i] != "+":
            total = _sum(terms)  # only merged coefficients can grow
            if len(total) == len(terms) or all(printable(c) for _, c in total):
                return total, i
            raise CnfParseError(f"sum has a coefficient past "
                                f"{sys.get_int_max_str_digits()} digits")
        i += 1


def read_nat(tok: str, what: str) -> int:
    """int(tok), refusing a literal of more digits than the interpreter's
    limit on int digits in parse_cnf's wording, with what naming it."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and len(tok) > limit and sum(map(str.isdecimal, tok)) > limit:
        raise CnfParseError(f"{what} past {limit} digits")
    return int(tok)


def _parse_term(toks, i, depth):
    tok = toks[i]
    if tok.isdigit():
        return nat(read_nat(tok, "coefficient")), i + 1
    if tok != "w":
        raise CnfParseError(f"expected term, got {tok!r}" if tok
                            else "expected a term")
    i += 1
    exp = ONE
    if toks[i] == "^":
        i += 1
        tok = toks[i]
        if tok.isdigit():
            exp = nat(read_nat(tok, "exponent"))
        elif tok == "w":
            exp = OMEGA
        elif tok == "(":
            if depth == MAX_NESTING:
                raise CnfParseError(f"exponents nested deeper than "
                                    f"{MAX_NESTING} levels")
            exp, i = _parse_expr(toks, i + 1, depth + 1)
            if toks[i] != ")":
                raise CnfParseError("missing ')'")
        elif not tok:
            raise CnfParseError("dangling '^'")
        else:
            raise CnfParseError(f"bad exponent {tok!r}")
        i += 1
    coeff = 1
    if toks[i] == "*":
        if not toks[i + 1].isdigit():
            raise CnfParseError("'*' must be followed by a natural")
        coeff, i = read_nat(toks[i + 1], "coefficient"), i + 2
    return omega_power(exp, coeff), i


def printable(n: int) -> bool:
    """Whether str(n) keeps within the interpreter's limit on int digits;
    every n below 2^(3 limit) < 10^limit does."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    return not limit or n.bit_length() <= 3 * limit or n < 10 ** limit


def format_cnf(a: Cnf) -> str:
    """Canonical text for an ordinal; parse_cnf(format_cnf(a)) == a."""
    if not a:
        return "0"
    parts = []
    for exp, coeff in a:
        if not exp:
            parts.append(str(coeff))
            continue
        if exp == ONE:
            base = "w"
        elif exp.is_finite():
            base = f"w^{exp.nat_value()}"
        elif exp == OMEGA:
            base = "w^w"
        else:
            base = f"w^({format_cnf(exp)})"
        parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return "+".join(parts)


def random_cnf_below(bound: Cnf, rng) -> Cnf:
    """A pseudo-random ordinal strictly below ``bound`` (which must be > 0)."""
    if not bound:
        raise ValueError("no ordinal below 0")
    i = rng.randrange(len(bound))
    exp, coeff = bound[i]
    kept = list(bound[:i])
    new_coeff = rng.randrange(coeff)
    if new_coeff:
        kept.append((exp, new_coeff))
    # anything with exponents strictly below exp may follow
    return Cnf(tuple(kept)) + _random_tail(exp, rng)


def _random_tail(exp_bound: Cnf, rng) -> Cnf:
    """A small random ordinal below w^exp_bound."""
    if not exp_bound:
        return ZERO
    total = ZERO
    e = exp_bound
    for _ in range(rng.randrange(3)):
        if not e:
            break
        e = random_cnf_below(e, rng)
        total = total + omega_power(e, rng.randrange(1, 4))
    if rng.random() < 0.7 and (not total or total[-1][0]):
        total = total + nat(rng.randrange(1, 6))
    return total
