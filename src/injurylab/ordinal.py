"""Ordinals below epsilon_0 in Cantor normal form.

An ordinal is represented by its list of CNF terms ``w^exponent * coefficient``
with strictly decreasing exponents (themselves ordinals) and coefficients >= 1.
The empty term list is 0.  Values are immutable and totally ordered.
"""

from __future__ import annotations

import re
from functools import total_ordering
from itertools import accumulate


@total_ordering
class Cnf:
    """An ordinal below epsilon_0 in Cantor normal form, immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
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
        object.__setattr__(self, "terms", terms)

    def _refuse(self, *args):
        raise AttributeError("Cnf values are immutable")

    __setattr__ = __delattr__ = _refuse

    # -- ordering ------------------------------------------------------

    def _cmp(self, other: "Cnf") -> int:
        for (ea, ca), (eb, cb) in zip(self.terms, other.terms):
            c = ea._cmp(eb)
            if c != 0:
                return c
            if ca != cb:
                return -1 if ca < cb else 1
        if len(self.terms) == len(other.terms):
            return 0
        return -1 if len(self.terms) < len(other.terms) else 1

    def __lt__(self, other):
        if not isinstance(other, Cnf):
            return NotImplemented
        return self._cmp(other) < 0

    def __eq__(self, other):
        if not isinstance(other, Cnf):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Cnf") -> "Cnf":
        """Ordinal sum.  Terms of self below other's leading exponent vanish."""
        if not isinstance(other, Cnf):
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        lead = other.terms[0][0]
        kept = [t for t in self.terms if t[0] > lead]
        merged = list(other.terms)
        n = len(kept)
        if n < len(self.terms) and self.terms[n][0] == lead:
            merged[0] = (lead, self.terms[n][1] + merged[0][1])
        return Cnf(tuple(kept) + tuple(merged))

    def times_nat(self, n: int) -> "Cnf":
        """Product with a natural number (the only multiplication needed)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0 or not self:
            return ZERO
        (exp, coeff), rest = self.terms[0], self.terms[1:]
        return Cnf(((exp, coeff * n),) + rest)

    def is_additively_closed(self) -> bool:
        """True iff every sum of two smaller ordinals stays smaller.

        Holds exactly for 0 and the powers of omega (single term,
        coefficient 1); 1 = w^0 counts as a power.
        """
        if not self:
            return True
        return len(self.terms) == 1 and self.terms[0][1] == 1

    def is_finite(self) -> bool:
        return not self or (len(self.terms) == 1 and not self.terms[0][0])

    def nat_value(self) -> int:
        """The value of a finite ordinal as an int."""
        if not self:
            return 0
        if not self.is_finite():
            raise ValueError(f"{self} is not finite")
        return self.terms[0][1]

    def __str__(self):
        return format_cnf(self)

    def __repr__(self):
        return f"Cnf[{format_cnf(self)}]"


ZERO = Cnf(())
ONE = Cnf(((ZERO, 1),))


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
    if max(accumulate((t == "(") - (t == ")") for t in toks)) > MAX_NESTING:
        raise CnfParseError(f"exponents nested deeper than {MAX_NESTING} "
                            f"levels")
    val, rest = _parse_expr(toks)
    if rest:
        raise CnfParseError(f"trailing tokens {rest!r} in {text!r}")
    return val


def _parse_expr(toks):
    total = ZERO
    while True:
        term, toks = _parse_term(toks)
        total = total + term
        if toks and toks[0] == "+":
            toks = toks[1:]
        else:
            return total, toks


def _parse_term(toks):
    if not toks:
        raise CnfParseError("expected a term")
    tok = toks[0]
    if tok.isdigit():
        return nat(int(tok)), toks[1:]
    if tok != "w":
        raise CnfParseError(f"expected term, got {tok!r}")
    toks = toks[1:]
    exp = ONE
    if toks and toks[0] == "^":
        toks = toks[1:]
        if not toks:
            raise CnfParseError("dangling '^'")
        if toks[0].isdigit():
            exp, toks = nat(int(toks[0])), toks[1:]
        elif toks[0] == "w":
            exp, toks = OMEGA, toks[1:]
        elif toks[0] == "(":
            exp, toks = _parse_expr(toks[1:])
            if not toks or toks[0] != ")":
                raise CnfParseError("missing ')'")
            toks = toks[1:]
        else:
            raise CnfParseError(f"bad exponent {toks[0]!r}")
    coeff = 1
    if toks and toks[0] == "*":
        if len(toks) < 2 or not toks[1].isdigit():
            raise CnfParseError("'*' must be followed by a natural")
        coeff, toks = int(toks[1]), toks[2:]
    return omega_power(exp, coeff), toks


def format_cnf(a: Cnf) -> str:
    """Canonical text for an ordinal; parse_cnf(format_cnf(a)) == a."""
    if not a:
        return "0"
    parts = []
    for exp, coeff in a.terms:
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
    i = rng.randrange(len(bound.terms))
    exp, coeff = bound.terms[i]
    kept = list(bound.terms[:i])
    new_coeff = rng.randrange(coeff)
    if new_coeff:
        kept.append((exp, new_coeff))
    tail_room = exp  # anything with exponents strictly below exp may follow
    out = Cnf(tuple(kept))
    return out + _random_tail(tail_room, rng)


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
    if rng.random() < 0.7 and (not total or total.terms[-1][0]):
        total = total + nat(rng.randrange(1, 6))
    return total
