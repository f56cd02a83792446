"""Test-only code: the change orderings of acceptance criterion 9, and the
reference run of a functional.

``collapse_to_omega`` turns an approximation trace's changes into an
order-type-omega well-order, ``ChangeOrdering``, and ``omega_variant``
scales it to omega^2.  ``evaluate`` replays a functional from stage 0,
the reference that ``FunctionalRun`` is compared against, with the
fresh uses of ``first_fresh_rule``.  No library code calls any of them.
"""

from injurylab.functional import FunctionalRun, UseFunctional
from injurylab.ordinal import OMEGA, Cnf, nat, omega_power


def changes(trace) -> list:
    """Pairs (x, s) where the approximated value of the ApproxTrace trace
    differs at s and s+1."""
    out = []
    for x, rows in sorted(trace.records.items()):
        for (s0, v0, _), (s1, v1, _) in zip(rows, rows[1:]):
            if v1 != v0:
                out.append((x, s1 - 1))
    return out


def collapse_to_omega(trace) -> "ChangeOrdering":
    """The order-type-omega well-order whose elements are the changes of
    the ApproxTrace trace."""
    return ChangeOrdering(changes(trace))


class ChangeOrdering:
    """The order-type-omega well-order built from a trace's change set.

    Elements are the pairs (x, s) at which the recorded approximation
    changed between stages s and s+1, ordered by: (x, s) < (x', s')  iff
    x < x'  or  (x = x' and s > s').
    """

    order_type = OMEGA

    def __init__(self, changes):
        self.elements = sorted(set(changes), key=lambda p: (p[0], -p[1]))
        self._rank = {p: i for i, p in enumerate(self.elements)}

    def less(self, a, b) -> bool:
        return self._rank[a] < self._rank[b]

    def rank(self, z) -> int:
        """Position of z in the order."""
        return self._rank[z]

    def normal_form(self, z) -> Cnf:
        """Position of z as a finite ordinal (the normal form below omega)."""
        return nat(self._rank[z])

    def omega_variant(self) -> "OmegaScaledOrdering":
        return OmegaScaledOrdering(self)


class OmegaScaledOrdering:
    """omega * R for a ChangeOrdering R: order type omega^2.

    Elements are pairs (n, z) with n a natural and z an element of R,
    denoting omega * |z| + n.  The limit-point set and the successor
    function are computable.
    """

    order_type = omega_power(nat(2))

    def __init__(self, base: ChangeOrdering):
        self.base = base

    def less(self, a, b) -> bool:
        (n, z), (m, w) = a, b
        if z != w:
            return self.base.less(z, w)
        return n < m

    def is_limit(self, elem) -> bool:
        """True when elem = (0, z) with z not the least base element.

        Such pairs denote omega * |z| for |z| >= 1, the limit points of
        omega^2; every other pair has an immediate predecessor (or is the
        least element overall).
        """
        n, z = elem
        if not self.base.elements:
            raise ValueError("empty base ordering")
        return n == 0 and z != self.base.elements[0]

    def successor(self, elem):
        n, z = elem
        return (n + 1, z)

    def value(self, elem) -> Cnf:
        n, z = elem
        rank = self.base.rank(z)
        if rank == 0:
            return nat(n)
        return OMEGA.times_nat(rank) + nat(n)


def first_fresh_rule(A, x: int, stage):
    """A ``large`` for a run at argument x: 1 + max(x, the uses it has
    handed out, the elements of A enumerated by stage()), the fresh rule
    that ``oracle_replay`` in tests/test_functional.py applies."""
    top = x

    def large():
        nonlocal top
        top = max(top, A.max_at(stage())) + 1
        return top
    return large


def evaluate(fn: UseFunctional, A, x: int, s: int, stage_use=None):
    """Replay the run from stage 0 and report the computation at stage s.
    Fresh uses follow ``first_fresh_rule``, or are stage_use(stage) when
    stage_use is given, so that a run of several arguments with the same
    rule can agree with the replay of each."""
    if x not in fn.args:
        return None
    one = UseFunctional(fn.e)
    one.args = {x: fn.args[x]}
    if stage_use is None:
        large = first_fresh_rule(A, x, lambda: run.stage)
    else:
        def large():
            return stage_use(run.stage)
    run = FunctionalRun(one, A, large)
    for t in range(s + 1):
        run.advance(t)
    return run.query(x)
