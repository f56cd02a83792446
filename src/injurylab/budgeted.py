"""The requirement against an opponent whose mind changes are budgeted
by an ordinal below the bound alpha, shared by both alpha constructions:
the low one plays it alone, the combined one at each xi node.  The
engine side diagonalizes; the replay side reads the quota lists that
protected computations freeze over these requirements and certifies
their ordinal budgets with a descending marker chain.
"""

from __future__ import annotations

from .approximation import ApproxTrace
from .ordinal import Cnf, format_cnf, nat, parse_cnf
from .trace import ConfigError


def phi(bounds, k: int) -> Cnf:
    """Ordinal injury budget: sum of g * (k + 1), highest priority first."""
    total = nat(0)
    for g in bounds:
        total = total + g.times_nat(k + 1)
    return total


def check_bound(alpha: Cnf, advs):
    """Reject a bound not a power of w, or an opponent budget not below."""
    if not alpha.is_additively_closed():
        raise ConfigError(f"bound {format_cnf(alpha)} is not a power of w")
    for adv in advs:
        if not adv.g < alpha:
            raise ConfigError(
                f"opponent budget {format_cnf(adv.g)} not below the bound")


# -- engine side -------------------------------------------------------


class Requirement:
    """A positive requirement: its opponent and node label, follower, held
    use and the value delta declares at the follower.  Acting methods take
    the engine for its trace, its set A, its fresh numbers and its
    follower counter ``horizon``."""

    __slots__ = ("adv", "label", "follower", "use", "decl")

    def __init__(self, adv, label: str):
        self.adv = adv
        self.label = label
        self.clear()

    def clear(self):
        """Drop the follower and the use, as an initialization does."""
        self.follower = self.use = self.decl = None

    def assign(self, engine, s: int):
        """Take the engine's next follower and a fresh use; declare delta
        against the guess."""
        self.follower = follower = engine.horizon
        engine.horizon = follower + 1
        self.use = engine._fresh()
        f = self.adv.value(follower, s)
        self.decl = 0 if f else 1
        emit = engine.trace.emit
        emit(s, "visit", node=self.label, x=follower, f=f)
        emit(s, "declare", node=self.label, what="follower", y=follower)
        emit(s, "declare", node=self.label, what="delta", x=follower,
             u=self.use, value=self.decl,
             marker=format_cnf(self.adv.marker(follower, s)))

    def visit(self, engine, s: int) -> bool:
        """Visit with a follower; True when the guess meets delta."""
        f = engine._ask(self.adv, self.follower, s)
        engine.trace.emit(s, "visit", node=self.label, x=self.follower, f=f)
        return self.decl == f

    def fire(self, engine, s: int):
        """Enumerate the use, take a fresh one, declare delta anew."""
        f = self.adv.value(self.follower, s)
        marker = format_cnf(self.adv.marker(self.follower, s))
        engine.trace.emit(s, "enumerate", node=self.label, element=self.use,
                          marker=marker)
        engine.A.add(self.use, s)
        self.use = engine._fresh()
        self.decl = 0 if f else 1
        engine.trace.emit(s, "declare", node=self.label, what="delta",
                          x=self.follower, u=self.use, value=self.decl,
                          marker=marker)

    def report(self, summary: dict):
        """Add the terminal follower:use entry when a follower is held."""
        if self.follower is not None:
            summary[f"node.{self.label}"] = f"{self.follower}:{self.use}"


# -- replay side -------------------------------------------------------


class Generation:
    """One quota-list generation read from its qlist-set (parse reads a
    member name): the stage, the tolerance k, the members in priority
    order with budgets gs, the removals since, and the phi-set value."""

    __slots__ = ("eid", "s_def", "k", "members", "gs", "removed", "value")

    def __init__(self, eid: int, stage: int, payload: dict, parse):
        members, gs = payload["members"], payload["gs"]
        members = [] if members == "-" else list(map(parse,
                                                     members.split(",")))
        gs = [] if gs == "-" else list(map(parse_cnf, gs.split(";")))
        if len(gs) != len(members):
            raise ValueError(f"{len(members)} members but {len(gs)} budgets")
        self.eid = eid
        self.s_def = stage
        self.k = int(payload["k"])
        if self.k < 0:
            raise ValueError(f"negative k {self.k}")
        self.members = members
        self.gs = dict(zip(members, gs))
        self.removed = {}  # member -> removal stage
        self.value = None

    def current(self, s: int) -> list:
        """Members not yet removed at stage s."""
        return [m for m in self.members
                if self.removed.get(m) is None or self.removed[m] > s]

    def remove(self, m, s: int) -> bool:
        """Record m leaving at stage s; False unless m was current at s-1."""
        if m not in self.current(s - 1):
            return False
        self.removed.setdefault(m, s)
        return True

    def budget_ok(self, alpha) -> bool:
        """The value is phi over the members, below alpha if one is named."""
        return (self.value == phi([self.gs[m] for m in self.members], self.k)
                and (alpha is None or self.value < alpha))


def descent_witness(gen: Generation, hits, inits: dict,
                    arg: int) -> ApproxTrace:
    """Marker chain at argument arg that must descend through gen's budget.

    hits lists (stage, injurer, opponent marker) per injury gen answers
    for, None where the trace names none.  A hit by member m marks the
    higher members' budgets, g(m) times the initializations m has left
    (inits: node -> stages it lost a follower at), and the opponent's
    marker; any other hit marks 0.  List upkeep keeps injurer priority
    non-increasing, so each hit strictly lowers the chain."""
    rows = [(gen.s_def, 0, gen.value)]
    for count, (s, m, adv_marker) in enumerate(hits, 1):
        if m not in gen.members or adv_marker is None:
            marker = nat(0)
        else:
            prefix = phi([gen.gs[n] for n in gen.members if n < m], gen.k)
            used = len([t for t in inits.get(m, []) if gen.s_def <= t < s])
            marker = (prefix + gen.gs[m].times_nat(max(gen.k - used, 0))
                      + adv_marker)
        if rows[-1][0] == s:
            rows.pop()
        rows.append((s, count, marker))
    witness = ApproxTrace()
    for s, v, m in rows:
        witness.record(arg, s, v, m)
    return witness
