"""The requirement against an opponent whose mind changes are budgeted
by an ordinal below the bound alpha, shared by both alpha constructions:
the low one plays it alone, the combined one at each xi node.  The
engine side diagonalizes and writes the quota lists that protected
computations freeze over these requirements; the replay side alone reads
those events back and certifies each list's ordinal budget with a
descending marker chain.
"""

from __future__ import annotations

import sys

from .approximation import ApproxTrace
from .ordinal import Cnf, format_cnf, nat, parse_cnf, printable
from .trace import ConfigError

LIST_KINDS = frozenset({"phi-set", "qlist-set", "qlist-remove"})


def phi(bounds, k: int) -> Cnf:
    """Ordinal injury budget: sum of g * (k + 1), highest priority first."""
    total = nat(0)
    for g in bounds:
        total = total + g.times_nat(k + 1)
    return total


def check_bound(alpha: Cnf, advs, k: int = 0):
    """Reject a bound not a power of w, an opponent budget not below, or
    budgets whose phi at a tolerance up to k could have a coefficient a
    trace cannot print: k + 1 times their coefficients summed."""
    if not alpha.is_additively_closed():
        raise ConfigError(f"bound {format_cnf(alpha)} is not a power of w")
    for adv in advs:
        if not adv.g < alpha:
            raise ConfigError(
                f"opponent budget {format_cnf(adv.g)} not below the bound")
    if not printable((k + 1) * sum(c for adv in advs for _, c in adv.g)):
        raise ConfigError(f"budgets at k={k} exceed "
                          f"{sys.get_int_max_str_digits()} digits")


def set_bound(engine, alpha: Cnf):
    """Emit the stage-0 phi-set that names the bound alpha."""
    engine.trace.emit(0, "phi-set", e="alpha", value=format_cnf(alpha))


# -- engine side -------------------------------------------------------


class Requirement:
    """A positive requirement: its opponent and node label, follower, held
    use, the value delta declares at the follower, and the stages it lost
    a follower at.  Acting methods take the engine for its trace, its set
    A, its fresh numbers and its follower counter ``horizon``."""

    __slots__ = ("adv", "label", "follower", "use", "decl", "inits")

    def __init__(self, adv, label: str):
        self.adv = adv
        self.label = label
        self.follower = self.use = self.decl = None
        self.inits = []

    def initialize(self, s: int):
        """Drop the follower and use; s is an init stage if one was held."""
        if self.follower is not None:
            self.inits.append(s)
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

    def act(self, engine, s: int, member):
        """Act as member, its key in the quota lists: select the act or its
        denial (``engine._denier`` names the refuser), let ``engine._preempt``
        initialize, then enumerate, or after a denial take a new follower."""
        denial = engine._denier(member, self.use)
        act = {"act": "act"} if denial is None else {"act": "denied", **denial}
        engine.trace.emit(s, "select", node=self.label, **act)
        engine._preempt(member, s, denial)
        if denial is None:
            self.fire(engine, s)
        else:
            self.assign(engine, s)

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


class QuotaList:
    """A quota list frozen at stage s_def over reqs (key -> Requirement, in
    priority order) with tolerance k; ``members`` maps each current key to
    its spelling by name.  Opening it emits its qlist-set, head fields first
    and fields before the horizon, and its budget's phi-set, tagged by the
    head values joined by '.'; ``checked`` is the last upkeep stage."""

    __slots__ = ("head", "key", "s_def", "k", "members", "checked")

    def __init__(self, engine, s: int, head: dict, key: str, reqs: dict,
                 name, k: int, **fields):
        self.head = head
        self.key = key
        self.s_def = self.checked = s
        self.k = k
        self.members = {m: name(m) for m in reqs}
        gs = [req.adv.g for req in reqs.values()]
        engine.trace.emit(s, "qlist-set", **head, k=k,
                          members=",".join(self.members.values()) or "-",
                          gs=";".join(map(format_cnf, gs)) or "-", **fields,
                          horizon=engine.horizon)
        engine.trace.emit(s, "phi-set", e=".".join(map(str, head.values())),
                          value=format_cnf(phi(gs, k)))

    def remove(self, engine, s: int, member, cause: str):
        """Drop member, naming it under ``key`` in its qlist-remove."""
        engine.trace.emit(s, "qlist-remove", **self.head,
                          **{self.key: self.members.pop(member)},
                          cause=cause)


# -- replay side -------------------------------------------------------


def _items(text: str, sep: str, parse) -> list:
    """The parsed entries of a list field; '-' is the empty list."""
    return [] if text == "-" else list(map(parse, text.split(sep)))


class Generation:
    """One quota-list generation read from its qlist-set (parse reads a
    member name): the stage, the tolerance k, the members in priority
    order with budgets gs and any tolerances kps, the removals since, and
    the phi-set value."""

    __slots__ = ("eid", "s_def", "k", "members", "gs", "kps", "removed",
                 "value")

    def __init__(self, eid: int, stage: int, payload: dict, parse):
        members = _items(payload["members"], ",", parse)
        gs = _items(payload["gs"], ";", parse_cnf)
        if len(gs) != len(members):
            raise ValueError(f"{len(members)} members but {len(gs)} budgets")
        if len(set(members)) != len(members):
            raise ValueError(f"repeated member in {payload['members']}")
        self.eid = eid
        self.s_def = stage
        self.k = int(payload["k"])
        if self.k < 0:
            raise ValueError(f"negative k {self.k}")
        self.kps = kps = payload.get("kps")
        if kps is not None:
            self.kps = _items(kps, ";", int)
            if len(self.kps) != len(members):
                raise ValueError(f"{len(members)} members but "
                                 f"{len(self.kps)} tolerances")
            if min(self.kps, default=0) < 0:
                raise ValueError(f"negative kps entry in {kps}")
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


class QuotaLists:
    """The bound alpha and per head the list generations in trace order,
    read from LIST_KINDS events.  head and key give the payload fields,
    each with its parser, that name a list and a removed member.  ``bad``
    holds the ids of removes of no current member, of sets of a listed
    head whose owner, its first field, was not initialized since, of a
    second bound, and of phi-sets whose list's last generation is missing
    or already has its value."""

    def __init__(self, head: tuple, key: tuple):
        self.head = head
        self.key = key
        self.alpha = None
        self.lists = {}  # head -> [Generation] in trace order
        self.bad = []

    def read(self, eid: int, s: int, p, inits: dict):
        """Read list event eid at stage s; inits: owner -> last init stage."""
        if p.kind == "phi-set":
            value = parse_cnf(p["value"])
            if p["e"] == "alpha":
                if self.alpha is None:
                    self.alpha = value
                else:
                    self.bad.append(eid)
                return
            texts = p["e"].split(".")
            if len(texts) != len(self.head):
                raise ValueError(f"{p['e']!r} names no quota list")
            gens = self.lists.get(tuple(
                parse(t) for (_, parse), t in zip(self.head, texts)))
            if gens and gens[-1].value is None:
                gens[-1].value = value
            else:
                self.bad.append(eid)
            return
        head = tuple(parse(p[field]) for field, parse in self.head)
        if p.kind == "qlist-set":
            gen = Generation(eid, s, p, self.key[1])
            gens = self.lists.setdefault(head, [])
            if gens and inits.get(head[0], -1) < gens[-1].s_def:
                self.bad.append(eid)
            gens.append(gen)
        else:
            m = self.key[1](p[self.key[0]])
            gens = self.lists.get(head)
            if not gens or not gens[-1].remove(m, s):
                self.bad.append(eid)


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
