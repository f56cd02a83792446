"""Use-based model of oracle functionals applied to a set under enumeration.

A computation converges with a use u and stays converged until some element
strictly below u enters the set; that event is an injury.  After an injury
the computation diverges and reconverges a configured number of stages
later with a use picked by the functional's use policy.  The value of a
computation is the number of injuries it has suffered, which makes every
injury an observable mind change.
"""

from __future__ import annotations

import math

from .trace import RunTrace


class EnumerableSet:
    """A set built by stage-stamped enumerations; membership is monotone."""

    def __init__(self):
        self.events = []  # stage-sorted (stage, element)
        self._members = set()

    def add(self, element: int, stage: int):
        if element in self._members:
            raise ValueError(f"{element} already enumerated")
        if self.events and stage < self.events[-1][0]:
            raise ValueError("enumeration stages must be non-decreasing")
        self.events.append((stage, element))
        self._members.add(element)

    def __contains__(self, element):
        return element in self._members

    def members_at(self, s: int) -> set:
        return {e for t, e in self.events if t <= s}

    def max_at(self, s: int) -> int:
        return max((e for t, e in self.events if t <= s), default=0)

    def events_at(self, stage: int) -> list:
        """Elements enumerated at stage, in order.  The scan runs back
        from the newest event and stops at the first earlier stage."""
        out = []
        for t, e in reversed(self.events):
            if t < stage:
                break
            if t == stage:
                out.append(e)
        out.reverse()
        return out


class Converged:
    """A converged computation's use and value."""

    __slots__ = ("use", "value")

    def __init__(self, use: int, value: int):
        self.use = use
        self.value = value

    def _fields(self):
        return self.use, self.value

    def __eq__(self, other):
        if type(other) is not Converged:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "Converged(use={!r}, value={!r})".format(*self._fields())


class ArgSchedule:
    """One argument's convergence schedule."""

    __slots__ = ("first", "delay", "policy", "offset")

    def __init__(self, first: int, delay: int, policy: str, offset: int):
        self.first = first    # stage of first convergence
        self.delay = delay    # uninjured stages to wait before reconverging
        self.policy = policy  # "fresh" or "low"
        self.offset = offset  # use = max(A) + offset under the "low" policy

    def _fields(self):
        return self.first, self.delay, self.policy, self.offset

    def __eq__(self, other):
        if type(other) is not ArgSchedule:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # its fields may change

    def __repr__(self):
        return ("ArgSchedule(first={!r}, delay={!r}, policy={!r}, "
                "offset={!r})".format(*self._fields()))


class UseFunctional:
    """Per-argument convergence schedules with a use policy."""

    def __init__(self, e: int):
        self.e = e
        self.args: dict = {}  # x -> ArgSchedule

    def configure(self, x: int, first: int, delay: int = 0,
                  policy: str = "fresh", offset: int = 1):
        if policy not in ("fresh", "low"):
            raise ValueError(f"unknown policy {policy!r}")
        self.args[x] = ArgSchedule(first, delay, policy, offset)


class Fresh:
    """Fresh numbers: each call returns one above every number handed out
    or seen so far."""

    __slots__ = ("top",)

    def __init__(self):
        self.top = 0

    def __call__(self) -> int:
        self.top += 1
        return self.top


class Engine:
    """The stage loop shared by the construction engines, each named by
    its class's ``construction``.

    A construction plays stage s in ``_walk(s)`` and asks its opponents
    through ``_ask``.  The walk returns True when it played the stage in
    full: the tree at full depth, every requirement in play, no eta
    expansionary and no length at its cap.  Such a stage is quiet when it
    and the functional step after it stored at least one event, and only
    quiet payloads (``RunTrace.quiet``, the one place the rule for what a
    run may copy is applied).  Every input of the next stage is then the
    same as the quiet stage's, except the opponents' answers and the
    functional runs' own waits: so up to the first stage at which one of
    those can change (``_quiet_until``), every stage would emit the same
    payloads, and the loop records them as one run of the quiet stage
    (``RunTrace.repeat``) instead of walking, and keeps no other state.
    The stage where the change can land is walked.  The opponents answer
    from their argument and stage alone, so skipping a walk changes no
    draw."""

    construction: str

    def __init__(self, stages: int, funs: dict):
        """The trace, the set A, the fresh numbers and one run per
        functional (index -> UseFunctional), each run with the Fresh as
        ``large``: the runs hold the Fresh, not the engine, so that no
        reference cycle keeps a finished engine and its trace alive.
        ``horizon`` is the follower the next budgeted requirement takes."""
        self.stages = stages
        self.trace = RunTrace(self.construction, stages)
        self.A = EnumerableSet()
        self._fresh = fresh = Fresh()
        self.runs = {e: FunctionalRun(fn, self.A, large=fresh)
                     for e, fn in funs.items()}
        self.horizon = 0

    def execute(self) -> RunTrace:
        trace = self.trace
        runs = self.runs.values()
        s = 0
        while s < self.stages:
            self._asked = asked = []
            full = self._walk(s)
            self._advance_functionals(s)
            s += 1
            if full and trace.quiet(s - 1):
                t = self._quiet_until(asked, s)
                if t > s:  # stages s..t-1 repeat the quiet stage
                    trace.repeat(t)
                    for run in runs:
                        run.idle(t - 1)
                    s = t
        elems = sorted(e for _, e in self.A.events)
        summary = {"A": ",".join(str(x) for x in elems) or "-"}
        self._summary(summary)
        trace.finalize(summary)
        return trace

    def _quiet_until(self, asked, s: int) -> int:
        """The first stage from s on whose walk or functional step can
        differ from the quiet stage s - 1's: one at which a query
        (opponent, x, answer) of the quiet stage gets another answer, or
        a functional run's next change; the stage budget when there is
        none."""
        t = self.stages
        for run in self.runs.values():
            t = min(t, run.next_change())
        for adv, x, _ in asked:
            t = adv.next_change(x, s - 1, t)
        return t

    def _ask(self, adv, x: int, s: int) -> int:
        """The opponent's answer at x in stage s, kept as an input of the
        stage."""
        v = adv.value(x, s)
        self._asked.append((adv, x, v))
        return v

    def _walk(self, s: int) -> bool:
        """Play stage s; True when it was played in full."""
        raise NotImplementedError

    def _summary(self, summary: dict):
        """Add the construction's terminal entries to summary."""
        raise NotImplementedError

    def _advance_functionals(self, s: int):
        """Step every functional run one stage and emit what changed."""
        fresh = self._fresh
        for e, run in self.runs.items():
            for x, before_use, a in run.advance(s):
                if before_use is not None:
                    self.trace.emit(s, "inject-diverge", e=e, x=x,
                                    use=before_use)
                if a is not None:
                    self.trace.emit(s, "inject-converge", e=e, x=x,
                                    use=a.use, value=a.value)
                    fresh.top = max(fresh.top, a.use)


class FunctionalRun:
    """Incremental evaluation of a functional against a growing set.

    ``advance(stage)`` must be called once per stage in increasing order,
    after that stage's enumerations are in the set; ``idle`` steps over a
    run of stages at which nothing can change.  ``large`` supplies fresh
    uses (a callable returning a number exceeding everything seen); when
    it is None the fresh rule is 1 + max(argument, prior uses at the
    argument, elements enumerated so far).
    """

    def __init__(self, fn: UseFunctional, A: EnumerableSet, large):
        self.fn = fn
        self.A = A
        self.large = large
        self.stage = -1
        # x -> [status, use, injuries, wait, uses handed out]
        self.state = {x: ["before", None, 0, 0, []] for x in fn.args}
        self._conv: dict = {}  # x -> Converged while status is "up"
        self._pending = set(fn.args)  # args not currently converged

    def _fresh_use(self, x, sched, used_before):
        if sched.policy == "low":
            return self.A.max_at(self.stage) + sched.offset
        if self.large is not None:
            return self.large()
        top = max([x] + used_before + list(self.A.members_at(self.stage)))
        return top + 1

    def advance(self, stage: int) -> list:
        """Step one stage; returns the args whose computation changed as
        (x, use before or None, Converged after or None) tuples."""
        if stage != self.stage + 1:
            raise ValueError("stages must be advanced in order")
        self.stage = stage
        new = self.A.events_at(stage)
        changed = []
        for x, sched in self.fn.args.items():
            st = self.state[x]
            status, use, injuries, wait, used = st
            before = use if status == "up" else None
            if status == "up" and any(e < use for e in new):
                st[0], st[1], st[2] = "down", None, injuries + 1
                st[3] = sched.delay
                status, wait = "down", sched.delay
                del self._conv[x]
                self._pending.add(x)
            if status == "before" and stage >= sched.first:
                status = "down"
                st[0], st[3] = "down", 0
                wait = 0
            if status == "down":
                if wait == 0:
                    u = self._fresh_use(x, sched, used)
                    used.append(u)
                    st[0], st[1] = "up", u
                    self._conv[x] = Converged(u, st[2])
                    self._pending.discard(x)
                else:
                    st[3] = wait - 1
            after = st[1] if st[0] == "up" else None
            if before != after:
                changed.append((x, before, self._conv.get(x)))
        return changed

    def next_change(self) -> int:
        """The first stage after this one at which a computation can
        change while the set does not grow: an argument reaches its first
        stage, or a diverged one's wait runs out; math.inf when every
        computation is up.  The change comes in that stage's ``advance``,
        after the stage is played, so only the stage after it sees it."""
        t = math.inf
        for x in self._pending:
            status, wait = self.state[x][0], self.state[x][3]
            if status == "before":
                t = min(t, self.fn.args[x].first)
            else:
                t = min(t, self.stage + 1 + wait)
        return t

    def idle(self, stage: int):
        """Step to stage in one go, over stages that enumerate nothing and
        come before next_change(): each wait just runs down.  The stage
        of the change itself is stepped with ``advance``."""
        for x in self._pending:
            st = self.state[x]
            if st[0] == "down":
                st[3] -= stage - self.stage
        self.stage = stage

    def query(self, x: int):
        return self._conv.get(x)
