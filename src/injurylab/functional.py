"""Use-based model of oracle functionals applied to a set under enumeration.

A computation converges with a use u and stays converged until some element
strictly below u enters the set; that event is an injury.  After an injury
the computation diverges and reconverges a configured number of stages
later with a use picked by the functional's use policy.  The value of a
computation is the number of injuries it has suffered, which makes every
injury an observable mind change.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

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


class Converged(NamedTuple):
    """A converged computation's use and value."""

    use: int
    value: int


class ArgSchedule(NamedTuple):
    """One argument's convergence schedule."""

    first: int   # stage of first convergence
    delay: int   # uninjured stages to wait before reconverging
    policy: str  # "fresh" or "low"
    offset: int  # use = max(A) + offset under the "low" policy


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
    functional runs' due stages: so up to the first stage at which one of
    those can change (``_quiet_until``; a run names its least due stage),
    every stage would emit the same payloads, and the loop records them
    as one run of the quiet stage (``RunTrace.repeat``) instead of
    walking, and keeps no other state.  The stage where the change can
    land is walked, and its functional step jumps each run over the
    copied stages, at which nothing is enumerated.  The opponents answer
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
                    s = t
        elems = sorted(e for _, e in self.A.events)
        summary = {"A": ",".join(str(x) for x in elems) or "-"}
        self._summary(summary)
        trace.finalize(summary)
        return trace

    def _quiet_until(self, asked, s: int) -> int:
        """The first stage from s on whose walk or functional step can
        differ from the quiet stage s - 1's: one at which a query
        (opponent, x) of the quiet stage gets another answer, or
        a functional run's next change; the stage budget when there is
        none."""
        t = self.stages
        for run in self.runs.values():
            t = min(t, run.next_change())
        for adv, x in asked:
            t = adv.next_change(x, s - 1, t)
        return t

    def _ask(self, adv, x: int, s: int) -> int:
        """The opponent's answer at x in stage s, kept as an input of the
        stage."""
        self._asked.append((adv, x))
        return adv.value(x, s)

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

    Each argument is either up, with its ``Converged`` in ``_conv``, or
    down, with its due stage and its injuries so far in ``_due``.  The
    due stage is ``first`` at the start and the injury stage plus
    ``delay`` after an injury.  ``advance(stage)`` is called after that
    stage's enumerations are in the set, one stage on from the last or
    over stages that enumerate nothing and come before ``next_change()``.
    ``large`` supplies fresh uses: a callable returning a number that
    exceeds everything seen.
    """

    def __init__(self, fn: UseFunctional, A: EnumerableSet, large):
        self.fn = fn
        self.A = A
        self.large = large
        self.stage = -1
        self._conv: dict = {}  # x -> Converged while up
        self._due = {x: (sched.first, 0) for x, sched in fn.args.items()}

    def advance(self, stage: int) -> list:
        """Step to stage; returns the args whose Converged changed as
        (x, use before or None, Converged after or None) tuples, in the
        order of ``fn.args``.  ValueError on a step back, or on a jump
        past next_change() or over a stage that enumerates something."""
        if stage != self.stage + 1:
            events = self.A.events
            i = bisect.bisect_left(events, (stage,))  # the first at stage
            if not self.stage < stage <= self.next_change() or (
                    i and events[i - 1][0] > self.stage):
                raise ValueError("stages must be advanced in order, or "
                                 "over stages at which nothing can change")
        self.stage = stage
        low = min(self.A.events_at(stage), default=math.inf)
        conv, due = self._conv, self._due
        changed = []
        for x, sched in self.fn.args.items():
            before = conv.get(x)
            if before is not None:
                if low >= before.use:
                    continue
                del conv[x]
                due[x] = (stage + sched.delay, before.value + 1)
            at, injuries = due[x]
            after = None
            if at <= stage:
                del due[x]
                use = (self.A.max_at(stage) + sched.offset
                       if sched.policy == "low" else self.large())
                conv[x] = after = Converged(use, injuries)
            if before is not after:
                changed.append(
                    (x, None if before is None else before.use, after))
        return changed

    def next_change(self) -> int:
        """The least due stage: the first stage after this one at which a
        computation can change while the set does not grow; math.inf when
        every computation is up.  The change comes in that stage's
        ``advance``, after the stage is played, so only the stage after
        it sees it."""
        return min((at for at, _ in self._due.values()), default=math.inf)

    def query(self, x: int):
        return self._conv.get(x)
