"""Use-based model of oracle functionals applied to a set under enumeration.

A computation converges with a use u and stays converged until some element
strictly below u enters the set; that event is an injury.  After an injury
the computation diverges and reconverges a configured number of stages
later with a use picked by the functional's use policy.  The value of a
computation is the number of injuries it has suffered, which makes every
injury an observable mind change.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        return [e for t, e in self.events if t == stage]


@dataclass(frozen=True)
class Converged:
    use: int
    value: int


@dataclass
class ArgSchedule:
    first: int          # stage of first convergence
    delay: int = 0      # uninjured stages to wait before reconverging
    policy: str = "fresh"  # "fresh" or "low"
    offset: int = 1     # use = max(A) + offset under the "low" policy


class UseFunctional:
    """Per-argument convergence schedules with a use policy."""

    def __init__(self, e: int):
        self.e = e
        self.args: dict = {}  # x -> ArgSchedule

    def configure(self, x: int, first: int, delay: int = 0,
                  policy: str = "fresh", offset: int = 1):
        if policy not in ("fresh", "low"):
            raise ValueError(f"unknown use policy {policy!r}")
        self.args[x] = ArgSchedule(first, delay, policy, offset)


class Engine:
    """Shared by the construction engines: fresh numbers above every use
    handed out so far, and the stage step of the functional runs.  An
    engine sets ``trace``, ``runs`` (index -> FunctionalRun) and ``_top``."""

    def _fresh(self) -> int:
        self._top += 1
        return self._top

    def _advance_functionals(self, s: int):
        """Step every functional run one stage and emit what changed."""
        for e, run in self.runs.items():
            for x, before_use, a in run.advance(s):
                if before_use is not None:
                    self.trace.emit(s, "inject-diverge", e=e, x=x,
                                    use=before_use)
                if a is not None:
                    self.trace.emit(s, "inject-converge", e=e, x=x,
                                    use=a.use, value=a.value)
                    self._top = max(self._top, a.use)


class FunctionalRun:
    """Incremental evaluation of a functional against a growing set.

    ``advance(stage)`` must be called once per stage in increasing order,
    after that stage's enumerations are in the set.  ``large`` optionally
    supplies fresh uses (a callable returning a number exceeding everything
    seen); without it the fresh rule is 1 + max(argument, prior uses at the
    argument, elements enumerated so far).
    """

    def __init__(self, fn: UseFunctional, A: EnumerableSet, large=None):
        self.fn = fn
        self.A = A
        self.large = large
        self.stage = -1
        self.state: dict = {}  # x -> [status, use, injuries, wait]
        self.injury_log = []   # (stage, x, old_use)
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
        if not new and not self._pending \
                and len(self.state) == len(self.fn.args):
            return []
        changed = []
        for x, sched in self.fn.args.items():
            st = self.state.get(x)
            if st is None:
                st = self.state[x] = ["before", None, 0, 0, []]
                self._pending.add(x)
            status, use, injuries, wait, used = st
            before = use if status == "up" else None
            if status == "up" and any(e < use for e in new):
                self.injury_log.append((stage, x, use))
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

    def query(self, x: int):
        return self._conv.get(x)


def evaluate(fn: UseFunctional, A: EnumerableSet, x: int, s: int):
    """Replay the run from stage 0 and report the computation at stage s."""
    if x not in fn.args:
        return None
    run = FunctionalRun(UseFunctionalView(fn, x), A)
    for t in range(s + 1):
        run.advance(t)
    return run.query(x)


class UseFunctionalView:
    """A one-argument view of a functional, for isolated replay."""

    def __init__(self, fn: UseFunctional, x: int):
        self.e = fn.e
        self.args = {x: fn.args[x]}


def mind_changes(fn: UseFunctional, A: EnumerableSet, x: int, window) -> int:
    """Count value changes of the computation at x over stages in window."""
    lo, hi = window
    if x not in fn.args or lo > hi:
        return 0
    run = FunctionalRun(UseFunctionalView(fn, x), A)
    prev = None
    count = 0
    for t in range(hi + 1):
        run.advance(t)
        if t < lo:
            continue
        r = run.query(x)
        if r is None:
            continue
        if prev is not None and r.value != prev:
            count += 1
        prev = r.value
    return count
