"""Computable-approximation traces with ordinal mind-change markers.

A trace records, per argument, a stage-sorted list of (stage, value, marker)
samples.  Validity means markers never increase and strictly decrease
whenever the value changes, all below a declared order-type bound.  The
module also provides the scripted opponents the constructions run against:
0/1-valued limit-guessing adversaries and marker-budgeted adversaries that
freeze once their budget at an argument is spent.
"""

from __future__ import annotations

import bisect
import random
from typing import NamedTuple

from .ordinal import Cnf, random_cnf_below


class Violation(NamedTuple):
    """Where an approximation trace breaks its marker rules, and how."""

    stage: int
    argument: int
    reason: str

    def __str__(self):
        return f"stage {self.stage} arg {self.argument}: {self.reason}"


class ApproxTrace:
    """Per-argument samples of an approximated function with markers."""

    def __init__(self, stages: int = 0):
        self.stages = stages
        self.records: dict = {}  # x -> list of (stage, value, marker)

    def record(self, x: int, stage: int, value: int, marker: Cnf):
        rows = self.records.setdefault(x, [])
        if rows and stage <= rows[-1][0]:
            raise ValueError(f"stages must increase at arg {x}")
        rows.append((stage, value, marker))
        if stage + 1 > self.stages:
            self.stages = stage + 1


def verify_r_approximation(trace: ApproxTrace, bound) -> Violation | None:
    """Check the mind-change contract; None when valid, else first violation.

    Conditions, per argument: markers non-increasing across consecutive
    samples, strictly decreasing whenever the value changes, and every
    marker below ``bound``.
    """
    found = []
    for x, rows in trace.records.items():
        prev = None
        for stage, value, marker in rows:
            if not marker < bound:
                found.append(Violation(stage, x, "marker-bound"))
                break
            if prev is not None:
                pv, pm = prev
                if pm < marker:
                    found.append(Violation(stage, x, "marker-increase"))
                    break
                if value != pv and not marker < pm:
                    found.append(Violation(stage, x, "strict-descent"))
                    break
            prev = (value, marker)
    if not found:
        return None
    return min(found, key=lambda v: (v.stage, v.argument))


class DeltaTwoAdversary:
    """A 0/1 limit-guessing opponent given by a deterministic flip schedule.

    Modes: ``stabilizing`` and ``random`` run one rule: flip with
    probability ``flip`` each stage, constant from ``stab`` on (a ``stab``
    of None never settles).  ``alternating`` flips forever every
    ``period`` stages, in closed form: its value at t is ``(t // period)
    % 2`` and it changes at the multiples of ``period``, so it draws
    nothing and keeps no cache.  ``scripted`` follows explicit steps.
    Any other mode, or a period below 1, is a ValueError.
    """

    def __init__(self, aid: str, mode: str = "stabilizing", seed: int = 0,
                 flip: float = 0.3, stab: int | None = 40, period: int = 1):
        if mode not in ("stabilizing", "random", "alternating", "scripted"):
            raise ValueError(f"unknown psi mode {mode!r}")
        if period < 1:
            raise ValueError(f"period wants at least 1, got {period}")
        self.aid = aid
        self.mode = mode
        self.seed = seed
        self.flip = flip
        self.stab = stab if mode in ("stabilizing", "random") else None
        self.period = period
        self.script: dict = {}  # x -> list of (stage, value), scripted mode
        self._cache: dict = {}  # x -> (values by stage, change stages)

    def add_step(self, x: int, stage: int, value: int):
        self.script.setdefault(x, []).append((stage, value))
        self.script[x].sort()
        self._cache.pop(x, None)

    def _at(self, x: int, t: int, prev: int) -> int:
        """The value at stage t, before stab, given prev, the value at
        t - 1.  In scripted mode the last step at or before t decides."""
        if self.mode == "scripted":
            steps = self.script.get(x, ())
            i = bisect.bisect_left(steps, (t + 1,))
            return steps[i - 1][1] if i else 0
        if t == 0:
            return prev
        return prev ^ (random.Random(f"{self.seed}:{x}:{t}").random()
                       < self.flip)

    def _grow(self, x: int, s: int, to_change: bool = False) -> tuple:
        """x's cache entry (values by stage, change stages), grown to
        stage s or to stab, whichever comes first; with to_change, the
        growth also stops at the first change it meets."""
        entry = self._cache.get(x)
        if entry is None:
            entry = self._cache[x] = ([self._at(x, 0, 0)], [])
        vals, changes = entry
        while len(vals) <= s:
            t = len(vals)
            if self.stab is not None and t >= self.stab:
                break  # settled: the cache ends at stab
            v = self._at(x, t, vals[-1])
            vals.append(v)
            if v != vals[-2]:
                changes.append(t)
                if to_change:
                    break
        return entry

    def value(self, x: int, s: int) -> int:
        if self.mode == "alternating":
            return s // self.period % 2
        vals = self._grow(x, s)[0]
        return vals[s] if s < len(vals) else vals[-1]

    def change_stages(self, x: int, horizon: int) -> list:
        """Stages t with value(x, t) != value(x, t - 1), t in 1..horizon."""
        if self.mode == "alternating":
            return list(range(self.period, horizon + 1, self.period))
        changes = self._grow(x, horizon)[1]
        return changes[:bisect.bisect_right(changes, horizon)]

    def next_change(self, x: int, s: int, horizon: int) -> int:
        """The first stage t, s < t < horizon, with value(x, t) !=
        value(x, s); horizon when there is none.  The cache grows only
        as far as that stage."""
        if self.mode == "alternating":
            return min((s // self.period + 1) * self.period, horizon)
        changes = self._grow(x, s)[1]
        i = bisect.bisect_right(changes, s)
        if i == len(changes):
            self._grow(x, horizon - 1, to_change=True)
        return changes[i] if i < len(changes) and changes[i] < horizon \
            else horizon


class BoundedCaAdversary:
    """An opponent whose mind changes are budgeted by an ordinal ``g``.

    Each argument carries a value schedule and a strictly descending marker
    schedule starting at g; once the marker hits 0 the value at that
    argument is frozen for good.
    """

    def __init__(self, aid: str, g: Cnf, seed: int = 0, change_prob: float = 0.25):
        self.aid = aid
        self.g = g
        self.seed = seed
        self.change_prob = change_prob
        self.script: dict = {}  # x -> list of (stage, value, marker)
        self._done: dict = {}  # x -> stage the seeded schedule covers
        self._tops: dict = {}  # x -> latest row stage so far, per row

    def add_step(self, x: int, stage: int, value: int, marker: Cnf):
        rows = self.script.setdefault(x, [])
        if rows:
            _, pv, pm = rows[-1]
            if pm < marker or (value != pv and not marker < pm):
                raise ValueError(f"marker schedule must descend at arg {x}")
        elif marker > self.g:
            raise ValueError("initial marker exceeds the bound")
        rows.append((stage, value, marker))

    _scripted = False

    def _generate(self, x: int, horizon: int, to_row: bool = False):
        """Extend the seeded schedule for x out to the horizon; with
        to_row, stop early at the first row it adds."""
        rows = self.script.get(x)
        if rows is None:
            rows = self.script[x] = [(0, 0, self.g)]
        done = self._done.get(x, 0)
        if done >= horizon or not rows[-1][2]:
            return  # covered, or frozen for good
        for s in range(done + 1, horizon + 1):
            _, value, marker = rows[-1]
            if not marker:
                break  # budget spent: frozen
            rng = random.Random(f"{self.seed}:{x}:{s}")
            if rng.random() < self.change_prob:
                rows.append((s, value + 1, random_cnf_below(marker, rng)))
                if to_row:
                    horizon = s
                    break
        self._done[x] = horizon

    def value(self, x: int, s: int) -> int:
        return self._sample(x, s)[0]

    def marker(self, x: int, s: int) -> Cnf:
        return self._sample(x, s)[1]

    def _rows(self, x: int) -> tuple:
        """x's rows and their tops: tops[i] is the latest stage among
        rows 0..i, so the first row past stage s is the first i with
        tops[i] > s, even where a script lists its steps out of stage
        order."""
        rows = self.script.get(x, ())
        tops = self._tops.setdefault(x, [])
        if len(tops) < len(rows):
            for stage, _, _ in rows[len(tops):]:
                tops.append(max(tops[-1], stage) if tops else stage)
        return rows, tops

    def _sample(self, x: int, s: int):
        """The last row before the first row past stage s, in row order;
        (0, g) when the first row is already past s."""
        if not self._scripted:
            self._generate(x, s)
        rows, tops = self._rows(x)
        i = bisect.bisect_right(tops, s)
        if not i:
            return 0, self.g
        _, val, mark = rows[i - 1]
        return val, mark

    def next_change(self, x: int, s: int, horizon: int) -> int:
        """The first stage t, s < t < horizon, at which value(x, t) may
        differ from value(x, s), horizon when there is none: the stage of
        the first row past s, which a script may give the same value.
        The seeded schedule grows only as far as that row."""
        if not self._scripted:
            self._generate(x, s)
            if self.script[x][-1][0] <= s:
                self._generate(x, horizon - 1, to_row=True)
        tops = self._rows(x)[1]
        i = bisect.bisect_right(tops, s)
        return tops[i] if i < len(tops) and tops[i] < horizon else horizon


class ScriptedCaAdversary(BoundedCaAdversary):
    """A budgeted opponent driven only by explicit script steps."""

    _scripted = True
