"""Computable-approximation traces with ordinal mind-change markers.

A trace records, per argument, a stage-sorted list of (stage, value, marker)
samples.  Validity means markers never increase and strictly decrease
whenever the value changes, all below a declared order-type bound.  The
module also provides the opponents the constructions run against: 0/1
limit guessers and marker-budgeted adversaries that freeze once their
budget at an argument is spent.  Each is scripted or drawn, never both.
"""

from __future__ import annotations

import bisect
import math
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

    def __init__(self):
        self.records: dict = {}  # x -> list of (stage, value, marker)

    def record(self, x: int, stage: int, value: int, marker: Cnf):
        rows = self.records.setdefault(x, [])
        if rows and stage <= rows[-1][0]:
            raise ValueError(f"stages must increase at arg {x}")
        rows.append((stage, value, marker))


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


class _RowStore:
    """One row store per argument, shared by both opponent kinds.

    An argument's rows are (value, marker) pairs, held with their stages
    in stage order at the stages where the value may change, after a
    start row ``_start`` at stage -1.  A scripted opponent's rows are its
    steps, whose stages must rise.  A drawn opponent takes no steps: it
    draws its rows lazily, one stage at a time, by the class's ``_draw``
    until the argument freezes.  Every query is a bisect over the stages.
    """

    def _entry(self, x: int, s: int, to_row: bool = False) -> list:
        """x's [last stage drawn, row stages, rows], drawn out to stage
        s, or with to_row to the first new row; a script, or a frozen
        argument, is drawn out to infinity."""
        entry = self._args.get(x)
        if entry is None:
            entry = self._args[x] = [math.inf if self._scripted else 0,
                                     [-1], [self._start]]
        t, stages, rows = entry
        while t < s:
            t += 1
            row = self._draw(x, t, rows[-1])
            if row is None:
                t = math.inf  # frozen: nothing more is drawn
            elif row is not rows[-1]:
                stages.append(t)
                rows.append(row)
                if to_row:
                    break
        entry[0] = t
        return entry

    def _row(self, x: int, s: int) -> tuple:
        """The (value, marker) in force at stage s."""
        _, stages, rows = self._entry(x, s)
        return rows[bisect.bisect_right(stages, s) - 1]

    def _add_row(self, x: int, stage: int, row: tuple):
        """Append a script step once the class's ``_check_step`` passes
        it against the row before (the start row for a first step)."""
        if not self._scripted:
            raise ValueError(f"opponent {self.aid!r} is not scripted: it "
                             f"takes no steps")
        _, stages, rows = self._entry(x, 0)
        if stage <= stages[-1]:
            raise ValueError(f"stages must increase at arg {x}")
        self._check_step(x, rows[-1], row)
        stages.append(stage)
        rows.append(row)

    def next_change(self, x: int, s: int, horizon: int) -> int:
        """The first stage t, s < t < horizon, at which value(x, t) may
        differ from value(x, s), horizon when there is none: the stage of
        the first row past s.  Drawing goes only as far as that row."""
        stages = self._entry(x, s)[1]
        i = bisect.bisect_right(stages, s)
        if i == len(stages):
            self._entry(x, horizon - 1, to_row=True)
        return stages[i] if i < len(stages) and stages[i] < horizon \
            else horizon


class DeltaTwoAdversary(_RowStore):
    """A 0/1 limit-guessing opponent, starting at 0.

    Modes: ``scripted`` follows explicit steps, each flipping the value.
    ``stabilizing`` and ``random`` draw by one rule: flip with
    probability ``flip`` each stage, constant from ``stab`` on (a
    ``stab`` of None never settles).  ``alternating`` flips forever
    every ``period`` stages, in closed form, so it keeps no rows.  Any
    other mode, a period below 1, or a step on a mode other than
    ``scripted`` is a ValueError.
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
        self._scripted = mode == "scripted"
        self._start = (0, None)  # a guess carries no marker
        self._args: dict = {}

    def add_step(self, x: int, stage: int, value: int):
        self._add_row(x, stage, (value, None))

    def _check_step(self, x: int, prev: tuple, row: tuple):
        if row[0] != 1 - prev[0]:  # each step flips the 0/1 value
            raise ValueError(f"step at arg {x} wants value {1 - prev[0]}, "
                             f"got {row[0]}")

    def _draw(self, x: int, t: int, row: tuple):
        """The row in force at stage t after row: the value flipped with
        probability flip, else row itself; None from stab on."""
        if self.stab is not None and t >= self.stab:
            return None
        if random.Random(f"{self.seed}:{x}:{t}").random() < self.flip:
            return 1 - row[0], None
        return row

    def value(self, x: int, s: int) -> int:
        if self.mode == "alternating":
            return s // self.period % 2
        return self._row(x, s)[0]

    def change_stages(self, x: int, horizon: int) -> list:
        """Stages t with value(x, t) != value(x, t - 1), t in 1..horizon."""
        if self.mode == "alternating":
            return list(range(self.period, horizon + 1, self.period))
        stages = self._entry(x, horizon)[1]
        return stages[bisect.bisect_left(stages, 1):
                      bisect.bisect_right(stages, horizon)]

    def next_change(self, x: int, s: int, horizon: int) -> int:
        """Exact here, since every row changes the value."""
        if self.mode == "alternating":
            return min((s // self.period + 1) * self.period, horizon)
        return super().next_change(x, s, horizon)


class BoundedCaAdversary(_RowStore):
    """A drawn opponent whose mind changes are budgeted by an ordinal
    ``g``; ``ScriptedCaAdversary`` is its scripted kind.

    Each argument starts at value 0 and marker g.  A drawn argument moves
    its value one up with probability ``change_prob`` each stage, with a
    marker drawn below the last; once the marker hits 0 the value is
    frozen for good.  A script's markers, from the start row (0, g) on,
    must never rise, and fall wherever the value changes.
    """

    _scripted = False

    def __init__(self, aid: str, g: Cnf, seed: int = 0, change_prob: float = 0.25):
        self.aid = aid
        self.g = g
        self.seed = seed
        self.change_prob = change_prob
        self._start = (0, g)
        self._args: dict = {}

    def add_step(self, x: int, stage: int, value: int, marker: Cnf):
        self._add_row(x, stage, (value, marker))

    def _check_step(self, x: int, prev: tuple, row: tuple):
        (pv, pm), (value, marker) = prev, row
        if pm < marker or (value != pv and not marker < pm):
            raise ValueError(f"marker schedule must descend at arg {x}")

    def _draw(self, x: int, t: int, row: tuple):
        """The row in force at stage t after row: the value one up and a
        marker drawn below row's with probability change_prob, else row
        itself; None once the marker is 0."""
        value, marker = row
        if not marker:
            return None
        rng = random.Random(f"{self.seed}:{x}:{t}")
        if rng.random() < self.change_prob:
            return value + 1, random_cnf_below(marker, rng)
        return row

    def value(self, x: int, s: int) -> int:
        return self._row(x, s)[0]

    def marker(self, x: int, s: int) -> Cnf:
        return self._row(x, s)[1]


class ScriptedCaAdversary(BoundedCaAdversary):
    """A budgeted opponent driven only by explicit script steps."""

    _scripted = True
