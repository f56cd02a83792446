"""Computable-approximation traces with ordinal mind-change markers.

A trace records, per argument, a stage-sorted list of (stage, value, marker)
samples.  Validity means markers never increase and strictly decrease
whenever the value changes, all below a declared order-type bound.  The
module also provides the scripted opponents the constructions run against:
0/1-valued limit-guessing adversaries and marker-budgeted adversaries that
freeze once their budget at an argument is spent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ordinal import Cnf, random_cnf_below


@dataclass(frozen=True)
class Violation:
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

    def changes(self):
        """Pairs (x, s) where the approximated value differs at s and s+1."""
        out = []
        for x, rows in sorted(self.records.items()):
            for (s0, v0, _), (s1, v1, _) in zip(rows, rows[1:]):
                if v1 != v0:
                    out.append((x, s1 - 1))
        return out


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

    Modes: ``stabilizing`` (random flips until a stabilization stage, then
    constant), ``alternating`` (flips forever at a fixed period), ``random``
    (flip with given probability each stage, constant from ``stab`` on; a
    ``stab`` of None never settles), or ``scripted`` via explicit steps.
    """

    def __init__(self, aid: str, mode: str = "stabilizing", seed: int = 0,
                 flip: float = 0.3, stab: int | None = 40, period: int = 1):
        self.aid = aid
        self.mode = mode
        self.seed = seed
        self.flip = flip
        self.stab = stab if mode in ("stabilizing", "random") else None
        self.period = period
        self.script: dict = {}  # x -> list of (stage, value), scripted mode
        self._flips: dict = {}  # x -> cached flip decisions by stage
        self._vals: dict = {}  # x -> cached values by stage

    def add_step(self, x: int, stage: int, value: int):
        self.script.setdefault(x, []).append((stage, value))
        self.script[x].sort()

    def _flip_at(self, x: int, s: int) -> bool:
        if s == 0:
            return False
        if self.stab is not None and s >= self.stab:
            return False
        if self.mode == "alternating":
            return s % self.period == 0
        cache = self._flips.setdefault(x, [False])
        while len(cache) <= s:
            rng = random.Random(f"{self.seed}:{x}:{len(cache)}")
            cache.append(rng.random() < self.flip)
        return cache[s]

    def value(self, x: int, s: int) -> int:
        if self.mode == "scripted":
            val = 0
            for stage, v in self.script.get(x, []):
                if stage > s:
                    break
                val = v
            return val
        vals = self._vals.setdefault(x, [0])
        while len(vals) <= s:
            t = len(vals)
            vals.append(vals[-1] ^ (1 if self._flip_at(x, t) else 0))
        return vals[s]

    def change_stages(self, x: int, horizon: int) -> list:
        """Stages t with value(x, t) != value(x, t - 1), t in 1..horizon."""
        prev = self.value(x, 0)
        out = []
        for t in range(1, horizon + 1):
            cur = self.value(x, t)
            if cur != prev:
                out.append(t)
            prev = cur
        return out


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

    def _generate(self, x: int, horizon: int):
        """Extend the seeded schedule for x out to the horizon."""
        rows = self.script.setdefault(x, [(0, 0, self.g)])
        start = self._done.get(x, 0) + 1
        for s in range(start, horizon + 1):
            _, value, marker = rows[-1]
            if not marker:
                break  # budget spent: frozen
            rng = random.Random(f"{self.seed}:{x}:{s}")
            if rng.random() < self.change_prob:
                rows.append((s, value + 1, random_cnf_below(marker, rng)))
        self._done[x] = max(self._done.get(x, 0), horizon)

    def value(self, x: int, s: int) -> int:
        return self._sample(x, s)[0]

    def marker(self, x: int, s: int) -> Cnf:
        return self._sample(x, s)[1]

    def _sample(self, x: int, s: int):
        if not self._scripted:
            self._generate(x, s)
        val, mark = 0, self.g
        for stage, v, m in self.script.get(x, []):
            if stage > s:
                break
            val, mark = v, m
        return val, mark

    def to_trace(self, args, horizon: int) -> ApproxTrace:
        trace = ApproxTrace(horizon + 1)
        for x in args:
            self._sample(x, horizon)
            for stage, v, m in self.script.get(x, [(0, 0, self.g)]):
                if stage <= horizon:
                    trace.record(x, stage, v, m)
        return trace


class ScriptedCaAdversary(BoundedCaAdversary):
    """A budgeted opponent driven only by explicit script steps."""

    _scripted = True


def make_adversary_suite(seed: int, count: int, mode_mix=None) -> list:
    """A deterministic list of adversaries; same arguments, same suite.

    ``mode_mix`` is a list of specs cycled over: ``("delta2", mode)`` or
    ``("bca", g)`` with g a CnfOrdinal bound.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if mode_mix is None:
        mode_mix = [("delta2", "stabilizing")]
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kind, arg = mode_mix[i % len(mode_mix)]
        child = rng.randrange(2 ** 31)
        if kind == "delta2":
            out.append(DeltaTwoAdversary(f"p{i}", mode=arg, seed=child,
                                         stab=10 + rng.randrange(60)))
        elif kind == "bca":
            out.append(BoundedCaAdversary(f"q{i}", g=arg, seed=child))
        else:
            raise ValueError(f"unknown adversary kind {kind!r}")
    return out
