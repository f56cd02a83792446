"""Every named check can fail: one table of trace mutations.

A row of ROWS names a construction, the check its mutation targets and
a builder of the mutated trace, or of the trace and the opponents low2
``diagonalization`` reads.  It pins every check that fails, with its
witness, and the target's detail where that says what decided it.  A
row whose target passes is a negative control; a row without a target
is a known gap, pinned with what fails today.  test_every_check_can_fail
asks for a failing row for each check in the registry but UNFAILABLE's.
"""

import os
from typing import Callable, NamedTuple

import pytest

from injurylab import low_alpha as la, nonlow_alpha as na
from injurylab.approximation import DeltaTwoAdversary
from injurylab.cli import checks_for, replay_of
from injurylab.constructions import CONSTRUCTIONS
from injurylab.functional import UseFunctional
from injurylab.ordinal import nat, omega_power
from injurylab.trace import RunTrace

from stage_maps import stage_of
from test_golden import FIX, REPORTS, run_golden
from test_low_alpha import W, flip_adversary
from test_nonlow_alpha import synthetic_descent_trace

# (construction, check) -> why no row makes the check fail
UNFAILABLE = {
    ("nonlow-low2", "uniformity"):
        "injury_bound(x) is one value for every eta, so the check passes "
        "whatever the trace holds (an open FOUND: line in CHANGES.md)",
}


def _event(tail):
    """(kind, payload) of an event's line tail ``kind k=v ...``."""
    kind, *fields = tail.split()
    return kind, dict(f.split("=", 1) for f in fields)


def written(construction, stages, *lines):
    """A hand-written trace of lines ``stage kind k=v ...``."""
    tr = RunTrace(construction, stages)
    for line in lines:
        stage, tail = line.split(" ", 1)
        kind, payload = _event(tail)
        tr.emit(int(stage), kind, **payload)
    return tr


def injury_stage(s, injurer, x, l, element=3, use=5):
    """The lines of one stage of a hand-written tree trace: the root visit
    with length l, the rho node "i", then injurer enumerating element and
    destroying the computation at x."""
    return [f"{s} visit node=- l={l}", f"{s} visit node=i",
            f"{s} enumerate node={injurer} element={element}",
            f"{s} inject-diverge e=0 x={x} use={use}"]


def golden(name, line=None, extra=""):
    """The fixture trace name; with line, that line of its text gets the
    fields extra appended."""
    with open(os.path.join(FIX, name + ".trace")) as fh:
        text = fh.read()
    if line is not None:
        assert text.count(f"\n{line}\n") == 1
        text = text.replace(f"\n{line}\n", f"\n{line} {extra}\n")
    return RunTrace.from_text(text.encode())


def flipped_once():
    """A watcher whose one opponent flips once, at stage 4: q0 enumerates
    (event 12) and redeclares (event 13) there."""
    fun = UseFunctional(0)
    fun.configure(0, first=0)
    return la.run([flip_adversary("f0", W, [4], [nat(1)])], [fun],
                  omega_power(W), 8)


def pick_then_hit(trigger, listed=False):
    """'i' picks at stage 1 and spends its one act of quota(2) at stage 2,
    then picks again; trigger hits x = 2 at stage 4 (event 14), listed for
    (-, 2) when asked, and 'i' hits x = 2 at stage 5."""
    pick = ["visit node=- l=3", "visit node=i",
            "declare node=i what=gamma y=1 u={} act=pick"]
    return written(
        "nonlow-alpha", 6, "0 phi-set e=alpha value=w^w",
        *[f"1 {line.format(3)}" for line in pick],
        *([f"1 qlist-set eta=- x=2 k=0 members={trigger} gs=w kps=0 "
           "horizon=0", "1 phi-set e=-.2 value=w"] if listed else []),
        *injury_stage(2, "i", x=2, l=3),
        *[f"3 {line.format(7)}" for line in pick],
        *injury_stage(4, trigger, x=2, l=3, element=2),
        *injury_stage(5, "i", x=2, l=3, element=7, use=9))


def low2_pick(*lines):
    """A low2 trace in which 'i' picks use 3 at stage 1, then lines."""
    return written("nonlow-low2", 4, "1 visit node=- l=1", "1 visit node=i",
                   "1 declare node=i what=gamma y=1 u=3 act=pick", *lines)


def low2_golden(opponents):
    """The low2 golden run with opponents(its psis) for its psis."""
    _, trace, psis = run_golden("golden-nonlow-low2")
    return trace, opponents(psis)


def agreeing():
    """A level-0 guesser whose guess at 4 settles at 1 from stage 5."""
    psi = DeltaTwoAdversary("p0", "scripted")
    psi.add_step(4, 5, 1)
    return psi


def at(*eids):
    """Selects the events with these ids."""
    return lambda eid, p: eid in eids


def kind(name, **match):
    """Selects the events of kind name whose payload holds match."""
    return lambda eid, p: p.kind == name and all(
        p.get(k) == str(v) for k, v in match.items())


def fields(select, **changes):
    """Sets fields of each selected event."""
    return lambda eid, p: [(p.kind, {**p, **changes})] \
        if select(eid, p) else None


def drop(select):
    """Removes each selected event."""
    return lambda eid, p: [] if select(eid, p) else None


def insert_after(select, *tails):
    """Adds the events of tails after each selected event, at its stage."""
    return lambda eid, p: [(p.kind, p), *map(_event, tails)] \
        if select(eid, p) else None


def mutated(trace, *edits):
    """A copy of trace in which the first edit that selects an event gives
    the (kind, payload) pairs that replace it; ids are renumbered."""
    out = RunTrace(trace.construction, trace.stages)
    for eid, (s, p) in enumerate(zip(stage_of(trace), trace.events)):
        new = next((new for new in (edit(eid, p) for edit in edits)
                    if new is not None), [(p.kind, p)])
        for k, payload in new:
            out.emit(s, k, **payload)
    return out


# -- the table ---------------------------------------------------------


class Row(NamedTuple):
    construction: str
    target: str | None  # the check the mutation targets; None for a gap
    name: str
    build: Callable  # () -> trace, or (trace, opponents)
    fails: dict  # every check that fails -> its witness
    detail: str | None = None  # the target check's detail, where pinned

    @property
    def id(self):
        return f"{self.construction}/{self.target or 'gap'}/{self.name}"


LOW, COMB, LOW2 = "low-alpha", "nonlow-alpha", "nonlow-low2"

ROWS = [
    # low-alpha.  The golden run lists q0 for watcher 0 at stage 3 (events
    # 7-8) and q0 acts at stages 5 and 9 (events 14 and 25).
    Row(LOW, "budget-formula", "raised-budget", lambda: mutated(
        flipped_once(), fields(kind("phi-set", e=0), value="w*7")),
        {"budget-formula": 0}),
    Row(LOW, "injury-gate", "unlisted-injurer", lambda: written(
        LOW, 4, "0 phi-set e=alpha value=w^w",
        "1 qlist-set e=0 k=0 members=- gs=- horizon=0",
        "1 phi-set e=0 value=0", "2 enumerate node=q5 element=1 marker=0",
        "2 inject-diverge e=0 x=0 use=9"),
        {"injury-gate": 4, "mind-change-cap": 0, "descent-witness": 2,
         "redeclare": 3}),
    Row(LOW, "redeclare", "dropped-redeclare", lambda: mutated(
        flipped_once(), drop(at(13))),
        {"redeclare": 12, "diagonalization": 0}),
    Row(LOW, "quota-list-structure", "non-member-remove", lambda: mutated(
        golden("golden-low-alpha"),
        insert_after(at(10), "qlist-remove e=0 q=5 cause=preempted")),
        {"quota-list-structure": 11}),
    Row(LOW, "quota-list-structure", "second-set", lambda: mutated(
        golden("golden-low-alpha"),
        insert_after(at(10), "qlist-set e=0 k=1 members=0 gs=w horizon=1")),
        {"quota-list-structure": 11}),
    # the stage-9 act would put the chain at w+5, above the w+3 the
    # stage-5 act left it at; the witness is the stage
    Row(LOW, "descent-witness", "raised-marker", lambda: mutated(
        golden("golden-low-alpha"), fields(at(25), marker=5)),
        {"descent-witness": 9}),
    # without its phi-set watcher 0 has no budget to descend through; the
    # witness is the watcher
    Row(LOW, "descent-witness", "missing-budget", lambda: mutated(
        golden("golden-low-alpha"), drop(at(8))),
        {"budget-formula": 0, "descent-witness": 0}),
    # a budget of g = 1 under k = 0 caps watcher 0 at one own injury
    Row(LOW, "mind-change-cap", "excess", lambda: mutated(
        golden("golden-low-alpha"), fields(at(7), k=0, gs=1),
        fields(at(8), value=1)),
        {"mind-change-cap": 0, "descent-witness": 5}, "1 finite budgets"),
    # q0 last sees f = 0; a last declaration of 0 agrees with it
    Row(LOW, "diagonalization", "agreeing-declaration", lambda: mutated(
        golden("golden-low-alpha"), fields(at(26), value=0)),
        {"diagonalization": 0}, "1 live followers"),
    # nonlow-alpha, on the synthetic descent trace: "ii" is listed for
    # (-, 0) with tolerance 4 and selects at stages 4 (event 14) and 6
    Row(COMB, "qlist-structure", "tolerance-not-max", lambda: mutated(
        synthetic_descent_trace(), fields(kind("qlist-set"), k=5)),
        {"qlist-structure": 5, "descent-witness": 4},
        "tolerance 5 is not the member max"),
    Row(COMB, "xi-injury-gate", "unlisted-injurer", lambda: mutated(
        synthetic_descent_trace(),
        fields(kind("qlist-set"), members="-", gs="-", kps="-", k=0),
        fields(kind("phi-set", e="-.0"), value=0)),
        {"xi-injury-gate": 17, "descent-witness": 4, "mind-change-cap": 17}),
    Row(COMB, "xi-permission-scope", "denier-not-eta", lambda: mutated(
        synthetic_descent_trace(),
        insert_after(at(14), "select node=ii act=denied by=f x=0")),
        {"xi-permission-scope": 15},
        "denier f not an eta-infinity prefix of ii"),
    Row(COMB, "xi-permission-scope", "eta-not-above", lambda: mutated(
        synthetic_descent_trace(),
        insert_after(at(14), "select node=fi act=denied by=- x=0")),
        {"xi-permission-scope": 15},
        "denier - not an eta-infinity prefix of fi"),
    Row(COMB, "level-discipline", "rho-visit-length", lambda: mutated(
        synthetic_descent_trace(), fields(kind("visit", node="i"), l=1)),
        {"level-discipline": 7}),
    # the stage-6 hit would put the chain at w*4+4, above the w*4+3 of the
    # stage-4 hit; the witness is the stage
    Row(COMB, "descent-witness", "raised-marker", lambda: mutated(
        synthetic_descent_trace(), fields(at(26), marker=4)),
        {"descent-witness": 6}),
    # nonlow-alpha, hand-written.  Quota node "i" owes one act against
    # x = 2, no xi hit adds to its allowance, and it injures twice.
    Row(COMB, "rho-recursion", "excess", lambda: written(
        COMB, 4, "0 phi-set e=alpha value=w^w",
        *injury_stage(1, "i", x=2, l=3),
        *injury_stage(2, "i", x=2, l=3, element=4)),
        {"rho-recursion": 4}),
    # a rho adds nothing to the allowance of "i"; an xi hit adds one
    Row(COMB, "trigger-structure", "foreign-trigger", lambda: pick_then_hit(
        "f"), {"rho-recursion": 7, "trigger-structure": 14}),
    Row(COMB, "trigger-structure", "unlisted-xi-trigger",
        lambda: pick_then_hit("fi"), {"trigger-structure": 14}),
    Row(COMB, "trigger-structure", "listed-xi-trigger",
        lambda: pick_then_hit("fi", listed=True), {}),
    # at x = 0 with a finite budget of 0 the closed-form cap is
    # (0 + 0) * 1 * 4 = 0, so a single counted hit exceeds it
    Row(COMB, "mind-change-cap", "excess", lambda: written(
        COMB, 2, "0 phi-set e=alpha value=w^w",
        "0 qlist-set eta=- x=0 k=0 members=- gs=- kps=- horizon=0",
        "0 phi-set e=-.0 value=0", *injury_stage(1, "i", x=0, l=1)),
        {"rho-recursion": 6, "mind-change-cap": 6}),
    # nonlow-alpha, on the golden run: its x = 0 list (events 12-13) is
    # empty from stage 3 on, its x = 1 list (events 39-40) lists "if"
    Row(COMB, "qlist-structure", "illegal-remove", lambda: mutated(
        golden("golden-nonlow-alpha"),
        insert_after(at(13), "qlist-remove eta=- x=0 xi=ii cause=exhausted")),
        {"qlist-structure": 14}),
    # the root eta is never initialized, so a second list for x = 0 is
    # illegal
    Row(COMB, "qlist-structure", "second-set", lambda: mutated(
        golden("golden-nonlow-alpha"), insert_after(
            at(40), "qlist-set eta=- x=0 k=0 members=- gs=- kps=- horizon=3",
            "phi-set e=-.0 value=0")),
        {"qlist-structure": 41}, "illegal quota list event"),
    # phi over the one member w at k = 1028 is w*1029, not w*1028
    Row(COMB, "qlist-structure", "budget-mismatch", lambda: mutated(
        golden("golden-nonlow-alpha"), fields(at(40), value="w*1028")),
        {"qlist-structure": 39}, "budget mismatch at - x=1"),
    Row(COMB, "descent-witness", "missing-budget", lambda: mutated(
        golden("golden-nonlow-alpha"), drop(at(13))),
        {"qlist-structure": 12, "descent-witness": 12},
        "missing budget value"),
    # events 16 and 18 are the first visits of the rho node "i" and of the
    # xi node "if"
    Row(COMB, "level-discipline", "rho-length", lambda: golden(
        "golden-nonlow-alpha", "16 3 visit node=i", "l=1"),
        {"level-discipline": 16}, "rho visit i carries foreign fields"),
    Row(COMB, "level-discipline", "rho-argument", lambda: golden(
        "golden-nonlow-alpha", "16 3 visit node=i", "x=0"),
        {"level-discipline": 16}, "rho visit i carries foreign fields"),
    Row(COMB, "level-discipline", "xi-length", lambda: golden(
        "golden-nonlow-alpha", "18 3 visit node=if x=1 f=0", "l=0"),
        {"level-discipline": 18}, "xi visit if carries a length"),
    # nonlow-low2, hand-written.  A length-1 node destroying the
    # computation at x = 1 is outside quota(1).
    Row(LOW2, "quota-soundness", "outside-quota", lambda: written(
        LOW2, 6, *injury_stage(5, "i", x=1, l=2)),
        {"quota-soundness": 3, "recursion-bound": 3}),
    # quota node "i" owes x - 1 = 1 act against x = 2 and nothing below it
    # in the layer order may lend it more; it injures twice
    Row(LOW2, "recursion-bound", "excess", lambda: written(
        LOW2, 4, *injury_stage(1, "i", x=2, l=3),
        *injury_stage(2, "i", x=2, l=3, element=4)),
        {"recursion-bound": 3}),
    # the quota of "i" from x = 0 is empty, so it may pick only while
    # correct; at stage 2 it picks again while its use 3 sits below the
    # use 9 of the computation at 0
    Row(LOW2, "exhaustion-gate", "pick-while-holding", lambda: written(
        LOW2, 3, "0 inject-converge e=0 x=0 use=9 value=0",
        *[f"{s} {tail}" for s in (1, 2) for tail in (
            "visit node=- l=1", "visit node=i",
            f"declare node=i what=gamma y=1 u={2 + s} act=pick")]),
        {"exhaustion-gate": 6}),
    # "i" injures after its empty quota from x = 0 is spent, so a node
    # extending i-infinity must have hit first; only "f" did, or nothing
    Row(LOW2, "trigger-structure", "foreign-trigger", lambda: low2_pick(
        *injury_stage(2, "f", x=0, l=1, element=2),
        *injury_stage(3, "i", x=0, l=1)),
        {"quota-soundness": 6, "trigger-structure": 6, "recursion-bound": 6}),
    Row(LOW2, "trigger-structure", "missing-trigger", lambda: low2_pick(
        *injury_stage(2, "i", x=0, l=1)),
        {"quota-soundness": 6, "trigger-structure": 6, "recursion-bound": 6}),
    # x = 0 tolerates injury_bound(0) = 4 injuries; this trace has 5
    Row(LOW2, "global-bound", "excess", lambda: written(
        LOW2, 6, *[line for s in range(1, 6) for line in injury_stage(
            s, "i", x=0, l=1, element=s, use=9)]),
        {"quota-soundness": 3, "recursion-bound": 3, "global-bound": 3}),
    # the golden run checks one settled follower, 4 of "i", which holds
    # its use (membership 1); a guess at 4 settled at 1 agrees with it
    Row(LOW2, "diagonalization", "golden", lambda: low2_golden(
        lambda psis: psis),
        {}, "1 settled followers checked"),
    Row(LOW2, "diagonalization", "agreeing-guess", lambda: low2_golden(
        lambda psis: {0: agreeing(), 1: psis[1]}),
        {"diagonalization": None},
        "follower 4 of i: membership 1 equals settled guess 1"),
    # the golden run's three level-1 followers go unchecked without a
    # level-1 opponent
    Row(LOW2, "diagonalization", "no-level-1-opponent", lambda: low2_golden(
        lambda psis: {0: psis[0]}),
        {}, "1 settled followers checked"),
    # no low2 check reads visit payloads, so a rho visit may carry a
    # length and an argument (an open FOUND: line in CHANGES.md)
    Row(LOW2, None, "rho-visit-fields", lambda: golden(
        "golden-nonlow-low2", "13 3 visit node=i", "l=7 x=3"),
        {}),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_row(row):
    built = row.build()
    trace, psis = built if isinstance(built, tuple) else (built, None)
    assert trace.construction == row.construction
    checks = {c.name: c for c in checks_for(trace, replay_of(trace), psis)}
    assert {name: c.witness for name, c in checks.items()
            if not c.passed} == row.fails
    if row.detail is not None:
        assert checks[row.target].detail == row.detail


def test_every_check_can_fail():
    every = {(c, name) for c, entry in CONSTRUCTIONS.items()
             for name in entry.checks}
    targets = {(row.construction, row.target) for row in ROWS if row.target}
    failing = {(row.construction, row.target) for row in ROWS
               if row.target in row.fails}
    assert targets <= every and set(UNFAILABLE) <= every
    assert failing == every - set(UNFAILABLE)
    assert len({row.id for row in ROWS}) == len(ROWS)


def test_bound_table_skips_a_list_without_budget():
    # the golden report without its x = 0 line, whose phi-set is event 13
    trace = mutated(golden("golden-nonlow-alpha"), drop(at(13)))
    assert na.bound_table(replay_of(trace)) == [
        line for line in REPORTS["golden-nonlow-alpha"].splitlines()
        if line.startswith("bound ")][1:]
