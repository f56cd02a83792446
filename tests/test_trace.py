"""The trace layer: payloads interned per trace and read-only, each
stored stage kept once as its entry with no object per event and a run
of copied stages as the entry's copies, which only a quiet stage may
have, the text round trip, the parser against the per-line parser
it replaced, on the goldens and on traces with long runs of repeated
stages, the writer against the per-line renderer it replaced, the run
chunks of the writer and of the run matcher against one f-string per
line, and the one parser on bytes and on the file verify-trace maps."""

import functools
import gc
import glob
import hashlib
import io
import os
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from injurylab import trace as trace_module
from injurylab.cli import digest, main
from injurylab.scenario import load_scenario
from injurylab.trace import EVENT_KINDS, ConfigError, Payload, RunTrace

from stage_maps import (assert_quiet_runs, assert_whole_stages, runs,
                        stage_of)
from test_acceptance import _low2_seed
from test_golden import NAMES, run_golden
from test_harness import (GOLDEN, LOW2_TEXT, LOWA_TEXT, NALPHA_TEXT, SCEN,
                          SCENARIO_LINES, golden_mutations)


def oracle_from_text(text: str) -> RunTrace:
    """The parser that split every line and built a fresh payload dict
    for every event, shared with no other, and stored every event, with
    no recorded run: the reference the interning parser must match."""
    trace = None
    last_stage = count = 0
    for lineno, ln in enumerate(text.splitlines(), 1):
        if not ln.strip():
            continue
        try:
            if trace is None:
                word, construction, stages_tok = ln.split()
                key, stages = stages_tok.split("=")
                if word != "trace" or key != "stages" or int(stages) < 0:
                    raise ValueError
                trace = RunTrace(construction, int(stages))
                continue
            toks = ln.split()
            if toks[0] == "summary":
                _, key, value = toks
                trace.summary[key] = value
                continue
            eid, stage, kind = int(toks[0]), int(toks[1]), toks[2]
            payload = Payload(kind, [t.split("=", 1) for t in toks[3:]])
        except (ValueError, IndexError):
            what = "trace header" if trace is None else "trace line"
            raise ConfigError(f"line {lineno}: malformed {what} "
                              f"{ln!r}") from None
        if kind not in EVENT_KINDS:
            raise ConfigError(f"line {lineno}: unknown event kind "
                              f"{kind!r}")
        if eid != count:
            raise ConfigError(f"line {lineno}: event id {eid} out of "
                              f"sequence, expected {count}")
        if stage < last_stage:
            raise ConfigError(f"line {lineno}: stage {stage} after "
                              f"stage {last_stage}")
        if stage >= max(trace.stages, 1):
            raise ConfigError(f"line {lineno}: stage {stage} past "
                              f"stages={trace.stages}")
        last_stage = stage
        count += 1
        if trace.stored and trace.stored[-1][0] == stage:
            trace.stored[-1][1].append(payload)
        else:
            trace.stored.append([stage, [payload], 0])
    if trace is None:
        raise ConfigError("missing trace header")
    return trace


def oracle_to_text(trace: RunTrace) -> str:
    """The text form rendered line by line, token by token from each
    event's payload: the reference the run-aware writer must match."""
    lines = [f"trace {trace.construction} stages={trace.stages}"]
    for eid, (stage, p) in enumerate(zip(stage_of(trace), trace.events)):
        lines.append(" ".join([str(eid), str(stage), p.kind]
                              + [f"{k}={v}" for k, v in p.items()]))
    lines += [f"summary {k} {v}" for k, v in sorted(trace.summary.items())]
    return "\n".join(lines) + "\n"


def contents(t):
    """The header, summary and events of a trace, payload key order
    included."""
    return (t.construction, t.stages, t.summary,
            [(eid, stage, p.kind, list(p.items()))
             for eid, (stage, p) in enumerate(zip(stage_of(t), t.events))])


def entries(t):
    """Each stored stage of a trace as (stage, payload texts, copies)."""
    return [(s, [p.tail for p in payloads], copies)
            for s, payloads, copies in t.stored]


def stored_shape(t):
    """Each stored stage of a trace as (stage, events, copies)."""
    return [(s, len(payloads), copies) for s, payloads, copies in t.stored]


def reference_stored_shape(text):
    """stored_shape of the parse of a valid text, line by line.  A stage
    is a copy where its lines are exactly ``eid stage text`` of the
    texts of the stored stage's lines, each a line of its own ended by
    "\\n" alone, at the next stage, and either that stored stage is
    quiet and read just before it or the copy before it ends on the line
    before it."""
    stages = []  # [stage, [(tail, exact, raw line index, quiet)]]
    raw = text.replace("\r\n", "\n").split("\n")
    for r, line in enumerate(raw[:-1] if raw[-1] == "" else raw):
        for ln in line.splitlines():
            toks = ln.split(None, 2)
            if len(toks) < 3 or toks[0] in ("trace", "summary"):
                continue
            eid, stage, tail = int(toks[0]), int(toks[1]), toks[2]
            kind, *pairs = tail.split()
            event = (tail, line == ln == f"{eid} {stage} {tail}"
                     and r < len(raw) - 1, r,
                     Payload(kind, [t.split("=", 1) for t in pairs]).quiet)
            if stages and stages[-1][0] == stage:
                stages[-1][1].append(event)
            else:
                stages.append([stage, [event]])
    shape, last = [], None  # the stored stages, and the stage before
    for stage, events in stages:
        if shape:
            s, n, copies = shape[-1]
            tails = [e[0] for e in stored]
            lines = [e[2] for e in events]
            if stage == s + copies + 1 and \
                    [e[0] for e in events] == tails and \
                    all(e[1] for e in events) and \
                    lines == list(range(lines[0], lines[0] + n)) and \
                    all(e[3] for e in stored) and \
                    (copies == 0 or last[-1][2] == lines[0] - 1):
                shape[-1] = (s, n, copies + 1)
                last = events
                continue
        shape.append((stage, len(events), 0))
        stored = last = events
    return shape


def parsed(parse, text):
    """The contents of what parse makes of text, or the error text."""
    try:
        return contents(parse(text))
    except ConfigError as ex:
        return f"error {ex}"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(text=golden_mutations())
def test_parser_matches_the_reference(text):
    expected = parsed(oracle_from_text, text)
    assert parsed(RunTrace.from_text, text.encode()) == expected
    if not isinstance(expected, str):
        assert RunTrace.from_text(text.encode()).to_text() == \
            oracle_to_text(oracle_from_text(text))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(scenario=st.sampled_from((LOW2_TEXT, LOWA_TEXT, NALPHA_TEXT)),
       seed=st.integers(0, 10**6), stages=st.integers(0, 60))
def test_engine_traces_round_trip(scenario, seed, stages):
    trace, _ = load_scenario(scenario).execute(seed=seed, stages=stages)
    text = trace.to_text()
    back = RunTrace.from_text(text.encode())
    assert contents(back) == contents(trace)
    assert digest(back) == digest(trace)
    assert text == oracle_to_text(trace)


@pytest.mark.parametrize("mutate", [
    lambda p: p.__setitem__("value", "w*7"),
    lambda p: p.__delitem__("value"),
    lambda p: p.update(value="w*7"),
    lambda p: p.setdefault("x", "1"),
    lambda p: p.pop("value"),
    lambda p: p.popitem(),
    lambda p: p.clear(),
    lambda p: p.__ior__({"value": "w*7"}),
])
def test_payloads_refuse_mutation(mutate):
    tr = RunTrace("low-alpha", 1)
    tr.emit(0, "phi-set", e="alpha", value="w^2")
    p = tr.events[-1]
    with pytest.raises(TypeError, match="read-only"):
        mutate(p)
    assert p == {"e": "alpha", "value": "w^2"}
    assert tr.to_text() == ("trace low-alpha stages=1\n"
                            "0 0 phi-set e=alpha value=w^2\n")


def shared_payloads(trace):
    """The ids of the trace's payload objects, checking that the trace has
    one per distinct kind and payload text."""
    events = trace.events
    ids = {id(p) for p in events}
    assert len(ids) == len({(p.kind, tuple(p.items())) for p in events})
    return ids


@pytest.mark.parametrize("make", [
    lambda: RunTrace.from_text(
        "\n".join(GOLDEN["golden-nonlow-alpha"]).encode()),
    lambda: load_scenario(LOW2_TEXT).execute()[0],
], ids=["parsed", "emitted"])
def test_traces_never_share_payloads(make):
    a, b = make(), make()
    assert a.to_text() == b.to_text()
    assert shared_payloads(a).isdisjoint(shared_payloads(b))


def test_emit_keys_payloads_by_their_text():
    # values that render alike share a payload; values that compare equal
    # but render differently do not
    tr = RunTrace("nonlow-low2", 1)
    for value in (1, "1", True, 1.0, 0.0, -0.0):
        tr.emit(0, "visit", node="-", x=value)
    events = tr.events
    assert [p.tail for p in events] == [
        f"visit node=- x={v}" for v in ("1", "1", "True", "1.0", "0.0",
                                        "-0.0")]
    assert events[0] is events[1]
    assert len(shared_payloads(tr)) == 5


def test_emit_rejects_an_unknown_kind():
    tr = RunTrace("nonlow-low2", 1)
    with pytest.raises(ValueError, match="unknown event kind 'bogus'"):
        tr.emit(0, "bogus", node="-")
    assert tr.stored == [] == tr.events


def quiet_low_alpha(tr):
    tr.emit(0, "visit", node="q0", x=0, f=0)
    tr.emit(0, "declare", node="q0", what="gamma", y=0, u=3, act="fin")


@pytest.mark.parametrize("build, stop", [
    (lambda tr: None, 3),
    (lambda tr: (tr.emit(0, "visit", node="q0", x=0, f=0),
                 tr.emit(0, "init", node="q0", cause="preempt:0")), 3),
    (lambda tr: (tr.emit(0, "visit", node="q0", x=0, f=0),
                 tr.emit(0, "declare", node="q0", what="delta", x=0, u=3,
                         value=1, act="fin")), 3),
    (quiet_low_alpha, 1),
], ids=["empty", "init", "delta fin", "no copy"])
def test_repeat_refuses_a_run_it_may_not_record(build, stop):
    # a run copies the last stored stage, quiet, to at least one stage
    tr = RunTrace("low-alpha", 10)
    build(tr)
    before = entries(tr)
    with pytest.raises(ValueError, match="no run of stage"):
        tr.repeat(stop)
    assert entries(tr) == before


def test_repeat_copies_a_quiet_stage():
    tr = RunTrace("low-alpha", 10)
    quiet_low_alpha(tr)
    assert tr.quiet(0) and not tr.quiet(1)
    tr.repeat(2)
    assert [c for _, _, c in tr.stored] == [1]
    assert not tr.quiet(1)  # the stage after a run is no stored stage


def tracked_growth(build):
    """What build() returns, and how many more objects the collector
    tracks while it is alive than before it ran."""
    gc.collect()
    before = len(gc.get_objects())
    made = build()
    gc.collect()
    return made, len(gc.get_objects()) - before


def test_events_cost_no_object_of_their_own():
    # a 10k-stage low2 seed has some 70,000 events but about 120 distinct
    # payloads in some 40 stored stages; parsing or emitting it may keep
    # one tracked object per distinct payload and two (its entry and its
    # payload list) per stored stage, never one per event.  The slack
    # covers the trace's own lists and dicts and interpreter objects made
    # or freed meanwhile.
    text = _low2_seed(0)[0].to_text()
    trace, grown = tracked_growth(
        lambda: RunTrace.from_text(text.encode()))
    events = trace.events
    distinct = len({id(p) for p in events})
    kept = distinct + 2 * len(trace.stored)
    assert len(events) > 60_000 and distinct < 200 and len(trace.stored) < 60
    assert grown <= kept + 50

    def emit_all():
        copy = RunTrace(trace.construction, trace.stages)
        for s, p in zip(stage_of(trace), events):
            copy.emit(s, p.kind, **p)
        copy.finalize(trace.summary)
        return copy
    copy, grown = tracked_growth(emit_all)
    assert copy.to_text() == text
    assert grown <= distinct + 2 * len(copy.stored) + 50


# -- long runs of repeated stages --------------------------------------

RUN_SCENARIOS = ("nonlow-low2-random", "low-alpha-two-watchers",
                 "nonlow-alpha-mixed")


@functools.lru_cache(maxsize=None)
def run_trace(name):
    """A shipped scenario run for 400 stages: each ends in a run of some
    350 stages that repeat the one before them."""
    with open(os.path.join(SCEN, name + ".txt")) as fh:
        return load_scenario(fh.read()).execute(seed=0, stages=400)[0]


def longest_run(trace):
    """The (first, stop) line indices, in the text, of the trace's
    longest recorded run of copied stages."""
    eid, first, stop, payloads = max(runs(trace),
                                     key=lambda run: run[2] - run[1])
    return 1 + eid, 1 + eid + (stop - first) * len(payloads)


def stage_token(line):
    """The second token of line, or None."""
    toks = line.split(None, 2)
    return toks[1] if len(toks) > 1 else None


def with_stage(line, delta):
    """line with its stage number moved by delta, its blanks kept."""
    return re.sub(r"^(\d+\s+)(\d+)", lambda m: f"{m[1]}{int(m[2]) + delta}",
                  line)


@st.composite
def edited_runs(draw):
    """A trace of run_trace after one or two edits inside its longest run:
    an event id one off; a stage number moved on one line or on a whole
    stage, or every stage from a line on shifted by one; a stage number
    respelled with a leading 0 on a line that does not open its stage,
    or on the line after one that does; a header whose
    stage count ends in the run; a blank line put in; a space doubled or
    turned into a tab, or a blank put at a line's end; a payload value
    given a %, %d or {}, a non-ASCII letter or a line break other than
    "\\n" on every line that holds it, in the run and out of it; a
    payload made a select, which acts, on every line that holds it; or
    the text cut after a line, summary included.  The text may then get
    \\r\\n line endings."""
    trace = run_trace(draw(st.sampled_from(RUN_SCENARIOS)))
    lines = trace.to_text().splitlines()
    first, stop = longest_run(trace)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(first, stop - 1))
        op = draw(st.sampled_from(("eid", "line stage", "stage", "shift",
                                   "respell", "header", "blank", "space",
                                   "tab", "trail", "value", "acts", "cut")))
        if i >= len(lines) or not lines[i][:1].isdigit():
            continue  # cut off by an earlier edit, or a blank put in
        if op == "eid":
            eid, rest = lines[i].split(" ", 1)
            delta = draw(st.sampled_from((-1, 1)))
            lines[i] = f"{int(eid) + delta} {rest}"
        elif op == "line stage":
            lines[i] = with_stage(lines[i], draw(st.sampled_from((-2, -1,
                                                                  1))))
        elif op == "stage":
            delta = draw(st.sampled_from((-2, -1, 1)))
            stage = stage_token(lines[i])
            lines = [with_stage(ln, delta) if stage_token(ln) == stage
                     else ln for ln in lines]
        elif op == "shift":
            lines[i:] = [with_stage(ln, 1) for ln in lines[i:]]
        elif op == "respell":
            if stage_token(lines[i - 1]) != stage_token(lines[i]):
                i += 1
            if i < len(lines) and lines[i][:1].isdigit() and \
                    stage_token(lines[i - 1]) == stage_token(lines[i]):
                lines[i] = re.sub(r"^(\d+\s+)", r"\g<1>0", lines[i])
        elif op == "header":
            stage = stage_token(lines[i])
            if stage.isdigit():
                cut = int(stage) + draw(st.sampled_from((0, 1)))
                lines[0] = re.sub(r"=\d+", f"={cut}", lines[0])
        elif op == "blank":
            lines.insert(i, draw(st.sampled_from(("", " ", "\t"))))
        elif op in ("space", "tab", "trail"):
            if op == "trail":
                lines[i] += draw(st.sampled_from((" ", "\t")))
            else:
                j = draw(st.sampled_from([j for j, c in enumerate(lines[i])
                                          if c == " "]))
                blank = "  " if op == "space" else "\t"
                lines[i] = lines[i][:j] + blank + lines[i][j + 1:]
        elif op == "value":
            pair = draw(st.sampled_from(lines[i].split()[3:] or ["-"]))
            mark = draw(st.sampled_from(("%", "%d", "{}", "%%s", "%(x)s",
                                         "\u00fc", "\r", "\x0b", "\x85",
                                         "\u2028")))
            lines = [re.sub(rf"(?<= ){re.escape(pair)}(?= |$)",
                            pair + mark, ln) for ln in lines]
        elif op == "acts":
            tail = lines[i].split(None, 2)[2]
            acting = re.sub(r"^\S+", "select", tail)
            lines = [re.sub(rf"(?<=\s){re.escape(tail)}$", lambda m: acting,
                            ln) for ln in lines]
        else:
            del lines[i + 1:]
    ending = draw(st.sampled_from(("\n", "\r\n")))
    return ending.join(lines) + ending


def read_texts(text):
    """The payload text of each event line, as the parser reads it."""
    toks = [ln.split(None, 2) for ln in text.splitlines()]
    return [t[2] for t in toks[1:] if t and t[0] != "summary"]


def assert_shared_by_text(trace, text):
    # events share a payload exactly when their payload texts as read are
    # the same, as when every line went through the per-line path
    texts, events = read_texts(text), trace.events
    assert len(texts) == len(events)
    pairs = set(zip(texts, map(id, events)))
    assert len(pairs) == len(set(texts)) == len(set(map(id, events)))


def run_end(case):
    """The text of a run_trace cut inside its longest run, after the
    third copied stage, or the first for "one copy", and ended one way:
    "inject" goes on at the run's last stage with an inject-converge
    line, "blank" does so after a blank line, "one copy" goes on there
    with a visit, and "summary" ends with the summary lines alone.  Each
    but "summary" takes the run's last stage out of the run."""
    trace = run_trace("nonlow-low2-random")
    lines = trace.to_text().splitlines()
    first, _ = longest_run(trace)
    size = len(max(runs(trace), key=lambda run: run[2] - run[1])[3])
    end = first + (1 if case == "one copy" else 3) * size
    at = f"{end - 1} {stage_token(lines[end - 1])}"  # the next id, its stage
    inject = f"{at} inject-converge e=0 x=0 use=3 value=0"
    more = {"inject": [inject], "blank": ["", inject],
            "one copy": [f"{at} visit node=f"], "summary": []}[case]
    return "\n".join(lines[:end] + more + [
        ln for ln in lines if ln.startswith("summary")]) + "\n"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@example(text=run_end("inject"))
@example(text=run_end("blank"))
@example(text=run_end("one copy"))
@example(text=run_end("summary"))
@given(text=edited_runs())
def test_parser_matches_the_reference_on_long_runs(text):
    expected = parsed(oracle_from_text, text)
    assert parsed(RunTrace.from_text, text.encode()) == expected
    if not isinstance(expected, str):
        back = RunTrace.from_text(text.encode())
        assert_shared_by_text(back, text)
        assert_whole_stages(back)
        assert_quiet_runs(back)
        assert stored_shape(back) == reference_stored_shape(text)


@pytest.fixture(scope="module")
def low2_trace():
    return _low2_seed(0)[0]


def sharing(trace):
    """Each event's payload as the index of the first event that has it:
    which events share a payload."""
    first = {}
    return [first.setdefault(id(p), eid) for eid, p in enumerate(trace.events)]


@pytest.mark.parametrize("name", RUN_SCENARIOS + ("bench low2",))
def test_parsed_trace_shares_payloads_as_emitted(name, low2_trace):
    trace = low2_trace if name == "bench low2" else run_trace(name)
    text = trace.to_text()
    back = RunTrace.from_text(text.encode())
    assert sharing(back) == sharing(trace)
    assert contents(back) == contents(trace)
    assert_shared_by_text(back, text)


def one_stage_of(n):
    """A trace whose stage 0 holds n events, stage 1 the same but for its
    last, and stage 2 a copy of stage 1."""
    tails = ["visit node=- l=0", "visit node=f"] * (n // 2)
    stages = [tails, tails[:-1] + ["visit node=fi"]]
    stages.append(stages[1])
    lines = ["trace nonlow-low2 stages=3"]
    for s, stage in enumerate(stages):
        lines += [f"{eid} {s} {t}" for eid, t in
                  enumerate(stage, len(lines) - 1)]
    return "\n".join(lines) + "\n"


def stages_apart(n):
    """A trace of n one-event stages of one payload, two stages apart, so
    that each stage start tries a run and fails on its first line."""
    lines = [f"trace nonlow-low2 stages={2 * n}"]
    lines += [f"{i} {2 * i} visit node=- l=0" for i in range(n)]
    return "\n".join(lines) + "\n"


def short_runs(n):
    """A trace of n runs of two copies of a two-event stage, each run
    followed by a stage that opens like it and differs in its last line,
    so that every run ends soon after it starts."""
    lines = [f"trace nonlow-low2 stages={4 * n}"]
    for s in range(4 * n):
        last = "visit node=fi" if s % 4 == 3 else "visit node=f"
        lines += [f"{2 * s} {s} visit node=- l=0", f"{2 * s + 1} {s} {last}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["bench low2", "one stage of 20,000",
                                  "20,000 stages apart",
                                  "5,000 runs of 2 stages"])
def test_parser_renders_at_most_twice_the_lines(name, low2_trace,
                                                monkeypatch):
    text = {"bench low2": low2_trace.to_text,
            "one stage of 20,000": lambda: one_stage_of(20_000),
            "20,000 stages apart": lambda: stages_apart(20_000),
            "5,000 runs of 2 stages": lambda: short_runs(5_000)}[name]()
    # the lines of the chunks the run matcher compares with the text
    rendered = []
    real = trace_module._run_chunks

    def counted(*args):
        for n, chunk in real(*args):
            rendered.append(chunk.count(b"\n"))
            yield n, chunk
    monkeypatch.setattr(trace_module, "_run_chunks", counted)
    back = RunTrace.from_text(text.encode())
    lines = len(text.splitlines())
    assert sum(rendered) <= 2 * lines
    assert contents(back) == contents(oracle_from_text(text))
    if name == "bench low2":
        # the runs were read in one step: all but a few hundred lines
        assert sum(rendered) >= lines - 500


@pytest.mark.parametrize("name", ("bench low2",) + NAMES)
def test_crlf_traces_record_the_same_runs(name):
    text = bench_low2().to_text() if name == "bench low2" else \
        "\n".join(GOLDEN[name]) + "\n"
    crlf = RunTrace.from_text(text.replace("\n", "\r\n").encode())
    assert entries(crlf) == entries(RunTrace.from_text(text.encode()))


def test_parser_holds_no_list_of_lines(low2_trace):
    # the text is read by offset, so at its peak a parse holds a small part
    # of the text's size: 70k lines and their list would take more
    text = low2_trace.to_text().encode()
    tracemalloc.start()
    try:
        RunTrace.from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) // 4


@functools.lru_cache(maxsize=None)
def bench_low2():
    """The bench low2 shape's seed-0 trace cut at 2,000 stages: its first
    run is followed by event lines, its last and longest by the
    summary."""
    return scenario_trace(os.path.join(BENCH_SHAPES, "campaign-low2.txt"),
                          0, 2000)


def renumbered(lines, delta):
    """lines with the event id of each event line moved by delta."""
    return [re.sub(r"^\d+", lambda m: str(int(m[0]) + delta), ln)
            for ln in lines]


def edited_low2(which, edit):
    """The text of bench_low2 after one edit about one of its runs, whose
    copied lines are lines[first:stop]."""
    eid, start, end, payloads = runs(bench_low2())[which]
    lines = bench_low2().to_text().splitlines()
    first, stop = 1 + eid, 1 + eid + (end - start) * len(payloads)
    ending = "\n"
    if edit == "malformed after":
        lines[stop] = "x" + lines[stop]
    elif edit == "malformed inside":
        lines[(first + stop) // 2] = "x" + lines[(first + stop) // 2]
    elif edit == "blank, then the last stage goes on":
        last_eid, stage, tail = lines[stop - 1].split(None, 2)
        lines[stop:] = ["", f"{int(last_eid) + 1} {stage} {tail}"] + \
            renumbered(lines[stop:], 1)
    elif edit == "cut after a line":
        del lines[(first + stop) // 2:]
        ending = ""
    elif edit == "cut inside a line":
        del lines[(first + stop) // 2 + 1:]
        lines[-1] = lines[-1][:-3]
        ending = ""
    else:  # a line break other than "\n", mid-line or at the line's end
        mark, where = edit.split(" ")
        ln = lines[first - 1]  # in the stored stage the run copies
        at = len(ln) // 2 if where == "mid" else len(ln)
        lines[first - 1] = ln[:at] + mark + ln[at:]
        lines[stop] = "x" + lines[stop]  # an error whose line number shows
    return "\n".join(lines) + ending


LOW2_EDITS = ["malformed after", "malformed inside",
              "blank, then the last stage goes on", "cut after a line",
              "cut inside a line"] + [
    f"{mark} {where}" for mark in ("\r", "\x0b", "\u2028")
    for where in ("mid", "end")]


@pytest.mark.parametrize("edit", LOW2_EDITS)
@pytest.mark.parametrize("which", (0, -1), ids=("first run", "last run"))
def test_parser_numbers_lines_as_the_reference(which, edit):
    text = edited_low2(which, edit)
    expected = parsed(oracle_from_text, text)
    assert parsed(RunTrace.from_text, text.encode()) == expected
    if not isinstance(expected, str):
        back = RunTrace.from_text(text.encode())
        assert_whole_stages(back)
        assert stored_shape(back) == reference_stored_shape(text)


# -- the run-aware writer ----------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def first_difference(got: str, want: str):
    """None when got is want, else the first line at which they differ,
    as (line index, got's line, want's line), with None past an end: a
    short failure message, where a diff of two long texts takes long."""
    if got == want:
        return None
    a, b = got.split("\n"), want.split("\n")
    i = next((i for i, pair in enumerate(zip(a, b)) if pair[0] != pair[1]),
             min(len(a), len(b)))
    return i, a[i] if i < len(a) else None, b[i] if i < len(b) else None


def assert_writes_as_reference(trace):
    # the trace as run, then as parsed back, whose runs the parser records
    want = oracle_to_text(trace)
    for t in (trace, RunTrace.from_text(want.encode())):
        assert first_difference(t.to_text(), want) is None
        assert t.digest() == sha256(want)


BENCH_SHAPES = os.path.join(SCEN, os.pardir, "bench", "scenarios")


def scenario_trace(path, seed, stages=None):
    with open(path) as fh:
        return load_scenario(fh.read()).execute(seed=seed, stages=stages)[0]


@pytest.mark.parametrize("name", NAMES)
def test_golden_traces_write_as_reference(name):
    assert_writes_as_reference(run_golden(name)[1])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SCEN,
                                                               "*.txt"))),
                         ids=os.path.basename)
def test_scenario_traces_write_as_reference(path, seed):
    assert_writes_as_reference(scenario_trace(path, seed))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(
    SCEN, "*.txt"))) + sorted(glob.glob(os.path.join(BENCH_SHAPES, "*.txt"))),
    ids=os.path.basename)
def test_parser_recovers_the_engine_runs(path, seed):
    # the parser records the runs the engine copied, and stores the
    # stages it walked: a bench shape cut at 2,000 stages, a scenario as
    # shipped
    stages = 2000 if path.startswith(BENCH_SHAPES) else None
    trace = scenario_trace(path, seed, stages)
    back = RunTrace.from_text(trace.to_text().encode())
    assert entries(back) == entries(trace)
    assert_whole_stages(trace)
    assert_quiet_runs(trace)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(
    BENCH_SHAPES, "*.txt"))), ids=os.path.basename)
def test_bench_shapes_write_as_reference(path, seed):
    trace = scenario_trace(path, seed, stages=2000)
    # nearly every event is in a recorded run
    copied = sum((stop - first) * len(payloads)
                 for _, first, stop, payloads in runs(trace))
    assert copied > 0.9 * len(trace.events)
    assert_writes_as_reference(trace)


def percent_run():
    """A run of a stage that holds % in its payload values."""
    tr = RunTrace("nonlow-low2", 9)
    tr.emit(0, "visit", node="-", l="5%d")
    tr.emit(0, "declare", node="f", act="fin", u="%(x)s%%")
    tr.emit(1, "visit", node="-", l="%")
    tr.emit(1, "visit", node="f%s", l="{}")
    tr.repeat(9)
    return tr


def engine_runs():
    """Runs as Engine.execute appends them: the stage a run stops before
    is walked, and may repeat the copied stage and go on with inject-*
    lines, or start the next run; the last run stops at the budget."""
    tr = RunTrace("nonlow-low2", 40)
    tr.emit(0, "init", node="-")
    tr.emit(0, "visit", node="-", l=0)
    tr.emit(0, "visit", node="f")
    tr.emit(1, "visit", node="-", l=0)
    tr.emit(1, "visit", node="f")
    tr.repeat(4)
    tr.emit(4, "visit", node="-", l=0)
    tr.emit(4, "visit", node="f")
    tr.emit(4, "inject-converge", e=0, x=0, use=3, value=1)
    for first, stop in ((5, 9), (9, 29)):
        tr.emit(first, "visit", node="-", l=1)
        tr.emit(first, "declare", node="-", what="gamma", act="fin", u=3)
        tr.repeat(stop)
    tr.emit(29, "visit", node="-", l=1)
    tr.emit(29, "declare", node="-", what="gamma", act="fin", u=3)
    tr.emit(29, "inject-diverge", e=0, x=0, use=3)
    tr.emit(29, "inject-converge", e=0, x=0, use=4, value=1)
    tr.emit(30, "visit", node="-", l=1)
    tr.repeat(40)
    tr.finalize({"A": "-", "node.-": "0:3"})
    return tr


def emitted_only():
    """A shipped scenario's trace built again by emit alone: no runs."""
    trace = run_trace("nonlow-low2-random")
    copy = RunTrace(trace.construction, trace.stages)
    for s, p in zip(stage_of(trace), trace.events):
        copy.emit(s, p.kind, **p)
    copy.finalize(trace.summary)
    assert not runs(copy)
    return copy


def empty_run():
    """Stages of no events after the first, which start no run."""
    trace = load_scenario("construction low-alpha\nalpha w^2\n"
                          "stages 20\n").execute()[0]
    assert [s for s, _, _ in trace.stored] == [0] and not runs(trace)
    return trace


@pytest.mark.parametrize("make", [percent_run, engine_runs, emitted_only,
                                  empty_run])
def test_built_traces_write_as_reference(make):
    assert_writes_as_reference(make())


@st.composite
def built_traces(draw):
    """A trace built by emit and repeat calls: a repeat after an emit,
    where the last stored stage is quiet, copies it to the next 1, 2, 3,
    699 or 2,099 stages, so runs may hold a single line or more than
    _BLOCK_LINES, and the next emit goes at the run's stop or later."""
    tr = RunTrace("nonlow-low2", 10**6)
    stage = 0
    for _ in range(draw(st.integers(1, 12))):
        if tr.quiet(stage) and draw(st.booleans()):
            stage += draw(st.sampled_from((2, 3, 4, 700, 2100)))
            tr.repeat(stage)
        else:
            stage += draw(st.integers(0, 2))
            tr.emit(stage, draw(st.sampled_from(("visit", "init"))),
                    node=draw(st.sampled_from(("-", "f", "i%d", "%"))))
    return tr


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(trace=built_traces())
def test_any_built_trace_writes_as_reference(trace):
    want = oracle_to_text(trace)
    assert first_difference(trace.to_text(), want) is None
    assert trace.digest() == sha256(want)


def reference_run(tails, eid, stage, count):
    """The text of count copied stages from the given stage on, with
    events numbered on from eid, one f-string per line: the reference
    that _run_chunks must match."""
    size = len(tails)
    return "".join(f"{eid + j * size + i} {stage + j} {tail}\n"
                   for j in range(count)
                   for i, tail in enumerate(tails)).encode()


def below_a_power(most):
    """An int at, or at most most below, a power of ten up to 10**6, so
    that the ids or stages from it cross that power."""
    return st.builds(lambda k, d: max(0, 10 ** k - d),
                     st.integers(0, 6), st.integers(0, most))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
# a whole block of the writer's, 500 stages, whose ids end just before a
# stage whose own ids cross 10**4: that stage's first line has the
# block's digit counts and its last does not, so it is rendered fresh,
# not written into the block's buffer
@example(tails=["visit node=- l=0"] * 7, eid=6497, stage=100, count=1000)
@given(tails=st.lists(st.one_of(
           st.sampled_from(("visit node=- l=0", "visit node=f%d l=%s",
                            "declare node={} u={0}", "visit node=\u00fc\u2192",
                            "%", "%%", "{}")),
           st.text(st.characters(blacklist_categories=("Cs",)),
                   max_size=6)),
           min_size=1, max_size=12),
       eid=st.one_of(below_a_power(40), below_a_power(9000)),
       stage=st.one_of(below_a_power(40), below_a_power(9000)),
       count=st.one_of(st.integers(1, 12),
                       st.integers(1, 3 * trace_module._BLOCK_LINES)))
def test_run_bytes_renders_as_the_reference(tails, eid, stage, count):
    # ids that cross a power of ten inside a stage, stages that cross one,
    # and counts past _BLOCK_LINES; the chunks of the writer, whole blocks
    # from the first, and of the run matcher, growing from one stage, each
    # copied as it comes since a chunk may be rewritten in place for the
    # next, over blocks whose ids and stages cross a power of ten
    encoded = [t.encode() for t in tails]
    want = reference_run(tails, eid, stage, count)
    for grow in (False, True):
        chunks = trace_module._run_chunks(encoded, eid, stage, count, grow)
        assert b"".join(bytes(chunk) for _, chunk in chunks) == want


def set_field(line: str, key: str, value: str, at: int) -> str:
    """line with its key-value field set, its fields starting at token
    at; a field it lacks goes at its end."""
    toks = line.split()
    keys = toks[at::2]
    if key in keys:
        toks[at + 2 * keys.index(key) + 1] = value
    else:
        toks += [key, value]
    return " ".join(toks)


@st.composite
def valid_edits(draw):
    """A shipped scenario after one to three edits that keep it inside
    the grammar's ranges, so that it reaches the engines: the flip or
    stab of a Delta-2 opponent whose mode reads them (not ``scripted``);
    a functional argument's first, delay or policy low:k; or the stage
    count, at most 400."""
    lines = list(SCENARIO_LINES[draw(st.sampled_from(sorted(
        SCENARIO_LINES)))])
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(("flip", "stab", "first", "delay",
                                      "policy", "stages")))
        if field == "stages":
            n = draw(st.integers(0, 400))
            lines = [ln for ln in lines if ln.split()[:1] != ["stages"]]
            lines.append(f"stages {n}")
            continue
        if field in ("flip", "stab"):
            at = 3
            where = [i for i, ln in enumerate(lines)
                     if ln.split()[:1] == ["adv"] and ln.split()[2] == "psi"
                     and "scripted" not in ln.split()]
        else:
            at = 2
            where = [i for i, ln in enumerate(lines)
                     if ln.split()[:1] == ["fun"]]
        if not where:
            continue
        value = draw({
            "flip": st.sampled_from(("0", "0.05", "0.3", "0.7", "1")),
            "stab": st.integers(0, 500).map(str),
            "first": st.integers(0, 400).map(str),
            "delay": st.integers(0, 30).map(str),
            "policy": st.integers(0, 50).map("low:{}".format),
        }[field])
        i = draw(st.sampled_from(where))
        lines[i] = set_field(lines[i], field, value, at)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    where = tmp_path_factory.mktemp("edited")
    return where / "s.txt", where / "s.trace"


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=valid_edits())
def test_valid_scenario_edits_run_and_write_as_reference(run_files, text):
    # a verdict and no traceback; a second run gives the same trace, and
    # the writer the reference text
    scenario, written = run_files
    scenario.write_text(text)
    out = io.StringIO()
    code = main(["run", "--scenario", str(scenario), "--trace",
                 str(written)], out)
    assert code in (0, 1), out.getvalue()
    trace = load_scenario(text).execute()[0]
    assert hashlib.sha256(written.read_bytes()).hexdigest() == \
        trace.digest() == sha256(oracle_to_text(trace))


# -- byte texts and the files verify-trace maps ------------------------


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    return tmp_path_factory.mktemp("sources") / "t.trace"


def header_and_entries(t):
    """The header, summary and stored stages of a trace."""
    return t.construction, t.stages, t.summary, entries(t)


def parsed_entries(text):
    """header_and_entries of what from_text makes of text, or the error
    text."""
    try:
        return header_and_entries(RunTrace.from_text(text))
    except ConfigError as ex:
        return f"error {ex}"


def verified_entries(path):
    """What verify-trace's one parse makes of the file at path, as
    parsed_entries gives it."""
    read = []
    real = RunTrace.from_text.__func__

    def recorded(cls, text):
        read.append(real(cls, text))
        return read[-1]
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RunTrace, "from_text", classmethod(recorded))
        code = main(["verify-trace", "--trace", str(path)], out)
    if not read:
        assert code == 2 and out.getvalue().count("\n") == 1
        return out.getvalue()[:-1]
    assert len(read) == 1
    return header_and_entries(read[0])


def assert_one_parser(text, path):
    # the text as bytes, and as the file verify-trace maps
    path.write_bytes(text.encode())
    assert verified_entries(path) == parsed_entries(text.encode())


@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=("lf", "crlf"))
@pytest.mark.parametrize("name", ("bench low2",) + NAMES)
def test_one_parser_for_every_source(name, ending, trace_file):
    text = bench_low2().to_text() if name == "bench low2" else \
        "\n".join(GOLDEN[name]) + "\n"
    assert_one_parser(text.replace("\n", ending), trace_file)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=golden_mutations())
def test_one_parser_for_every_source_on_mutated_goldens(text, trace_file):
    assert_one_parser(text, trace_file)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(text=edited_runs())
def test_one_parser_for_every_source_on_edited_runs(text, trace_file):
    assert_one_parser(text, trace_file)


@pytest.mark.parametrize("edit", LOW2_EDITS)
@pytest.mark.parametrize("which", (0, -1), ids=("first run", "last run"))
def test_one_parser_for_every_source_on_edited_low2(which, edit,
                                                    trace_file):
    assert_one_parser(edited_low2(which, edit), trace_file)


def verify(path):
    out = io.StringIO()
    return main(["verify-trace", "--trace", str(path)], out), out.getvalue()


def test_verify_trace_of_an_empty_file_exits_2(tmp_path):
    # a map of no bytes cannot be made, so the file is read whole
    path = tmp_path / "empty.trace"
    path.write_bytes(b"")
    assert verify(path) == (2, "error missing trace header\n")


def test_verify_trace_reads_a_pipe_as_a_file(tmp_path):
    # a pipe cannot be mapped, so it is read whole
    text = ("\n".join(GOLDEN["golden-nonlow-alpha"]) + "\n").encode()
    path = tmp_path / "t.trace"
    path.write_bytes(text)
    r, w = os.pipe()
    try:
        if not os.path.exists(f"/dev/fd/{r}"):
            pytest.skip("no /dev/fd")
        with os.fdopen(w, "wb") as fh:  # the golden fits a pipe's buffer
            fh.write(text)
        w = None
        assert verify(f"/dev/fd/{r}") == verify(path)
    finally:
        os.close(r)
        if w is not None:
            os.close(w)


def test_verify_trace_never_copies_the_text(tmp_path):
    # the file is parsed in place from a map, so at its peak verify-trace
    # holds a small part of the file's size: one copy of the text would
    # take all of it
    path = tmp_path / "low2.trace"
    path.write_text(scenario_trace(os.path.join(
        BENCH_SHAPES, "campaign-low2.txt"), 0).to_text())
    tracemalloc.start()
    try:
        code, out = verify(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, out
    assert peak < path.stat().st_size // 4


def with_bad_byte(text: str, where: str, ending: str, bad: bytes):
    """text with ending for its line breaks, as bytes, the last character
    of the line that where names made bad, and the offset of bad."""
    lines = text.splitlines()
    if where == "summary":
        i = len(lines) - 1
    else:  # a line in the middle of the first copied run
        eid, first, stop, payloads = runs(bench_low2())[0]
        i = 1 + eid + (stop - first) * len(payloads) // 2
        if where == "after a malformed line":
            lines[i - 1] = "x" + lines[i - 1]
    data = ending.join(lines).encode() + ending.encode()
    at = len(ending.join(lines[:i]).encode() + ending.encode()) + \
        len(lines[i]) - 1
    return data[:at] + bad + data[at + 1:], at


# a lead byte at a line's end is cut short by the line break, as in the
# whole text, not by the end of its line
@pytest.mark.parametrize("bad, reason", [
    (b"\xff", "invalid start byte"), (b"\xe2", "invalid continuation byte")])
@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=("lf", "crlf"))
@pytest.mark.parametrize("where", ["copied run", "summary"])
def test_bad_utf8_past_the_header_keeps_its_offset(where, ending, bad,
                                                   reason, tmp_path):
    path = tmp_path / "t.trace"
    data, at = with_bad_byte(bench_low2().to_text(), where, ending, bad)
    path.write_bytes(data)
    assert verify(path) == \
        (2, f"error cannot read {path}: not UTF-8 ({reason} at byte "
            f"{at})\n")


def test_faults_are_reported_in_file_order(tmp_path):
    # the malformed line comes before the bad byte, so it is the fault
    path = tmp_path / "t.trace"
    text = bench_low2().to_text()
    data, _ = with_bad_byte(text, "after a malformed line", "\n", b"\xff")
    path.write_bytes(data)
    code, out = verify(path)
    assert code == 2 and out.startswith("error line ") and \
        "malformed trace line" in out, out
