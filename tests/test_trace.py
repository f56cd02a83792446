"""The trace layer: payloads interned per trace and read-only, events
kept as two columns with no object of their own, the text round trip,
and the parser against the per-line parser it replaced."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from injurylab.cli import digest
from injurylab.scenario import load_scenario
from injurylab.trace import EVENT_KINDS, ConfigError, Payload, RunTrace

from test_acceptance import _low2_seed
from test_harness import (GOLDEN, LOW2_TEXT, LOWA_TEXT, NALPHA_TEXT,
                          mutated_goldens)


def oracle_from_text(text: str) -> RunTrace:
    """The parser that split every line and built a fresh payload dict
    for every event, shared with no other: the reference the interning
    parser must match."""
    trace = None
    last_stage = 0
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
        if eid != len(trace.events):
            raise ConfigError(f"line {lineno}: event id {eid} out of "
                              f"sequence, expected {len(trace.events)}")
        if stage < last_stage:
            raise ConfigError(f"line {lineno}: stage {stage} after "
                              f"stage {last_stage}")
        last_stage = stage
        trace.events.append(payload)
        trace.stage_of.append(stage)
    if trace is None:
        raise ConfigError("missing trace header")
    return trace


def oracle_to_text(trace: RunTrace) -> str:
    """The text form rendered token by token from each event's payload."""
    lines = [f"trace {trace.construction} stages={trace.stages}"]
    for eid, (stage, p) in enumerate(zip(trace.stage_of, trace.events)):
        lines.append(" ".join([str(eid), str(stage), p.kind]
                              + [f"{k}={v}" for k, v in p.items()]))
    lines += [f"summary {k} {v}" for k, v in sorted(trace.summary.items())]
    return "\n".join(lines) + "\n"


def contents(t):
    """The header, summary and events of a trace, payload key order
    included."""
    return (t.construction, t.stages, t.summary,
            [(eid, stage, p.kind, list(p.items()))
             for eid, (stage, p) in enumerate(zip(t.stage_of, t.events))])


def parsed(parse, text):
    """The contents of what parse makes of text, or the error text."""
    try:
        return contents(parse(text))
    except ConfigError as ex:
        return f"error {ex}"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(text=mutated_goldens())
def test_parser_matches_the_reference(text):
    # no mutation moves a stage past the header's count, the one rule the
    # reference lacks
    expected = parsed(oracle_from_text, text)
    assert parsed(RunTrace.from_text, text) == expected
    if not isinstance(expected, str):
        assert RunTrace.from_text(text).to_text() == \
            oracle_to_text(oracle_from_text(text))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(scenario=st.sampled_from((LOW2_TEXT, LOWA_TEXT, NALPHA_TEXT)),
       seed=st.integers(0, 10**6), stages=st.integers(0, 60))
def test_engine_traces_round_trip(scenario, seed, stages):
    trace, _ = load_scenario(scenario).execute(seed=seed, stages=stages)
    text = trace.to_text()
    back = RunTrace.from_text(text)
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
    ids = {id(p) for p in trace.events}
    assert len(ids) == len({(p.kind, tuple(p.items()))
                            for p in trace.events})
    return ids


@pytest.mark.parametrize("make", [
    lambda: RunTrace.from_text("\n".join(GOLDEN["golden-nonlow-alpha"])),
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
    assert [p.tail for p in tr.events] == [
        f"visit node=- x={v}" for v in ("1", "1", "True", "1.0", "0.0",
                                        "-0.0")]
    assert tr.events[0] is tr.events[1]
    assert len(shared_payloads(tr)) == 5


def test_emit_rejects_an_unknown_kind():
    tr = RunTrace("nonlow-low2", 1)
    with pytest.raises(ValueError, match="unknown event kind 'bogus'"):
        tr.emit(0, "bogus", node="-")
    assert tr.events == tr.stage_of == []


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
    # payloads; parsing or emitting it may keep one tracked object per
    # distinct payload, never one per event.  The slack covers the trace's
    # own lists and dicts and interpreter objects made or freed meanwhile.
    text = _low2_seed(0)[0].to_text()
    trace, grown = tracked_growth(lambda: RunTrace.from_text(text))
    distinct = len({id(p) for p in trace.events})
    assert len(trace.events) > 60_000 and distinct < 200
    assert grown <= distinct + 50

    def emit_all():
        copy = RunTrace(trace.construction, trace.stages)
        for s, p in zip(trace.stage_of, trace.events):
            copy.emit(s, p.kind, **p)
        copy.finalize(trace.summary)
        return copy
    copy, grown = tracked_growth(emit_all)
    assert copy.to_text() == text
    assert grown <= distinct + 50
