"""One replay per verdict: the command builds each trace's replay once and
every consumer reads it, with the same verdicts as a fresh replay.  The
replay is also the one reader of the events: it reads each stored event
once and derives the terminal summary that the self-consistency check
compares."""

import collections
import glob
import io
import itertools
import os
from operator import itemgetter

import pytest

from injurylab import cli, low_alpha, nonlow_alpha, nonlow_low2
from injurylab.cli import (checks_for, main, reduce_summary, replay_of,
                           report_lines, worst_ratio)
from injurylab.constructions import CONSTRUCTIONS
from injurylab.scenario import ScenarioError, load_scenario
from injurylab.trace import ConfigError, RunTrace, payload_error

from stage_maps import runs, stage_of
from test_golden import FIX, NAMES, SCEN, run_golden

SHIPPED = {"nonlow-low2": "nonlow-low2-random.txt",
           "low-alpha": "low-alpha-two-watchers.txt",
           "nonlow-alpha": "nonlow-alpha-mixed.txt"}


def count_builds(monkeypatch, construction):
    """List that grows by one trace per replay built for construction."""
    cls = CONSTRUCTIONS[construction].replay
    built = []
    init = cls.__init__

    def counting(self, trace):
        built.append(trace)
        init(self, trace)
    monkeypatch.setattr(cls, "__init__", counting)
    return built


def run_cli(argv):
    out = io.StringIO()
    return main(argv, out), out.getvalue()


@pytest.mark.parametrize("construction", sorted(SHIPPED))
def test_campaign_builds_one_replay_per_seed(monkeypatch, construction):
    built = count_builds(monkeypatch, construction)
    code, text = run_cli(["campaign", "--scenario",
                          os.path.join(SCEN, SHIPPED[construction]),
                          "--seeds", "2", "--stages", "40"])
    assert code == 0, text
    assert len(built) == 2


@pytest.mark.parametrize("construction", sorted(SHIPPED))
def test_run_builds_one_replay(monkeypatch, construction):
    built = count_builds(monkeypatch, construction)
    code, text = run_cli(["run", "--scenario",
                          os.path.join(SCEN, SHIPPED[construction])])
    assert code == 0, text
    assert len(built) == 1


@pytest.mark.parametrize("name", NAMES)
def test_verify_trace_builds_one_replay(monkeypatch, name):
    construction = name[len("golden-"):]
    built = count_builds(monkeypatch, construction)
    code, text = run_cli(["verify-trace", "--trace",
                          os.path.join(FIX, name + ".trace")])
    assert code == 0, text
    assert len(built) == 1


def verdicts(checks):
    return [(c.name, c.passed, c.witness, c.detail, c.line())
            for c in checks]


@pytest.mark.parametrize("name", NAMES)
def test_prebuilt_replay_gives_identical_checks(name):
    _, trace, psis = run_golden(name)
    replay = CONSTRUCTIONS[trace.construction].replay(trace)
    again = replay_of(trace)
    if trace.construction == "nonlow-low2":
        fresh = nonlow_low2.verify_main_lemma_claims(psis, again)
        shared = nonlow_low2.verify_main_lemma_claims(psis, replay)
    elif trace.construction == "low-alpha":
        fresh = low_alpha.verify_lowness_budget(again)
        shared = low_alpha.verify_lowness_budget(replay)
    else:
        fresh = nonlow_alpha.verify_combined_bounds(again)
        shared = nonlow_alpha.verify_combined_bounds(replay)
        assert nonlow_alpha.bound_table(replay) == \
            nonlow_alpha.bound_table(again)
    assert verdicts(shared) == verdicts(fresh)
    assert [c.name for c in fresh] == \
        list(CONSTRUCTIONS[trace.construction].checks)


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS) + ["frobnicate"])
def test_registry_names_are_the_accepted_constructions(name):
    try:
        load_scenario(f"construction {name}\nalpha w^2\n")
        accepted = True
    except ScenarioError:
        accepted = False
    assert accepted == (name in CONSTRUCTIONS)


class CountingList(list):
    """A list that counts the reads of each of its items, made by a pass
    over it, a slice or an index."""

    def __init__(self, items=()):
        super().__init__(items)
        self.reads = collections.Counter()

    def __iter__(self):
        self.reads.update(range(len(self)))
        return super().__iter__()

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.reads.update(range(*i.indices(len(self))))
        else:
            self.reads[range(len(self))[i]] += 1
        return super().__getitem__(i)


def count_reads(trace):
    """Wrap the payloads of each stored stage in a CountingList."""
    for entry in trace.stored:
        entry[1] = CountingList(entry[1])


def read_once(trace) -> bool:
    """Whether the stored events, counted since count_reads, were read as
    a replay reads them: every stored event exactly once, a copied stage
    with the run that copies it."""
    return all(ps.reads == dict.fromkeys(range(len(ps)), 1)
               for _, ps, _ in trace.stored)


@pytest.mark.parametrize("name", NAMES)
def test_replay_is_the_only_pass_over_the_events(name):
    # the replay reads each stored event once; the checks, worst_ratio and
    # the report lines read only what it derived
    sc, trace, psis = run_golden(name)
    count_reads(trace)
    replay = replay_of(trace)
    assert read_once(trace)
    checks = checks_for(trace, replay, psis)
    worst_ratio(trace, replay)
    report_lines(trace, checks, replay)
    assert read_once(trace)


def count_passes(monkeypatch):
    """List that grows by each trace the command builds a replay for, its
    stored events kept in a CountingList from then on: the engine that
    wrote them and the parser that read them are done."""
    made = []
    build = cli.replay_of

    def counting(trace):
        count_reads(trace)
        made.append(trace)
        return build(trace)
    monkeypatch.setattr(cli, "replay_of", counting)
    return made


@pytest.mark.parametrize("name", NAMES)
def test_verify_trace_reads_the_events_once(monkeypatch, name):
    made = count_passes(monkeypatch)
    code, text = run_cli(["verify-trace", "--trace",
                          os.path.join(FIX, name + ".trace")])
    assert code == 0, text
    assert [read_once(t) for t in made] == [True]


@pytest.mark.parametrize("construction", sorted(SHIPPED))
def test_run_reads_the_events_once(monkeypatch, construction):
    made = count_passes(monkeypatch)
    code, text = run_cli(["run", "--scenario",
                          os.path.join(SCEN, SHIPPED[construction])])
    assert code == 0, text
    assert [read_once(t) for t in made] == [True]


@pytest.mark.parametrize("construction", sorted(SHIPPED))
def test_campaign_digest_reads_no_copied_event(monkeypatch, construction):
    # the replay and the checks, and then the digest, which renders a
    # copied stage with its run, each read every stored event once
    made = count_passes(monkeypatch)
    read = []  # whether each seed's digest read every stored event once
    real = cli.digest

    def counting(trace):
        assert read_once(trace)
        count_reads(trace)
        out = real(trace)
        read.append(read_once(trace))
        return out
    monkeypatch.setattr(cli, "digest", counting)
    code, text = run_cli(["campaign", "--scenario",
                          os.path.join(SCEN, SHIPPED[construction]),
                          "--seeds", "2", "--stages", "60"])
    assert code == 0, text
    assert len(made) == len(read) == 2
    for trace in made:
        assert runs(trace), "the seed copies no run"
    assert read == [True, True]


SHAPES = sorted(glob.glob(os.path.join(SCEN, os.pardir, "bench",
                                       "scenarios", "*.txt")))


@pytest.mark.parametrize("path", [os.path.join(SCEN, name + ".txt")
                                  for name in NAMES] + SHAPES,
                         ids=os.path.basename)
def test_no_command_expands_a_trace(monkeypatch, tmp_path, path):
    # RunTrace.events lists every copied event; run, campaign and
    # verify-trace read a trace only as stored events and recorded runs
    def refuse(trace):
        raise AssertionError("a trace was expanded")
    monkeypatch.setattr(RunTrace, "events", property(refuse))
    stages = [] if path not in SHAPES else ["--stages", "2000"]
    written = str(tmp_path / "run.trace")
    for argv in (["run", "--scenario", path, "--trace", written] + stages,
                 ["campaign", "--scenario", path, "--seeds", "2"] + stages,
                 ["verify-trace", "--trace", written]):
        code, text = run_cli(argv)
        assert code == 0, text


# -- the replay-derived summary against the stateless reducer ----------


def oracle_summary(trace: RunTrace) -> dict:
    """The terminal summary recomputed by a loop of its own over the
    events: the reducer that verify-trace and run once called beside the
    replay."""
    A = []
    follower = {}
    use = {}
    try:
        for eid, p in enumerate(trace.events):
            if p.kind == "enumerate":
                A.append(int(p["element"]))
                use.pop(p["node"], None)
            elif p.kind == "declare":
                node = p["node"]
                if p.get("what") == "follower":
                    follower[node] = p["y"]
                else:
                    use[node] = p["u"]
            elif p.kind == "init":
                follower.pop(p["node"], None)
                use.pop(p["node"], None)
    except (KeyError, ValueError) as ex:
        raise payload_error(eid, p.kind, ex) from None
    out = {"A": ",".join(str(x) for x in sorted(A)) or "-"}
    for node in sorted(follower):
        state = follower[node]
        if node in use:
            state += ":" + use[node]
        out[f"node.{node}"] = state
    return out


def summary_or_error(derive, trace):
    try:
        return derive(trace)
    except ConfigError as ex:
        return f"error {ex}"


def assert_replay_matches_oracle(trace):
    expected = summary_or_error(oracle_summary, trace)
    got = summary_or_error(lambda t: reduce_summary(replay_of(t)), trace)
    assert got == expected


def golden(name, edit=None):
    """The parsed golden trace; edit(lines) may change its text first."""
    with open(os.path.join(FIX, name + ".trace")) as fh:
        lines = fh.read().splitlines()
    if edit is not None:
        edit(lines)
    return RunTrace.from_text(("\n".join(lines) + "\n").encode())


@pytest.mark.parametrize("name", NAMES)
def test_replay_summary_matches_oracle_with_a_line_dropped(name):
    trace = golden(name)
    assert reduce_summary(replay_of(trace)) == oracle_summary(trace) \
        == trace.summary
    # every event stored, with no recorded run, so that any one can go
    events = list(zip(stage_of(trace), trace.events))
    dropped = 0
    for i, (_, p) in enumerate(events):
        if p.kind in ("enumerate", "declare", "init"):
            kept = events[:i] + events[i + 1:]
            trace.stored = [[s, [q for _, q in group], 0] for s, group in
                            itertools.groupby(kept, key=itemgetter(0))]
            assert_replay_matches_oracle(trace)
            dropped += 1
    assert dropped


def test_replay_summary_keeps_the_follower_text():
    # line 93 of the low2 golden declares the live follower y=20
    def edit(lines):
        assert lines[92].endswith("declare node=f what=follower y=20")
        lines[92] = lines[92].replace("y=20", "y=020")
    trace = golden("golden-nonlow-low2", edit)
    assert oracle_summary(trace)["node.f"] == "020:22"
    assert_replay_matches_oracle(trace)


@pytest.mark.parametrize("name", ["golden-nonlow-low2",
                                  "golden-nonlow-alpha"])
def test_replay_summary_wants_the_use_of_a_fin_declare(name):
    def edit(lines):
        i = next(i for i, ln in enumerate(lines) if ln.endswith(" act=fin"))
        lines[i] = " ".join(t for t in lines[i].split()
                            if not t.startswith("u="))
    trace = golden(name, edit)
    with pytest.raises(ConfigError, match="without payload key 'u'"):
        oracle_summary(trace)
    assert_replay_matches_oracle(trace)
