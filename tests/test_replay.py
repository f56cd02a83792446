"""One replay per verdict: the command builds each trace's replay once and
every consumer reads it, with the same verdicts as a fresh replay."""

import io
import os

import pytest

from injurylab import low_alpha, nonlow_alpha, nonlow_low2
from injurylab.cli import (build_parser, checks_for, main, replay_of,
                           report_lines, worst_ratio)
from injurylab.constructions import CONSTRUCTIONS
from injurylab.scenario import ScenarioError, load_scenario

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
    if trace.construction == "nonlow-low2":
        fresh = nonlow_low2.verify_main_lemma_claims(trace, psis)
        shared = nonlow_low2.verify_main_lemma_claims(trace, psis,
                                                      replay=replay)
    elif trace.construction == "low-alpha":
        fresh = low_alpha.verify_lowness_budget(trace)
        shared = low_alpha.verify_lowness_budget(trace, replay=replay)
    else:
        fresh = nonlow_alpha.verify_combined_bounds(trace)
        shared = nonlow_alpha.verify_combined_bounds(trace, replay=replay)
        assert nonlow_alpha.bound_table(trace, replay=replay) \
            == nonlow_alpha.bound_table(trace)
    assert verdicts(shared) == verdicts(fresh)
    assert [c.name for c in fresh] == \
        list(CONSTRUCTIONS[trace.construction].checks)


def run_choices():
    """The names `run --construction` accepts."""
    verbs = next(a for a in build_parser()._actions if a.dest == "verb")
    return next(a for a in verbs.choices["run"]._actions
                if a.dest == "construction").choices


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS) + ["frobnicate"])
def test_registry_names_are_the_accepted_constructions(name):
    assert sorted(run_choices()) == sorted(CONSTRUCTIONS)
    try:
        load_scenario(f"construction {name}\nalpha w^2\n")
        accepted = True
    except ScenarioError:
        accepted = False
    assert accepted == (name in run_choices()) == (name in CONSTRUCTIONS)


class CountingList(list):
    """A list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("name", NAMES)
def test_replay_is_the_only_pass_over_the_events(name):
    # the replay reads each event once; the checks, worst_ratio and the
    # report lines read only what it derived
    sc, trace, psis = run_golden(name)
    trace.events = CountingList(trace.events)
    replay = replay_of(trace)
    checks = checks_for(trace, replay, sc, psis)
    worst_ratio(trace, replay)
    report_lines(trace, checks, replay)
    assert trace.events.passes == 1
