"""Stage-keyed facts as one entry per stage, and a trace's events as one
entry per event.

A tree replay keeps each stage's path and lengths as intervals of stages
(``EtaRhoReplay.stage_facts``), and a strategy tree keeps the path of
each walked stage (``StrategyTree.paths``), which holds up to the next
walk.  These helpers expand both into the per-stage maps the replays and
the tree once kept, so tests can state what they state of single stages.
A trace stores each stored stage once, as a ``[stage, payloads,
copies]`` entry of ``RunTrace.stored``, and a run of copied stages as
the entry's copies: the stage copied whole to each of that many stages
after it.  ``stage_of`` and ``runs`` give the stage of each event id and
the event ids, stages and payloads of each run, ``assert_whole_stages``
that each entry's stage is past the stages the entry before it covers,
and ``assert_quiet_runs`` that each run copies a quiet stage.
"""

from injurylab.trace import blocks


def stage_paths(replay) -> dict:
    """stage -> the longest node visited at it, for each stage with a
    visit."""
    return {s: path for first, stop, path, _ in replay.stage_facts
            if path is not None for s in range(first, stop)}


def stage_lengths(replay) -> dict:
    """(stage, node) -> the length recorded at node's visit in that
    stage."""
    return {(s, node): l for first, stop, _, lengths in replay.stage_facts
            for s in range(first, stop) for node, l in lengths.items()}


def tree_paths(tree, stages: int) -> list:
    """The path of each stage 0..stages-1, from the tree's records of its
    walked stages."""
    ends = [s for s, _ in tree.paths[1:]] + [stages]
    return [path for (s, path), end in zip(tree.paths, ends)
            for _ in range(s, end)]


def stage_of(trace) -> list:
    """The stage of each event, in event-id order, copies included."""
    return [t for s, _, block, copies in blocks(trace)
            for t in range(s, s + copies + 1) for _ in block]


def runs(trace) -> list:
    """The trace's recorded runs as (the event id of its first copied
    event, first, stop, payloads): stages first..stop-1 copy the stored
    stage first - 1, whose payloads are payloads."""
    return [(eid + len(block), s + 1, s + copies + 1, block)
            for s, eid, block, copies in blocks(trace) if copies]


def assert_whole_stages(trace):
    """No stored event shares a stage with a copy: each entry stores at
    least one event at a stage past the previous entry's stage and its
    copies."""
    last = -1  # the last stage the entries so far cover
    for s, payloads, copies in trace.stored:
        assert payloads and copies >= 0 and s > last
        last = s + copies


def assert_quiet_runs(trace):
    """Each run copies a stage of quiet payloads alone
    (``Payload.quiet``)."""
    for _, _, _, payloads in runs(trace):
        assert all(p.quiet for p in payloads)
