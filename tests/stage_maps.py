"""Stage-keyed facts as one entry per stage, and a trace's events as one
entry per event.

A tree replay keeps each stage's path and lengths as intervals of stages
(``EtaRhoReplay.stage_facts``), and a strategy tree keeps the path of
each walked stage (``StrategyTree.paths``), which holds up to the next
walk.  These helpers expand both into the per-stage maps the replays and
the tree once kept, so tests can state what they state of single stages.
A trace stores each event once and a run of copied stages as its record
(``RunTrace.repeats``), which copies the last stored stage whole;
``stage_of`` and ``runs`` give the stage of each event id and the event
ids and stages of each run, ``assert_whole_stages`` that no stored event
shares a stage with a copy, and ``assert_quiet_runs`` that each run
copies a quiet stage.
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
    event, first, stop, start, end): stages first..stop-1 copy the stored
    stage first - 1, whose events are start..end-1 in the stored
    columns."""
    out, copied, stages = [], 0, trace.stored_stage
    for end, stop in trace.repeats.items():
        first = stages[end - 1] + 1
        start = stages.index(first - 1)
        out.append((end + copied, first, stop, start, end))
        copied += (stop - first) * (end - start)
    return out


def assert_whole_stages(trace):
    """No stored event shares a stage with a copy: each run copies a
    stored stage at least once, and the next stored event comes after
    its last copy."""
    stages = trace.stored_stage
    for end, stop in trace.repeats.items():
        assert 0 < end and stages[end - 1] + 1 < stop
        assert end == len(stages) or stages[end] >= stop


def assert_quiet_runs(trace):
    """Each run copies a stage of quiet payloads alone
    (``Payload.quiet``)."""
    for _, _, _, start, end in runs(trace):
        assert all(p.quiet for p in trace.stored[start:end])
