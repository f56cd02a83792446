"""Stage-keyed facts as one entry per stage, and a trace's events as one
entry per event.

A tree replay keeps each stage's path and lengths as intervals of stages
(``EtaRhoReplay.stage_facts``), and a strategy tree keeps the path of
each walked stage (``StrategyTree.paths``), which holds up to the next
walk.  These helpers expand both into the per-stage maps the replays and
the tree once kept, so tests can state what they state of single stages.
A trace stores each event once and a run of copied stages as its record
(``RunTrace.repeats``); ``stage_of`` and ``runs`` give the stage of each
event id and the event id of each run, as the trace's columns once held
them.
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
    return [t for s, _, block, copies in blocks(trace, lambda p: True)
            for t in range(s, s + copies + 1) for _ in block]


def runs(trace) -> list:
    """The trace's recorded runs as (the event id of its first copied
    event, first, stop, start, end), start..end being its template's span
    in the stored columns."""
    out, copied = [], 0
    for pos, first, stop, start, end in trace.repeats:
        out.append((pos + copied, first, stop, start, end))
        copied += (stop - first) * (end - start)
    return out
