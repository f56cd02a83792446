"""Stage-keyed facts as one entry per stage.

A tree replay keeps each stage's path and lengths as intervals of stages
(``EtaRhoReplay.stage_facts``), and a strategy tree keeps the path of
each walked stage (``StrategyTree.paths``), which holds up to the next
walk.  These helpers expand both into the per-stage maps the replays and
the tree once kept, so tests can state what they state of single stages.
"""


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
