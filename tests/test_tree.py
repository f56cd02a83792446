"""Tests for the strategy-tree engine."""

import itertools

import pytest

from injurylab.tree import (
    FIN,
    INF,
    ROOT,
    StrategyTree,
    cantor_pair,
    is_prefix,
    left_of,
    render_node,
)


def left_of_oracle(a, b):
    """Common-prefix search written out longhand."""
    for i in range(min(len(a), len(b))):
        if a[:i] == b[:i] and a[i] != b[i]:
            return a[i] < b[i]
    return False


def two(level):
    return (INF, FIN)


def ignore(node, s):
    pass


def all_nodes(max_len, alphabet=(INF, FIN)):
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product(alphabet, repeat=n))
    return out


def test_left_of_examples():
    assert left_of((INF,), (FIN,))
    assert not left_of((FIN,), (FIN, INF))
    assert left_of((INF, FIN), (FIN, INF))


def test_left_of_matches_oracle_exhaustively():
    nodes = all_nodes(3)
    for a in nodes:
        for b in nodes:
            assert left_of(a, b) == left_of_oracle(a, b), (a, b)


def test_left_of_is_strict_partial_order():
    nodes = all_nodes(3)
    for a in nodes:
        assert not left_of(a, a)
        for b in nodes:
            if left_of(a, b):
                assert not left_of(b, a)
            for c in nodes:
                if left_of(a, b) and left_of(b, c):
                    assert left_of(a, c)


def test_run_stage_zero_is_root():
    tree = StrategyTree(two)
    inits = []
    node = tree.run_stage(lambda n, s: FIN, 0, 0,
                          lambda n, s: inits.append(n), ignore)
    assert node == ROOT
    assert inits == []
    assert tree.paths == [ROOT]


def test_run_stage_constant_fin():
    tree = StrategyTree(two)
    inits = []
    for s in range(4):
        tree.run_stage(lambda n, s: FIN, s, s,
                       lambda n, s: inits.append(n), ignore)
    assert tree.paths[3] == (FIN, FIN, FIN)
    assert [len(p) for p in tree.paths] == [0, 1, 2, 3]
    # nothing sits left of an all-FIN path, so nothing was initialized
    assert all(not left_of(n, (FIN, FIN, FIN)) for n in inits)


def test_flip_to_left_initializes_right_subtree():
    tree = StrategyTree(two)
    inits = []

    def outcome(node, s):
        if node == ROOT:
            return INF if s >= 3 else FIN
        return FIN

    for s in range(4):
        tree.run_stage(outcome, s, s, lambda n, s: inits.append((s, n)),
                       ignore)
    assert tree.paths[3][:1] == (INF,)
    initialized = {n for s, n in inits if s == 3}
    assert (FIN,) in initialized and (FIN, FIN) in initialized
    assert (INF,) not in initialized


def test_no_node_left_of_path_initialized():
    tree = StrategyTree(two)
    inits = []

    def outcome(node, s):
        return INF if (s + len(node)) % 3 == 0 else FIN

    for s in range(30):
        path = tree.run_stage(outcome, s, s,
                              lambda n, t: inits.append((t, n)), ignore)
        for t, n in inits:
            if t == s:
                assert not left_of(n, path) and not is_prefix(n, path)


def test_outcome_outside_alphabet_aborts():
    tree = StrategyTree(two)
    with pytest.raises(ValueError):
        tree.run_stage(lambda n, s: 5, 2, 2, ignore, ignore)


def test_select_actor_basics():
    tree = StrategyTree(two)
    assert tree.select_actor([]) is None
    a = (INF,)
    tree.register(a)
    assert tree.select_actor([a]) == a


def test_select_actor_pairing_favors_unserved():
    tree = StrategyTree(two)
    a, b = (INF,), (FIN,)
    tree.register(a)
    tree.register(b)
    assert tree.select_actor([a, b]) == a  # equal counts: lower birth wins
    assert tree.select_actor([a, b]) == b  # now pair-code(b,0) < pair-code(a,1)
    assert cantor_pair(tree.birth[b], 0) < cantor_pair(tree.birth[a], 1)


def test_select_actor_fairness_over_long_run():
    tree = StrategyTree(two)
    nodes = [(o,) for o in (INF, FIN)] + [(INF, o) for o in (INF, FIN)]
    for n in nodes:
        tree.register(n)
    picked = [tree.select_actor(nodes) for _ in range(200)]
    for n in nodes:
        assert picked.count(n) >= 1


def test_run_is_deterministic():
    def run():
        tree = StrategyTree(two)
        def outcome(n, s):
            return INF if (s * 7 + len(n)) % 4 == 0 else FIN

        for s in range(50):
            tree.run_stage(outcome, s, s, ignore, ignore)
        return tree.paths

    assert run() == run()


def test_initialize_at_or_right_scope():
    tree = StrategyTree(two)
    for node in all_nodes(2):
        tree.register(node)
    hit = []
    tree.initialize_at_or_right((FIN,), 5, lambda n, s: hit.append(n))
    assert (FIN,) in hit and (FIN, INF) in hit and (FIN, FIN) in hit
    assert (INF,) not in hit and (INF, FIN) not in hit and ROOT not in hit


def test_render_node():
    two = lambda level: (INF, FIN)
    assert render_node((INF, FIN), two) == "if"
    assert render_node(ROOT, two) == "-"
    mixed = lambda level: (0,) if level % 3 == 2 else (INF, FIN)
    assert render_node((INF, FIN, 0), mixed) == "ifq"
