"""Tests for the strategy-tree engine."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from injurylab.tree import (
    FIN,
    INF,
    ROOT,
    StrategyTree,
    cantor_pair,
    is_prefix,
    left_of,
)
from injurylab.etarho import Levels

from stage_maps import tree_paths


def left_of_oracle(a, b):
    """Common-prefix search written out longhand."""
    for i in range(min(len(a), len(b))):
        if a[:i] == b[:i] and a[i] != b[i]:
            return a[i] < b[i]
    return False


def ignore(node, s):
    pass


def all_nodes(max_len):
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product((INF, FIN), repeat=n))
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
    tree = StrategyTree()
    inits = []
    node = tree.run_stage(lambda n, s: FIN, 0, 0,
                          lambda n, s: inits.append(n), ignore)
    assert node == ROOT
    assert inits == []
    assert tree_paths(tree, 1) == [ROOT]


def test_run_stage_constant_fin():
    tree = StrategyTree()
    inits = []
    for s in range(4):
        tree.run_stage(lambda n, s: FIN, s, s,
                       lambda n, s: inits.append(n), ignore)
    assert tree_paths(tree, 4)[3] == (FIN, FIN, FIN)
    assert [len(p) for p in tree_paths(tree, 4)] == [0, 1, 2, 3]
    # nothing sits left of an all-FIN path, so nothing was initialized
    assert all(not left_of(n, (FIN, FIN, FIN)) for n in inits)


def test_flip_to_left_initializes_right_subtree():
    tree = StrategyTree()
    inits = []

    def outcome(node, s):
        if node == ROOT:
            return INF if s >= 3 else FIN
        return FIN

    for s in range(4):
        tree.run_stage(outcome, s, s, lambda n, s: inits.append((s, n)),
                       ignore)
    assert tree_paths(tree, 4)[3][:1] == (INF,)
    initialized = {n for s, n in inits if s == 3}
    assert (FIN,) in initialized and (FIN, FIN) in initialized
    assert (INF,) not in initialized


def test_no_node_left_of_path_initialized():
    tree = StrategyTree()
    inits = []

    def outcome(node, s):
        return INF if (s + len(node)) % 3 == 0 else FIN

    for s in range(30):
        path = tree.run_stage(outcome, s, s,
                              lambda n, t: inits.append((t, n)), ignore)
        for t, n in inits:
            if t == s:
                assert not left_of(n, path) and not is_prefix(n, path)


def test_select_actor_basics():
    tree = StrategyTree()
    assert tree.select_actor([]) is None
    a = (INF,)
    tree.register(a)
    assert tree.select_actor([a]) == a


def test_select_actor_pairing_favors_unserved():
    tree = StrategyTree()
    a, b = (INF,), (FIN,)
    tree.register(a)
    tree.register(b)
    assert tree.select_actor([a, b]) == a  # equal counts: lower birth wins
    assert tree.select_actor([a, b]) == b  # now pair-code(b,0) < pair-code(a,1)
    assert cantor_pair(tree.birth[b], 0) < cantor_pair(tree.birth[a], 1)


def test_select_actor_fairness_over_long_run():
    tree = StrategyTree()
    nodes = [(o,) for o in (INF, FIN)] + [(INF, o) for o in (INF, FIN)]
    for n in nodes:
        tree.register(n)
    picked = [tree.select_actor(nodes) for _ in range(200)]
    for n in nodes:
        assert picked.count(n) >= 1


def test_run_is_deterministic():
    def run():
        tree = StrategyTree()
        def outcome(n, s):
            return INF if (s * 7 + len(n)) % 4 == 0 else FIN

        for s in range(50):
            tree.run_stage(outcome, s, s, ignore, ignore)
        return tree.paths

    assert run() == run()


def test_initialize_at_or_right_scope():
    tree = StrategyTree()
    for node in all_nodes(2):
        tree.register(node)
    hit = []
    tree.initialize_at_or_right((FIN,), 5, lambda n, s: hit.append(n))
    assert (FIN,) in hit and (FIN, INF) in hit and (FIN, FIN) in hit
    assert (INF,) not in hit and (INF, FIN) not in hit and ROOT not in hit


def old_render_node(node, alphabet_fn):
    """How node names were once rendered from per-level alphabets: q at
    a level with a single outcome, else i for INF and f for FIN."""
    out = []
    for level, o in enumerate(node):
        if len(alphabet_fn(level)) == 1:
            out.append("q")
        else:
            out.append("i" if o == INF else "f")
    return "".join(out) or "-"


@pytest.mark.parametrize("period", (2, 3))
def test_node_names_round_trip(period):
    """Every node up to length 6 whose xi levels play INF keeps its old
    name and parses back; misspelt names raise."""
    levels = Levels(period)

    def alphabet(level):
        return (INF,) if level % period == 2 else (INF, FIN)

    for node in all_nodes(6):
        if any(o != INF for i, o in enumerate(node) if i % period == 2):
            continue
        name = levels.render(node)
        assert name == old_render_node(node, alphabet)
        assert levels.parse(name) == node
    bad = ["", "x", "-f", "i-", "I", "ifx"] \
        + (["iq"] if period == 2 else ["iff", "ifi"])
    for text in bad:
        with pytest.raises(ValueError, match="is not a node name"):
            levels.parse(text)


# -- the walk against its longhand form --------------------------------


def oracle_run_stage(tree, outcome_cb, s, length, init_cb, visit_cb):
    """The walk written out longhand: register the node at every level,
    and scan the siblings of every new prefix."""
    node = ROOT
    tree.register(node)
    visit_cb(node, s)
    for _ in range(length):
        o = outcome_cb(node, s)
        node = node + (o,)
        tree.register(node)
        for o2, sib in tree.children.get(node[:-1], {}).items():
            if o2 > o:
                tree._init_subtree(sib, s, init_cb)
        visit_cb(node, s)
    tree.paths.append((s, node))
    return node


def walk(run_stage, period, registered, stages):
    """Run the stages on a fresh tree and log every callback in order.

    Level kinds cycle with period; a level of kind 2 has the single
    outcome INF.  Each stage lists one choice per level, 0 to 3, taken
    modulo the number of the level's outcomes.
    """
    tree = StrategyTree()
    for node in registered:  # each after its prefixes, as a walk does
        for i in range(1, len(node) + 1):
            tree.register(node[:i])
    log = []

    def outcome(node, s):
        c = stages[s][len(node)]
        outcomes = (INF,) if len(node) % period == 2 else (INF, FIN)
        log.append(("outcome", node, s))
        return outcomes[c % len(outcomes)]

    def init(node, s):
        log.append(("init", node, s))

    def visit(node, s):
        log.append(("visit", node, s))

    ends = [run_stage(tree, outcome, s, len(choices), init, visit)
            for s, choices in enumerate(stages)]
    children = [(n, list(kids.items())) for n, kids in tree.children.items()]
    return ends, log, list(tree.birth.items()), children, tree.paths


node_lists = st.lists(st.lists(st.sampled_from((INF, FIN)), max_size=5)
                      .map(tuple), max_size=8)
stage_lists = st.lists(st.lists(st.integers(0, 3), max_size=6), max_size=12)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(period=st.sampled_from((2, 3)), registered=node_lists,
       stages=stage_lists)
def test_run_stage_matches_longhand_walk(period, registered, stages):
    """Same paths, the same callbacks in the same order, and the same
    birth, children and paths, on pre-registered subtrees too."""
    assert walk(StrategyTree.run_stage, period, registered, stages) \
        == walk(oracle_run_stage, period, registered, stages)
