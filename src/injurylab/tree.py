"""Tree-of-strategies machinery: nodes, accessibility, initialization.

Nodes are tuples of outcomes, each outcome an int (smaller = further
left).  The tree holds structure only: which outcomes a level plays, and
how a node is named, belong to the hosting construction.  The engine
walks one path per stage, hands initialization to everything right of the
path, keeps each walked stage's path, and offers fair actor selection.
"""

from __future__ import annotations

INF = 0  # the "infinitary" outcome, left of FIN
FIN = 1

ROOT = ()


def left_of(a: tuple, b: tuple) -> bool:
    """True iff a branches off strictly left of b."""
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


def is_prefix(a: tuple, b: tuple) -> bool:
    return b[:len(a)] == a


def cantor_pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


class StrategyTree:
    """Node registry and per-stage path construction.  Outcome and
    initialization callbacks belong to the hosting construction."""

    def __init__(self):
        self.birth = {ROOT: 0}  # node -> creation order
        self.children = {ROOT: {}}  # node -> outcome -> child node
        self.paths = []  # (stage, path) per walk; holds up to the next walk
        self.selections = {}  # node -> times selected

    def register(self, node: tuple):
        """Add node, whose parent is registered, as its parent's child."""
        if node not in self.birth:
            self.birth[node] = len(self.birth)
            self.children[node] = {}
            if node:
                self.children.setdefault(node[:-1], {})[node[-1]] = node

    def run_stage(self, outcome_cb, s: int, length: int, init_cb,
                  visit_cb) -> tuple:
        """Build the stage-s path of the given length.

        ``outcome_cb(node, s)`` names the outcome the visited node plays,
        after ``visit_cb(node, s)`` saw it; the registered subtrees right
        of each new prefix are initialized via ``init_cb(node, s)``.
        """
        children = self.children
        node = ROOT
        visit_cb(node, s)
        for _ in range(length):
            o = outcome_cb(node, s)
            kids = children[node]
            child = kids.get(o)
            if child is None:
                child = node + (o,)
                self.register(child)
            if len(kids) > 1:
                for o2, sib in kids.items():
                    if o2 > o:
                        self._init_subtree(sib, s, init_cb)
            node = child
            visit_cb(node, s)
        self.paths.append((s, node))
        return node

    def _init_subtree(self, node: tuple, s: int, init_cb):
        stack = [node]
        while stack:
            cur = stack.pop()
            init_cb(cur, s)
            stack.extend(self.children.get(cur, {}).values())

    def initialize_at_or_right(self, node: tuple, s: int, init_cb):
        """Initialize every registered delta >= node and every delta >=_L node."""
        for other in list(self.birth):
            if left_of(node, other) or is_prefix(node, other):
                init_cb(other, s)

    def select_actor(self, theta):
        """Fair argmin of cantor_pair(birth, prior selections); None if empty."""
        best = None
        best_code = None
        for node in theta:
            code = cantor_pair(self.birth[node], self.selections.get(node, 0))
            if best_code is None or code < best_code:
                best, best_code = node, code
        if best is not None:
            self.selections[best] = self.selections.get(best, 0) + 1
        return best
