"""The quota helpers of the level pattern against their definition.

``Levels.in_quota``, ``quota_for`` and ``edge_layer`` serve the engine and
the verifier alike, so a fault in them moves both sides and no check of a
trace can see it.  The oracle here is written from the definition:
quota(x) holds (rho, k) for every rho node shorter than x and every
1 <= k < x, and the edge layer of rho counts the nodes on the longest
interval from rho-infinity up to a node of quota(x).
"""

import pytest

from injurylab.etarho import Levels
from injurylab.tree import FIN, INF


def tree_nodes(period, depth):
    """Every node of the period's tree up to depth; in the period-3 tree a
    xi node (length 2 mod 3) has the single outcome INF."""
    nodes, level = [()], [()]
    for n in range(depth):
        outcomes = (INF,) if period == 3 and n % 3 == 2 else (INF, FIN)
        level = [node + (o,) for node in level for o in outcomes]
        nodes += level
    return nodes


def quota(period, x, nodes):
    """quota(x) over nodes: (rho, k) for each rho node (length 1 modulo the
    period) shorter than x and each 1 <= k < x."""
    return {(rho, k) for rho in nodes
            if len(rho) % period == 1 and len(rho) < x for k in range(1, x)}


def layer(rho, pairs):
    """Nodes on the longest interval from rho-infinity up to a quota node:
    rho-infinity, the quota node and every node between; 0 for none."""
    return max((len(cand) - len(rho) for cand, _ in pairs
                if cand[:len(rho) + 1] == rho + (INF,)), default=0)


@pytest.mark.parametrize("period", [2, 3])
def test_quota_helpers_match_the_definition(period):
    levels = Levels(period)
    nodes = tree_nodes(period, 6)
    assert len(nodes) == (127 if period == 2 else 51)
    # edge_layer picks the quota nodes out of any universe of rho nodes
    universe = [rho for rho in nodes if len(rho) % period == 1]
    for x in range(9):
        pairs = quota(period, x, nodes)
        for node in nodes:
            ks = [k for rho, k in pairs if rho == node]
            assert levels.in_quota(node, x) == bool(ks)
            assert levels.quota_for(node, x) == max(ks, default=0)
            if ks:
                assert levels.edge_layer(node, x, universe) == \
                    layer(node, pairs)
            else:
                with pytest.raises(ValueError):
                    levels.edge_layer(node, x, universe)
