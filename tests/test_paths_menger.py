"""Differential test of the disjoint-path kernel against networkx.

Menger's theorem: the most internally disjoint x-y paths of length >= 2
with internals in U is the local node connectivity of x and y in
G[U + {x, y}] with the edge xy deleted.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from networkx.algorithms.connectivity import local_node_connectivity  # noqa: E402

from trisurf.hypergraph import Graph, canon_pair  # noqa: E402
from trisurf.paths import disjoint_paths, max_disjoint_paths  # noqa: E402


@st.composite
def instances(draw):
    n = draw(st.integers(3, 14))
    density = draw(st.sampled_from((0.15, 0.3, 0.5, 0.7, 0.9, 1.0)))
    rnd = draw(st.randoms(use_true_random=False))
    x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    edges = {e for e in itertools.combinations(range(n), 2) if rnd.random() < density}
    if draw(st.booleans()):
        # no common neighbour: every path has length >= 3, so the first
        # paths found often block later ones and must be rerouted
        edges -= {(min(v, y), max(v, y)) for v in range(n) if (min(v, x), max(v, x)) in edges}
    if draw(st.booleans()):
        edges.add(canon_pair(x, y))
    else:
        edges.discard(canon_pair(x, y))
    # U may name x or y; the kernel ignores them
    u = {v for v in range(n) if rnd.random() < 0.8}
    k = draw(st.integers(1, 7))
    return Graph.build(range(n), edges), x, y, u, k


def menger_count(g, x, y, u):
    keep = (u - {x, y}) | {x, y}
    h = nx.Graph()
    h.add_nodes_from(keep)
    h.add_edges_from(e for e in g.edges if set(e) <= keep and set(e) != {x, y})
    return local_node_connectivity(h, x, y)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(instances())
def test_max_disjoint_paths_matches_local_node_connectivity(case):
    g, x, y, u, k = case
    want = min(k, menger_count(g, x, y, u))
    assert max_disjoint_paths(g, x, y, u, k) == want
    system = disjoint_paths(g, x, y, u - {x, y}, k)
    assert (system is not None) == (want == k)
    if system is not None:
        assert len(system.paths) == k
        internals = [v for path in system.paths for v in path[1:-1]]
        assert len(internals) == len(set(internals))
        assert set(internals) <= u
        for path in system.paths:
            assert path[0] == x and path[-1] == y and len(path) >= 3
            assert all(canon_pair(a, b) in g.edges for a, b in zip(path, path[1:]))
