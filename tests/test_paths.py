import itertools
import random

import pytest

from trisurf.errors import InputError
from trisurf.hypergraph import Graph, canon_pair
from trisurf.paths import (
    cycle_with_edge,
    cycle_with_forced_second_vertex,
    disjoint_paths,
    is_valid_cycle,
    max_disjoint_paths,
    path_through,
)


def G(n, edges):
    return Graph.build(range(n), edges)


def all_simple_paths(g, x, y, allowed):
    """Every simple x-y path of length >= 2 with internals in allowed."""
    adj = g.adjacency
    out = []

    def walk(cur, path):
        for nxt in adj[cur]:
            if nxt == y:
                if len(path) >= 2:
                    out.append(tuple(path) + (y,))
            elif nxt in allowed and nxt not in path:
                walk(nxt, path + [nxt])

    walk(x, [x])
    return out


def bruteforce_disjoint(g, x, y, u, k):
    """Oracle: does a set of k pairwise internally disjoint paths exist?"""
    paths = all_simple_paths(g, x, y, set(u) - {x, y})

    def extend(chosen_internals, start, depth):
        if depth == k:
            return True
        for i in range(start, len(paths)):
            internals = set(paths[i][1:-1])
            if internals & chosen_internals:
                continue
            if extend(chosen_internals | internals, i + 1, depth + 1):
                return True
        return False

    return extend(set(), 0, 0)


def check_system(g, x, y, u, system):
    seen = set()
    for path in system.paths:
        assert path[0] == x and path[-1] == y
        assert len(path) >= 3  # length >= 2 means >= 3 vertices
        internals = set(path[1:-1])
        assert internals <= set(u)
        assert not internals & seen
        seen |= internals
        for a, b in zip(path, path[1:]):
            assert canon_pair(a, b) in g.edges


K4_MINUS = G(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # x=0, y=1, a=2, b=3


def test_disjoint_paths_k4_minus():
    system = disjoint_paths(K4_MINUS, 0, 1, {2, 3}, 2)
    assert system is not None
    assert system.paths == ((0, 2, 1), (0, 3, 1))
    check_system(K4_MINUS, 0, 1, {2, 3}, system)


def test_disjoint_paths_not_enough_internals():
    assert disjoint_paths(K4_MINUS, 0, 1, {2}, 2) is None


def test_disjoint_paths_k5_menger():
    k5 = G(5, itertools.combinations(range(5), 2))
    system = disjoint_paths(k5, 0, 1, {2, 3, 4}, 3)
    assert system is not None
    assert all(len(p) == 3 for p in system.paths)
    check_system(k5, 0, 1, {2, 3, 4}, system)


def test_disjoint_paths_direct_edge_never_counts():
    path2 = G(3, [(0, 1)])
    assert disjoint_paths(path2, 0, 1, set(), 1) is None


def test_disjoint_paths_preconditions():
    with pytest.raises(InputError):
        disjoint_paths(K4_MINUS, 0, 0, set(), 1)
    with pytest.raises(InputError):
        disjoint_paths(K4_MINUS, 0, 1, {0, 2}, 1)


def test_disjoint_paths_agrees_with_bruteforce():
    rng = random.Random(17)
    checked = 0
    for trial in range(120):
        n = rng.randint(4, 8)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.45]
        g = G(n, edges)
        if not edges:
            continue
        x, y = rng.sample(range(n), 2)
        u = {v for v in range(n) if v not in (x, y) and rng.random() < 0.7}
        for k in (1, 2, 3):
            got = disjoint_paths(g, x, y, u, k)
            want = bruteforce_disjoint(g, x, y, u, k)
            assert (got is not None) == want, (trial, n, edges, x, y, u, k)
            if got is not None:
                check_system(g, x, y, u, got)
                checked += 1
    assert checked > 50


def test_disjoint_paths_deterministic():
    g = G(8, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 7), (3, 7), (4, 7), (1, 7), (5, 6)])
    a = disjoint_paths(g, 0, 7, {1, 2, 3, 4}, 3)
    b = disjoint_paths(g, 0, 7, {1, 2, 3, 4}, 3)
    assert a == b
    assert a.paths == ((0, 1, 7), (0, 2, 7), (0, 3, 7))


def test_disjoint_paths_reroutes_first_path():
    # The first path found, 0-2-3-4-1, blocks the second one.  Undoing it
    # takes both reverse moves: back along the arc 3->4 that feeds 4, then
    # back through 3 to 2, which leaves by 7 instead.
    g = G(9, [(0, 2), (2, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 4), (2, 7), (7, 8), (8, 1)])
    u = set(range(2, 9))
    assert max_disjoint_paths(g, 0, 1, u, 3) == 2
    assert disjoint_paths(g, 0, 1, u, 2).paths == ((0, 2, 7, 8, 1), (0, 5, 6, 4, 1))
    assert disjoint_paths(g, 0, 1, u, 3) is None


def test_path_through_basic():
    line = G(3, [(0, 2), (2, 1)])
    assert path_through(line, 0, 1, {2}) == (0, 2, 1)
    assert path_through(line, 0, 1, {2}, avoid={2}) is None


def test_path_through_grid_bfs_oracle():
    # 3x3 grid, corner to corner; vertex (r, c) -> 3r + c
    edges = []
    for r in range(3):
        for c in range(3):
            if c + 1 < 3:
                edges.append((3 * r + c, 3 * r + c + 1))
            if r + 1 < 3:
                edges.append((3 * r + c, 3 * (r + 1) + c))
    grid = G(9, edges)
    u = set(range(9)) - {0, 8}
    path = path_through(grid, 0, 8, u)
    assert path is not None
    assert len(path) - 1 == 4  # BFS shortest-path length oracle
    assert path[0] == 0 and path[-1] == 8


def test_path_through_excludes_direct_edge():
    triangle = G(3, [(0, 1), (0, 2), (1, 2)])
    assert path_through(triangle, 0, 1, {2}) == (0, 2, 1)
    assert path_through(triangle, 0, 1, set()) is None


def test_cycle_with_forced_second_vertex_c5():
    c5 = G(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    cyc = cycle_with_forced_second_vertex(c5, 0, 1, 4, {1, 2, 3, 4})
    assert cyc == (0, 4, 3, 2, 1)
    assert is_valid_cycle(c5, cyc)


def test_cycle_with_forced_second_vertex_triangle():
    tri = G(3, [(0, 1), (0, 2), (1, 2)])
    cyc = cycle_with_forced_second_vertex(tri, 0, 1, 2, {2})
    assert cyc == (0, 2, 1)
    assert is_valid_cycle(tri, cyc)


def test_cycle_with_forced_second_vertex_unreachable():
    g = G(5, [(0, 1), (0, 2), (3, 4)])
    assert cycle_with_forced_second_vertex(g, 0, 1, 2, {2, 3, 4}) is None


def test_cycle_with_forced_second_vertex_v2_not_in_pool():
    tri = G(3, [(0, 1), (0, 2), (1, 2)])
    assert cycle_with_forced_second_vertex(tri, 0, 1, 2, set()) is None


def test_cycle_with_edge_k4():
    k4 = G(4, itertools.combinations(range(4), 2))
    cyc = cycle_with_edge(k4, 0, 3, {1})
    assert cyc == (0, 1, 3)
    assert is_valid_cycle(k4, cyc)


def test_cycle_with_edge_star_has_none():
    star = G(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert cycle_with_edge(star, 0, 3, {1, 2, 4}) is None


def test_cycle_with_edge_c6():
    # a 6-cycle in which 0 and 3 are adjacent: 0-3-1-2-4-5-0
    c6 = G(6, [(0, 3), (3, 1), (1, 2), (2, 4), (4, 5), (5, 0)])
    cyc = cycle_with_edge(c6, 0, 3, {1, 2, 4, 5})
    assert cyc is not None
    assert is_valid_cycle(c6, cyc)
    assert set(cyc) == set(range(6))


def test_cycle_avoid_respected():
    k5 = G(5, itertools.combinations(range(5), 2))
    cyc = cycle_with_edge(k5, 0, 1, {2, 3, 4}, avoid={2})
    assert cyc is not None and 2 not in cyc
    cyc2 = cycle_with_forced_second_vertex(k5, 0, 1, 3, {2, 3, 4}, avoid={4})
    assert cyc2 is not None and 4 not in cyc2
