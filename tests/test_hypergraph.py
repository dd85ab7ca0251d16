import random

import pytest

from trisurf.errors import InputError, ParseError
from trisurf.generators import random_hypergraph
from trisurf.hypergraph import (
    Graph,
    Hypergraph3,
    best_pair,
    codegree,
    link_graph,
    pair_link,
    parse_hypergraph,
    serialize_hypergraph,
)


def H(n, triples):
    return Hypergraph3.build(n, triples)


def test_link_graph_direct_definition():
    h = H(4, [(0, 1, 2), (0, 1, 3)])
    g = link_graph(h, 0)
    assert g.edges == frozenset({(1, 2), (1, 3)})
    assert g.vertices == frozenset({1, 2, 3})


def test_link_graph_vertex_in_no_edge():
    h = H(4, [(0, 1, 2)])
    g = link_graph(h, 3)
    assert g.edges == frozenset()
    assert g.vertices == frozenset({0, 1, 2})


def test_link_graph_out_of_range():
    h = H(4, [(0, 1, 2)])
    with pytest.raises(InputError):
        link_graph(h, 4)


def test_link_graph_edge_count_is_degree():
    h = random_hypergraph(10, 30, seed=1)
    for u in range(10):
        expected = sum(1 for t in h.edges if u in t)
        assert len(link_graph(h, u).edges) == expected


def test_pair_link_basic():
    h = H(5, [(0, 2, 3), (1, 2, 3), (0, 3, 4), (1, 3, 4)])
    g = pair_link(h, 0, 1)
    assert g.edges == frozenset({(2, 3), (3, 4)})
    assert g.vertices == frozenset({2, 3, 4})


def test_pair_link_needs_two_outside_vertices():
    h = H(3, [(0, 1, 2)])
    assert pair_link(h, 0, 1).edges == frozenset()


def test_pair_link_complete():
    import itertools

    h = H(6, itertools.combinations(range(6), 3))
    g = pair_link(h, 0, 1)
    assert g.edges == frozenset(itertools.combinations(range(2, 6), 2))


def test_pair_link_same_vertex_rejected():
    h = H(4, [(0, 1, 2)])
    with pytest.raises(InputError):
        pair_link(h, 2, 2)


def test_pair_link_subset_of_each_link():
    h = random_hypergraph(9, 40, seed=3)
    for u, u2 in [(0, 1), (2, 7), (3, 8)]:
        common = pair_link(h, u, u2).edges
        assert common <= link_graph(h, u).edges
        assert common <= link_graph(h, u2).edges


def test_graph_adjacency_built_once_and_sorted():
    g = Graph.build(range(5), [(3, 0), (0, 1), (4, 0), (1, 2)])
    assert g.adjacency is g.adjacency
    assert g.adjacency == {0: (1, 3, 4), 1: (0, 2), 2: (1,), 3: (0,), 4: (0,)}
    assert g.neighbors(0) == [1, 3, 4]
    assert g.neighbors(9) == []
    # the cache takes no part in equality or hashing
    twin = Graph.build(range(5), g.edges)
    assert twin == g and hash(twin) == hash(g)


def test_codegree():
    h = H(5, [(0, 2, 3), (1, 2, 3), (4, 2, 3)])
    assert codegree(h, 2, 3) == 3
    assert codegree(h, 3, 4) == 1
    with pytest.raises(InputError):
        codegree(h, 2, 2)


def test_codegree_zero_and_complete():
    import itertools

    h = H(5, [(0, 1, 2)])
    assert codegree(h, 3, 4) == 0
    n = 7
    full = H(n, itertools.combinations(range(n), 3))
    assert codegree(full, 1, 5) == n - 2


def test_codegree_sum_is_three_edge_count():
    h = random_hypergraph(12, 60, seed=9)
    total = sum(
        codegree(h, v, w) for v in range(12) for w in range(v + 1, 12)
    )
    assert total == 3 * len(h.edges)


def test_best_pair_enumerated_oracle():
    h = H(5, [(0, 2, 3), (1, 2, 3), (0, 3, 4), (1, 3, 4)])
    # oracle: score every pair by its common link
    best = None
    for u in range(5):
        for u2 in range(u + 1, 5):
            count = len(pair_link(h, u, u2).edges)
            key = (-count, u, u2)
            if best is None or key < best:
                best = key
    u, u2, count = best_pair(h)
    assert (u, u2, count) == (best[1], best[2], -best[0]) == (0, 1, 2)


def test_best_pair_empty_and_complete():
    import itertools

    assert best_pair(H(4, [])) == (0, 1, 0)
    full = H(6, itertools.combinations(range(6), 3))
    assert best_pair(full) == (0, 1, 6)


def test_best_pair_matches_bruteforce_on_random():
    for seed in range(6):
        h = random_hypergraph(8, 25, seed=seed)
        u, u2, count = best_pair(h)
        scores = {
            (a, b): len(pair_link(h, a, b).edges)
            for a in range(8)
            for b in range(a + 1, 8)
        }
        top = max(scores.values())
        assert count == top
        assert (u, u2) == min(p for p, s in scores.items() if s == top)


def test_best_pair_deterministic():
    h = random_hypergraph(10, 40, seed=2)
    assert best_pair(h) == best_pair(random_hypergraph(10, 40, seed=2))


def test_parse_basic():
    h = parse_hypergraph("n=4\n0 1 2\n0 1 3\n")
    assert h.n == 4
    assert h.edges == frozenset({(0, 1, 2), (0, 1, 3)})


def test_parse_repeated_vertex():
    with pytest.raises(ParseError) as err:
        parse_hypergraph("n=3\n0 0 1\n")
    assert err.value.line_no == 2


def test_parse_out_of_range_and_malformed():
    with pytest.raises(ParseError):
        parse_hypergraph("n=3\n0 1 5\n")
    with pytest.raises(ParseError):
        parse_hypergraph("n=3\n0 1\n")
    with pytest.raises(ParseError):
        parse_hypergraph("m=3\n0 1 2\n")


def test_parse_collapses_duplicates_and_comments():
    h = parse_hypergraph("n=4\n# comment\n2 1 0\n\n0 1 2\n")
    assert h.edges == frozenset({(0, 1, 2)})


def test_serialize_parse_roundtrip_random():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(4, 12)
        import math

        m = rng.randint(0, math.comb(n, 3))
        h = random_hypergraph(n, m, seed=rng.randrange(10**6))
        text = serialize_hypergraph(h)
        again = parse_hypergraph(text)
        assert again == h
        assert serialize_hypergraph(again) == text
