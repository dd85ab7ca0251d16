import itertools
import random

import pytest

from trisurf.admissibility import (
    AdmissibilityParams,
    admissible,
    admissible_edge_fraction,
    admissible_exact,
    admissible_mc,
    filter_semi_admissible,
    relevant_vertices,
    semi_admissible,
)
from trisurf.builder import SearchConfig
from trisurf.errors import CapacityError, InputError
from trisurf.generators import planted_semi_admissible
from trisurf.hypergraph import Graph, Hypergraph3
from trisurf.paths import disjoint_paths


def G(n, edges):
    return Graph.build(range(n), edges)


K4_MINUS = G(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def test_exact_k4_minus_by_subset_enumeration():
    # success needs at least one of {2, 3} present for k=1, both for k=2
    assert admissible_exact(K4_MINUS, (0, 1), p=0.5, k=1) == pytest.approx(0.75)
    assert admissible_exact(K4_MINUS, (0, 1), p=0.5, k=2) == pytest.approx(0.25)


def test_exact_p_one_reduces_to_reachability():
    k5 = G(5, itertools.combinations(range(5), 2))
    assert admissible_exact(k5, (0, 1), p=1.0, k=3) == 1.0
    assert admissible_exact(k5, (0, 1), p=1.0, k=4) == 0.0


def test_exact_no_detour_edge():
    star = G(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert admissible_exact(star, (0, 1), p=0.9, k=1) == 0.0


def test_exact_capacity_error():
    n = 21
    big = G(n, itertools.combinations(range(n), 2))
    with pytest.raises(CapacityError):
        admissible_exact(big, (0, 1), p=0.5, k=1, exact_limit=16)


def test_exact_requires_edge():
    with pytest.raises(InputError):
        admissible_exact(G(3, [(0, 1)]), (0, 2), p=0.5, k=1)


def test_relevant_vertices_menger_filter():
    # vertex 4 hangs off a pendant; it is on no simple 0-1 path
    g = G(5, [(0, 1), (0, 2), (1, 2), (2, 3), (0, 3), (3, 4)])
    assert relevant_vertices(g, 0, 1) == (2, 3)
    # a non-edge pair counts the vertices of its x-y paths in g
    assert relevant_vertices(g, 1, 3) == (0, 2)
    # a bridge lies on no cycle, so no longer path joins its ends
    bridged = G(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert relevant_vertices(bridged, 2, 3) == ()
    # two triangles sharing the cut vertex 2: each edge sees its own triangle
    bowtie = G(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert relevant_vertices(bowtie, 0, 1) == (2,)
    assert relevant_vertices(bowtie, 2, 3) == (4,)
    assert relevant_vertices(bowtie, 0, 3) == (1, 2, 4)
    # an endpoint outside the vertex set has no paths
    assert relevant_vertices(bowtie, 0, 7) == ()


def _path_vertices(g, x, y):
    """Internal vertices of every simple x-y path of length >= 2, by enumeration."""
    adj = g.adjacency
    seen = set()

    def walk(path):
        for w in adj[path[-1]]:
            if w == y:
                if len(path) > 1:
                    seen.update(path[1:])
            elif w not in path:
                walk(path + [w])

    walk([x])
    return tuple(sorted(seen))


def _random_graph(rng, n, density):
    return G(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])


def test_relevant_vertices_matches_simple_path_enumeration():
    rng = random.Random(11)
    kinds = {True: 0, False: 0}
    for _ in range(2000):
        n = rng.randint(2, 9)
        g = _random_graph(rng, n, rng.uniform(0.15, 0.7))
        x, y = rng.sample(range(n), 2)
        kinds[g.has_edge(x, y)] += 1
        assert relevant_vertices(g, x, y) == _path_vertices(g, x, y), (sorted(g.edges), x, y)
    assert min(kinds.values()) >= 500  # edges and non-edges both well covered


def test_relevant_vertices_matches_networkx_blocks():
    nx = pytest.importorskip("networkx")
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(3, 40)
        g = _random_graph(rng, n, rng.uniform(0.5, 4.0) / n)
        x, y = rng.sample(range(n), 2)
        ng = nx.Graph()
        ng.add_nodes_from(g.vertices)
        ng.add_edges_from(g.edges)
        ng.add_edge(x, y)
        (block,) = [b for b in nx.biconnected_components(ng) if x in b and y in b]
        assert relevant_vertices(g, x, y) == tuple(sorted(block - {x, y})), (sorted(g.edges), x, y)


def test_exact_monotone_in_p_and_k():
    rng = random.Random(4)
    for trial in range(12):
        n = rng.randint(4, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.55]
        g = G(n, edges)
        candidates = sorted(g.edges)
        if not candidates:
            continue
        e = candidates[rng.randrange(len(candidates))]
        probs = [admissible_exact(g, e, p, 2) for p in (0.1, 0.3, 0.5, 0.9)]
        assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))
        by_k = [admissible_exact(g, e, 0.5, k) for k in (1, 2, 3)]
        assert all(a >= b - 1e-12 for a, b in zip(by_k, by_k[1:]))


def test_mc_matches_exact_k4_minus():
    params = AdmissibilityParams(p=0.5, epsilon=0.3, k=1, mc_samples=50000)
    est = admissible_mc(K4_MINUS, (0, 1), params, seed=123)
    assert abs(est.p_hat - 0.75) <= 0.02
    assert est.mode == "monte-carlo"
    assert est.ci_low <= est.p_hat <= est.ci_high
    assert est.verdict == "admissible"  # true value 0.75 clears 1 - 0.3


def test_mc_p_one_and_hopeless_edge():
    params = AdmissibilityParams(p=1.0, epsilon=0.5, k=2, mc_samples=2000)
    est = admissible_mc(K4_MINUS, (0, 1), params, seed=5)
    assert est.p_hat == 1.0 and est.verdict == "admissible"
    star = G(4, [(0, 1), (0, 2), (0, 3)])
    est = admissible_mc(star, (0, 1), AdmissibilityParams(p=0.9, epsilon=0.5, k=1, mc_samples=500), seed=5)
    assert est.p_hat == 0.0 and est.verdict == "not-admissible"


def test_mc_deterministic_per_seed():
    params = AdmissibilityParams(p=0.3, epsilon=0.3, k=1, mc_samples=4000)
    a = admissible_mc(K4_MINUS, (0, 1), params, seed=9)
    b = admissible_mc(K4_MINUS, (0, 1), params, seed=9)
    c = admissible_mc(K4_MINUS, (0, 1), params, seed=10)
    assert a == b
    assert a.p_hat != c.p_hat


def test_dispatch_exact_has_degenerate_interval():
    params = AdmissibilityParams(p=0.5, epsilon=0.3, k=1)
    est = admissible(K4_MINUS, (0, 1), params, seed=0)
    assert est.mode == "exact"
    assert est.ci_low == est.p_hat == est.ci_high == pytest.approx(0.75)
    assert est.verdict == "admissible"


def test_dispatch_falls_back_to_mc_over_limit():
    n = 20
    big = G(n, itertools.combinations(range(n), 2))
    params = AdmissibilityParams(p=0.5, epsilon=0.3, k=1, mc_samples=2000, exact_limit=10)
    est = admissible(big, (0, 1), params, seed=0)
    assert est.mode == "monte-carlo"
    assert est.samples == 2000
    assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0


@pytest.mark.parametrize("m", [62, 64, 66])
def test_mc_fan_past_63_candidates(m):
    # m length-2 paths 0-v-1 plus the edge 01: at p = 1 every sample keeps
    # all m candidates, so each one holds two disjoint paths
    fan = G(m + 2, [(0, 1)] + [(end, v) for v in range(2, m + 2) for end in (0, 1)])
    params = AdmissibilityParams(p=1.0, epsilon=0.1, k=2, mc_samples=64)
    est = admissible_mc(fan, (0, 1), params, seed=0)
    assert est.p_hat == 1.0
    assert est.verdict == "admissible"


def test_exact_limit_capped():
    for bad in (-1, 21):
        with pytest.raises(InputError):
            AdmissibilityParams(p=0.5, epsilon=0.5, k=1, exact_limit=bad)
        with pytest.raises(InputError):
            SearchConfig(exact_limit=bad)
        with pytest.raises(InputError):
            admissible_exact(K4_MINUS, (0, 1), p=0.5, k=1, exact_limit=bad)
    assert AdmissibilityParams(p=0.5, epsilon=0.5, k=1, exact_limit=20).exact_limit == 20
    assert SearchConfig(exact_limit=20).exact_limit == 20
    assert admissible_exact(K4_MINUS, (0, 1), p=0.5, k=1, exact_limit=20) == pytest.approx(0.75)


def test_semi_admissible_planted_counts_witnesses():
    inst = planted_semi_admissible(r=4, k=2, seed=77)
    params = AdmissibilityParams(p=1.0, epsilon=0.5, k=2, r=4)
    ok, witnesses = semi_admissible(inst.hypergraph, inst.e, inst.f, params, seed=0)
    assert ok
    assert witnesses == frozenset(inst.witnesses)
    # asking for one more witness than planted must fail
    stricter = AdmissibilityParams(p=1.0, epsilon=0.5, k=2, r=5)
    ok2, w2 = semi_admissible(inst.hypergraph, inst.e, inst.f, stricter, seed=0)
    assert not ok2 and w2 == frozenset(inst.witnesses)


def test_semi_admissible_witness_reverifiable_by_disjoint_paths():
    inst = planted_semi_admissible(r=1, k=1, seed=3)
    from trisurf.hypergraph import pair_link

    (w,) = inst.witnesses
    y, z = sorted((inst.y, inst.z))
    for a, b in ((inst.x, w), (w, inst.x1)):
        link = pair_link(inst.hypergraph, a, b)
        system = disjoint_paths(link, y, z, link.vertices - {y, z}, 3)
        assert system is not None  # k + 2 = 3 fans planted


def test_semi_admissible_no_third_vertex():
    h = Hypergraph3.build(5, [(0, 2, 3), (1, 2, 3)])
    params = AdmissibilityParams(p=0.5, epsilon=0.5, k=1, r=1)
    ok, witnesses = semi_admissible(h, (0, 2, 3), (1, 2, 3), params, seed=0)
    assert not ok and witnesses == frozenset()


def test_semi_admissible_r_zero_vacuous():
    h = Hypergraph3.build(5, [(0, 2, 3), (1, 2, 3)])
    params = AdmissibilityParams(p=0.5, epsilon=0.5, k=1, r=0)
    ok, witnesses = semi_admissible(h, (0, 2, 3), (1, 2, 3), params, seed=0)
    assert ok and witnesses == frozenset()


def test_semi_admissible_requires_shared_pair():
    h = Hypergraph3.build(6, [(0, 1, 2), (3, 4, 5)])
    params = AdmissibilityParams(p=0.5, epsilon=0.5, k=1, r=1)
    with pytest.raises(InputError):
        semi_admissible(h, (0, 1, 2), (3, 4, 5), params, seed=0)


def test_edge_fraction_complete_k12():
    k12 = G(12, itertools.combinations(range(12), 2))
    params = AdmissibilityParams(p=0.5, epsilon=0.3, k=2)
    stats = admissible_edge_fraction(k12, params, seed=0)
    assert stats.edges == 66
    assert stats.admissible == 66
    assert stats.not_admissible == 0
    assert stats.bound == pytest.approx((2 * 2 / (0.25 * 0.3)) * 12)


def test_edge_fraction_empty_and_star():
    params = AdmissibilityParams(p=0.5, epsilon=0.3, k=1)
    empty = admissible_edge_fraction(G(4, []), params, seed=0)
    assert empty.edges == 0 and empty.admissible == 0
    star = admissible_edge_fraction(G(6, [(0, i) for i in range(1, 6)]), params, seed=0)
    assert star.not_admissible == 5 and star.admissible == 0


def test_filter_complete_k9_keeps_everything():
    h = Hypergraph3.build(9, itertools.combinations(range(9), 3))
    params = AdmissibilityParams(p=1.0, epsilon=0.9, k=1, r=1)
    result = filter_semi_admissible(h, params, seed=0, budget=60)
    assert result.kept == h.edges
    assert result.evicted == 0
    assert result.tested > 0


def test_filter_budget_zero():
    h = Hypergraph3.build(6, itertools.combinations(range(6), 3))
    params = AdmissibilityParams(p=0.5, epsilon=0.5, k=1, r=1)
    result = filter_semi_admissible(h, params, seed=0, budget=0)
    assert result.kept == h.edges
    assert result.warning is True
    assert result.tested == 0


def test_filter_evicts_on_sparse_instance():
    # matching-like hypergraph: no witnesses anywhere, so every tested
    # pair fails and one side gets evicted
    h = Hypergraph3.build(8, [(0, 1, 2), (3, 1, 2), (4, 5, 6)])
    params = AdmissibilityParams(p=0.5, epsilon=0.1, k=2, r=2)
    result = filter_semi_admissible(h, params, seed=1, budget=10)
    assert result.evicted >= 1
    assert len(result.kept) < 3


def test_mc_agreement_sweep():
    """MC within 0.02 of exact for >= 95% of 50 random (graph, seed) pairs."""
    rng = random.Random(2024)
    close = 0
    total = 0
    for trial in range(50):
        n = rng.randint(5, 12)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = G(n, edges)
        if not g.edges:
            continue
        e = sorted(g.edges)[0]
        k = rng.choice((1, 2))
        p = rng.choice((0.3, 0.5, 0.7))
        exact = admissible_exact(g, e, p, k)
        params = AdmissibilityParams(p=p, epsilon=0.5, k=k, mc_samples=50000)
        est = admissible_mc(g, e, params, seed=trial)
        total += 1
        if abs(est.p_hat - exact) <= 0.02:
            close += 1
    assert total >= 45
    assert close / total >= 0.95
