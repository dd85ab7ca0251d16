import dataclasses
import hashlib
import itertools
import random

import pytest

from trisurf.admissibility import AdmissibilityParams
from trisurf.builder import (
    Certificate,
    DiskPatch,
    SearchConfig,
    assemble_rp2,
    build_disk_from_pair,
    build_double_pyramid,
    embed_hemi_icosahedron,
    find_apex,
    find_dense_pair,
    find_rp2,
    find_sphere,
    verify_certificate,
)
from trisurf.errors import InputError, PreconditionError
from trisurf.generators import (
    fixture,
    planted_dense_pair,
    planted_rp2_instance,
    planted_semi_admissible,
    random_hypergraph,
)
from trisurf.hypergraph import Graph, Hypergraph3, canon_triple
from trisurf.paths import cycle_edges
from trisurf.surfaces import Complex2, classify


def complete(n):
    return Hypergraph3(n, frozenset(itertools.combinations(range(n), 3)))


def test_double_pyramid_triangle():
    x = build_double_pyramid(0, 1, (2, 3, 4))
    assert len(x.facets) == 6
    assert classify(x).verdict == "Sphere"


def test_double_pyramid_length_six():
    x = build_double_pyramid(0, 1, tuple(range(2, 8)))
    rep = classify(x)
    assert rep.F == 12
    assert rep.verdict == "Sphere"


def test_double_pyramid_large():
    x = build_double_pyramid(0, 1, tuple(range(2, 52)))
    rep = classify(x)
    assert rep.F == 100 and rep.chi == 2 and rep.verdict == "Sphere"


def test_double_pyramid_apex_on_cycle_rejected():
    with pytest.raises(InputError):
        build_double_pyramid(2, 1, (2, 3, 4))


def test_find_sphere_complete():
    cert = find_sphere(complete(6))
    assert cert is not None
    assert cert.report.verdict == "Sphere"
    assert len(cert.facets) == 2 * len(cert.cycle)


def test_find_sphere_forest_links():
    # single edge: every common link has at most one edge, no cycles
    h = Hypergraph3.build(5, [(0, 1, 2)])
    assert find_sphere(h) is None


def test_find_sphere_random_dense():
    h = random_hypergraph(30, 3500, seed=6)
    cert = find_sphere(h)
    assert cert is not None
    assert classify(Complex2.build(cert.facets)).verdict == "Sphere"
    for t in cert.facets:
        assert t in h.edges


def build_disk_planted(r=3, k=2, seed=11, **kw):
    inst = planted_semi_admissible(r=r, k=k, seed=seed, **kw)
    h = inst.hypergraph
    pool = set(range(h.n)) - {inst.x, inst.y, inst.z, inst.x1}
    params = AdmissibilityParams(p=1.0, epsilon=0.5, k=max(k, 1))
    disk = build_disk_from_pair(
        h, inst.x, inst.y, inst.z, inst.x1, pool, frozenset(), params, seed=seed
    )
    return inst, disk


def test_build_disk_from_pair_planted_shape():
    inst, disk = build_disk_planted()
    assert disk is not None
    rep = classify(disk.facets)
    assert rep.verdict == "Disk"
    assert len(disk.facets.facets) == 8  # s = t = 1 fans
    assert len(disk.interior) == 3
    assert disk.boundary == (inst.y, inst.x, inst.z, inst.x1)


def test_build_disk_empty_pool():
    inst = planted_semi_admissible(r=2, k=1, seed=4)
    params = AdmissibilityParams(p=1.0, epsilon=0.5, k=1)
    disk = build_disk_from_pair(
        inst.hypergraph, inst.x, inst.y, inst.z, inst.x1, set(), frozenset(), params, seed=0
    )
    assert disk is None


def test_build_disk_no_third_vertex():
    h = Hypergraph3.build(6, [(0, 2, 3), (1, 2, 3), (0, 2, 4), (0, 3, 4)])
    params = AdmissibilityParams(p=1.0, epsilon=0.5, k=1)
    disk = build_disk_from_pair(h, 0, 2, 3, 1, {4, 5}, frozenset(), params, seed=0)
    assert disk is None


def test_build_disk_avoidance_cap():
    inst = planted_semi_admissible(r=2, k=1, seed=4)
    params = AdmissibilityParams(p=1.0, epsilon=0.5, k=1)
    with pytest.raises(InputError):
        build_disk_from_pair(
            inst.hypergraph, inst.x, inst.y, inst.z, inst.x1,
            set(), frozenset({100, 101}), params, seed=0,
        )


def test_assemble_planted_minimal():
    inst = planted_rp2_instance(4, 3, 1, 1, seed=0)
    union = assemble_rp2(
        inst.u, inst.u1, inst.cycle_c, inst.cycle_cprime,
        inst.disk_d, inst.disk_dprime, inst.v0, inst.v1, inst.v2, inst.v3,
    )
    rep = classify(union)
    assert rep.verdict == "RP2" and rep.chi == 1


def test_assemble_facet_count_formula():
    for (lc, lcp, s, t, seed) in [(4, 3, 1, 1, 1), (6, 5, 2, 2, 2), (9, 4, 3, 1, 3)]:
        inst = planted_rp2_instance(lc, lcp, s, t, seed=seed)
        union = assemble_rp2(
            inst.u, inst.u1, inst.cycle_c, inst.cycle_cprime,
            inst.disk_d, inst.disk_dprime, inst.v0, inst.v1, inst.v2, inst.v3,
        )
        path_facets = lc + lcp - 2
        disk_facets = 2 * (s + 1) + 2 * (t + 1)
        assert len(union.facets) == 2 * path_facets + 2 * disk_facets


def test_assemble_soundness_randomized():
    """Randomized gluing configurations always classify as RP2."""
    rng = random.Random(99)
    for _ in range(120):
        lc = rng.randint(4, 12)
        lcp = rng.randint(3, 10)
        s = rng.randint(1, 5)
        t = rng.randint(1, 5)
        inst = planted_rp2_instance(lc, lcp, s, t, seed=rng.randrange(10**6))
        union = assemble_rp2(
            inst.u, inst.u1, inst.cycle_c, inst.cycle_cprime,
            inst.disk_d, inst.disk_dprime, inst.v0, inst.v1, inst.v2, inst.v3,
        )
        assert classify(union).verdict == "RP2"


def test_assemble_rejects_shared_interior():
    inst = planted_rp2_instance(5, 4, 1, 1, seed=8)
    # corrupt: give D' the interior of D
    clash = DiskPatch(inst.disk_d.facets, inst.disk_dprime.boundary, inst.disk_d.interior)
    with pytest.raises(PreconditionError):
        assemble_rp2(
            inst.u, inst.u1, inst.cycle_c, inst.cycle_cprime,
            inst.disk_d, clash, inst.v0, inst.v1, inst.v2, inst.v3,
        )


def test_assemble_rejects_duplicate_roles():
    inst = planted_rp2_instance(5, 4, 1, 1, seed=8)
    with pytest.raises(PreconditionError, match="distinct"):
        assemble_rp2(
            inst.u, inst.u1, inst.cycle_c, inst.cycle_cprime,
            inst.disk_d, inst.disk_dprime, inst.v0, inst.v1, inst.v1, inst.v3,
        )


def test_assemble_rejects_wrong_boundary():
    inst = planted_rp2_instance(5, 4, 1, 1, seed=8)
    wrong = DiskPatch(inst.disk_dprime.facets, inst.disk_dprime.boundary, inst.disk_dprime.interior)
    with pytest.raises(PreconditionError, match="boundary"):
        assemble_rp2(
            inst.u, inst.u1, inst.cycle_c, inst.cycle_cprime,
            wrong, inst.disk_dprime, inst.v0, inst.v1, inst.v2, inst.v3,
        )


def test_find_dense_pair_complete():
    h = complete(12)
    res = find_dense_pair(h, h.edges, d=4, strict=True)
    assert res.ok
    assert res.edge_count == 45  # C(10, 2)
    assert res.edge_count >= 4 * 12 / 4


def test_find_dense_pair_empty():
    h = Hypergraph3.build(6, [])
    res = find_dense_pair(h, h.edges, d=4)
    assert not res.ok


def test_find_dense_pair_planted():
    h, u, u1 = planted_dense_pair(12, link_edges=30, noise=15, seed=5)
    res = find_dense_pair(h, h.edges, d=4)
    assert res.ok
    assert {res.u, res.u1} == {u, u1}


def test_find_apex_on_k12_exercises_trim():
    g = Graph.build(range(12), itertools.combinations(range(12), 2))
    config = SearchConfig(d=8, epsilon_prime=0.9, seed=3)
    res = find_apex(g, config)
    assert res.ok
    assert len(res.subgraph.edges) == 24  # trimmed toward d * n / 4
    deg = sum(1 for e in res.subgraph.edges if res.v0 in e)
    assert deg <= 8
    assert res.subgraph.has_edge(res.v0, res.v1)
    assert res.subgraph.has_edge(res.v0, res.v3)
    assert res.certified
    from trisurf.admissibility import admissible_exact

    for other in (res.v1, res.v3):
        prob = admissible_exact(res.subgraph, (res.v0, other), config.p, 2)
        assert prob >= 1 - config.epsilon_prime


def test_find_apex_matching_fails():
    g = Graph.build(range(6), [(0, 1), (2, 3), (4, 5)])
    res = find_apex(g, SearchConfig(seed=0))
    assert not res.ok


def test_find_apex_triangle_base_case():
    g = Graph.build(range(3), [(0, 1), (0, 2), (1, 2)])
    res = find_apex(g, SearchConfig(d=3, seed=0))
    # base case: lenient fallback picks smallest hub even though p = 1/6
    # leaves each edge far from certified
    assert res.ok and res.v0 == 0
    assert not res.certified


def test_find_rp2_complete_14():
    h = complete(14)
    out = find_rp2(h, SearchConfig(seed=2))
    assert out.found
    ok, problems = verify_certificate(h, out.certificate)
    assert ok, problems
    assert out.certificate.report.verdict == "RP2"


def test_find_rp2_zero_budget():
    out = find_rp2(complete(14), SearchConfig(seed=2, retry_budget=0))
    assert not out.found
    assert out.attempts == 0
    assert out.counters == {}


def test_find_rp2_double_pyramid_not_found():
    x = build_double_pyramid(0, 1, (2, 3, 4))
    h = Hypergraph3(5, x.facets)
    out = find_rp2(h, SearchConfig(seed=0, retry_budget=50))
    assert not out.found


def test_find_rp2_deterministic_and_thread_invariant():
    h = complete(13)
    a = find_rp2(h, SearchConfig(seed=11), threads=1)
    b = find_rp2(h, SearchConfig(seed=11), threads=4)
    assert a.found and b.found
    assert a.certificate.to_json() == b.certificate.to_json()


def test_verify_certificate_detects_mutations():
    h = complete(13)
    out = find_rp2(h, SearchConfig(seed=1))
    assert out.found
    cert = out.certificate

    missing = Certificate(
        facets=cert.facets[1:], u=cert.u, u1=cert.u1, v0=cert.v0, v1=cert.v1,
        v2=cert.v2, v3=cert.v3, cycle_c=cert.cycle_c, cycle_cprime=cert.cycle_cprime,
        disk_d=cert.disk_d, disk_dprime=cert.disk_dprime, partition=cert.partition,
        config=cert.config, seed=cert.seed, report=cert.report,
    )
    ok, problems = verify_certificate(h, missing)
    assert not ok
    assert any("mismatch" in p or "closed" in p or "verdict" in p for p in problems)

    alien = canon_triple(cert.u, cert.u1, cert.v0)
    foreign = Certificate(
        facets=tuple(sorted(set(cert.facets) | {alien})), u=cert.u, u1=cert.u1,
        v0=cert.v0, v1=cert.v1, v2=cert.v2, v3=cert.v3, cycle_c=cert.cycle_c,
        cycle_cprime=cert.cycle_cprime, disk_d=cert.disk_d, disk_dprime=cert.disk_dprime,
        partition=cert.partition, config=cert.config, seed=cert.seed, report=cert.report,
    )
    small = Hypergraph3(h.n, frozenset(cert.facets))
    ok2, problems2 = verify_certificate(small, foreign)
    assert not ok2
    assert any("not in hypergraph" in p for p in problems2)


def test_find_rp2_k12_falls_back_to_minimal_route():
    h = complete(12)
    out = find_rp2(h, SearchConfig(seed=0, retry_budget=5))
    assert out.found and out.attempts == 5
    cert = out.certificate
    assert cert.route == "minimal"
    assert len(cert.facets) == 10 and cert.report.verdict == "RP2"
    ok, problems = verify_certificate(h, cert)
    assert ok, problems
    again = find_rp2(h, SearchConfig(seed=0, retry_budget=5), threads=2)
    assert again.certificate.to_json() == cert.to_json()


def test_verify_minimal_certificate_rejects_mutations():
    h = complete(12)
    cert = find_rp2(h, SearchConfig(seed=0, retry_budget=5)).certificate
    assert cert.route == "minimal"

    deleted = dataclasses.replace(cert, facets=cert.facets[1:])
    ok, problems = verify_certificate(h, deleted)
    assert not ok
    assert any("verdict" in p for p in problems)

    spare = min(h.edges - set(cert.facets))
    substituted = dataclasses.replace(cert, facets=tuple(sorted(cert.facets[1:] + (spare,))))
    ok, problems = verify_certificate(h, substituted)
    assert not ok
    assert any("verdict" in p for p in problems)

    lacking = Hypergraph3(h.n, h.edges - {cert.facets[0]})
    ok, problems = verify_certificate(lacking, cert)
    assert not ok
    assert any("not in hypergraph" in p for p in problems)

    e = cert.embedding
    relabelled = dataclasses.replace(cert, embedding=(e[1], e[0]) + e[2:])
    ok, problems = verify_certificate(h, relabelled)
    assert not ok
    assert any("embedded hemi-icosahedron" in p for p in problems)


def test_gluing_certificate_without_route_gets_gluing_check():
    h = complete(13)
    cert = find_rp2(h, SearchConfig(seed=1)).certificate
    assert cert.route == "gluing"
    swapped = dataclasses.replace(cert, v1=cert.v3, v3=cert.v1)
    moved_vertex = min(cert.disk_d.interior)
    parts = [set(p) for p in cert.partition]
    parts[2].discard(moved_vertex)
    parts[3].add(moved_vertex)
    moved = dataclasses.replace(cert, partition=tuple(tuple(sorted(p)) for p in parts))
    for mutant, clue in ((swapped, "not all on C"), (moved, "interior(D) escapes")):
        # the facets still form an RP2 inside h: only the gluing check can object
        assert set(mutant.facets) <= h.edges
        assert classify(Complex2(frozenset(mutant.facets))).verdict == "RP2"
        ok, problems = verify_certificate(h, mutant)
        assert not ok
        assert any(clue in p for p in problems), problems


def test_embed_hemi_icosahedron_agrees_with_brute_force():
    pattern = sorted(fixture("hemi_icosahedron_rp2").facets.facets)

    def brute(h):
        verts = sorted({v for t in h.edges for v in t})
        return any(
            all(canon_triple(*(image[x] for x in t)) in h.edges for t in pattern)
            for image in itertools.permutations(verts, 6)
        )

    found = 0
    for m in range(10, 36, 3):
        for seed in range(4):
            h = random_hypergraph(7, m, seed)
            emb = embed_hemi_icosahedron(h)
            assert (emb is not None) == brute(h), (m, seed)
            if emb is not None:
                found += 1
                assert all(canon_triple(*(emb[x] for x in t)) in h.edges for t in pattern)
    assert 0 < found < 36
    # the search visits only vertices on edges, so a huge header costs nothing
    k12 = complete(12)
    assert embed_hemi_icosahedron(Hypergraph3(10**9, k12.edges)) == embed_hemi_icosahedron(k12)


def test_strict_defaults_satisfy_constant_chain():
    cfg = SearchConfig.strict_defaults()
    alpha = 2 * 2 / (cfg.p ** 2 * cfg.epsilon_prime)
    assert cfg.d >= 4 * (1 + 2 * alpha)
    assert 2 * (2 / 3) ** (cfg.r - 5) < 1 / (6 * cfg.d)
    assert 4 * cfg.r * cfg.epsilon < 1 / (6 * cfg.d)


def test_strict_mode_rejects_small_d():
    with pytest.raises(InputError):
        SearchConfig(strict=True, d=20)


def test_config_validation():
    with pytest.raises(InputError):
        SearchConfig(p=0.7)
    with pytest.raises(InputError):
        SearchConfig(k=0)


def _planted_certificate(inst):
    """A gluing certificate for a planted instance and a host for it.

    The host adds the apex triples over every cycle edge, which the
    links of u and u' must hold.
    """
    extra = {
        canon_triple(apex, a, b)
        for apex in (inst.u, inst.u1)
        for a, b in cycle_edges(inst.cycle_c) + cycle_edges(inst.cycle_cprime)
    }
    host = Hypergraph3(inst.hypergraph.n, inst.hypergraph.edges | extra)
    w_set = {inst.u, inst.u1, inst.v0, inst.v1, inst.v3}
    partition = (
        (set(inst.cycle_c) - {inst.v0, inst.v1}) | w_set,
        set(inst.cycle_cprime) - {inst.v0, inst.v3},
        inst.disk_d.interior,
        inst.disk_dprime.interior,
    )
    cert = Certificate(
        facets=tuple(sorted(inst.hypergraph.edges)),
        u=inst.u, u1=inst.u1, v0=inst.v0, v1=inst.v1, v2=inst.v2, v3=inst.v3,
        cycle_c=inst.cycle_c, cycle_cprime=inst.cycle_cprime,
        disk_d=inst.disk_d, disk_dprime=inst.disk_dprime,
        partition=tuple(tuple(sorted(part)) for part in partition),
        config=SearchConfig(), seed=0, report=classify(Complex2(inst.hypergraph.edges)),
    )
    return host, cert


def _assemble(cert):
    return assemble_rp2(
        cert.u, cert.u1, cert.cycle_c, cert.cycle_cprime,
        cert.disk_d, cert.disk_dprime, cert.v0, cert.v1, cert.v2, cert.v3,
    )


def test_assemble_and_verify_agree_on_broken_gluings():
    """assemble_rp2 raises the first structural problem verify_certificate reports."""
    rng = random.Random(17)
    for _ in range(25):
        inst = planted_rp2_instance(
            rng.randint(4, 10), rng.randint(3, 8), rng.randint(1, 4), rng.randint(1, 4),
            seed=rng.randrange(10**6),
        )
        host, cert = _planted_certificate(inst)
        assert set(_assemble(cert).facets) == set(cert.facets)
        ok, problems = verify_certificate(host, cert)
        assert ok, problems

        d, dp = cert.disk_d, cert.disk_dprime
        first_facet = min(d.facets.facets)
        broken = {
            "duplicate roles": dataclasses.replace(cert, v2=cert.v1),
            "D' given D's interior": dataclasses.replace(
                cert, disk_dprime=DiskPatch(dp.facets, dp.boundary, d.interior)),
            "wrong disk for D": dataclasses.replace(cert, disk_d=dp),
            "v1 and v3 swapped": dataclasses.replace(cert, v1=cert.v3, v3=cert.v1),
            "apex on C": dataclasses.replace(cert, u=cert.v2, v2=cert.u),
            "deleted disk facet": dataclasses.replace(cert, disk_d=DiskPatch(
                Complex2(d.facets.facets - {first_facet}), d.boundary, d.interior)),
        }
        for what, mutant in broken.items():
            ok, problems = verify_certificate(host, mutant)
            assert not ok, what
            with pytest.raises(PreconditionError) as raised:
                _assemble(mutant)
            assert str(raised.value) == problems[0], (what, problems)


def test_verify_rejects_a_partition_without_four_classes():
    host, cert = _planted_certificate(planted_rp2_instance(5, 4, 1, 1, seed=8))
    assert verify_certificate(host, cert) == (True, [])
    for partition in ((), cert.partition[:3], cert.partition + ((),)):
        ok, problems = verify_certificate(host, dataclasses.replace(cert, partition=partition))
        assert not ok
        assert "partition does not have four classes" in problems


def test_lenient_search_never_checks_semi_admissibility(monkeypatch):
    """Lenient mode builds each disk whatever the pair's verdict, so it asks for none."""
    import trisurf.builder as builder

    def refuse(*args, **kwargs):
        raise AssertionError("semi_admissible called in lenient mode")

    monkeypatch.setattr(builder, "semi_admissible", refuse)
    out = find_rp2(complete(13), SearchConfig(seed=4))
    assert out.found and out.attempts == 43
    # the certificate the search returned while it still computed the verdict
    digest = hashlib.sha256(out.certificate.to_json().encode("utf-8")).hexdigest()
    assert digest == "16ec947df3f55f14644c1d3ed0ad8d6a83224af06cb94090e38d63f2cc104514"
    assert not any(key.startswith("semiadm") for key in out.counters)
