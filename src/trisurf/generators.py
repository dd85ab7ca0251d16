"""Instance generators: random hypergraphs, canonical surface fixtures,
and planted configurations for the gluing and disk constructions.

Planted instances put each role group on fresh labels, so the
disjointness hypotheses hold by construction and the topology of the
assembly is isolated from search randomness.  A seeded permutation then
scrambles all labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .builder import DiskPatch, assemble_rp2, build_double_pyramid, two_fan_disk_facets
from .errors import InputError
from .hypergraph import Hypergraph3, Triple, canon_triple
from .rng import local_rng
from .surfaces import Complex2, classify, interior_vertices


@dataclass(frozen=True)
class Fixture:
    name: str
    facets: Complex2
    expected_verdict: str


# Antipodal quotient of the icosahedron: the unique 6-vertex projective
# plane (V=6, E=15, F=10, chi=1).
_HEMI_ICOSAHEDRON = (
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
)

# 7-vertex torus whose 1-skeleton is the complete graph K7 (V=7, E=21, F=14):
# orbit of {0,1,3} and {0,2,3} under the cyclic shift i -> i+1 (mod 7).
_MOEBIUS_TORUS = tuple(
    tuple(sorted(((i + a) % 7, (i + b) % 7, (i + c) % 7)))
    for i in range(7)
    for (a, b, c) in ((0, 1, 3), (0, 2, 3))
)


def _klein_bottle() -> tuple[Triple, ...]:
    """Two projective planes glued along a removed facet: chi 0, one-sided."""
    first = [t for t in _HEMI_ICOSAHEDRON if t != (3, 4, 5)]
    relabel = {0: 6, 1: 7, 2: 8, 3: 3, 4: 4, 5: 5}
    second = [
        tuple(sorted((relabel[a], relabel[b], relabel[c])))
        for (a, b, c) in _HEMI_ICOSAHEDRON
        if (a, b, c) != (3, 4, 5)
    ]
    return tuple(first + second)


_FIXTURES: dict[str, tuple[tuple[Triple, ...], str]] = {
    "tetra_sphere": (((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)), "Sphere"),
    "octa_sphere": (
        ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4),
         (1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5)),
        "Sphere",
    ),
    "hemi_icosahedron_rp2": (_HEMI_ICOSAHEDRON, "RP2"),
    "csaszar_torus": (_MOEBIUS_TORUS, "Torus(g=1)"),
    "klein_bottle": (_klein_bottle(), "NonOrientable(k=2)"),
    "cone_disk": (((4, 0, 1), (4, 1, 2), (4, 2, 3), (4, 3, 0)), "Disk"),
    "pinch_point": (((0, 1, 2), (0, 3, 4)), "NotASurface"),
    "tripled_edge": (((0, 1, 2), (0, 1, 3), (0, 1, 4)), "NotASurface"),
}

FIXTURE_NAMES = tuple(_FIXTURES) + ("double_pyramid_k",)


def fixture(name: str) -> Fixture:
    """A named test complex with its expected classifier verdict.

    ``double_pyramid_k`` takes an optional size suffix, e.g.
    ``double_pyramid_6`` (the default k is 6).
    """
    if name in _FIXTURES:
        facets, expected = _FIXTURES[name]
        return Fixture(name, Complex2.build(facets), expected)
    if name.startswith("double_pyramid_"):
        suffix = name.removeprefix("double_pyramid_")
        if suffix == "k":
            k = 6
        else:
            try:
                k = int(suffix)
            except ValueError:
                raise InputError(f"unknown fixture {name!r}") from None
        if k < 3:
            raise InputError("double pyramid needs a cycle of length at least 3")
        return Fixture(name, build_double_pyramid(0, 1, tuple(range(2, 2 + k))), "Sphere")
    raise InputError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")


def _unrank_triple(rank: int, n: int) -> Triple:
    """The rank-th triple of 0..n-1 in lexicographic order."""
    a = 0
    while True:
        block = math.comb(n - 1 - a, 2)
        if rank < block:
            break
        rank -= block
        a += 1
    b = a + 1
    while True:
        block = n - 1 - b
        if rank < block:
            break
        rank -= block
        b += 1
    c = b + 1 + rank
    return (a, b, c)


def random_hypergraph(n: int, m: int, seed: int) -> Hypergraph3:
    """A uniform random m-subset of all triples; deterministic per seed."""
    total = math.comb(n, 3)
    if m > total:
        raise InputError(f"m = {m} exceeds the {total} possible triples on {n} vertices")
    if m < 0:
        raise InputError("m must be non-negative")
    rng = local_rng(seed, "random_hypergraph", n, m)
    ranks = rng.sample(range(total), m)
    return Hypergraph3(n, frozenset(_unrank_triple(r, n) for r in ranks))


@dataclass(frozen=True)
class PlantedRP2:
    """A hypergraph that is exactly one glued projective plane, plus roles."""

    hypergraph: Hypergraph3
    u: int
    u1: int
    v0: int
    v1: int
    v2: int
    v3: int
    cycle_c: tuple[int, ...]
    cycle_cprime: tuple[int, ...]
    disk_d: DiskPatch
    disk_dprime: DiskPatch


def _disk_patch(x, y, z, x2, a_inner, b_inner, w) -> DiskPatch:
    facets = Complex2(two_fan_disk_facets(x, y, z, x2, w, a_inner, b_inner))
    return DiskPatch(facets, (y, x, z, x2), interior_vertices(facets))


def planted_rp2_instance(len_c: int, len_cp: int, s: int, t: int, seed: int) -> PlantedRP2:
    """Plant one full gluing configuration on fresh, seed-permuted labels.

    The cycle through the hub has len_c vertices, the second cycle
    len_cp; both disks carry interior paths of lengths s and t.
    """
    if len_c < 4:
        raise InputError("len_c must be at least 4")
    if len_cp < 3:
        raise InputError("len_cp must be at least 3")
    if s < 1 or t < 1:
        raise InputError("disk path lengths must be at least 1")

    n = len_c + len_cp + 3 + 2 * (s + t)
    perm = list(range(n))
    local_rng(seed, "plant_rp2", len_c, len_cp, s, t).shuffle(perm)
    fresh = iter(perm)

    u, u1, v0, v1, v2, v3 = (next(fresh) for _ in range(6))
    c_extra = [next(fresh) for _ in range(len_c - 3)]
    cp_extra = [next(fresh) for _ in range(len_cp - 2)]
    cycle_c = (v0, v2, *c_extra, v1)
    cycle_cp = (v0, *cp_extra, v3)

    def draw_disk(x, y, z, x2):
        w = next(fresh)
        a_inner = tuple(next(fresh) for _ in range(s))
        b_inner = tuple(next(fresh) for _ in range(t))
        return _disk_patch(x, y, z, x2, a_inner, b_inner, w)

    disk_d = draw_disk(v1, u, v0, v3)
    disk_dp = draw_disk(v2, u1, v0, v3)

    union = assemble_rp2(u, u1, cycle_c, cycle_cp, disk_d, disk_dp, v0, v1, v2, v3)
    h = Hypergraph3(n, union.facets)
    return PlantedRP2(h, u, u1, v0, v1, v2, v3, cycle_c, cycle_cp, disk_d, disk_dp)


@dataclass(frozen=True)
class PlantedSemiAdmissible:
    """A pair of hyperedges with exactly r engineered witnesses."""

    hypergraph: Hypergraph3
    e: Triple
    f: Triple
    x: int
    y: int
    z: int
    x1: int
    witnesses: tuple[int, ...]
    fan_size: int


def planted_semi_admissible(r: int, k: int, seed: int, fan_size: int | None = None) -> PlantedSemiAdmissible:
    """Pair (xyz, x'yz) with r witnesses, each backed by two disjoint fans.

    Each witness w gets fan_size (default k + 2) parallel length-2
    paths from y to z in both relevant common links, so both adjacent
    pairs are admissible outright when every vertex is available.
    """
    if r < 1 or k < 1:
        raise InputError("r and k must be at least 1")
    fan = fan_size if fan_size is not None else k + 2
    if fan < 1:
        raise InputError("fan_size must be at least 1")

    n = 4 + r + 2 * r * fan
    perm = list(range(n))
    local_rng(seed, "plant_semi", r, k, fan).shuffle(perm)
    fresh = iter(perm)
    x, y, z, x1 = (next(fresh) for _ in range(4))
    witnesses = tuple(next(fresh) for _ in range(r))

    edges = {canon_triple(x, y, z), canon_triple(x1, y, z)}
    for w in witnesses:
        edges.add(canon_triple(w, y, z))
        for _ in range(fan):
            a = next(fresh)
            edges.update((
                canon_triple(x, y, a), canon_triple(w, y, a),
                canon_triple(x, a, z), canon_triple(w, a, z),
            ))
        for _ in range(fan):
            b = next(fresh)
            edges.update((
                canon_triple(w, y, b), canon_triple(x1, y, b),
                canon_triple(w, b, z), canon_triple(x1, b, z),
            ))
    h = Hypergraph3(n, frozenset(edges))
    return PlantedSemiAdmissible(
        h, canon_triple(x, y, z), canon_triple(x1, y, z), x, y, z, x1, witnesses, fan,
    )


def planted_dense_pair(n: int, link_edges: int, noise: int, seed: int) -> tuple[Hypergraph3, int, int]:
    """Embed one pair of vertices with a rich common link, plus noise triples."""
    if n < 4:
        raise InputError("need at least four vertices")
    rng = local_rng(seed, "plant_dense", n, link_edges, noise)
    perm = list(range(n))
    rng.shuffle(perm)
    u, u1 = perm[0], perm[1]
    rest = perm[2:]
    pairs = [(a, b) for i, a in enumerate(rest) for b in rest[i + 1:]]
    if link_edges > len(pairs):
        raise InputError("link_edges exceeds the available vertex pairs")
    chosen = rng.sample(pairs, link_edges)
    edges = set()
    for a, b in chosen:
        edges.add(canon_triple(u, a, b))
        edges.add(canon_triple(u1, a, b))
    attempts = 0
    while noise > 0 and attempts < 50 * noise:
        attempts += 1
        tri = tuple(rng.sample(rest, 3))
        canon = canon_triple(*tri)
        if canon not in edges:
            edges.add(canon)
            noise -= 1
    return Hypergraph3(n, frozenset(edges)), u, u1


def verify_fixture(f: Fixture) -> bool:
    """Does the classifier agree with the fixture's expected verdict?"""
    return classify(f.facets).verdict == f.expected_verdict
