"""Constructing sphere and projective-plane subcomplexes of a hypergraph.

The sphere route is classical: a cycle C in a common link of two apex
vertices u, u' yields the 2|C|-facet double pyramid.

The projective-plane route glues five ingredients found inside the
hypergraph: two cycles C, C' in a common link meeting only at a hub
vertex v0, and two disk patches D, D' replacing the degenerate corners
at v0, assembled so the union is a closed non-orientable chi = 1
surface.  ``find_rp2`` runs the whole randomized pipeline: pick the
densest common link, pick a low-degree hub with two usable incident
edges, four-way-partition the vertices, route the cycles through the
first two partition classes and build the disks inside the last two,
then validate the glued complex with the surface classifier and return
a machine-checkable certificate.

The gluing needs at least 13 distinct vertices, a limit of that
construction and not of RP2.  When it ends in not-found, ``find_rp2``
falls back to the minimal route: a deterministic backtracking search for
an embedding of the 6-vertex, 10-facet hemi-icosahedron in the
hypergraph's edges, returned as a ``MinimalCertificate``.  Strict mode,
the prefilter and a zero retry budget keep the gluing route only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import ClassVar, NamedTuple, Optional

from .admissibility import (
    VERDICT_ADMISSIBLE,
    AdmissibilityEstimate,
    AdmissibilityParams,
    admissible,
    check_exact_limit,
    filter_semi_admissible,
    semi_admissible,
)
from .errors import DefectError, InputError, PreconditionError
from .hypergraph import (
    Graph,
    Hypergraph3,
    Triple,
    best_pair,
    canon_pair,
    canon_triple,
    codegree_table,
    link_edge_counts,
    pair_link,
)
from .paths import cycle_edges, cycle_with_edge, cycle_with_forced_second_vertex, path_through
from .rng import derive_seed, local_rng
from .surfaces import (
    VERDICT_DISK,
    VERDICT_RP2,
    VERDICT_SPHERE,
    Complex2,
    SurfaceReport,
    classify,
    cycles_equal_up_to_symmetry,
    has_induced_boundary,
    interior_vertices,
)

APEX_PATH_COUNT = 2  # disjoint-path level certified for the hub's two edges
PARTITION_PROBS = (1 / 6, 1 / 6, 1 / 3, 1 / 3)  # U1, U2, U3, U4


@dataclass(frozen=True)
class SearchConfig:
    """All knobs of the randomized search.

    Strict mode enforces the existence thresholds that the asymptotic
    argument needs (astronomically large at desk scale); lenient mode
    relaxes them to best-found and lets the classifier-verified
    certificate carry the burden of proof.  Semi-admissibility of each
    disk's hyperedge pair is checked in strict mode only: a lenient
    search builds the disk whatever the verdict, so it computes none.
    ``retry_budget`` bounds the gluing attempts; 0 means no search at all.  Only lenient searches
    without ``prefilter`` fall back to the minimal route when gluing
    ends in not-found: strict mode reports the paper's construction
    alone, and the prefilter belongs to the asymptotic regime.
    """

    p: float = 1 / 6
    epsilon: float = 0.05
    epsilon_prime: float = 1 / 3
    k: int = 5
    r: int = 8
    d: int = 20
    c: float = 1.0
    retry_budget: int = 800
    mc_samples: int = 512
    seed: int = 0
    strict: bool = False
    prefilter: bool = False
    prefilter_budget: int = 200
    exact_limit: int = 16

    def __post_init__(self):
        if not 0 < self.p <= 0.5:
            raise InputError(f"p must lie in (0, 1/2], got {self.p}")
        for name in ("k", "r", "d", "mc_samples"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be at least 1")
        if self.retry_budget < 0:
            raise InputError("retry_budget must be non-negative")
        check_exact_limit(self.exact_limit)
        if self.strict:
            alpha = 2 * APEX_PATH_COUNT / (self.p ** 2 * self.epsilon_prime)
            if self.d < 4 * (1 + 2 * alpha):
                raise InputError(
                    f"strict mode needs d >= {4 * (1 + 2 * alpha):.0f}, got {self.d}"
                )

    @classmethod
    def strict_defaults(cls, p: float = 1 / 6, epsilon_prime: float = 1 / 3, **kw) -> "SearchConfig":
        """Solve the strict-mode constant chain numerically.

        d comes from the degree-threshold formula at path level 2, then
        r and epsilon shrink the two failure terms below 1/(6d) each.
        """
        import math

        alpha = 2 * APEX_PATH_COUNT / (p ** 2 * epsilon_prime)
        d = math.ceil(4 * (1 + 2 * alpha))
        r = 5 + math.ceil(math.log(2 * 6 * d) / math.log(3 / 2)) + 1
        epsilon = 1 / (4 * r * 6 * d) * 0.99
        return cls(p=p, epsilon=epsilon, epsilon_prime=epsilon_prime,
                   r=r, d=d, strict=True, **kw)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def adm_params(self, k: int, epsilon: float | None = None) -> AdmissibilityParams:
        return AdmissibilityParams(
            p=self.p,
            epsilon=self.epsilon if epsilon is None else epsilon,
            k=k,
            r=self.r,
            mc_samples=self.mc_samples,
            exact_limit=self.exact_limit,
        )


@dataclass(frozen=True)
class DiskPatch:
    """A disk subcomplex with its boundary walk and interior vertex set."""

    facets: Complex2
    boundary: tuple[int, ...]
    interior: frozenset[int]


@dataclass(frozen=True)
class SphereCertificate:
    facets: tuple[Triple, ...]
    u: int
    u1: int
    cycle: tuple[int, ...]
    seed: int
    report: SurfaceReport

    def to_json_dict(self) -> dict:
        return {
            "facets": [list(t) for t in self.facets],
            "roles": {"u": self.u, "u1": self.u1},
            "cycle": list(self.cycle),
            "seed": self.seed,
            "report": self.report.to_json_dict(),
        }


@dataclass(frozen=True)
class Certificate:
    """Verifiable record of a projective-plane subcomplex found by gluing."""

    route: ClassVar[str] = "gluing"

    facets: tuple[Triple, ...]
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
    partition: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    config: SearchConfig
    seed: int
    report: SurfaceReport

    @property
    def w_set(self) -> frozenset[int]:
        return frozenset((self.u, self.u1, self.v0, self.v1, self.v3))

    def to_json_dict(self) -> dict:
        def disk_dict(d: DiskPatch) -> dict:
            return {
                "facets": [list(t) for t in sorted(d.facets.facets)],
                "boundary": list(d.boundary),
                "interior": sorted(d.interior),
            }

        return {
            "facets": [list(t) for t in self.facets],
            "roles": {
                "u": self.u, "u1": self.u1, "v0": self.v0,
                "v1": self.v1, "v2": self.v2, "v3": self.v3,
            },
            "cycles": {"C": list(self.cycle_c), "Cprime": list(self.cycle_cprime)},
            "disks": {"D": disk_dict(self.disk_d), "Dprime": disk_dict(self.disk_dprime)},
            "partition": {
                f"U{i + 1}": list(part) for i, part in enumerate(self.partition)
            },
            "config": self.config.to_json_dict(),
            "seed": self.seed,
            "report": self.report.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


@dataclass(frozen=True)
class MinimalCertificate:
    """Verifiable record of a hemi-icosahedron embedded in the hypergraph.

    ``embedding[i]`` is the hypergraph vertex that carries vertex i of
    the ``hemi_icosahedron_rp2`` fixture; ``facets`` are the images of
    the fixture's ten facets.
    """

    route: ClassVar[str] = "minimal"

    facets: tuple[Triple, ...]
    embedding: tuple[int, ...]
    config: SearchConfig
    seed: int
    report: SurfaceReport

    def to_json_dict(self) -> dict:
        return {
            "facets": [list(t) for t in self.facets],
            "route": self.route,
            "embedding": list(self.embedding),
            "config": self.config.to_json_dict(),
            "seed": self.seed,
            "report": self.report.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def build_double_pyramid(u: int, u1: int, cycle: tuple[int, ...]) -> Complex2:
    """Facets {u e, u' e} over the edges e of the cycle: a 2|C|-facet sphere."""
    if u == u1:
        raise InputError("apexes must differ")
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        raise InputError("cycle must be simple with length at least 3")
    if u in cycle or u1 in cycle:
        raise InputError("apex lies on the cycle")
    facets = set()
    for a, b in cycle_edges(cycle):
        facets.add(canon_triple(u, a, b))
        facets.add(canon_triple(u1, a, b))
    return Complex2(frozenset(facets))


def _find_cycle(g: Graph) -> Optional[tuple[int, ...]]:
    """Any simple cycle, by iterative DFS from the smallest vertex."""
    adj = g.adjacency
    color: dict[int, int] = {}
    parent: dict[int, int] = {}
    for root in sorted(g.vertices):
        if root in color or not adj[root]:
            continue
        stack = [(root, iter(adj[root]))]
        color[root] = 1
        parent[root] = root
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent[v]:
                    continue
                if w in color:
                    # back edge: walk v up to w
                    walk = [v]
                    cur = v
                    while cur != w:
                        cur = parent[cur]
                        walk.append(cur)
                    return tuple(reversed(walk))
                color[w] = 1
                parent[w] = v
                stack.append((w, iter(adj[w])))
                advanced = True
                break
            if not advanced:
                stack.pop()
    return None


def find_sphere(h: Hypergraph3, budget: int | None = None, seed: int = 0) -> Optional[SphereCertificate]:
    """Double-pyramid sphere search: densest common links first."""
    if h.n < 2:
        return None
    counts = link_edge_counts(h)
    ranked = sorted(counts, key=lambda k: (-counts[k], k))
    if budget is not None:
        ranked = ranked[:budget]
    for u, u1 in ranked:
        link = pair_link(h, u, u1)
        cycle = _find_cycle(link)
        if cycle is None:
            continue
        facets = build_double_pyramid(u, u1, cycle)
        report = classify(facets)
        if report.verdict != VERDICT_SPHERE:
            raise DefectError(f"double pyramid classified as {report.verdict}")
        return SphereCertificate(tuple(sorted(facets.facets)), u, u1, cycle, seed, report)
    return None


def two_fan_disk_facets(x: int, y: int, z: int, x2: int, w: int,
                    a_inner: tuple[int, ...], b_inner: tuple[int, ...]) -> frozenset[Triple]:
    """Facet set of the two-fan disk with boundary y x z x' and hub w.

    The first fan pairs x with w along the path y a_1 .. a_s z, the
    second pairs w with x' along y b_1 .. b_t z.
    """
    a_path = (y,) + tuple(a_inner) + (z,)
    b_path = (y,) + tuple(b_inner) + (z,)
    facets = set()
    for i in range(len(a_path) - 1):
        facets.add(canon_triple(x, a_path[i], a_path[i + 1]))
        facets.add(canon_triple(w, a_path[i], a_path[i + 1]))
    for j in range(len(b_path) - 1):
        facets.add(canon_triple(w, b_path[j], b_path[j + 1]))
        facets.add(canon_triple(x2, b_path[j], b_path[j + 1]))
    return frozenset(facets)


def _validated_disk(facets: frozenset[Triple], boundary: tuple[int, ...],
                    pool: set, w_set) -> DiskPatch:
    cx = Complex2(facets)
    interior, problems = _disk_problems(cx, boundary, "disk candidate")
    if problems:
        raise DefectError(problems[0])
    if not interior <= (set(pool) - set(w_set)):
        raise DefectError("disk interior escaped the sampled vertex pool")
    return DiskPatch(cx, boundary, interior)


def build_disk_from_pair(
    h: Hypergraph3, x: int, y: int, z: int, x2: int,
    u_pool, w_set, params: AdmissibilityParams, seed: int,
) -> Optional[DiskPatch]:
    """Find a two-fan disk with induced boundary y x z x' inside the pool.

    The pool splits into two halves by a fair seeded coin.  Witness
    candidates (vertices w in the pool, outside the avoidance set, with
    wyz an edge) are scanned in seeded-random order; for each, one
    y-z path is routed through each half inside the corresponding
    common link.  First full success wins.
    """
    if canon_triple(x, y, z) not in h.edges or canon_triple(x2, y, z) not in h.edges:
        raise InputError("xyz and x'yz must be edges of the hypergraph")
    if len(set(w_set)) > params.k:
        raise InputError(f"avoidance set has {len(set(w_set))} > k = {params.k} vertices")
    pool = set(u_pool)
    if pool & {x, y, z, x2}:
        raise InputError("boundary vertices must be removed from the pool")

    split_rng = local_rng(seed, "split")
    half1 = {v for v in sorted(pool) if split_rng.random() < 0.5}
    half2 = pool - half1

    candidates = [
        w for w in sorted(pool - set(w_set))
        if canon_triple(w, y, z) in h.edges
    ]
    local_rng(seed, "scan").shuffle(candidates)

    avoid1 = set(w_set) | {x2}
    avoid2 = set(w_set) | {x}
    for w in candidates:
        link_xw = pair_link(h, x, w)
        p_path = path_through(link_xw, y, z, half1 - {w}, avoid1)
        if p_path is None:
            continue
        link_wx2 = pair_link(h, w, x2)
        q_path = path_through(link_wx2, y, z, half2 - {w}, avoid2)
        if q_path is None:
            continue
        facets = two_fan_disk_facets(x, y, z, x2, w, p_path[1:-1], q_path[1:-1])
        return _validated_disk(facets, (y, x, z, x2), pool, w_set)
    return None


class _Gluing(NamedTuple):
    """The five gluing ingredients with their roles, as ``Certificate`` names them."""

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


def _cycle_neighbors(cycle: tuple[int, ...], v: int) -> tuple[int, int]:
    i = cycle.index(v)
    return cycle[(i - 1) % len(cycle)], cycle[(i + 1) % len(cycle)]


def _disk_problems(facets: Complex2, boundary: tuple[int, ...],
                   label: str) -> tuple[Optional[frozenset[int]], list[str]]:
    """Interior (None if no disk) and the problems of a disk with this boundary walk.

    Classifies the complex once and hands the report to the boundary
    and interior helpers.
    """
    report = classify(facets)
    if report.verdict != VERDICT_DISK:
        return None, [f"{label} is not a disk: {report.verdict}"]
    problems = []
    if not has_induced_boundary(facets, report):
        problems.append(f"{label} boundary not induced")
    if not cycles_equal_up_to_symmetry(report.boundary_cycles[0], boundary):
        problems.append(f"{label} boundary walk mismatch")
    return interior_vertices(facets, report), problems


def _five_sets(g: _Gluing | Certificate) -> list[tuple[str, set]]:
    """The five vertex sets of the gluing that must be pairwise disjoint."""
    return [
        ("V(C)-{v0,v1}", set(g.cycle_c) - {g.v0, g.v1}),
        ("V(C')-{v0,v3}", set(g.cycle_cprime) - {g.v0, g.v3}),
        ("interior(D)", set(g.disk_d.interior)),
        ("interior(D')", set(g.disk_dprime.interior)),
        ("W", {g.u, g.u1, g.v0, g.v1, g.v3}),
    ]


def _structure_problems(g: _Gluing | Certificate) -> list[str]:
    """Every problem with the gluing's structure, the host aside, in a fixed order.

    ``assemble_rp2`` raises the first one; ``verify_certificate``
    reports them all.
    """
    problems = []
    if len({g.u, g.u1, g.v0, g.v1, g.v2, g.v3}) != 6:
        problems.append("roles not distinct")
    for label, cyc in (("C", g.cycle_c), ("C'", g.cycle_cprime)):
        if len(cyc) < 3 or len(set(cyc)) != len(cyc):
            problems.append(f"{label} is not a simple cycle")

    if g.v0 in g.cycle_c and g.v1 in g.cycle_c and g.v2 in g.cycle_c:
        if set(_cycle_neighbors(g.cycle_c, g.v0)) != {g.v1, g.v2}:
            problems.append("v1 v0 v2 is not a subpath of C")
    else:
        problems.append("v0, v1, v2 not all on C")
    if g.v0 in g.cycle_cprime and g.v3 in g.cycle_cprime:
        if g.v3 not in _cycle_neighbors(g.cycle_cprime, g.v0):
            problems.append("v0 v3 is not an edge of C'")
    else:
        problems.append("v0, v3 not all on C'")

    for label, disk, boundary in (
        ("D", g.disk_d, (g.v0, g.v1, g.u, g.v3)),
        ("D'", g.disk_dprime, (g.v0, g.v2, g.u1, g.v3)),
    ):
        interior, found = _disk_problems(disk.facets, boundary, label)
        problems += found
        if interior is not None and disk.interior != interior:
            problems.append(f"{label} interior mismatch")

    for (label_a, a), (label_b, b) in combinations(_five_sets(g), 2):
        if a & b:
            problems.append(f"{label_a} intersects {label_b}")
    return problems


def _glued_facets(g: _Gluing | Certificate) -> frozenset[Triple]:
    """The facets of the glued surface; the structure must be sound.

    Apex u spans the cycle edges but v0v1 and v0v3, apex u' all but
    v0v2 and v0v3, and both disks join whole.
    """
    all_cycle_edges = set(cycle_edges(g.cycle_c)) | set(cycle_edges(g.cycle_cprime))
    path_a = all_cycle_edges - {canon_pair(g.v0, g.v1), canon_pair(g.v0, g.v3)}
    path_a1 = all_cycle_edges - {canon_pair(g.v0, g.v2), canon_pair(g.v0, g.v3)}
    facets = {canon_triple(g.u, a, b) for a, b in path_a}
    facets |= {canon_triple(g.u1, a, b) for a, b in path_a1}
    return frozenset(facets | g.disk_d.facets.facets | g.disk_dprime.facets.facets)


def assemble_rp2(
    u: int, u1: int,
    cycle_c: tuple[int, ...], cycle_cprime: tuple[int, ...],
    disk_d: DiskPatch, disk_dprime: DiskPatch,
    v0: int, v1: int, v2: int, v3: int,
) -> Complex2:
    """Glue the two cycles and two disks into a projective plane.

    Every gluing hypothesis is validated before any facet is emitted,
    by the same checker that ``verify_certificate`` runs; a failure
    raises PreconditionError naming the first violated clause.  The
    classifier has the last word: a verdict other than RP2 on the union
    is a DefectError, never a silent return.
    """
    gluing = _Gluing(u, u1, v0, v1, v2, v3, cycle_c, cycle_cprime, disk_d, disk_dprime)
    problems = _structure_problems(gluing)
    if problems:
        raise PreconditionError(problems[0])
    union = Complex2(_glued_facets(gluing))
    report = classify(union)
    if report.verdict != VERDICT_RP2:
        raise DefectError(f"assembly classified as {report.verdict}, expected RP2")
    return union


@dataclass(frozen=True)
class DensePairResult:
    ok: bool
    u: int
    u1: int
    graph: Optional[Graph]
    edge_count: int
    threshold: float


def find_dense_pair(h: Hypergraph3, edge_subset, d: int, strict: bool = False) -> DensePairResult:
    """Best common link of the sub-hypergraph restricted to the edge subset.

    Strict mode demands at least d n / 4 common-link edges; lenient mode
    only requires a non-empty link.
    """
    sub = Hypergraph3(h.n, frozenset(edge_subset))
    threshold = d * h.n / 4 if strict else 0.0
    if h.n < 2:
        return DensePairResult(False, -1, -1, None, 0, threshold)
    u, u1, count = best_pair(sub)
    g = pair_link(sub, u, u1)
    ok = len(g.edges) >= threshold if strict else len(g.edges) > 0
    return DensePairResult(ok, u, u1, g if ok else None, len(g.edges), threshold)


@dataclass(frozen=True)
class ApexResult:
    ok: bool
    subgraph: Optional[Graph]
    v0: int
    v1: int
    v3: int
    certified: bool


def _trim_edges(g: Graph, target: int) -> Graph:
    """Drop edges touching low-degree endpoints first until target remain."""
    if len(g.edges) <= target:
        return g
    deg: dict[int, int] = {v: 0 for v in g.vertices}
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    ranked = sorted(
        g.edges,
        key=lambda e: (min(deg[e[0]], deg[e[1]]), max(deg[e[0]], deg[e[1]]), e),
    )
    keep = ranked[len(g.edges) - target:]
    return Graph(g.vertices, frozenset(keep))


def _scan_for_hub(g: Graph, scan_vertices, config: SearchConfig):
    """Pick v0 with two usable incident edges among the scanned vertices.

    Certified edges (admissible at epsilon_prime, path level 2) win; in
    lenient mode the best uncertified pair by estimated probability is
    the fallback.
    """
    params = config.adm_params(APEX_PATH_COUNT, config.epsilon_prime)
    adj = g.adjacency
    estimates: dict[tuple[int, int], AdmissibilityEstimate] = {}

    def estimate(e):
        if e not in estimates:
            estimates[e] = admissible(g, e, params, derive_seed(config.seed, "apex", *e))
        return estimates[e]

    best = None  # (min_p_hat, -v0, v0, v1, v3)
    for v0 in sorted(scan_vertices):
        nbrs = adj.get(v0, [])
        if len(nbrs) < 2:
            continue
        scored = []
        for w in nbrs:
            est = estimate(canon_pair(v0, w))
            scored.append((-est.p_hat, w, est))
        scored.sort()
        certified = [s for s in scored if s[2].verdict == VERDICT_ADMISSIBLE]
        if len(certified) >= 2:
            return v0, certified[0][1], certified[1][1], True
        if not config.strict:
            min_hat = min(-scored[0][0], -scored[1][0])
            key = (min_hat, -v0)
            if best is None or key > best[0]:
                best = (key, v0, scored[0][1], scored[1][1])
    if best is not None:
        return best[1], best[2], best[3], False
    return None


def find_apex(g: Graph, config: SearchConfig) -> ApexResult:
    """Degree-peeling recursion toward a low-degree hub with two usable edges.

    Small graphs are searched whole.  Larger ones are trimmed to about
    d n / 4 edges; when the high-degree side stays dense the recursion
    descends into it, otherwise the low-degree side is scanned.
    """
    d = config.d
    n = len(g.vertices)
    if n == 0 or not g.edges:
        return ApexResult(False, None, -1, -1, -1, False)
    if n <= d:
        hit = _scan_for_hub(g, g.vertices, config)
        if hit is None:
            return ApexResult(False, None, -1, -1, -1, False)
        return ApexResult(True, g, *hit)

    target = -(-d * n // 4)  # ceil
    trimmed = _trim_edges(g, target)
    deg: dict[int, int] = {v: 0 for v in trimmed.vertices}
    for a, b in trimmed.edges:
        deg[a] += 1
        deg[b] += 1
    v_low = {v for v in trimmed.vertices if deg[v] <= d}
    v_high = trimmed.vertices - v_low
    m_high = sum(1 for a, b in trimmed.edges if a in v_high and b in v_high)
    if v_high and m_high > (d / 4) * len(v_high) and len(v_high) < n:
        return find_apex(trimmed.subgraph(v_high), config)
    hit = _scan_for_hub(trimmed, v_low, config)
    if hit is None:
        return ApexResult(False, None, -1, -1, -1, False)
    return ApexResult(True, trimmed, *hit)


@dataclass
class SearchOutcome:
    certificate: Certificate | MinimalCertificate | None
    counters: dict[str, int] = field(default_factory=dict)
    attempts: int = 0

    @property
    def found(self) -> bool:
        return self.certificate is not None


def _sample_partition(vertices, rng) -> tuple[set, set, set, set]:
    parts: tuple[set, set, set, set] = (set(), set(), set(), set())
    cut1 = PARTITION_PROBS[0]
    cut2 = cut1 + PARTITION_PROBS[1]
    cut3 = cut2 + PARTITION_PROBS[2]
    for v in sorted(vertices):
        roll = rng.random()
        if roll < cut1:
            parts[0].add(v)
        elif roll < cut2:
            parts[1].add(v)
        elif roll < cut3:
            parts[2].add(v)
        else:
            parts[3].add(v)
    return parts


def _hemi_icosahedron() -> list[Triple]:
    """The facets of the ``hemi_icosahedron_rp2`` fixture, ascending."""
    from .generators import fixture  # generators imports this module

    return sorted(fixture("hemi_icosahedron_rp2").facets.facets)


def _embedded_facets(embedding: tuple[int, ...]) -> tuple[Triple, ...]:
    """The hemi-icosahedron's facets carried by ``embedding``, ascending."""
    return tuple(sorted(canon_triple(*(embedding[x] for x in t)) for t in _hemi_icosahedron()))


def embed_hemi_icosahedron(h: Hypergraph3) -> Optional[tuple[int, ...]]:
    """Hypergraph vertices carrying the hemi-icosahedron, or None if none do.

    Backtracking seeded from the hypergraph's edges in ascending order:
    the pattern's first facet goes onto the seed edge, and each later
    pattern vertex is drawn from the extenders of two placed vertices,
    then kept only if every pattern facet it completes is an edge.  The
    pattern's automorphism group (A5) acts regularly on its 60 ordered
    facets, so one ordering of each seed edge covers every embedding
    through it, and a seed that fails lies in no embedding and is
    dropped from later checks.  Only vertices on some edge are visited;
    the result depends on the edge set alone.
    """
    pattern = _hemi_icosahedron()
    if len(h.edges) < len(pattern):
        return None
    order = list(pattern[0])
    steps = []  # (pattern vertex, two placed vertices it extends, facets it completes)
    while len(order) < 6:
        p, anchor = min(
            (v, tuple(x for x in t if x != v))
            for t in pattern for v in t
            if v not in order and all(x in order for x in t if x != v)
        )
        order.append(p)
        steps.append((p, anchor, [t for t in pattern if p in t and set(t) <= set(order)]))

    extenders = codegree_table(h)
    live = set(h.edges)
    image: dict[int, int] = {}

    def extend(i: int) -> bool:
        if i == len(steps):
            return True
        p, (a, b), completes = steps[i]
        used = set(image.values())
        for w in extenders.get(canon_pair(image[a], image[b]), ()):
            if w in used:
                continue
            image[p] = w
            if all(canon_triple(*(image[x] for x in t)) in live for t in completes) and extend(i + 1):
                return True
        image.pop(p, None)
        return False

    for seed in sorted(h.edges):
        image.clear()
        image.update(zip(order, seed))
        if extend(0):
            return tuple(image[v] for v in range(len(order)))
        live.discard(seed)
    return None


def find_rp2(h: Hypergraph3, config: SearchConfig, threads: int = 1) -> SearchOutcome:
    """The full certificate search; see the module docstring for the plan.

    The gluing route runs first.  Its attempts run one after another in
    index order, each from its own derived sub-seed, and the first
    success wins; ``threads`` is accepted for compatibility and does not
    change the outcome.  When gluing ends in not-found, a lenient search
    without the prefilter tries the minimal route,
    ``embed_hemi_icosahedron``, which is deterministic; the outcome then
    keeps the gluing counters and ``attempts``.  A zero ``retry_budget``
    searches nothing.
    """
    if config.retry_budget == 0:
        return SearchOutcome(None, {}, 0)
    outcome = _find_rp2_by_gluing(h, config)
    if outcome.found or config.strict or config.prefilter:
        return outcome
    embedding = embed_hemi_icosahedron(h)
    if embedding is None:
        return outcome
    facets = _embedded_facets(embedding)
    cert = MinimalCertificate(
        facets=facets, embedding=embedding, config=config, seed=config.seed,
        report=classify(Complex2(frozenset(facets))),
    )
    ok, problems = verify_certificate(h, cert)
    if not ok:
        raise DefectError(f"fresh certificate failed verification: {problems}")
    return SearchOutcome(cert, outcome.counters, outcome.attempts)


def _find_rp2_by_gluing(h: Hypergraph3, config: SearchConfig) -> SearchOutcome:
    """The randomized gluing search over ``config.retry_budget`` attempts."""
    counters: dict[str, int] = {}

    def bump(key: str, by: int = 1):
        counters[key] = counters.get(key, 0) + by

    edge_pool = h.edges
    if config.prefilter:
        kept = filter_semi_admissible(
            h, config.adm_params(config.k), derive_seed(config.seed, "prefilter"),
            config.prefilter_budget,
        )
        edge_pool = kept.kept
        bump("prefilter_evicted", len(h.edges) - len(edge_pool))

    dense = find_dense_pair(h, edge_pool, config.d, config.strict)
    if not dense.ok:
        bump("dense_pair")
        return SearchOutcome(None, counters, 0)
    u, u1, link = dense.u, dense.u1, dense.graph

    apex = find_apex(link, config)
    if not apex.ok:
        bump("apex")
        return SearchOutcome(None, counters, 0)
    hub_graph, v0, v1, v3 = apex.subgraph, apex.v0, apex.v1, apex.v3
    if not apex.certified:
        bump("apex_uncertified")
    w_set = frozenset((u, u1, v0, v1, v3))

    disk_params = config.adm_params(config.k)
    # strict mode checks each disk's pair at level k + 2 in sampling mode
    # (exact tables at that level are prohibitively wide); lenient mode
    # would build the disk whatever the verdict, so it computes none
    if config.strict:
        semi_params = AdmissibilityParams(
            p=config.p, epsilon=config.epsilon, k=config.k + 2, r=config.r,
            mc_samples=config.mc_samples, exact_limit=0,
        )
        semi_cache: dict[tuple, tuple[bool, frozenset]] = {}

    def lazy_semi(e: Triple, f: Triple, label: str) -> bool:
        if not config.strict:
            return True
        key = (e, f)
        if key not in semi_cache:
            semi_cache[key] = semi_admissible(
                h, e, f, semi_params, derive_seed(config.seed, "semi", *e, *f)
            )
        ok, _witnesses = semi_cache[key]
        if not ok:
            bump(f"semiadm_{label}")
        return ok

    hub_neighbors = hub_graph.neighbors(v0)

    def attempt(index: int) -> Optional[Certificate]:
        rng = local_rng(config.seed, "attempt", index)
        u_parts = _sample_partition(range(h.n), rng)

        v2_candidates = [w for w in hub_neighbors if w not in (v1, v3)]
        rng.shuffle(v2_candidates)
        chosen = None
        for v2 in v2_candidates:
            cyc = cycle_with_forced_second_vertex(
                hub_graph, v0, v1, v2, u_parts[0] - w_set, frozenset((v3,))
            )
            if cyc is not None:
                chosen = (v2, cyc)
                break
        if chosen is None:
            bump("cycle_C")
            return None
        v2, cycle_c = chosen

        cycle_cp = cycle_with_edge(hub_graph, v0, v3, u_parts[1] - w_set, frozenset((v1,)))
        if cycle_cp is None:
            bump("cycle_Cprime")
            return None

        if not lazy_semi(canon_triple(u, v0, v1), canon_triple(u, v0, v3), "D"):
            return None
        disk_d = build_disk_from_pair(
            h, v1, u, v0, v3, u_parts[2] - w_set, w_set, disk_params,
            derive_seed(config.seed, "attempt", index, "diskD"),
        )
        if disk_d is None:
            bump("disk_D")
            return None

        if not lazy_semi(canon_triple(u1, v0, v2), canon_triple(u1, v0, v3), "Dprime"):
            return None
        disk_dp = build_disk_from_pair(
            h, v2, u1, v0, v3, u_parts[3] - w_set - {v2}, w_set, disk_params,
            derive_seed(config.seed, "attempt", index, "diskDprime"),
        )
        if disk_dp is None:
            bump("disk_Dprime")
            return None

        union = assemble_rp2(u, u1, cycle_c, cycle_cp, disk_d, disk_dp, v0, v1, v2, v3)
        report = classify(union)
        cert = Certificate(
            facets=tuple(sorted(union.facets)),
            u=u, u1=u1, v0=v0, v1=v1, v2=v2, v3=v3,
            cycle_c=cycle_c, cycle_cprime=cycle_cp,
            disk_d=disk_d, disk_dprime=disk_dp,
            partition=tuple(tuple(sorted(part)) for part in u_parts),
            config=config, seed=config.seed, report=report,
        )
        ok, problems = verify_certificate(h, cert)
        if not ok:
            raise DefectError(f"fresh certificate failed verification: {problems}")
        return cert

    for index in range(config.retry_budget):
        cert = attempt(index)
        if cert is not None:
            return SearchOutcome(cert, counters, index + 1)
    return SearchOutcome(None, counters, config.retry_budget)


def verify_certificate(h: Hypergraph3, cert: Certificate | MinimalCertificate) -> tuple[bool, list[str]]:
    """Re-check every certificate invariant from scratch.

    Independent of the search path.  Every route ends with the same two
    checks: each facet is an edge of the hypergraph, and the facets
    classify as RP2.  A minimal-route certificate must also be the image
    of the hemi-icosahedron under its embedding.  A gluing certificate
    must also pass the structural checker that ``assemble_rp2`` runs,
    then cycle edges in the links of u and u', disk facets in the
    hypergraph, the partition containments and the facet union.
    Failures are reported, never thrown.
    """
    if cert.route == MinimalCertificate.route:
        problems = _embedding_problems(cert)
    else:
        problems = _gluing_problems(h, cert)
    problems += _rp2_problems(h, cert.facets)
    return not problems, problems


def _rp2_problems(h: Hypergraph3, facets: tuple[Triple, ...]) -> list[str]:
    """Facets inside the hypergraph, classified as RP2: what every route proves."""
    problems = []
    for t in facets:
        if t not in h.edges:
            problems.append(f"facet not in hypergraph: {t}")
            break
    report = classify(Complex2(frozenset(facets)))
    if report.verdict != VERDICT_RP2:
        problems.append(f"classifier verdict is {report.verdict}, expected RP2")
    return problems


def _embedding_problems(cert: MinimalCertificate) -> list[str]:
    if len(cert.embedding) != 6 or len(set(cert.embedding)) != 6:
        return ["embedding is not six distinct vertices"]
    if _embedded_facets(cert.embedding) != tuple(sorted(cert.facets)):
        return ["facets are not the embedded hemi-icosahedron"]
    return []


def _gluing_problems(h: Hypergraph3, cert: Certificate) -> list[str]:
    """The structural checks, then, on a sound structure, host and partition checks."""
    problems = _structure_problems(cert)
    if problems:
        return problems
    for label, cyc in (("C", cert.cycle_c), ("C'", cert.cycle_cprime)):
        for a, b in cycle_edges(cyc):
            if canon_triple(cert.u, a, b) not in h.edges or canon_triple(cert.u1, a, b) not in h.edges:
                problems.append(f"{label} edge {a},{b} missing from a link of u or u'")
                break
    for label, disk in (("D", cert.disk_d), ("D'", cert.disk_dprime)):
        for t in disk.facets.facets:
            if t not in h.edges:
                problems.append(f"{label} facet not in hypergraph: {t}")
                break

    if len(cert.partition) != 4:
        problems.append("partition does not have four classes")
    for (label, subset), part in zip(_five_sets(cert), cert.partition):
        if not subset <= (set(part) - cert.w_set):
            problems.append(f"{label} escapes its partition class")

    if _glued_facets(cert) != set(cert.facets):
        problems.append("assembled facet set mismatch")
    return problems
