"""Classification of 2-dimensional simplicial complexes given by facets.

The classifier decides whether a facet set triangulates a closed surface,
a disk, or a surface with boundary, and names the surface.  For compact
triangulated 2-manifolds the combinatorial tests below (edge degrees,
vertex links, connectivity, Euler characteristic, orientability) are a
sound and complete replacement for point-set homeomorphism checking.

Checks run in a fixed order and the first failure wins:

  (a) every edge lies in one or two facets        -> "bad-edge-degree"
  (b) every vertex link is a single path or cycle -> "bad-link"
  (c) the facet adjacency graph is connected      -> "disconnected"
  (d) orientability by orientation propagation
  (e) verdict from (chi, orientability, boundary structure)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError
from .hypergraph import Hypergraph3, Pair, Triple, canon_triple

VERDICT_SPHERE = "Sphere"
VERDICT_RP2 = "RP2"
VERDICT_DISK = "Disk"
VERDICT_NOT_A_SURFACE = "NotASurface"


@dataclass(frozen=True)
class Complex2:
    """A 2-complex given by its facets (canonical ascending triples).

    The associated complex is the facets plus all their faces; edges and
    vertices are derived, never stored.
    """

    facets: frozenset[Triple]

    @classmethod
    def build(cls, triples: Iterable[Iterable[int]]) -> "Complex2":
        return cls(frozenset(canon_triple(*t) for t in triples))

    @classmethod
    def from_hypergraph(cls, h: Hypergraph3) -> "Complex2":
        return cls(h.edges)

    def vertices(self) -> frozenset[int]:
        return frozenset(v for t in self.facets for v in t)

    def skeleton_edges(self) -> frozenset[Pair]:
        out = set()
        for a, b, c in self.facets:
            out.add((a, b))
            out.add((a, c))
            out.add((b, c))
        return frozenset(out)


@dataclass(frozen=True)
class SurfaceReport:
    """Classifier output; serializes to a stable JSON object."""

    V: int
    E: int
    F: int
    chi: int
    connected: bool
    boundary_components: int
    orientable: bool | None
    verdict: str
    reason: str | None = None
    boundary_cycles: tuple[tuple[int, ...], ...] = ()

    @property
    def closed(self) -> bool:
        return self.verdict not in (VERDICT_NOT_A_SURFACE,) and self.boundary_components == 0

    def to_json_dict(self) -> dict:
        out = {
            "V": self.V,
            "E": self.E,
            "F": self.F,
            "chi": self.chi,
            "connected": self.connected,
            "boundary_components": self.boundary_components,
            "orientable": self.orientable,
            "verdict": self.verdict,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def euler_characteristic(x: Complex2) -> int:
    """V - E + F of the associated complex."""
    return len(x.vertices()) - len(x.skeleton_edges()) + len(x.facets)


def _edge_to_facets(x: Complex2) -> dict[Pair, list[Triple]]:
    table: dict[Pair, list[Triple]] = {}
    for t in sorted(x.facets):
        a, b, c = t
        for e in ((a, b), (a, c), (b, c)):
            table.setdefault(e, []).append(t)
    return table


def _link_ok(x: Complex2, v: int, incident: list[Triple]) -> bool:
    """Is the link of v a single simple path or a single simple cycle?"""
    deg: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for t in incident:
        a, b = (w for w in t if w != v)
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if any(d > 2 for d in deg.values()):
        return False
    ends = sum(1 for d in deg.values() if d == 1)
    if ends not in (0, 2):
        return False
    # connectivity of the link
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(adj)


def _facet_components(x: Complex2, edge_table: dict[Pair, list[Triple]]) -> int:
    facets = sorted(x.facets)
    if not facets:
        return 0
    index = {t: i for i, t in enumerate(facets)}
    seen = [False] * len(facets)
    comps = 0
    for i in range(len(facets)):
        if seen[i]:
            continue
        comps += 1
        stack = [i]
        seen[i] = True
        while stack:
            t = facets[stack.pop()]
            a, b, c = t
            for e in ((a, b), (a, c), (b, c)):
                for other in edge_table[e]:
                    j = index[other]
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
    return comps


def _oriented_edges(t: Triple, flipped: bool) -> tuple[Pair, Pair, Pair]:
    a, b, c = t
    if flipped:
        return ((b, a), (a, c), (c, b))
    return ((a, b), (b, c), (c, a))


def _propagate_orientation(x: Complex2, edge_table: dict[Pair, list[Triple]]) -> bool:
    """True iff a globally consistent orientation exists.

    Assign the first facet its canonical orientation, then walk facet
    adjacency requiring shared edges to be traversed in opposite
    directions.  Assumes the complex already passed the manifold and
    connectivity checks.
    """
    facets = sorted(x.facets)
    flip: dict[Triple, bool] = {facets[0]: False}
    stack = [facets[0]]
    ok = True
    while stack:
        t = stack.pop()
        directed = set(_oriented_edges(t, flip[t]))
        a, b, c = t
        for e in ((a, b), (a, c), (b, c)):
            t_has_forward = e in directed
            for other in edge_table[e]:
                if other == t:
                    continue
                # the neighbor must traverse e the opposite way
                other_canonical_forward = e in set(_oriented_edges(other, False))
                needed_flip = other_canonical_forward == t_has_forward
                if other in flip:
                    if flip[other] != needed_flip:
                        ok = False
                else:
                    flip[other] = needed_flip
                    stack.append(other)
    return ok


def _boundary_cycles(boundary_edges: list[Pair]) -> tuple[tuple[int, ...], ...]:
    """Split boundary edges into their simple cycles, canonically rotated.

    Assumes every endpoint has exactly two boundary edges, which the
    vertex-link check guarantees.  Cycles start at their smallest vertex
    and run toward its smaller neighbor.
    """
    adj: dict[int, list[int]] = {}
    for a, b in boundary_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for v in adj:
        adj[v].sort()
    cycles = []
    visited: set[int] = set()
    for start in sorted(adj):
        if start in visited:
            continue
        walk = [start]
        visited.add(start)
        prev, cur = start, adj[start][0]
        while cur != start:
            walk.append(cur)
            visited.add(cur)
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)
        cycles.append(tuple(walk))
    return tuple(cycles)


def classify(x: Complex2) -> SurfaceReport:
    """Full classification of the complex; see module docstring for order."""
    facet_count = len(x.facets)
    if facet_count == 0:
        return SurfaceReport(0, 0, 0, 0, False, 0, None, VERDICT_NOT_A_SURFACE, "empty")

    verts = sorted(x.vertices())
    edge_table = _edge_to_facets(x)
    v_count = len(verts)
    e_count = len(edge_table)
    chi = v_count - e_count + facet_count
    components = _facet_components(x, edge_table)
    connected = components == 1

    def failure(reason: str) -> SurfaceReport:
        return SurfaceReport(
            v_count, e_count, facet_count, chi, connected, 0, None,
            VERDICT_NOT_A_SURFACE, reason,
        )

    if any(len(fs) > 2 for fs in edge_table.values()):
        return failure("bad-edge-degree")

    incident: dict[int, list[Triple]] = {v: [] for v in verts}
    for t in x.facets:
        for v in t:
            incident[v].append(t)
    for v in verts:
        if not _link_ok(x, v, incident[v]):
            return failure("bad-link")

    if not connected:
        return failure("disconnected")

    orientable = _propagate_orientation(x, edge_table)

    boundary = sorted(e for e, fs in edge_table.items() if len(fs) == 1)
    cycles = _boundary_cycles(boundary) if boundary else ()
    b_count = len(cycles)

    if b_count == 0:
        if orientable:
            if chi == 2:
                verdict = VERDICT_SPHERE
            else:
                verdict = f"Torus(g={(2 - chi) // 2})"
        else:
            crosscaps = 2 - chi
            verdict = VERDICT_RP2 if crosscaps == 1 else f"NonOrientable(k={crosscaps})"
    elif b_count == 1 and chi == 1:
        verdict = VERDICT_DISK
    else:
        orient_word = "yes" if orientable else "no"
        verdict = f"SurfaceWithBoundary(chi={chi},boundary={b_count},orientable={orient_word})"

    return SurfaceReport(
        v_count, e_count, facet_count, chi, True, b_count, orientable,
        verdict, None, cycles,
    )


def boundary_vertices(x: Complex2) -> frozenset[int]:
    edge_table = _edge_to_facets(x)
    return frozenset(v for e, fs in edge_table.items() if len(fs) == 1 for v in e)


def has_induced_boundary(x: Complex2, report: SurfaceReport | None = None) -> bool:
    """No 1-simplex chords the boundary and no facet lies inside it.

    ``report`` is ``classify(x)``, computed here when not given.
    """
    report = classify(x) if report is None else report
    if report.verdict != VERDICT_DISK and not report.verdict.startswith("SurfaceWithBoundary"):
        raise InputError(f"complex is not a surface with boundary: {report.verdict}")
    b_verts = boundary_vertices(x)
    b_edges = {e for e, fs in _edge_to_facets(x).items() if len(fs) == 1}
    for e in x.skeleton_edges():
        if e[0] in b_verts and e[1] in b_verts and e not in b_edges:
            return False
    for t in x.facets:
        if all(v in b_verts for v in t):
            return False
    return True


def interior_vertices(x: Complex2, report: SurfaceReport | None = None) -> frozenset[int]:
    """Vertices not on the boundary; the whole vertex set when closed.

    ``report`` is ``classify(x)``, computed here when not given.
    """
    report = classify(x) if report is None else report
    if report.verdict == VERDICT_NOT_A_SURFACE:
        raise InputError(f"not a manifold: {report.reason}")
    return x.vertices() - boundary_vertices(x)


def cycles_equal_up_to_symmetry(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Cyclic sequences equal up to rotation and reflection."""
    if len(a) != len(b) or not a:
        return False
    doubled = a + a
    rev = tuple(reversed(a))
    rev_doubled = rev + rev
    k = len(a)
    for i in range(k):
        if doubled[i : i + k] == b or rev_doubled[i : i + k] == b:
            return True
    return False
