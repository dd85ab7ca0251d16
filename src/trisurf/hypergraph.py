"""3-uniform hypergraphs, simple graphs, link graphs, and file I/O.

A hypergraph is a vertex count ``n`` (vertices are the dense integers
``0..n-1``) plus a set of 3-element edges stored as ascending triples.
Everything downstream (link graphs, codegrees, the search kernels) works
on this canonical form.

File format (UTF-8 text):
    n=<int>
    a b c        one edge per line, three space-separated integers
    # comment lines and blank lines are ignored

Serialization emits edges in ascending canonical order, one per line,
LF line endings.  Graphs use the same header with two integers per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InputError, ParseError

Triple = tuple[int, int, int]
Pair = tuple[int, int]


def canon_triple(a: int, b: int, c: int) -> Triple:
    """Sort a 3-element edge into canonical ascending form."""
    if a == b or a == c or b == c:
        raise InputError(f"triple has a repeated vertex: {a} {b} {c}")
    x, y, z = sorted((a, b, c))
    return (x, y, z)


def canon_pair(a: int, b: int) -> Pair:
    if a == b:
        raise InputError(f"pair has a repeated vertex: {a} {b}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Hypergraph3:
    """A 3-uniform hypergraph on vertices 0..n-1.

    Immutable after construction; safe to share across parallel workers.
    """

    n: int
    edges: frozenset[Triple]

    @classmethod
    def build(cls, n: int, triples: Iterable[Iterable[int]]) -> "Hypergraph3":
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        out = set()
        for t in triples:
            a, b, c = t
            tri = canon_triple(a, b, c)
            if tri[0] < 0 or tri[2] >= n:
                raise InputError(f"vertex out of range 0..{n - 1}: {tri}")
            out.add(tri)
        return cls(n, frozenset(out))

    def degree(self, u: int) -> int:
        return sum(1 for t in self.edges if u in t)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on an explicit vertex set."""

    vertices: frozenset[int]
    edges: frozenset[Pair]

    @classmethod
    def build(cls, vertices: Iterable[int], pairs: Iterable[Iterable[int]]) -> "Graph":
        vs = frozenset(vertices)
        out = set()
        for p in pairs:
            a, b = p
            e = canon_pair(a, b)
            if e[0] not in vs or e[1] not in vs:
                raise InputError(f"edge endpoint outside vertex set: {e}")
            out.add(e)
        return cls(vs, frozenset(out))

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Neighbors of each vertex, ascending; built once per graph.

        The dict is shared by every caller and must not be mutated.
        """
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    def neighbors(self, v: int) -> list[int]:
        return list(self.adjacency.get(v, ()))

    def has_edge(self, a: int, b: int) -> bool:
        return canon_pair(a, b) in self.edges

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        ks = frozenset(keep)
        return Graph(
            self.vertices & ks,
            frozenset(e for e in self.edges if e[0] in ks and e[1] in ks),
        )


def link_graph(h: Hypergraph3, u: int) -> Graph:
    """The link of ``u``: graph on V\\{u} with edge vw iff uvw is a hyperedge."""
    if not 0 <= u < h.n:
        raise InputError(f"vertex {u} out of range 0..{h.n - 1}")
    verts = frozenset(range(h.n)) - {u}
    pairs = set()
    for t in h.edges:
        if u in t:
            rest = tuple(v for v in t if v != u)
            pairs.add(rest)
    return Graph(verts, frozenset(pairs))


def pair_link(h: Hypergraph3, u: int, u2: int) -> Graph:
    """Common link of two vertices: intersection of their link graphs."""
    if u == u2:
        raise InputError("pair link needs two distinct vertices")
    for v in (u, u2):
        if not 0 <= v < h.n:
            raise InputError(f"vertex {v} out of range 0..{h.n - 1}")
    verts = frozenset(range(h.n)) - {u, u2}
    first = set()
    for t in h.edges:
        if u in t and u2 not in t:
            first.add(tuple(v for v in t if v != u))
    common = set()
    for t in h.edges:
        if u2 in t and u not in t:
            rest = tuple(v for v in t if v != u2)
            if rest in first:
                common.add(rest)
    return Graph(verts, frozenset(common))


def codegree(h: Hypergraph3, v: int, w: int) -> int:
    """Number of vertices u'' with u''vw an edge."""
    if v == w:
        raise InputError("codegree needs two distinct vertices")
    pair = canon_pair(v, w)
    return sum(1 for t in h.edges if pair[0] in t and pair[1] in t)


def codegree_table(h: Hypergraph3) -> dict[Pair, list[int]]:
    """For every vertex pair appearing in an edge, the sorted extender list."""
    table: dict[Pair, list[int]] = {}
    for a, b, c in h.edges:
        table.setdefault((a, b), []).append(c)
        table.setdefault((a, c), []).append(b)
        table.setdefault((b, c), []).append(a)
    for pair in table:
        table[pair].sort()
    return table


def link_edge_counts(h: Hypergraph3) -> dict[Pair, int]:
    """The common-link edge count e(H_{u,u'}) of every pair with a non-empty link.

    Uses the codegree table: every two extenders of a vertex pair vw
    contribute one common link edge, so a single pass over extender
    lists counts all pairs at once.
    """
    counts: dict[Pair, int] = {}
    for extenders in codegree_table(h).values():
        m = len(extenders)
        for i in range(m):
            for j in range(i + 1, m):
                key = (extenders[i], extenders[j])
                counts[key] = counts.get(key, 0) + 1
    return counts


def best_pair(h: Hypergraph3) -> tuple[int, int, int]:
    """The pair (u, u') maximizing the common-link edge count.

    Ties break to the lexicographically smallest pair.
    """
    if h.n < 2:
        raise InputError("need at least two vertices")
    counts = link_edge_counts(h)
    if not counts:
        return (0, 1, 0)
    best_count = max(counts.values())
    u, u2 = min(k for k, c in counts.items() if c == best_count)
    return (u, u2, best_count)


def _parse_header(line: str, line_no: int) -> int:
    if not line.startswith("n="):
        raise ParseError(line_no, "expected header 'n=<int>'")
    try:
        n = int(line[2:])
    except ValueError:
        raise ParseError(line_no, f"bad vertex count {line[2:]!r}") from None
    if n < 0:
        raise ParseError(line_no, "vertex count must be non-negative")
    return n


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def parse_hypergraph(text: str) -> Hypergraph3:
    """Parse the edge-list format. Duplicate lines collapse silently."""
    lines = _content_lines(text)
    try:
        line_no, header = next(lines)
    except StopIteration:
        raise ParseError(0, "empty file") from None
    n = _parse_header(header, line_no)
    edges = set()
    for line_no, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(line_no, f"expected three integers, got {len(parts)} fields")
        try:
            a, b, c = (int(p) for p in parts)
        except ValueError:
            raise ParseError(line_no, f"non-integer field in {line!r}") from None
        if len({a, b, c}) != 3:
            raise ParseError(line_no, f"repeated vertex in triple {line!r}")
        tri = canon_triple(a, b, c)
        if tri[0] < 0 or tri[2] >= n:
            raise ParseError(line_no, f"vertex out of range 0..{n - 1} in {line!r}")
        edges.add(tri)
    return Hypergraph3(n, frozenset(edges))


def serialize_hypergraph(h: Hypergraph3) -> str:
    lines = [f"n={h.n}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in sorted(h.edges))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse a graph file: same header, two integers per line."""
    lines = _content_lines(text)
    try:
        line_no, header = next(lines)
    except StopIteration:
        raise ParseError(0, "empty file") from None
    n = _parse_header(header, line_no)
    pairs = set()
    for line_no, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, f"expected two integers, got {len(parts)} fields")
        try:
            a, b = (int(p) for p in parts)
        except ValueError:
            raise ParseError(line_no, f"non-integer field in {line!r}") from None
        if a == b:
            raise ParseError(line_no, f"self-loop in {line!r}")
        e = canon_pair(a, b)
        if e[0] < 0 or e[1] >= n:
            raise ParseError(line_no, f"vertex out of range 0..{n - 1} in {line!r}")
        pairs.add(e)
    return Graph(frozenset(range(n)), frozenset(pairs))


def serialize_graph(g: Graph) -> str:
    n = max(g.vertices) + 1 if g.vertices else 0
    lines = [f"n={n}"]
    lines.extend(f"{a} {b}" for a, b in sorted(g.edges))
    return "\n".join(lines) + "\n"
