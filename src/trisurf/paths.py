"""Deterministic path and cycle certificates in graphs.

The central primitive decides, exactly, whether k internally
vertex-disjoint paths of length at least 2 run from x to y with all
internal vertices inside a prescribed set U.  The decision runs
shortest augmenting paths straight on the graph's adjacency, over
(vertex, side) nodes: side 0 enters a vertex of U and side 1 leaves it,
so each vertex carries at most one path.  The direct edge xy is
skipped, so no path can degenerate to length 1.

Everything here is pure and reentrant; identical inputs give identical
outputs because all adjacency is visited in ascending vertex order.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass

from .errors import InputError
from .hypergraph import Graph, canon_pair


@dataclass(frozen=True)
class PathSystem:
    """Internally vertex-disjoint x-y paths, each of length >= 2."""

    paths: tuple[tuple[int, ...], ...]


def _disjoint_flow(g: Graph, x: int, y: int, u, limit: int) -> set[tuple[int, int]]:
    """Arcs a->b of up to ``limit`` internally disjoint x-y paths through U.

    Shortest augmenting paths on g's own adjacency, without the edge xy.
    A node is (vertex, side): side 0 enters a vertex of U and side 1
    leaves it, so each vertex carries at most one path; x only leaves
    and y only enters.  Breadth-first search tries the sink first, then
    successors in ascending vertex order, and the first parent wins.
    """
    adj = g.adjacency
    inner = set(u) - {x, y}
    to_y = inner.intersection(adj.get(y, ()))
    used: set[tuple[int, int]] = set()
    for _ in range(limit):
        feeder = {b: a for a, b in used}  # the used arc into each busy vertex
        parent = {(x, 1): None}
        queue = deque([(x, 1)])
        while queue:
            node = queue.popleft()
            v, side = node
            if side == 0:
                # a free vertex passes the path through itself; a busy
                # one can only undo the arc that feeds it
                succ = [(feeder[v], 1) if v in feeder else (v, 1)]
            elif v in to_y:
                break
            else:
                # Arcs in use need no test: a used arc v->w reaches (w, 0),
                # whose only way on is back to (v, 1).  Likewise no node
                # leads to (v, 1) once v's path ends at y.
                succ = [(w, 0) for w in adj.get(v, ()) if w in inner]
                if v in feeder:  # undo the path through v
                    insort(succ, (v, 0))
            for nxt in succ:
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        else:
            break  # y is out of reach: the flow is maximum
        used.add((node[0], y))
        while parent[node] is not None:
            (a, a_side), (b, _) = parent[node], node
            if a != b:  # an arc between vertices: forward on side 1, undone on side 0
                if a_side:
                    used.add((a, b))
                else:
                    used.discard((b, a))
            node = parent[node]
    return used


def disjoint_paths(g: Graph, x: int, y: int, u: set | frozenset, k: int):
    """k internally vertex-disjoint paths from x to y through U, or None.

    Exact decision: None is returned only when no such system exists.
    Paths come in ascending order of their second vertex.
    """
    if x == y:
        raise InputError("endpoints must differ")
    if x in u or y in u:
        raise InputError("endpoints may not lie in U")
    if x not in g.vertices or y not in g.vertices:
        raise InputError("endpoints must be vertices of the graph")
    if k < 1:
        raise InputError("k must be positive")
    used = _disjoint_flow(g, x, y, u, k)
    starts = sorted(b for a, b in used if a == x)
    if len(starts) < k:
        return None
    step = {a: b for a, b in used if a != x}
    paths = []
    for b in starts:
        path = [x, b]
        while path[-1] != y:
            path.append(step[path[-1]])
        paths.append(tuple(path))
    return PathSystem(tuple(paths))


def max_disjoint_paths(g: Graph, x: int, y: int, u, limit: int) -> int:
    """The most internally disjoint x-y paths through U, capped at ``limit``."""
    return sum(1 for a, _ in _disjoint_flow(g, x, y, u, limit) if a == x)


def _restricted_bfs(g: Graph, s: int, t: int, internal: set, forbid_direct: bool):
    """Shortest s-t path whose internal vertices all lie in ``internal``.

    Deterministic: neighbors expand in ascending order, first parent wins.
    """
    adj = g.adjacency
    parent = {s: s}
    queue = deque([s])
    while queue:
        cur = queue.popleft()
        for nxt in adj.get(cur, ()):
            if cur == s and nxt == t and forbid_direct:
                continue
            if nxt == t:
                path = [t, cur]
                back = cur
                while back != s:
                    back = parent[back]
                    path.append(back)
                path.reverse()
                return tuple(path)
            if nxt in internal and nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    return None


def path_through(g: Graph, x: int, y: int, u, avoid=frozenset()):
    """A path of length >= 2 from x to y with internal vertices in U \\ avoid."""
    if x in u or y in u:
        raise InputError("endpoints may not lie in U")
    if x == y:
        raise InputError("endpoints must differ")
    internal = (set(u) & g.vertices) - set(avoid) - {x, y}
    return _restricted_bfs(g, x, y, internal, forbid_direct=True)


def cycle_with_forced_second_vertex(g: Graph, v0: int, v1: int, v2: int, u, avoid=frozenset()):
    """A cycle through the subpath v1-v0-v2 with V(C)\\{v0,v1} in U \\ avoid.

    Realized as a path v0 v2 ... v1 (so v2 is forced second) closed by
    the edge v1 v0.  Returns the cycle as a vertex tuple starting at v0,
    or None when no qualifying path from v2 to v1 exists.
    """
    if v1 == v2:
        raise InputError("forced second vertex equals the cycle anchor")
    if not g.has_edge(v0, v1) or not g.has_edge(v0, v2):
        raise InputError("v0v1 and v0v2 must be edges")
    pool = set(u) - set(avoid)
    if v2 not in pool:
        return None
    internal = (pool & g.vertices) - {v0, v1, v2}
    tail = _restricted_bfs(g, v2, v1, internal, forbid_direct=False)
    if tail is None:
        return None
    return (v0,) + tail


def cycle_with_edge(g: Graph, v0: int, v3: int, u, avoid=frozenset()):
    """A cycle containing the edge v0v3 with the other vertices in U \\ avoid."""
    if not g.has_edge(v0, v3):
        raise InputError("v0v3 must be an edge")
    tail = path_through(g, v0, v3, set(u) - set(avoid) - {v0, v3})
    if tail is None:
        return None
    return tail  # (v0, ..., v3); closing edge v3-v0 is the forced one


def cycle_edges(cycle: tuple[int, ...]):
    """The edge set of a vertex cycle given as a tuple."""
    k = len(cycle)
    return [canon_pair(cycle[i], cycle[(i + 1) % k]) for i in range(k)]


def is_valid_cycle(g: Graph, cycle: tuple[int, ...]) -> bool:
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    return all(e in g.edges for e in cycle_edges(cycle))
