"""Admissibility of graph edges and semi-admissibility of hyperedge pairs.

An edge xy is admissible at level (p, epsilon, k) when a random vertex
subset U, keeping each vertex independently with probability p, contains
k internally vertex-disjoint x-y paths of length >= 2 with probability
at least 1 - epsilon.  Pairs of hyperedges sharing two vertices are
semi-admissible when enough intermediate witnesses make both adjacent
pairs admissible inside the corresponding common links.

Two evaluation modes:

* exact -- enumerate all subsets of the candidate vertices and sum the
  subset probabilities.  Only vertices on some x-y path of length >= 2
  can matter; they form the block of g + xy holding the edge xy, read
  off one depth-first search.  Success is monotone in the subset, so
  most subsets are settled by a smaller settled subset and never hit
  the flow solver.
* monte-carlo -- seeded sampling with a Wilson 95% interval and a
  three-way verdict (admissible / not-admissible / inconclusive).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .hypergraph import Graph, Hypergraph3, canon_pair, canon_triple, pair_link
from .paths import max_disjoint_paths
from .rng import derive_seed

_Z95 = 1.959963984540054
_MC_BLOCK = 8192

EXACT_LIMIT_MAX = 20  # an exact table holds 2**exact_limit entries

VERDICT_ADMISSIBLE = "admissible"
VERDICT_NOT_ADMISSIBLE = "not-admissible"
VERDICT_INCONCLUSIVE = "inconclusive"


def check_exact_limit(exact_limit: int) -> None:
    if not 0 <= exact_limit <= EXACT_LIMIT_MAX:
        raise InputError(f"exact_limit must lie in 0..{EXACT_LIMIT_MAX}, got {exact_limit}")


@dataclass(frozen=True)
class AdmissibilityParams:
    p: float
    epsilon: float
    k: int
    r: int = 1
    mc_samples: int = 20000
    exact_limit: int = 16

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise InputError(f"p must lie in (0,1], got {self.p}")
        if not 0 < self.epsilon <= 1:
            raise InputError(f"epsilon must lie in (0,1], got {self.epsilon}")
        if self.k < 1:
            raise InputError("k must be at least 1")
        if self.r < 0:
            raise InputError("r must be non-negative")
        if self.mc_samples < 1:
            raise InputError("mc_samples must be at least 1")
        check_exact_limit(self.exact_limit)


@dataclass(frozen=True)
class AdmissibilityEstimate:
    p_hat: float
    samples: int
    ci_low: float
    ci_high: float
    mode: str  # "exact" | "monte-carlo"
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "samples": self.samples,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "mode": self.mode,
            "verdict": self.verdict,
        }


def _wilson(successes: int, n: int) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    z = _Z95
    phat = successes / n
    denom = 1 + z * z / n
    center = phat + z * z / (2 * n)
    spread = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    lo = max(0.0, (center - spread) / denom)
    hi = min(1.0, (center + spread) / denom)
    # the interval contains the point estimate in exact arithmetic;
    # float rounding at the endpoints must not break that
    return min(lo, phat), max(hi, phat)


def relevant_vertices(g: Graph, x: int, y: int) -> tuple[int, ...]:
    """Vertices lying on some simple x-y path of length >= 2, ascending.

    Such a path closes with the edge xy into a cycle, so these are the
    vertices other than x and y in the block (2-connected component) of
    g + xy that holds xy.  One depth-first search from x, with xy as its
    first tree edge, finds that block by low points (Hopcroft-Tarjan):
    a descendant w of y joins it when its parent did and the subtree of
    w has an edge to a proper ancestor of that parent.
    """
    if x == y or x not in g.vertices or y not in g.vertices:
        return ()
    adj = g.adjacency
    disc = {x: 0, y: 1}
    low = dict(disc)
    parent = {y: x}  # the tree edge xy stands for the closing edge, in g or not
    order = [y]
    stack = [(y, iter(adj[y]))]
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                parent[w] = v
                order.append(w)
                stack.append((w, iter(adj[w])))
                break
            if w != parent[v]:
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            low[parent[v]] = min(low[parent[v]], low[v])
    block = {y}
    for w in order[1:]:
        if parent[w] in block and low[w] < disc[parent[w]]:
            block.add(w)
    return tuple(sorted(block - {y}))


class _SuccessOracle:
    """Memoized indicator of 'k disjoint paths exist through this subset'.

    Monotone: any superset of a successful subset succeeds, checked
    before paying for a flow computation.
    """

    def __init__(self, g: Graph, x: int, y: int, k: int, candidates: tuple[int, ...]):
        self.g = g
        self.x = x
        self.y = y
        self.k = k
        self.candidates = candidates
        self.cache: dict[int, bool] = {}

    def subset_from_mask(self, mask: int) -> set:
        return {self.candidates[i] for i in range(len(self.candidates)) if mask >> i & 1}

    def query(self, mask: int) -> bool:
        if mask.bit_count() < self.k:
            return False  # k disjoint paths need k distinct internal vertices
        hit = self.cache.get(mask)
        if hit is not None:
            return hit
        ok = max_disjoint_paths(self.g, self.x, self.y, self.subset_from_mask(mask), self.k) >= self.k
        self.cache[mask] = ok
        return ok

    def full_table(self) -> bytearray:
        c = len(self.candidates)
        table = bytearray(1 << c)
        for mask in range(1 << c):
            if mask.bit_count() < self.k:
                continue
            settled = False
            m = mask
            while m:
                low = m & -m
                if table[mask ^ low]:
                    table[mask] = 1
                    settled = True
                    break
                m ^= low
            if not settled:
                table[mask] = 1 if self.query(mask) else 0
        return table


def _edge_endpoints(g: Graph, e) -> tuple[int, int]:
    x, y = e
    if canon_pair(x, y) not in g.edges:
        raise InputError(f"{e} is not an edge of the graph")
    return x, y


def admissible_exact(g: Graph, e, p: float, k: int, exact_limit: int = 16) -> float:
    """Exact probability that k disjoint paths survive a p-random subset."""
    x, y = _edge_endpoints(g, e)
    if not 0 < p <= 1:
        raise InputError(f"p must lie in (0,1], got {p}")
    check_exact_limit(exact_limit)
    return _exact_probability(g, x, y, relevant_vertices(g, x, y), p, k, exact_limit)


def _exact_probability(g: Graph, x: int, y: int, cands: tuple[int, ...],
                       p: float, k: int, exact_limit: int) -> float:
    if len(cands) > exact_limit:
        raise CapacityError(
            f"{len(cands)} candidate vertices exceed the exact limit {exact_limit}; "
            "use the monte-carlo mode"
        )
    oracle = _SuccessOracle(g, x, y, k, cands)
    if p == 1.0:
        return 1.0 if oracle.query((1 << len(cands)) - 1) else 0.0
    table = oracle.full_table()
    count_by_size = [0] * (len(cands) + 1)
    for mask in range(1 << len(cands)):
        if table[mask]:
            count_by_size[bin(mask).count("1")] += 1
    c = len(cands)
    return float(sum(
        count * (p ** size) * ((1 - p) ** (c - size))
        for size, count in enumerate(count_by_size)
    ))


def admissible_mc(g: Graph, e, params: AdmissibilityParams, seed: int) -> AdmissibilityEstimate:
    """Seeded Monte-Carlo estimate with a Wilson 95% interval.

    Samples come in fixed-size blocks, each with its own derived seed,
    so the stream is reproducible regardless of how trials are batched.
    """
    x, y = _edge_endpoints(g, e)
    return _mc_estimate(g, x, y, relevant_vertices(g, x, y), params, seed)


def _mc_estimate(g: Graph, x: int, y: int, cands: tuple[int, ...],
                 params: AdmissibilityParams, seed: int) -> AdmissibilityEstimate:
    oracle = _SuccessOracle(g, x, y, params.k, cands)
    c = len(cands)
    n = params.mc_samples
    successes = 0
    if c:
        width = (c + 7) // 8
        done = 0
        block_idx = 0
        while done < n:
            size = min(_MC_BLOCK, n - done)
            rng = np.random.default_rng(derive_seed(seed, "admmc", block_idx))
            mat = rng.random((size, c)) < params.p
            # bit i of a sample's mask is candidate i, exact at any c
            rows = np.packbits(mat, axis=1, bitorder="little").tobytes()
            masks = Counter(
                int.from_bytes(rows[i:i + width], "little") for i in range(0, len(rows), width)
            )
            for mask, count in masks.items():
                if oracle.query(mask):
                    successes += count
            done += size
            block_idx += 1
    p_hat = successes / n
    lo, hi = _wilson(successes, n)
    target = 1 - params.epsilon
    if lo >= target:
        verdict = VERDICT_ADMISSIBLE
    elif hi < target:
        verdict = VERDICT_NOT_ADMISSIBLE
    else:
        verdict = VERDICT_INCONCLUSIVE
    return AdmissibilityEstimate(p_hat, n, lo, hi, "monte-carlo", verdict)


def admissible(g: Graph, e, params: AdmissibilityParams, seed: int) -> AdmissibilityEstimate:
    """Dispatch: exact when the candidate set is small, else Monte-Carlo."""
    x, y = _edge_endpoints(g, e)
    cands = relevant_vertices(g, x, y)
    if len(cands) <= params.exact_limit:
        prob = _exact_probability(g, x, y, cands, params.p, params.k, params.exact_limit)
        target = 1 - params.epsilon
        verdict = VERDICT_ADMISSIBLE if prob >= target else VERDICT_NOT_ADMISSIBLE
        return AdmissibilityEstimate(prob, 0, prob, prob, "exact", verdict)
    return _mc_estimate(g, x, y, cands, params, seed)


def _shared_pair(e, f):
    es, fs = set(e), set(f)
    shared = es & fs
    if len(shared) != 2 or len(es) != 3 or len(fs) != 3:
        raise InputError(f"edges {e} and {f} must share exactly two vertices")
    (x,) = es - shared
    (x2,) = fs - shared
    y, z = sorted(shared)
    return x, x2, y, z


def semi_admissible(
    h: Hypergraph3, e, f, params: AdmissibilityParams, seed: int
) -> tuple[bool, frozenset[int]]:
    """Does the pair (e, f) have >= r admissible witnesses?

    A witness is a vertex w with wyz an edge such that yz is admissible
    in both common links pair_link(x, w) and pair_link(w, x').  An
    inconclusive verdict counts as failure for that witness: witnesses
    are never fabricated from uncertain estimates.
    """
    x, x2, y, z = _shared_pair(e, f)
    if canon_triple(*e) not in h.edges or canon_triple(*f) not in h.edges:
        raise InputError("both triples must be edges of the hypergraph")
    if params.r == 0:
        return True, frozenset()
    witnesses = []
    for w in range(h.n):
        if w in (x, x2, y, z):
            continue
        if canon_triple(w, y, z) not in h.edges:
            continue
        first = admissible(pair_link(h, x, w), (y, z), params, derive_seed(seed, "semi", w, 0))
        if first.verdict != VERDICT_ADMISSIBLE:
            continue
        second = admissible(pair_link(h, w, x2), (y, z), params, derive_seed(seed, "semi", w, 1))
        if second.verdict != VERDICT_ADMISSIBLE:
            continue
        witnesses.append(w)
    return len(witnesses) >= params.r, frozenset(witnesses)


@dataclass(frozen=True)
class EdgeFractionStats:
    edges: int
    admissible: int
    not_admissible: int
    inconclusive: int
    bound: float

    def to_json_dict(self) -> dict:
        return {
            "edges": self.edges,
            "admissible": self.admissible,
            "not_admissible": self.not_admissible,
            "inconclusive": self.inconclusive,
            "bound": self.bound,
        }


def admissible_edge_fraction(g: Graph, params: AdmissibilityParams, seed: int) -> EdgeFractionStats:
    """Verdict tally over all edges, with the dense-graph theoretical bound.

    The bound (2k / p^2 epsilon) * |V(G)| caps how many edges of any
    graph can fail to be admissible; reported alongside for comparison.
    """
    tally = {VERDICT_ADMISSIBLE: 0, VERDICT_NOT_ADMISSIBLE: 0, VERDICT_INCONCLUSIVE: 0}
    for e in sorted(g.edges):
        est = admissible(g, e, params, derive_seed(seed, "frac", *e))
        tally[est.verdict] += 1
    bound = (2 * params.k / (params.p ** 2 * params.epsilon)) * len(g.vertices)
    return EdgeFractionStats(
        len(g.edges),
        tally[VERDICT_ADMISSIBLE],
        tally[VERDICT_NOT_ADMISSIBLE],
        tally[VERDICT_INCONCLUSIVE],
        bound,
    )


@dataclass(frozen=True)
class FilterResult:
    kept: frozenset
    warning: bool
    tested: int
    evicted: int


def filter_semi_admissible(
    h: Hypergraph3, params: AdmissibilityParams, seed: int, budget: int
) -> FilterResult:
    """Peel the edge set toward a family whose tested pairs are semi-admissible.

    Neighboring pairs (edges sharing two vertices) are sampled under a
    test budget; when a pair fails, the edge with the lower codegree
    score is evicted.  Best effort only: the warning flag is set unless
    every neighboring pair in the surviving family was tested and
    passed.
    """
    from .rng import local_rng

    kept: set = set(h.edges)
    pair_index: dict[tuple[int, int], set] = {}
    for t in kept:
        a, b, c = t
        for pr in ((a, b), (a, c), (b, c)):
            pair_index.setdefault(pr, set()).add(t)

    def score(t) -> int:
        a, b, c = t
        return sum(len(pair_index[pr]) for pr in ((a, b), (a, c), (b, c)))

    rng = local_rng(seed, "filter")
    tested = 0
    evicted = 0
    passed: set[frozenset] = set()
    for _ in range(budget):
        crowded = sorted(pr for pr, ts in pair_index.items() if len(ts) >= 2)
        if not crowded:
            break
        pr = crowded[rng.randrange(len(crowded))]
        e1, e2 = rng.sample(sorted(pair_index[pr]), 2)
        if frozenset((e1, e2)) in passed:
            continue
        tested += 1
        ok, _w = semi_admissible(h, e1, e2, params, derive_seed(seed, "ftest", tested))
        if ok:
            passed.add(frozenset((e1, e2)))
            continue
        victim = min((e1, e2), key=lambda t: (score(t), tuple(-v for v in t)))
        kept.discard(victim)
        evicted += 1
        a, b, c = victim
        for p2 in ((a, b), (a, c), (b, c)):
            pair_index[p2].discard(victim)
            if not pair_index[p2]:
                del pair_index[p2]

    untested = False
    for pr, ts in pair_index.items():
        ts_sorted = sorted(ts)
        for i in range(len(ts_sorted)):
            for j in range(i + 1, len(ts_sorted)):
                if frozenset((ts_sorted[i], ts_sorted[j])) not in passed:
                    untested = True
                    break
            if untested:
                break
        if untested:
            break
    return FilterResult(frozenset(kept), untested, tested, evicted)
