"""Benchmark inputs, the timed operations, and the independent output checks.

Every input is a pure function of the workload seed.  The search
workloads run pinned hypergraphs, each at a block of consecutive search
seeds chosen by the workload seed; at seed 0 the block starts at the
listed search seed.  ``certify`` plants fresh RP2 configurations at
sizes drawn from the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from dataclasses import dataclass

from trisurf import SearchConfig, find_rp2, verify_certificate
from trisurf.builder import Certificate
from trisurf.generators import planted_rp2_instance, random_hypergraph
from trisurf.hypergraph import Hypergraph3
from trisurf.paths import cycle_edges
from trisurf.surfaces import Complex2, classify

CERTIFY_COUNT = 200  # valid certificates per pass; each also gets one mutant
DENSE_BLOCK = 4  # search seeds per hypergraph on search-dense
SPARSE_BLOCK = 3  # search seeds per hypergraph on search-sparse
MUTATIONS = ("delete-facet", "substitute-facet", "swap-v1-v3", "move-interior")


@dataclass(frozen=True)
class SearchInput:
    name: str
    h: Hypergraph3
    config: SearchConfig


@dataclass(frozen=True)
class CertifyInput:
    kind: str  # "valid" or one of MUTATIONS
    host: Hypergraph3
    cert: Certificate


def complete(n: int) -> Hypergraph3:
    return Hypergraph3(n, frozenset(itertools.combinations(range(n), 3)))


# (name, hypergraph factory, search seed at workload seed 0, retry budget);
# a budget of None keeps the SearchConfig default
_DENSE = (
    ("K12", lambda: complete(12), 0, None),
    ("K14", lambda: complete(14), 0, None),
    ("K16", lambda: complete(16), 0, None),
    ("R20m1000g1", lambda: random_hypergraph(20, 1000, 1), 0, None),
)
_SPARSE = (
    ("R16m300g0", lambda: random_hypergraph(16, 300, 0), 0, None),
    ("R16m400g0", lambda: random_hypergraph(16, 400, 0), 0, None),
    ("R16m400g1", lambda: random_hypergraph(16, 400, 1), 1, None),
)
# smoke-test sizes: the same shapes, seconds instead of minutes
_DENSE_TINY = (
    ("K12", lambda: complete(12), 0, 20),
    ("K13", lambda: complete(13), 0, None),
)
_SPARSE_TINY = (
    ("R14m200g0", lambda: random_hypergraph(14, 200, 0), 0, 20),
)


def search_inputs(workload: str, seed: int, tiny: bool = False) -> list[SearchInput]:
    """Every pinned hypergraph at search seeds base + block * seed + j, j < block.

    The block averages the search's seed-to-seed spread in attempts
    within one run; searches of one search seed are adjacent in order.
    """
    dense = workload == "search-dense"
    if tiny:
        table, block = (_DENSE_TINY if dense else _SPARSE_TINY), 1
    else:
        table, block = (_DENSE, DENSE_BLOCK) if dense else (_SPARSE, SPARSE_BLOCK)
    graphs = [make() for _, make, _, _ in table]
    out = []
    for j in range(block):
        for (name, _, base_seed, budget), h in zip(table, graphs):
            extra = {} if budget is None else {"retry_budget": budget}
            config = SearchConfig(seed=base_seed + block * seed + j, **extra)
            out.append(SearchInput(name, h, config))
    return out


def _canon(a: int, b: int, c: int) -> tuple[int, int, int]:
    return tuple(sorted((a, b, c)))


def planted_certificate(len_c: int, len_cp: int, s: int, t: int, seed: int):
    """A host hypergraph and a valid RP2 certificate inside it.

    The planted hypergraph is exactly the glued union, which lacks the
    triples u.v0v1, u.v0v3, u'.v0v2 and u'.v0v3 that the certificate's
    cycle-in-link check asks for, so the host adds {u, u'} x E(C u C').
    """
    inst = planted_rp2_instance(len_c, len_cp, s, t, seed)
    union = inst.hypergraph.edges
    extra = set()
    for a, b in cycle_edges(inst.cycle_c) + cycle_edges(inst.cycle_cprime):
        extra.add(_canon(inst.u, a, b))
        extra.add(_canon(inst.u1, a, b))
    host = Hypergraph3(inst.hypergraph.n, union | extra)
    w_set = {inst.u, inst.u1, inst.v0, inst.v1, inst.v3}
    partition = (
        (set(inst.cycle_c) - {inst.v0, inst.v1}) | w_set,
        set(inst.cycle_cprime) - {inst.v0, inst.v3},
        set(inst.disk_d.interior),
        set(inst.disk_dprime.interior),
    )
    cert = Certificate(
        facets=tuple(sorted(union)),
        u=inst.u, u1=inst.u1, v0=inst.v0, v1=inst.v1, v2=inst.v2, v3=inst.v3,
        cycle_c=inst.cycle_c, cycle_cprime=inst.cycle_cprime,
        disk_d=inst.disk_d, disk_dprime=inst.disk_dprime,
        partition=tuple(tuple(sorted(part)) for part in partition),
        config=SearchConfig(seed=seed), seed=seed,
        report=classify(Complex2(union)),
    )
    return host, cert


def mutate(host: Hypergraph3, cert: Certificate, kind: str, rng: random.Random) -> Certificate:
    """One certificate defect that verify_certificate must reject."""
    facets = list(cert.facets)
    if kind == "delete-facet":
        del facets[rng.randrange(len(facets))]
        return dataclasses.replace(cert, facets=tuple(facets))
    if kind == "substitute-facet":
        spare = sorted(host.edges - set(facets))
        facets[rng.randrange(len(facets))] = spare[rng.randrange(len(spare))]
        return dataclasses.replace(cert, facets=tuple(sorted(facets)))
    if kind == "swap-v1-v3":
        return dataclasses.replace(cert, v1=cert.v3, v3=cert.v1)
    if kind == "move-interior":
        moved = sorted(cert.disk_d.interior)[rng.randrange(len(cert.disk_d.interior))]
        parts = [set(p) for p in cert.partition]
        parts[2].discard(moved)
        parts[3].add(moved)
        return dataclasses.replace(cert, partition=tuple(tuple(sorted(p)) for p in parts))
    raise ValueError(f"unknown mutation {kind!r}")


def certify_inputs(seed: int, count: int = CERTIFY_COUNT) -> list[CertifyInput]:
    """count valid certificates at the criterion-2 size ranges, each with one mutant."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        len_c, len_cp = rng.randint(4, 12), rng.randint(3, 10)
        s, t = rng.randint(1, 5), rng.randint(1, 5)
        host, cert = planted_certificate(len_c, len_cp, s, t, rng.randrange(10**9))
        kind = MUTATIONS[i % len(MUTATIONS)]
        out.append(CertifyInput("valid", host, cert))
        out.append(CertifyInput(kind, host, mutate(host, cert, kind, rng)))
    return out


def build(workload: str, seed: int, tiny: bool = False) -> list:
    if workload == "certify":
        return certify_inputs(seed, 8 if tiny else CERTIFY_COUNT)
    return search_inputs(workload, seed, tiny)


def run_search(item: SearchInput, threads: int):
    return find_rp2(item.h, item.config, threads=threads)


def run_verify(item: CertifyInput):
    return verify_certificate(item.host, item.cert)


def digest(cert: Certificate | None) -> str | None:
    """Short digest of the canonical certificate JSON; None for not-found."""
    if cert is None:
        return None
    return hashlib.sha256(cert.to_json().encode("utf-8")).hexdigest()[:16]


def search_problems(item: SearchInput, outcome) -> list[str]:
    """Independent checks on a returned certificate; a not-found passes."""
    cert = outcome.certificate
    if cert is None:
        return []
    problems = []
    if not set(cert.facets) <= item.h.edges:
        problems.append("certificate facets are not a subset of H")
    verdict = classify(Complex2(frozenset(cert.facets))).verdict
    if verdict != "RP2":
        problems.append(f"certificate facets classify as {verdict}")
    ok, why = verify_certificate(item.h, cert)
    if not ok:
        problems.append(f"verify_certificate rejects the certificate: {why}")
    return problems


def certify_problems(item: CertifyInput, result) -> list[str]:
    ok, why = result
    if item.kind == "valid" and not ok:
        return [f"valid certificate rejected: {why}"]
    if item.kind != "valid" and ok:
        return [f"{item.kind} mutant accepted"]
    return []
