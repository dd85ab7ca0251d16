"""Command-line front end.

Subcommands: classify, find-rp2, find-sphere, admissibility, gen,
experiment.  JSON results go to stdout, human summaries to stderr.
Exit codes: 0 success, 1 legitimate not-found, 2 usage or input error.
All randomized commands take --seed and are bit-reproducible given it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, fields

from .admissibility import AdmissibilityParams, admissible
from .builder import SearchConfig, find_rp2, find_sphere
from .errors import InputError, ParseError
from .generators import FIXTURE_NAMES, fixture, random_hypergraph
from .hypergraph import (
    link_graph,
    pair_link,
    parse_graph,
    parse_hypergraph,
    serialize_hypergraph,
)
from .rng import derive_seed
from .surfaces import Complex2, classify

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_INPUT = 2
THREADS_HELP = "accepted for compatibility; attempts run serially and the output does not depend on it"


@dataclass(frozen=True)
class RunRecord:
    """One command execution, reported as a JSON object on stderr."""

    command: str
    input_digest: str
    config: dict
    outcome: str  # ok | not-found | error
    wall_ms: float
    counters: dict

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "input_digest": self.input_digest,
            "config": self.config,
            "outcome": self.outcome,
            "wall_ms": round(self.wall_ms, 3),
            "counters": self.counters,
        }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_hypergraph(path: str):
    return parse_hypergraph(_read_text(path))


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _info(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _load_config(args) -> SearchConfig:
    """Flat key=value config file; command-line flags win."""
    values: dict = {}
    if getattr(args, "config", None):
        field_types = {f.name: f.type for f in fields(SearchConfig)}
        for line_no, raw in enumerate(_read_text(args.config).splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(line_no, f"expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in field_types:
                raise ParseError(line_no, f"unknown config key {key!r}")
            kind = field_types[key]
            if kind in ("bool", bool):
                values[key] = val.lower() in ("1", "true", "yes", "on")
            elif kind in ("int", int):
                values[key] = int(val)
            else:
                values[key] = float(val)
    for key in ("seed", "retry_budget", "mc_samples", "d", "k", "r"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    for key in ("p", "epsilon"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if getattr(args, "strict", False):
        values["strict"] = True
    if getattr(args, "prefilter", False):
        values["prefilter"] = True
    return SearchConfig(**values)


def cmd_classify(args) -> int:
    h = _load_hypergraph(args.file)
    report = classify(Complex2.from_hypergraph(h))
    _print_json(report.to_json_dict())
    return EXIT_OK


def cmd_find_rp2(args) -> int:
    text = _read_text(args.file)
    h = parse_hypergraph(text)
    config = _load_config(args)
    t0 = time.perf_counter()
    outcome = find_rp2(h, config, threads=args.threads)
    wall = (time.perf_counter() - t0) * 1000
    record = RunRecord(
        "find-rp2", _digest(text), config.to_json_dict(),
        "ok" if outcome.found else "not-found", wall, dict(outcome.counters),
    )
    _info(json.dumps(record.to_json_dict()))
    if not outcome.found:
        _print_json({"found": False, "attempts": outcome.attempts, "counters": outcome.counters})
        return EXIT_NOT_FOUND
    # find_rp2 verified the certificate before returning it
    payload = outcome.certificate.to_json()
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    sys.stdout.write(payload)
    return EXIT_OK


def cmd_find_sphere(args) -> int:
    h = _load_hypergraph(args.file)
    cert = find_sphere(h, budget=args.budget, seed=args.seed or 0)
    if cert is None:
        _print_json({"found": False})
        return EXIT_NOT_FOUND
    _print_json(cert.to_json_dict())
    return EXIT_OK


def cmd_admissibility(args) -> int:
    text = _read_text(args.file)
    arity = _detect_arity(text)
    if arity == 3:
        h = parse_hypergraph(text)
        if args.pair is not None:
            g = pair_link(h, args.pair[0], args.pair[1])
        elif args.link is not None:
            g = link_graph(h, args.link)
        else:
            raise InputError("hypergraph input needs --link U or --pair U V")
    else:
        g = parse_graph(text)
    x, y = args.edge
    params = AdmissibilityParams(
        p=args.p, epsilon=args.epsilon, k=args.k,
        mc_samples=args.mc_samples, exact_limit=args.exact_limit,
    )
    est = admissible(g, (x, y), params, args.seed or 0)
    _print_json(est.to_json_dict())
    return EXIT_OK


def _detect_arity(text: str) -> int:
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("n="):
            continue
        return len(line.split())
    return 3


def cmd_gen(args) -> int:
    if args.name == "random":
        if args.n is None or args.m is None:
            raise InputError("random generation needs --n and --m")
        h = random_hypergraph(args.n, args.m, args.seed or 0)
    else:
        fx = fixture(args.name)
        facets = fx.facets.facets
        n = max((v for t in facets for v in t), default=-1) + 1
        from .hypergraph import Hypergraph3

        h = Hypergraph3(n, facets)
    payload = serialize_hypergraph(h)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_experiment(args) -> int:
    ns = [int(tok) for tok in args.n_range.split(",") if tok]
    coeffs = [float(tok) for tok in args.coeff.split(",") if tok]
    seed = args.seed or 0
    rows = []
    for n in ns:
        for coeff in coeffs:
            if args.trials == 0:
                continue  # no data section at all
            m = min(math.ceil(coeff * n ** args.density_exponent), math.comb(n, 3))
            successes = 0
            times = []
            cell_seed = seed
            for trial in range(args.trials):
                h = random_hypergraph(n, m, derive_seed(seed, "exp-h", n, coeff, trial))
                config = SearchConfig(
                    seed=derive_seed(seed, "exp-run", n, coeff, trial),
                    retry_budget=args.retry_budget,
                )
                t0 = time.perf_counter()
                outcome = find_rp2(h, config, threads=args.threads)
                times.append((time.perf_counter() - t0) * 1000)
                if outcome.found:
                    successes += 1
            mean_ms = sum(times) / len(times) if times else 0.0
            rows.append([n, m, args.trials, successes, round(mean_ms, 3), cell_seed])
            _info(f"n={n} m={m} trials={args.trials} successes={successes}")
    header = ["n", "m", "trials", "successes", "mean_time_ms", "seed"]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisurf",
        description="Find and verify triangulated surfaces in 3-uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify the complex spanned by a facet file")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("find-rp2", help="search for a projective-plane subcomplex")
    p.add_argument("file")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--retry-budget", dest="retry_budget", type=int)
    p.add_argument("--mc-samples", dest="mc_samples", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--prefilter", action="store_true")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--json", dest="json_out", help="also write the certificate to this path")
    p.set_defaults(func=cmd_find_rp2)

    p = sub.add_parser("find-sphere", help="search for a double-pyramid sphere")
    p.add_argument("file")
    p.add_argument("--budget", type=int, help="max vertex pairs to try")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_find_sphere)

    p = sub.add_parser("admissibility", help="estimate edge admissibility in a graph")
    p.add_argument("file", help="graph file, or hypergraph file with --link/--pair")
    p.add_argument("--edge", type=int, nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--link", type=int, help="use the link graph of this vertex")
    p.add_argument("--pair", type=int, nargs=2, help="use the common link of these vertices")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=20000)
    p.add_argument("--exact-limit", dest="exact_limit", type=int, default=16,
                   help="largest candidate set solved exactly, 0..20; larger sets are sampled")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_admissibility)

    p = sub.add_parser("gen", help="emit a fixture or random hypergraph")
    p.add_argument("name", help=f"one of: random, {', '.join(FIXTURE_NAMES)}")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("experiment", help="grid of random searches, CSV out")
    p.add_argument("--n-range", dest="n_range", required=True, help="comma list, e.g. 12,16,20")
    p.add_argument("--density-exponent", dest="density_exponent", type=float, default=2.5)
    p.add_argument("--coeff", default="1.0", help="comma list of density coefficients")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--retry-budget", dest="retry_budget", type=int, default=200)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError, ValueError) as exc:
        _info(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
