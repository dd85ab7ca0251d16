#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report medians and spreads.

Run from the repository root:

    python3 bench/record_baseline.py --seeds 10                 # all workloads, print
    python3 bench/record_baseline.py --workloads certify --seeds 5
    python3 bench/record_baseline.py --seeds 10 --write         # also rewrite bench/baseline.json

For each workload and end-to-end metric it prints the median of the
runs and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--write`` it merges into baseline.json those figures, one traced run
per workload at seed 0, the machine facts and the certificate
digest of every (search input, search seed) it saw.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    lines = [json.loads(line) for line in done.stderr.splitlines() if line.startswith("{")]
    digests = {f"{d['input']}@{d['seed']}": d["digest"] for d in lines if "digest" in d}
    return {name: m["value"] for name, m in result["metrics"].items()}, digests


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--write", action="store_true", help="rewrite bench/baseline.json")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    figures: dict[str, dict] = {}
    digests: dict[str, str | None] = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.seeds):
            metrics, seen = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(metrics)
            digests.update(seen)
            print(json.dumps({"workload": workload, "seed": seed, **metrics}), flush=True)
        figures[workload] = {}
        for name in bounds:
            values = [r[name] for r in runs]
            figures[workload][name] = {"median": statistics.median(values), "spread": spread(values)}
            flag = "" if spread(values) < bounds[name] / 3 else "   <-- above a third of the bound"
            print(f"{workload:16s} {name:12s} median {statistics.median(values):12.5g}"
                  f"  spread {spread(values):7.2%}  bound {bounds[name]:.0%}{flag}", flush=True)

    if args.write:
        import numpy

        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        baseline["machine"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        }
        baseline["runs"] = {"seeds": list(range(args.seeds)),
                            "run_seconds": spec["run_seconds"]}
        baseline.setdefault("end_to_end", {}).update(figures)
        traced = baseline.setdefault("per_layer_at_seed_0", {})
        for workload in args.workloads:
            traced[workload], _ = run_once(workload, 0, spec["run_seconds"], 1)
        baseline["digests"] = dict(sorted({**baseline.get("digests", {}), **digests}.items()))
        path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
