#!/usr/bin/env python3
"""trisurf benchmark: one closed-loop client timing find_rp2 or verify_certificate.

Run from the repository root:

    python3 bench/run.py --workload search-dense --seed 0 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
input once untraced and once traced (and, on the search workloads, one
pass with ``threads=2``) and prints the per-layer metrics.  The metric
names and units are the ones BENCHMARK.json lists.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output passed its check.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # CLI input files for the traced run

WORKLOADS = ("search-dense", "search-sparse", "certify")
SETUP_SAMPLES = 5  # one in this process, the rest in fresh interpreters

# the SearchOutcome.counters keys the search emits in lenient mode
COUNTER_KEYS = (
    "cycle_C", "cycle_Cprime", "disk_D", "disk_Dprime",
    "apex_uncertified", "semiadm_D_unverified", "semiadm_Dprime_unverified",
)


def _metric_units(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of each metric BENCHMARK.json lists under kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0,
                   help="time budget for whole passes; the first pass always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    p.add_argument("--setup-only", action="store_true",
                   help="time import and input generation, print them, exit")
    return p.parse_args(argv)


def _load_program():
    """Import trisurf from this checkout's src/, never from elsewhere."""
    if not (SRC / "trisurf" / "__init__.py").is_file():
        print(f"error: no trisurf sources at {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import trisurf.cli  # noqa: F401  the package plus its command-line layer

    if not Path(sys.modules["trisurf"].__file__).resolve().is_relative_to(SRC):
        print("error: imported a trisurf that is not this checkout's", file=sys.stderr)
        raise SystemExit(2)


def _setup(args):
    """Import the program and build the inputs; returns (inputs, import_s, setup_s)."""
    t0 = time.perf_counter()
    _load_program()
    import_s = time.perf_counter() - t0
    import workloads

    inputs = workloads.build(args.workload, args.seed, args.tiny)
    return inputs, import_s, time.perf_counter() - t0


def _setup_in_fresh_process(args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class Loop:
    """The closed-loop client: one operation at a time, each checked after it returns."""

    def __init__(self, workload: str, inputs):
        import workloads

        self.w = workloads
        self.workload = workload
        self.inputs = inputs
        self.op_id = 0

    def one_pass(self, threads: int = 1) -> list[dict]:
        """Run every input once; returns one record per operation."""
        return [self._operation(index, item, threads) for index, item in enumerate(self.inputs)]

    def paired_pass(self, recorder) -> tuple[list[dict], list[dict]]:
        """Every input untraced and traced back to back, alternating which goes first.

        Returns the untraced and the traced records, each in input order.
        """
        untraced, traced = [], []
        for index, item in enumerate(self.inputs):
            for trace in ((False, True) if index % 2 == 0 else (True, False)):
                if trace:
                    traced.append(self._operation(index, item, 1, recorder))
                else:
                    untraced.append(self._operation(index, item, 1))
        return untraced, traced

    def _operation(self, index: int, item, threads: int, recorder=None) -> dict:
        """One timed operation, with the wrappers installed around it when traced."""
        self.op_id += 1
        if recorder is not None:
            recorder.op = self.op_id
            recorder.install()
        t0 = time.perf_counter()
        try:
            if self.workload == "certify":
                result = self.w.run_verify(item)
            else:
                result = self.w.run_search(item, threads)
            error = None
        except Exception as exc:  # an operation that raises is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            if recorder is not None:
                recorder.uninstall()  # checks below are not part of the operation
        rec = self._check(item, result, error, elapsed)
        rec["input"] = index if self.workload == "certify" else item.name
        return rec

    def _check(self, item, result, error, elapsed) -> dict:
        rec = {"s": elapsed, "problems": [error] if error else []}
        if self.workload == "certify":
            rec["kind"] = item.kind
            if error is None:
                rec["problems"] += self.w.certify_problems(item, result)
            return rec
        rec["name"] = item.name
        rec["seed"] = item.config.seed
        if error is None:
            rec["problems"] += self.w.search_problems(item, result)
            rec["found"] = result.found
            rec["attempts"] = result.attempts
            rec["counters"] = dict(result.counters)
            rec["digest"] = self.w.digest(result.certificate)
        return rec

    def passes_for(self, seconds: float) -> list[dict]:
        """Whole passes, as many as bring the timed total nearest to the budget.

        After k passes of mean length m another pass runs while
        (k + 0.5) * m < seconds; the first pass always runs.
        """
        records = []
        spent = 0.0
        passes = 0
        while True:
            batch = self.one_pass()
            records += batch
            spent += sum(r["s"] for r in batch)
            passes += 1
            if spent + spent / passes / 2 > seconds:
                return records


def _end_to_end(records, setup_samples) -> dict:
    """Throughput over all operations; latency percentiles over per-input medians.

    An input is one hypergraph on the search workloads (its median runs
    over the search seeds and passes) and one certificate on certify.
    Taking each input's median first, and the upper median of those,
    keeps the percentile on one input's time instead of between two
    inputs whose times differ by 3x, where one slow search moves it.
    """
    times = [r["s"] for r in records]
    per_input: dict = {}
    for r in records:
        per_input.setdefault(r["input"], []).append(r["s"])
    medians = [statistics.median(v) for v in per_input.values()]
    deciles = statistics.quantiles(medians, n=10, method="inclusive") if len(medians) > 1 else medians * 9
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median_high(medians) * 1000,
        "op_ms_p90": deciles[8] * 1000,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _baseline_digests() -> dict:
    path = HERE / "baseline.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get("digests", {})


def _search_metrics(records) -> dict:
    searches = [r for r in records if "attempts" in r]
    attempts = sum(r["attempts"] for r in searches)
    found = sum(1 for r in searches if r["found"])
    baseline = _baseline_digests()
    mismatch = sum(
        1 for r in searches
        if f"{r['name']}@{r['seed']}" in baseline and baseline[f"{r['name']}@{r['seed']}"] != r["digest"]
    )
    out = {
        "builder.found_rate": found / len(searches) if searches else 0.0,
        "builder.attempts_per_search": attempts / len(searches) if searches else 0.0,
        "builder.attempt_success_ratio": found / attempts if attempts else 0.0,
        "builder.cert_mismatch": mismatch,
    }
    for key in COUNTER_KEYS:
        out[f"builder.counters.{key}"] = sum(r["counters"].get(key, 0) for r in searches)
    return out


def _cold_cli(inputs) -> tuple[dict, list[str]]:
    """Wall time of `trisurf find-rp2` on K14 and `trisurf classify` on a certify host."""
    import workloads
    from trisurf.hypergraph import serialize_hypergraph

    WORK.mkdir(exist_ok=True)
    k14 = WORK / "k14.txt"
    k14.write_text(serialize_hypergraph(workloads.complete(14)), encoding="utf-8")
    hosts = [item.host for item in inputs if isinstance(item, workloads.CertifyInput)]
    host = hosts[0] if hosts else workloads.planted_certificate(6, 5, 2, 2, 0)[0]
    host_file = WORK / "host.txt"
    host_file.write_text(serialize_hypergraph(host), encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=str(SRC))
    out, problems = {}, []
    for name, argv in (
        ("cli.find_rp2_cold_s", ["find-rp2", str(k14), "--seed", "0"]),
        ("cli.classify_cold_s", ["classify", str(host_file)]),
    ):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "trisurf.cli", *argv], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
        out[name] = time.perf_counter() - t0
        if done.returncode != 0:
            problems.append(f"{name}: exit code {done.returncode}")
    return out, problems


def _pool_pass(loop: Loop, untraced: list[dict]) -> tuple[list[dict], float]:
    """A threads=2 pass; its certificates must match the threads=1 pass byte for byte."""
    pooled = loop.one_pass(threads=2)
    for one, two in zip(untraced, pooled):
        if "digest" in one and "digest" in two and one["digest"] != two["digest"]:
            two["problems"].append("certificate differs from the threads=1 certificate")
    return pooled, sum(r["s"] for r in untraced) / sum(r["s"] for r in pooled)


def _traced(loop: Loop) -> tuple[list[dict], dict]:
    """Each input untraced and traced back to back, then the pool pass.

    ``trace.overhead_s`` sums, over the inputs, the traced minus the
    untraced time of the same operation; ``trace.spans`` is the number
    of spans recorded, so the cost per span is their quotient.
    """
    import workloads
    from spans import SpanRecorder

    modules = [m for name, m in sys.modules.items() if name == "trisurf" or name.startswith("trisurf.")]
    recorder = SpanRecorder(modules + [workloads])
    untraced, traced = loop.paired_pass(recorder)
    metrics = recorder.layer_metrics()
    metrics.update(_search_metrics(traced))
    metrics["trace.overhead_s"] = sum(t["s"] - u["s"] for u, t in zip(untraced, traced))
    metrics["trace.spans"] = len(recorder.spans)
    pooled, metrics["builder.pool2_speedup"] = [], 0.0
    if loop.workload != "certify":
        pooled, metrics["builder.pool2_speedup"] = _pool_pass(loop, untraced)
    return untraced + traced + pooled, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    inputs, import_s, setup_s = _setup(args)
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    fresh = [_setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
    setup_samples = [setup_s] + [f["setup_s"] for f in fresh]

    loop = Loop(args.workload, inputs)
    cli, cli_problems = {}, []
    if args.trace:
        records, layer = _traced(loop)
        cli, cli_problems = _cold_cli(inputs)
        layer.update(cli)
        layer["cli.import_s"] = statistics.median(f["import_s"] for f in fresh)
        names = _metric_units("per_layer")
    else:
        records = loop.passes_for(args.seconds)
        layer = _end_to_end(records, setup_samples)
        names = _metric_units("end_to_end")

    failed = sum(1 for r in records if r["problems"]) + len(cli_problems)
    for r in records:
        for problem in r["problems"]:
            print(f"error: {r.get('name', r.get('kind'))}: {problem}", file=sys.stderr)
    for problem in cli_problems:
        print(f"error: {problem}", file=sys.stderr)
    _summarize(records)

    result = {
        "correct": failed == 0,
        "attempted": len(records) + len(cli),
        "failed": failed,
        "metrics": {name: {"value": layer[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _summarize(records) -> None:
    """Per-input lines on standard error: sample count, median time, digest."""
    groups: dict[tuple, list[dict]] = {}
    for r in records:
        groups.setdefault((r.get("name") or r["kind"], r.get("seed")), []).append(r)
    for (key, _), recs in groups.items():
        line = {"input": key, "samples": len(recs),
                "median_ms": round(statistics.median(r["s"] for r in recs) * 1000, 3)}
        if "digest" in recs[0]:
            line.update(seed=recs[0]["seed"], found=recs[0]["found"],
                        attempts=recs[0]["attempts"], digest=recs[0]["digest"])
        print(json.dumps(line), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
