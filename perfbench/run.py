"""The softcsp benchmark: one workload, one seed, every metric.

    python3 perfbench/run.py --workload trip-grid --seed 1 --seconds 24 --trace 0

Run from the repository root.  The steps, in order:

1. generate the workload's input files and their answers from ``--seed``
   (:mod:`workloads`, :mod:`oracle`; the library is not imported here);
2. ``--trace 0``: time set-up in fresh processes, before, between and
   after the segments of step 3: ``import softcsp`` plus one warm-up
   query, median of all;
3. ``--trace 0``: a closed loop with one client through ``softcsp.cli.run``,
   pass after pass over the queries until ``--seconds`` have passed, in
   segments of a fresh process each, reporting the end-to-end metrics over
   each query's fastest call; ``--trace 1``: the queries once untraced
   and once traced, reporting the per-layer metrics;
4. check every answer against the oracle, outside any timed region.

The last line of stdout is the JSON result; the lines before it repeat
each metric with its unit for people.  Every result is also appended,
with the Python version, ``nproc`` and seed, to
``perfbench/_out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEGMENTS = 3
PROBES_PER_GAP = 2
PROCESS_TIMEOUT_S = 150

def _worker(plan_path, mode, seconds, result_path):
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path),
                    mode, str(seconds), str(result_path)],
                   check=True, timeout=PROCESS_TIMEOUT_S)
    return json.loads(Path(result_path).read_text(encoding="utf-8"))


def measure(plan, workdir, seconds, trace):
    """Run the workers; return (metrics with units, worker outcomes)."""
    plan_path = workdir / "plan.json"
    (HERE / "_out").mkdir(exist_ok=True)
    plan_path.write_text(json.dumps(
        {"warmup": plan["warmup"], "queries": plan["queries"],
         "spans": str(HERE / "_out" / f"trace-{plan['workload']}.jsonl")}),
        encoding="utf-8")
    result_path = workdir / "result.json"
    if trace:
        run = _worker(plan_path, "trace", seconds, result_path)
        metrics = {k: (v, "ms") for k, v in run["layer_ms"].items()}
        for key, value in run["counts"].items():
            metrics[key] = (value, "ratio" if key.endswith("ratio") else "count")
        metrics["trace.overhead"] = (run["untraced_s"] / run["traced_s"],
                                     "ratio")
        return metrics, run["outcomes"]
    def setup():
        return _worker(plan_path, "setup", seconds, result_path)["setup_s"]

    # The loop runs in segments, each in a fresh process, with set-up probes
    # before, between and after them, so that the probes' median spans the
    # run rather than one phase of a shared host's load.  Each query keeps
    # its fastest call over all segments.
    setups, best, peak_rss, outcomes = [], None, 0.0, []
    for _ in range(SEGMENTS):
        setups += [setup() for _ in range(PROBES_PER_GAP)]
        run = _worker(plan_path, "loop", seconds / SEGMENTS, result_path)
        best = run["best_s"] if best is None else list(map(min, best,
                                                           run["best_s"]))
        peak_rss = max(peak_rss, run["peak_rss_mb"])
        outcomes += run["outcomes"]
    setups += [setup() for _ in range(PROBES_PER_GAP)]
    if len(best) < 100:
        print(f"# warning: {len(best)} queries; latency_p90_ms has fewer "
              f"than ten samples above it")
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    metrics = {"latency_p50_ms": (1e3 * statistics.median(best), "ms"),
               "latency_p90_ms": (1e3 * deciles[8], "ms"),
               "throughput_qps": (len(best) / sum(best), "1/s"),
               "setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (peak_rss, "MB")}
    return metrics, outcomes


def _record(workload, seed, trace, plan, metrics, attempted, failed):
    """Human-readable lines, plus one line of results.jsonl."""
    context = {"workload": workload, "seed": seed, "trace": trace,
               "python": platform.python_version(), "nproc": os.cpu_count(),
               "inputs": plan["sizes"], "distinct_queries": len(plan["queries"]),
               "attempted": attempted, "failed": failed,
               "fail_rate": failed / attempted}
    for key in ("workload", "seed", "python", "nproc", "inputs",
                "distinct_queries", "attempted"):
        print(f"# {key}: {context[key]}")
    print(f"# fail_rate: {context['fail_rate']:.6f} (share of attempted "
          f"queries, lower is better)")
    for name, (value, unit) in metrics.items():
        print(f"# {name}: {value:.6g} {unit}")
    context["metrics"] = {k: v for k, (v, _) in metrics.items()}
    with open(HERE / "_out" / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(context) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in ("src/softcsp/cli.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            sys.exit(f"run.py: {needed} is missing; run from a full checkout")

    sys.path.insert(0, str(HERE))
    import oracle
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r} "
                 f"(known: {', '.join(workloads.WORKLOADS)})")

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        plan = workloads.build(args.workload, args.seed, workdir)
        metrics, outcomes = measure(plan, workdir, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(calls for *_, calls in outcomes)
    failed = oracle.count_failures(plan["expected"], outcomes)
    _record(args.workload, args.seed, args.trace, plan, metrics, attempted,
            failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
