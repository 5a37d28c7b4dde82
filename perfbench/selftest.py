"""Self-test of the benchmark's checker and tracer.

    python3 perfbench/selftest.py

It takes under a minute.  It checks that

* the oracles here agree with the brute-force ones in ``tests/oracles.py``
  on inputs small enough for those (Pareto filter, capped paths, journeys);
* every corrupted answer (a dropped witness, a reordered result, a wrong
  value, a nonzero exit) is counted as failed, and a correct one is not;
* two traced runs of one seed give identical counts, and the layers a
  workload bypasses read zero;
* both modes print exactly the metrics and units ``BENCHMARK.json``
  declares.

It also prints, as measured, the layer predictions the README makes.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracles import oracle_filter, oracle_journeys, oracle_paths  # noqa: E402

TRACE_QUERIES = 12
BYPASSED = {
    "trip-grid": ("journey.", "constraints.", "scsp.", "sclp."),
    "journey-charge": ("constraints.", "scsp.", "sclp."),
    "scsp-chain": ("sclp.",),
    "sclp-closure": ("constraints.", "scsp."),
}


def check(condition, message):
    if not condition:
        sys.exit(f"FAIL: {message}")
    print(f"ok   {message}")


def check_oracles():
    rng = random.Random(7)
    for mode in ("strict", "weak"):
        for _ in range(200):
            pairs = [(rng.randint(0, 6), rng.randint(0, 6))
                     for _ in range(rng.randint(0, 12))]
            if oracle.pareto(pairs, mode) != oracle_filter(pairs, mode):
                check(False, f"pareto({pairs}, {mode}) matches oracle_filter")
    check(True, "pareto sweep matches oracle_filter on 400 random sets")

    for trial in range(30):
        edges = workloads.grid_edges(rng, 3 + trial % 2)
        adj = oracle.adjacency(edges)
        nodes = sorted(adj)
        source, dest = rng.sample(nodes, 2)
        cap = rng.randint(5, 40)
        mine, _ = oracle.capped_paths(adj, source, dest, cap)
        if sorted(mine) != oracle_paths(edges, source, dest, cap):
            check(False, f"capped_paths matches oracle_paths ({trial})")

        appointments = [(n, 10 * k, rng.randint(1, 5))
                        for k, n in enumerate(rng.sample(nodes, 3))]
        stations = [(f"s{k}", rng.randint(0, 2), rng.choice(nodes))
                    for k in range(4)]
        soc, capacity = rng.randint(0, 20), rng.choice((None, 25))
        theirs = oracle_journeys(edges, appointments, stations, soc,
                                 rate=2, capacity=capacity)
        found, _ = oracle.journeys(adj, appointments, stations, soc, 2,
                                   capacity, 0)
        if sorted((l, ev, (t, e), s) for l, ev, t, e, _, s in found) != theirs:
            check(False, f"journeys matches oracle_journeys ({trial})")
    check(True, "capped paths and journeys match tests/oracles.py on 30 grids")


def _corruptions(document):
    """(label, corrupted document) for a result list of length >= 2."""
    results = document["results"]
    dropped = copy.deepcopy(document)
    del dropped["results"][1]
    reordered = copy.deepcopy(document)
    reordered["results"][0], reordered["results"][1] = results[1], results[0]
    wrong = copy.deepcopy(document)
    item = wrong["results"][0]
    key = "time" if "time" in item else "value"
    item[key] = 7 if item[key] != 7 else 8
    return [("dropped witness", dropped), ("reordered result", reordered),
            ("wrong value", wrong)]


def check_corruptions(name, plan):
    qid = next(i for i, doc in enumerate(plan["expected"])
               if len(doc["results"]) >= 2
               and doc["results"][0] != doc["results"][1])
    good = plan["expected"][qid]
    check(oracle.count_failures(plan["expected"],
                                [(qid, 0, json.dumps(good), 3)]) == 0,
          f"{name}: the correct answer is not counted as failed")
    for label, bad in _corruptions(good) + [("nonzero exit", good)]:
        code = 2 if label == "nonzero exit" else 0
        failed = oracle.count_failures(
            plan["expected"], [(qid, 0, json.dumps(good), 5),
                               (qid, code, json.dumps(bad), 3)])
        check(failed == 3, f"{name}: a {label} is counted in fail_rate")


def traced_counts(plan, workdir):
    metrics, outcomes = run.measure(plan, workdir, 1, trace=True)
    check(oracle.count_failures(plan["expected"], outcomes) == 0,
          f"{plan['workload']}: traced answers match the oracle")
    return {k: v for k, (v, unit) in metrics.items() if unit != "ms"
            and k != "trace.overhead"}, metrics


def check_trace(name, plan, workdir):
    small = dict(plan, queries=plan["queries"][:TRACE_QUERIES],
                 expected=plan["expected"][:TRACE_QUERIES])
    first, metrics = traced_counts(small, workdir)
    second, _ = traced_counts(small, workdir)
    check(first == second, f"{name}: two traced runs give identical counts")
    stray = [k for k, (v, _) in metrics.items()
             if k.startswith(BYPASSED[name]) and v != 0]
    check(not stray, f"{name}: bypassed layers read zero {stray or ''}")
    return metrics


def check_contract(name, plan, workdir, traced):
    """The result carries exactly the metrics BENCHMARK.json declares."""
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    small = dict(plan, queries=plan["queries"][:TRACE_QUERIES])
    untraced, _ = run.measure(small, workdir, 1, trace=False)
    for metrics, key in ((untraced, "end_to_end"), (traced, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {k: unit for k, (_, unit) in metrics.items()}
        check(got == want, f"{name}: metrics and units match {key}")
        check(all(v == v and v >= 0 for v, _ in metrics.values()),
              f"{name}: {key} values are numbers")


def report_predictions(name, metrics, queries):
    value = {k: v for k, (v, _) in metrics.items()}
    layers = {k.split(".")[0]: v for k, v in value.items()
              if k.endswith(".self_ms")}
    top = max(layers, key=layers.get)
    total = sum(layers.values())
    shares = ", ".join(f"{k} {v / total:.0%}" for k, v in
                       sorted(layers.items(), key=lambda kv: -kv[1]) if v)
    print(f"measured {name}: largest self time {top}; shares {shares}")
    if name == "journey-charge":
        print(f"measured {name}: journey.enumerate_calls = "
              f"{value['journey.enumerate_calls']} for {queries} queries")


def main():
    check_oracles()
    for name in workloads.WORKLOADS:
        workdir = HERE / "_work" / f"selftest-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            plan = workloads.build(name, 1, workdir)
            check_corruptions(name, plan)
            metrics = check_trace(name, plan, workdir)
            check_contract(name, plan, workdir, metrics)
            report_predictions(name, metrics, TRACE_QUERIES)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
