"""Spans and counters around the public functions of each softcsp layer.

The recorder wraps functions from outside the program: it replaces each
one by a timing wrapper in *every* ``softcsp`` module that holds it,
because callers import names directly (``journey`` imports
``enumerate_paths``, ``constraints`` and ``sclp`` import ``sr_plus``), so
patching only the defining module would miss most calls.

A span records (id, parent id, query id, function, start, end) and is kept
in memory until :meth:`Recorder.write_spans`.  A layer's self time is the
sum over its spans of the duration minus what their child spans cover.
Hot leaf calls (``sr_plus``, ``sr_times``, ``RoadNetwork.neighbours``) are
timed and counted the same way but not stored one by one: a traced
scsp-chain run makes more than half a million of them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "roadnet", "frontier", "journey", "scsp", "constraints",
          "sclp", "semiring")

# (module, function, layer); leaf functions are counted, not stored.
SPANS = [
    ("cli", "run", "cli"),
    ("roadnet", "enumerate_paths", "roadnet"),
    ("roadnet", "best_paths", "roadnet"),
    ("roadnet", "trip_solutions", "roadnet"),
    ("frontier", "frontier_filter", "frontier"),
    ("frontier", "frontier_union", "frontier"),
    ("frontier", "frontier_times", "frontier"),
    ("journey", "enumerate_journeys", "journey"),
    ("journey", "best_journeys", "journey"),
    ("journey", "journey_solutions", "journey"),
    ("scsp", "solve", "scsp"),
    ("scsp", "blevel", "scsp"),
    ("constraints", "make_constraint", "constraints"),
    ("constraints", "unit_constraint", "constraints"),
    ("constraints", "combine", "constraints"),
    ("constraints", "csum", "constraints"),
    ("constraints", "hide", "constraints"),
    ("constraints", "permute", "constraints"),
    ("sclp", "parse_program", "sclp"),
    ("sclp", "parse_goal", "sclp"),
    ("sclp", "ground", "sclp"),
    ("sclp", "tp_step", "sclp"),
    ("sclp", "lfp", "sclp"),
    ("sclp", "eval_goal", "sclp"),
]
LEAVES = [
    ("semiring", "sr_plus", "semiring"),
    ("semiring", "sr_times", "semiring"),
]


def _count(counts, name, parent, args, result):
    """Per-call counters, taken where the work happens."""
    if name == "enumerate_paths":
        counts["roadnet.enumerate_calls"] += 1
        counts["roadnet.paths_found"] += len(result)
    elif name == "frontier_filter":
        counts["frontier.items_in"] += len(args[0])
        counts["frontier.items_kept"] += len(result)
    elif name == "enumerate_journeys":
        counts["journey.enumerate_calls"] += 1
        counts["journey.journeys_found"] += len(result)
        if parent == "best_journeys":
            counts["journey.frontier_in"] += len(result)
    elif name == "best_journeys":
        counts["journey.frontier_kept"] += len(result)
    elif name in ("combine", "hide"):
        counts[f"constraints.{name}_calls"] += 1
        counts["constraints.rows_built"] += len(result.table)
    elif name == "ground":
        counts["sclp.clauses_grounded"] += len(result.clauses)
    elif name == "tp_step":
        counts["sclp.rounds"] += 1


class Recorder:
    """Installs the wrappers, collects spans and counts, and removes them."""

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counts = Counter()
        self.query = None
        self._stack = []  # frames: [span id, covered by children, name]
        self._next_id = 0
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "softcsp" or n.startswith("softcsp.")]
        for specs, make in ((SPANS, self._span), (LEAVES, self._leaf)):
            for module, name, layer in specs:
                original = getattr(sys.modules[f"softcsp.{module}"], name)
                self._rebind(modules, original, make(original, name, layer))
        from softcsp.roadnet import RoadNetwork
        original = RoadNetwork.neighbours
        self._patches.append((RoadNetwork, "neighbours", original))
        RoadNetwork.neighbours = self._leaf(original, "neighbours", "roadnet")

    def _rebind(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, original, name, layer):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if name == "frontier_filter" and args:
                args = (list(args[0]),) + args[1:]  # to count a generator
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[1]
                self.inclusive_s[name] += duration
                if parent is not None:
                    parent[1] += duration
                self.spans.append((span_id, parent[0] if parent else None,
                                   self.query, name, start, end))
            _count(self.counts, name, parent[2] if parent else None,
                   args, result)
            return result

        return wrapper

    def _leaf(self, original, name, layer):
        stack, clock, counts = self._stack, time.perf_counter, self.counts
        key = "roadnet.expansions" if name == "neighbours" else "semiring.ops"

        def wrapper(*args):
            start = clock()
            result = original(*args)
            duration = clock() - start
            if stack:
                stack[-1][1] += duration
            self.self_s[layer] += duration
            counts[key] += 1
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self, queries):
        """Per-layer totals, in milliseconds and counts."""
        ms = {f"{layer}.self_ms": 1e3 * self.self_s[layer] for layer in LAYERS}
        for name, key in (("solve", "scsp.solve_ms"),
                          ("blevel", "scsp.blevel_ms"),
                          ("ground", "sclp.ground_ms"),
                          ("tp_step", "sclp.tp_step_ms")):
            ms[key] = 1e3 * self.inclusive_s[name]
        ms["sclp.parse_ms"] = 1e3 * (self.inclusive_s["parse_program"]
                                     + self.inclusive_s["parse_goal"])
        c = self.counts
        counts = {key: c[key] for key in (
            "roadnet.enumerate_calls", "roadnet.paths_found",
            "roadnet.expansions", "frontier.items_in", "frontier.items_kept",
            "journey.enumerate_calls", "journey.journeys_found",
            "constraints.combine_calls", "constraints.hide_calls",
            "constraints.rows_built", "sclp.clauses_grounded", "sclp.rounds",
            "semiring.ops")}
        counts["frontier.keep_ratio"] = _ratio(c["frontier.items_kept"],
                                               c["frontier.items_in"])
        counts["journey.keep_ratio"] = _ratio(c["journey.frontier_kept"],
                                              c["journey.frontier_in"])
        counts["trace.queries"] = queries
        return ms, counts

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _ratio(part, whole):
    return part / whole if whole else 0.0
