"""Answers computed without the library, and the check that compares them.

Each ``*_document`` function builds the exact JSON document that
``softcsp <cmd> --json`` must print for one query: the same witnesses,
the same values and the same order.  Nothing here imports ``softcsp``.
The SCSP answers come from ``oracle_scsp`` in the repository's
``tests/oracles.py``; the capped path and journey enumerators, the Pareto
sweep and the closure iteration live here because the brute-force
versions in ``tests/oracles.py`` do not scale to benchmark inputs (the
uncapped path oracle enumerates more than a million paths on a 6x6 grid).
Costs are non-negative, so pruning a partial path at the energy cap is
exact.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import oracle_scsp  # noqa: E402

INF = math.inf


# --- paths and frontiers ------------------------------------------------------

def adjacency(edges):
    """``{(src, dst): (time, energy)}`` to ``{src: [(dst, time, energy)]}``."""
    adj = {}
    for (src, dst), (t, e) in edges.items():
        adj.setdefault(src, []).append((dst, t, e))
    return adj


class TooMuchWork(Exception):
    """A search passed its expansion budget; the generator redraws."""


def capped_paths(adj, source, dest, cap, budget=INF):
    """Simple paths source -> dest with energy <= cap, and the expansions.

    An expansion is one partial path (not ending at ``dest``) whose energy
    is within the cap; the library's depth-first search lists the
    neighbours of exactly these, so the count measures its work.  Raises
    :class:`TooMuchWork` past ``budget`` expansions.
    """
    results = []
    expansions = 0
    path = [source]
    visited = {source}

    def walk(node, time, energy):
        nonlocal expansions
        expansions += 1
        if expansions > budget:
            raise TooMuchWork
        for nxt, t, e in adj.get(node, ()):
            total = energy + e
            if total > cap or nxt in visited:
                continue
            if nxt == dest:
                results.append((tuple(path) + (nxt,), time + t, total))
                continue
            visited.add(nxt)
            path.append(nxt)
            walk(nxt, time + t, total)
            path.pop()
            visited.remove(nxt)

    walk(source, 0, 0)
    return results, expansions


def pareto(costs, mode):
    """The non-dominated (time, energy) pairs of ``costs``, by sort and sweep.

    ``strict``: u is dominated when some v is smaller in both coordinates.
    ``weak``: u is dominated when some other v is no larger in both.
    """
    unique = sorted(set(costs))
    kept = set()
    if mode == "weak":
        best = INF
        for t, e in unique:
            if e < best:
                kept.add((t, e))
            best = min(best, e)
        return kept
    best_before = INF  # least energy among strictly smaller times
    for _, group in itertools.groupby(unique, key=lambda c: c[0]):
        group = list(group)
        kept.update(c for c in group if c[1] <= best_before)
        best_before = min(best_before, group[0][1])
    return kept


def front(items, mode):
    """Frontier of ``(witness, time, energy)`` items in the library's order."""
    keep = pareto([(t, e) for _, t, e in items], mode)
    return sorted((it for it in items if (it[1], it[2]) in keep),
                  key=lambda it: (it[0], it[1], it[2]))


def min_energy(adj, source, dest):
    """Least energy of any source -> dest route (Dijkstra), inf if none."""
    best = {source: 0}
    heap = [(0, source)]
    while heap:
        e, node = heapq.heappop(heap)
        if node == dest:
            return e
        if e > best.get(node, INF):
            continue
        for nxt, _, w in adj.get(node, ()):
            if e + w < best.get(nxt, INF):
                best[nxt] = e + w
                heapq.heappush(heap, (e + w, nxt))
    return INF


def min_time(adj, source, dest):
    """Least time of any source -> dest route, inf if none."""
    swapped = {s: [(d, e, t) for d, t, e in out] for s, out in adj.items()}
    return min_energy(swapped, source, dest)


# --- trip ---------------------------------------------------------------------

def trip_answer(adj, source, dest, limit, mode):
    """The expected ``results`` list of ``softcsp trip``."""
    paths, _ = capped_paths(adj, source, dest, limit)
    return [{"path": list(p), "time": t, "energy": e}
            for p, t, e in front(paths, mode)]


def trip_document(q, results):
    return {"inputs": {"network": q["network"], "from": q["from"],
                       "to": q["to"], "limit": q["limit"],
                       "dominance": q["dominance"], "all": False},
            "results": results}


# --- journey ------------------------------------------------------------------

def journeys(adj, appointments, stations, soc, rate, capacity, threshold,
             budget=INF):
    """All feasible journeys, and the expansions of every leg search.

    ``appointments`` are (location, start, duration); ``stations`` are
    (name, spots, location).  A leg charges only when no path at all fits
    the usable charge, then branches over the local stations with spots.
    Raises :class:`TooMuchWork` past ``budget`` expansions in total.
    """
    found = []
    expansions = 0

    def recharge(level, duration):
        charged = level + rate * duration
        return charged if capacity is None else min(capacity, charged)

    def extend(index, level, legs, events, timings, time, energy):
        nonlocal expansions
        if index == len(appointments) - 1:
            found.append((tuple(legs), tuple(events), time, energy,
                          tuple(timings), level))
            return
        loc, start, duration = appointments[index]
        nxt_loc, nxt_start, _ = appointments[index + 1]
        paths, work = capped_paths(adj, loc, nxt_loc, level - threshold,
                                   budget - expansions)
        expansions += work
        if paths:
            branches = [(p, None, level) for p in paths]
        else:
            branches = []
            for name, spots, where in sorted(stations):
                if where != loc or spots <= 0:
                    continue
                charged = recharge(level, duration)
                paths, work = capped_paths(adj, loc, nxt_loc,
                                           charged - threshold,
                                           budget - expansions)
                expansions += work
                branches += [(p, (loc, name), charged) for p in paths]
        for (path, t, e), event, before in branches:
            arrival = start + duration + t
            if arrival > nxt_start:
                continue
            extend(index + 1, before - e, legs + [path],
                   events + ([event] if event else []),
                   timings + [(start + duration, arrival)],
                   time + t, energy + e)

    extend(0, soc, [], [], [], 0, 0)
    return found, expansions


def journey_answer(adj, q, budget=INF):
    """(expected ``results`` list of ``softcsp journey``, expansions)."""
    found, expansions = journeys(
        adj, [tuple(a) for a in q["appointment_list"]],
        [tuple(s) for s in q["station_list"]], q["soc"], q["rate"],
        q["capacity"], q["threshold"], budget)
    by_witness = {(legs, events): rest for legs, events, *rest in found}
    items = [((legs, events), t, e) for legs, events, t, e, _, _ in found]
    results = []
    for witness, t, e in front(items, q["dominance"]):
        legs, events = witness
        _, _, timings, final_soc = by_witness[witness]
        results.append({
            "legs": [list(p) for p in legs], "time": t, "energy": e,
            "charging": [{"location": loc, "station": name}
                         for loc, name in events],
            "timings": [{"departure": d, "arrival": a} for d, a in timings],
            "final_soc": final_soc})
    return results, expansions


def journey_document(q, results):
    return {"inputs": {"network": q["network"],
                       "appointments": q["appointments"],
                       "stations": q["stations"], "soc": q["soc"],
                       "rate": q["rate"], "capacity": q["capacity"],
                       "threshold": q["threshold"],
                       "dominance": q["dominance"]},
            "results": results}


# --- semiring values ----------------------------------------------------------

class RawSemiring:
    """Payload-level c-semiring for ``oracle_scsp``: no tags, no library."""

    def __init__(self, key):
        self.key = key
        if key == "wcsp":
            self.zero, self.one = INF, 0
            self.plus, self.times = min, lambda a, b: a + b
        elif key == "fcsp":
            self.zero, self.one = Fraction(0), Fraction(1)
            self.plus, self.times = max, min
        else:
            raise ValueError(f"no oracle semiring {key!r}")

    def parse(self, raw):
        if self.key == "wcsp":
            return INF if raw == "inf" else int(raw)
        return Fraction(raw)

    def to_json(self, value):
        if self.key == "wcsp":
            return "inf" if value == INF else value
        return int(value) if value.denominator == 1 else str(value)


# --- scsp ---------------------------------------------------------------------

def scsp_document(path, problem):
    """Expected ``softcsp scsp --json`` output for a problem document."""
    sr = RawSemiring(problem["semiring"])
    domain = problem["domain"]
    constraints = [(c["support"],
                    {tuple(r["assign"]): sr.parse(r["value"])
                     for r in c["rows"]})
                   for c in problem["constraints"]]
    iface, rows = oracle_scsp(sr, domain, constraints, problem["interface"],
                              lambda s, a, b: s.times(a, b),
                              lambda s, a, b: s.plus(a, b))
    ordered = [(key, rows[key])
               for key in itertools.product(domain, repeat=len(iface))]
    best = sr.zero
    for _, value in ordered:
        best = sr.plus(best, value)
    return {"inputs": {"problem": path, "semiring": problem["semiring"],
                       "interface": sorted(problem["interface"])},
            "results": [{"assign": dict(zip(iface, key)),
                         "value": sr.to_json(value)}
                        for key, value in ordered],
            "blevel": sr.to_json(best)}


# --- sclp ---------------------------------------------------------------------

def closure(sr, constants, weights):
    """Naive Kleene iteration of the closure program, from all-zero.

    ``path(X,Y) :- edge(X,Y).  path(X,Y) :- edge(X,Z), path(Z,Y).`` with
    ``weights`` the edge facts.  Returns (edge values, path values, k) where
    k applications reach the fixpoint, as the library counts iterations.
    """
    zero = sr.zero
    facts = {(a, b): weights.get((a, b), zero)
             for a in constants for b in constants}
    edge = {pair: zero for pair in facts}
    path = dict(edge)
    k = 0
    while True:
        new_path = {}
        for x in constants:
            for y in constants:
                value = edge[(x, y)]
                for z in constants:
                    value = sr.plus(value, sr.times(edge[(x, z)], path[(z, y)]))
                new_path[(x, y)] = value
        if facts == edge and new_path == path:
            return edge, path, k
        edge, path, k = facts, new_path, k + 1


def sclp_document(q, semiring, constants, weights):
    sr = RawSemiring(semiring)
    edge, path, rounds = closure(sr, constants, weights)
    values = {("edge",) + pair: v for pair, v in edge.items()}
    values.update({("path",) + pair: v for pair, v in path.items()})
    if q.get("goal"):
        goal = q["goal"]
        value = sr.one
        for atom in goal:
            name, args = atom.rstrip(")").split("(")
            value = sr.times(value, values[(name,) + tuple(args.split(","))])
        return {"inputs": {"program": q["program"], "semiring": semiring,
                           "goal": goal},
                "results": [{"goal": goal, "value": sr.to_json(value)}]}
    atoms = sorted(values, key=lambda a: (a[0], len(a) - 1, a[1:]))
    return {"inputs": {"program": q["program"], "semiring": semiring},
            "results": [{"atom": f"{a[0]}({','.join(a[1:])})",
                         "value": sr.to_json(values[a])} for a in atoms],
            "iterations": rounds}


# --- the check ----------------------------------------------------------------

def count_failures(expected, outcomes):
    """Failed calls among ``outcomes``: (query id, exit code, stdout, calls).

    A call fails when it exits nonzero or its output is not exactly the
    expected document (list order included).
    """
    failed = 0
    for qid, code, text, calls in outcomes:
        if code != 0:
            failed += calls
            continue
        try:
            got = json.loads(text)
        except ValueError:
            failed += calls
            continue
        if got != expected[qid]:
            failed += calls
    return failed
