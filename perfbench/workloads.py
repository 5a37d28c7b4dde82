"""Seeded workload generators: input files, CLI queries and their answers.

``build(name, seed, workdir)`` writes ordinary fixture-format files under
``workdir`` and returns a plan: the argv of every query, the document each
must print (from :mod:`oracle`, never from the library), a small fixed
warm-up query and the input sizes.  The same seed gives the same plan.

The runs must read alike from seed to seed, so each workload fixes its mix
by a schedule and lets the seed choose only the details:

* ``trip-grid`` and ``journey-charge`` draw a work target per query from
  stratified log-uniform ladders and plateaus and shape the query to it
  (the energy cap, or a redraw), where work is the number of partial paths
  the search expands.  A random slack alone gives path counts over four
  decades, and the slowest tenth of a few hundred queries then moves from
  seed to seed.  A plateau of like queries of one grid size and one target
  holds the p50, another the p90.
* ``scsp-chain`` and ``sclp-closure`` cost what their shapes cost, so they
  send a fixed mix of shapes and draw only the values.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import oracle

WORKLOADS = ("trip-grid", "journey-charge", "scsp-chain", "sclp-closure")


# --- shared pieces --------------------------------------------------------------

def _write(path: Path, data) -> str:
    text = data if isinstance(data, str) else json.dumps(data, indent=1)
    path.write_text(text, encoding="utf-8")
    return str(path)


def _mix(rng, parts):
    """(group, target) pairs for every part, in shuffled order.

    A part is (groups, low, high, count).  Each group gets its own ladder of
    count / len(groups) targets stratified over [low, high] on a log scale,
    so the mix of groups is the same at every work level; low == high makes
    a plateau of like queries.  The cost of an expansion differs with grid
    size and with the seed, so a quantile that falls on a ladder moves from
    seed to seed, while one inside a plateau holds.
    """
    pairs = []
    for groups, low, high, count in parts:
        per_group = count // len(groups)
        pairs += [(group, low * (high / low) ** ((i + rng.random()) / per_group))
                  for group in groups for i in range(per_group)]
    rng.shuffle(pairs)
    return pairs


def _groups(parts):
    return sorted({group for groups, *_ in parts for group in groups})


def grid_edges(rng, size):
    """Bidirectional size x size grid; each direction draws its own costs."""
    edges = {}
    for r in range(size):
        for c in range(size):
            for nr, nc in ((r, c + 1), (r + 1, c)):
                if nr < size and nc < size:
                    a, b = f"n{r}{c}", f"n{nr}{nc}"
                    edges[(a, b)] = (rng.randint(1, 9), rng.randint(1, 9))
                    edges[(b, a)] = (rng.randint(1, 9), rng.randint(1, 9))
    return edges


def _network_file(path: Path, size, edges) -> str:
    nodes = [f"n{r}{c}" for r in range(size) for c in range(size)]
    return _write(path, {"nodes": nodes,
                         "edges": [{"from": a, "to": b, "time": t, "energy": e}
                                   for (a, b), (t, e) in sorted(edges.items())]})


def _networks(rng, workdir, sizes, per_size):
    """Grid networks per size: {size: [(file, adjacency, node list)]}."""
    pool = {}
    for size in sizes:
        for k in range(per_size):
            edges = grid_edges(rng, size)
            path = _network_file(workdir / f"net{size}-{k}.json", size, edges)
            nodes = sorted({a for a, _ in edges})
            pool.setdefault(size, []).append(
                (path, oracle.adjacency(edges), nodes))
    return pool


def cap_for_work(adj, source, dest, target):
    """Least energy cap at which a capped search expands >= target partials.

    Partial simple paths are popped in order of energy; the cap is the
    energy of the target-th one (the search expands exactly the partials
    within its cap, so ties only add work).
    """
    index = {n: i for i, n in enumerate(sorted(adj))}
    heap = [(0, source, 1 << index[source])]
    popped = 0
    while heap:
        energy, node, mask = heapq.heappop(heap)
        popped += 1
        if popped >= target:
            return energy
        for nxt, _, e in adj[node]:
            bit = 1 << index[nxt]
            if nxt != dest and not mask & bit:
                heapq.heappush(heap, (energy + e, nxt, mask | bit))
    return energy


# --- trip-grid ------------------------------------------------------------------

# (grid sizes, low and high work target, queries): ladders below and
# between two plateaus on 6x6 grids.  latency_p50_ms falls inside the middle
# plateau (ranks 37..84 of 120), latency_p90_ms inside the top fifth.
TRIP_MIX = [((5, 6, 7), 20, 250, 36), ((6,), 400, 400, 48),
            ((5, 6, 7), 700, 2000, 12), ((6,), 3000, 3000, 24)]


def _trip(rng, workdir, parts):
    pool = _networks(rng, workdir, _groups(parts), per_size=3)
    queries = []
    for i, (size, target) in enumerate(_mix(rng, parts)):
        path, adj, nodes = rng.choice(pool[size])
        source, dest = rng.sample(nodes, 2)
        limit = max(oracle.min_energy(adj, source, dest),
                    cap_for_work(adj, source, dest, round(target)))
        mode = "weak" if i % 10 < 3 else "strict"
        q = {"network": path, "from": source, "to": dest, "limit": limit,
             "dominance": mode}
        results = oracle.trip_answer(adj, source, dest, limit, mode)
        queries.append({
            "argv": ["trip", "--network", path, "--from", source, "--to", dest,
                     "--limit", str(limit), "--dominance", mode, "--json"],
            "expected": oracle.trip_document(q, results)})
    return queries


# --- journey-charge -------------------------------------------------------------

# As for trip-grid: latency_p50_ms falls inside the middle plateau (ranks
# 25..66 of 102), latency_p90_ms inside the top quarter.
JOURNEY_MIX = [((5, 6, 7), 60, 200, 24), ((6,), 300, 300, 42),
               ((5, 6, 7), 450, 900, 9), ((6,), 1500, 1500, 27)]


def _journey_candidate(rng, networks):
    path, adj, nodes = rng.choice(networks)
    stops = [rng.choice(nodes)]
    for _ in range(rng.randint(3, 5) - 1):
        stops.append(rng.choice([n for n in nodes if n != stops[-1]]))
    appointments = []
    start = rng.randint(0, 10)
    for k, loc in enumerate(stops):
        duration = rng.randint(5, 20)
        appointments.append((loc, start, duration))
        if k + 1 < len(stops):
            start += duration + oracle.min_time(adj, loc, stops[k + 1]) \
                + rng.randint(0, 20)
    stations = []
    for loc in sorted(set(stops)):
        if rng.random() < 0.8:
            for j in range(rng.randint(1, 2)):
                spots = 0 if rng.random() < 0.25 else rng.randint(1, 3)
                stations.append((f"cs{loc}{j}", spots, loc))
    first = oracle.min_energy(adj, stops[0], stops[1])
    soc = first + rng.randint(0, 8)
    rate = rng.choice((1, 1, 2))
    capacity = soc + rng.randint(5, 25) if rng.random() < 0.4 else None
    return {"network": path, "adj": adj, "appointment_list": appointments,
            "station_list": stations, "soc": soc, "rate": rate,
            "capacity": capacity, "threshold": 0,
            "dominance": "weak" if rng.random() < 0.3 else "strict"}


def _journey(rng, workdir, parts):
    pool = _networks(rng, workdir, _groups(parts), per_size=2)
    queries = []
    for i, (size, target) in enumerate(_mix(rng, parts)):
        # Redraw until the work lands within a factor 1.2 of the target and,
        # for all but one query in eight, some journey is feasible.
        while True:
            q = _journey_candidate(rng, pool[size])
            try:
                results, expansions = oracle.journey_answer(
                    q["adj"], q, budget=target * 1.2)
            except oracle.TooMuchWork:
                continue
            if expansions >= target / 1.2 and (results or i % 8 == 7):
                break
        q["appointments"] = _write(workdir / f"appts{i}.json", [
            {"location": loc, "start": s, "duration": d}
            for loc, s, d in q["appointment_list"]])
        q["stations"] = _write(workdir / f"stations{i}.json", [
            {"name": name, "spots": spots, "location": loc}
            for name, spots, loc in q["station_list"]])
        argv = ["journey", "--network", q["network"],
                "--appointments", q["appointments"],
                "--stations", q["stations"], "--soc", str(q["soc"]),
                "--rate", str(q["rate"]), "--dominance", q["dominance"],
                "--json"]
        if q["capacity"] is not None:
            argv[-1:-1] = ["--capacity", str(q["capacity"])]
        queries.append({"argv": argv,
                        "expected": oracle.journey_document(q, results)})
    return queries


# --- scsp-chain -----------------------------------------------------------------

# scsp-chain and sclp-closure mix light kinds with one heavy kind that fills
# the top fifth of the queries, so latency_p90_ms falls inside a plateau of
# like queries rather than on the step between two kinds.  scsp-chain holds
# latency_p50_ms on a plateau too; in sclp-closure the light kinds around
# the median cost about the same.

# (shape, variables or lattice side, domain size, semiring), cheapest first:
# latency_p50_ms falls inside the plateau of 4-variable chains (ranks 37..84
# of 120), latency_p90_ms inside the top fifth.
SCSP_MIX = ([("chain", 3, 3, "wcsp"), ("chain", 3, 3, "fcsp"),
             ("chain", 3, 4, "wcsp"), ("lattice", (2, 2), 3, "wcsp"),
             ("lattice", (2, 2), 3, "fcsp"), ("lattice", (2, 3), 2, "wcsp")]
            * 6
            + [("chain", 4, 4, "wcsp")] * 48
            + [("chain", 5, 3, "wcsp"), ("lattice", (2, 2), 4, "fcsp"),
               ("chain", 5, 3, "fcsp")] * 4
            + [("chain", 6, 3, "wcsp")] * 24)


def _scsp_value(rng, semiring):
    if semiring == "wcsp":
        return "inf" if rng.random() < 0.1 else rng.randint(0, 9)
    return str(Fraction(rng.randint(0, 10), 10))


def _scsp_problem(rng, shape, size, d, semiring):
    if shape == "chain":
        names = [f"v{k}" for k in range(size)]
        pairs = list(zip(names, names[1:]))
    else:
        rows, cols = size
        names = [f"v{r}{c}" for r in range(rows) for c in range(cols)]
        pairs = [(f"v{r}{c}", f"v{r}{c + 1}")
                 for r in range(rows) for c in range(cols - 1)]
        pairs += [(f"v{r}{c}", f"v{r + 1}{c}")
                  for r in range(rows - 1) for c in range(cols)]
    interface = rng.sample(names, 2)
    domain = [f"d{k}" for k in range(d)]
    supports = [list(p) for p in pairs]
    # Unary constraints on every third name from the second.  Their place
    # sets the cost (on the last names of a chain it grows by a third), so
    # the seed draws only the values and the interface.
    supports += [[n] for n in names[1::3]]
    constraints = []
    for support in supports:
        rows = []
        for assign in itertools.product(domain, repeat=len(support)):
            rows.append({"assign": list(assign),
                         "value": _scsp_value(rng, semiring)})
        constraints.append({"support": support, "rows": rows})
    return {"semiring": semiring, "domain": domain, "interface": interface,
            "constraints": constraints}


def _scsp(rng, workdir, kinds):
    kinds = list(kinds)
    rng.shuffle(kinds)
    queries = []
    for i, (shape, size, d, semiring) in enumerate(kinds):
        problem = _scsp_problem(rng, shape, size, d, semiring)
        path = _write(workdir / f"problem{i}.json", problem)
        queries.append({"argv": ["scsp", "--problem", path, "--json"],
                        "expected": oracle.scsp_document(path, problem)})
    return queries


# --- sclp-closure ---------------------------------------------------------------

# (constants, graph shape, semiring, goal query rather than full dump)
SCLP_MIX = ([(n, shape, semiring, goal) for n in range(3, 6)
             for shape in ("dense", "ring") for semiring in ("wcsp", "fcsp")
             for goal in (True, False)] * 4
            + [(6, "ring", "wcsp", False)] * 24)


def _sclp_graph(rng, constants, shape, semiring):
    if shape == "dense":
        pairs = [(a, b) for a in constants for b in constants
                 if a != b and rng.random() < 0.5]
    else:  # one long cycle: shortest paths take up to n hops, so n rounds
        order = rng.sample(constants, len(constants))
        pairs = list(zip(order, order[1:] + order[:1]))
    weights = {}
    for pair in pairs:
        if semiring == "wcsp":
            weights[pair] = rng.randint(0, 9)
        else:
            weights[pair] = Fraction(rng.randint(1, 10), 10)
    return weights


def _sclp_text(semiring, constants, weights):
    lines = [f"#semiring {semiring}", f"#constants {','.join(constants)}."]
    for (a, b), w in sorted(weights.items()):
        lines.append(f"edge({a},{b}) :- {w}.")
    lines.append("path(X,Y) :- edge(X,Y).")
    lines.append("path(X,Y) :- edge(X,Z), path(Z,Y).")
    return "\n".join(lines) + "\n"


def _sclp(rng, workdir, kinds):
    kinds = list(kinds)
    rng.shuffle(kinds)
    queries = []
    for i, (n, shape, semiring, goal) in enumerate(kinds):
        constants = [f"c{k:02d}" for k in range(n)]
        weights = _sclp_graph(rng, constants, shape, semiring)
        path = _write(workdir / f"program{i}.sclp",
                      _sclp_text(semiring, constants, weights))
        q = {"program": path}
        argv = ["sclp", "--program", path, "--json"]
        if goal:
            a, b, c = rng.sample(constants, 3)
            q["goal"] = [f"path({a},{b})", f"path({b},{c})"][:rng.randint(1, 2)]
            argv += ["--goal", ",".join(q["goal"])]
        queries.append({"argv": argv,
                        "expected": oracle.sclp_document(q, semiring,
                                                         constants, weights)})
    return queries


# --- plans ----------------------------------------------------------------------

def _queries(name, rng, workdir, small):
    if name == "trip-grid":
        return _trip(rng, workdir,
                     [((3,), 5, 20, 3)] if small else TRIP_MIX)
    if name == "journey-charge":
        return _journey(rng, workdir,
                        [((3,), 5, 30, 3)] if small else JOURNEY_MIX)
    if name == "scsp-chain":
        return _scsp(rng, workdir,
                     [("chain", 3, 2, "wcsp")] if small else SCSP_MIX)
    if name == "sclp-closure":
        return _sclp(rng, workdir,
                     [(3, "ring", "wcsp", False)] if small else SCLP_MIX)
    raise ValueError(f"unknown workload {name!r}")


def _describe(parts):
    """Work targets of a mix, as in '36 of 20..250 on 5x5/6x6/7x7 grids'."""
    return ", ".join(
        f"{count} of {low}" + (f"..{high}" if high != low else "")
        + f" on {'/'.join(f'{g}x{g}' for g in groups)} grids"
        for groups, low, high, count in parts)


SIZES = {
    "trip-grid": f"{sum(part[-1] for part in TRIP_MIX)} trip queries, 30% "
                 f"weak; expansions: {_describe(TRIP_MIX)}",
    "journey-charge": f"{sum(part[-1] for part in JOURNEY_MIX)} journeys of "
                      f"3..5 appointments; expansions: "
                      f"{_describe(JOURNEY_MIX)}",
    "scsp-chain": f"{len(SCSP_MIX)} problems: chains of 3..6 variables "
                  f"(domain 3) or 3..4 (domain 4), 2x2 and 2x3 lattices; "
                  f"wcsp and fcsp",
    "sclp-closure": f"{len(SCLP_MIX)} closure programs over 3..6 constants, "
                    f"dense and ring graphs; wcsp and fcsp; goal and dump",
}


def build(name, seed, workdir):
    """Write the workload's inputs under ``workdir`` and return its plan."""
    workdir = Path(workdir)
    warm_dir = workdir / "warmup"
    warm_dir.mkdir(parents=True, exist_ok=True)
    warmup = _queries(name, random.Random(0), warm_dir, small=True)[0]
    rng = random.Random(f"{name}:{seed}")
    queries = _queries(name, rng, workdir, small=False)
    return {"workload": name, "seed": seed, "sizes": SIZES[name],
            "warmup": warmup["argv"],
            "queries": [q["argv"] for q in queries],
            "expected": [q["expected"] for q in queries]}
