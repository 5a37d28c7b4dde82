"""Road networks and the trip-level optimizer.

A network is a directed graph whose edges carry finite (time, energy)
costs.  Trips are *simple* paths (no repeated node) between two nodes
whose total energy stays within a cap -- the cap models the charge
available for the trip.  :func:`enumerate_paths` lists all of them and
:func:`best_paths` only the non-dominated ones, each as a list of
:class:`TripSolution` in lexicographic order of the node sequence.

``best_paths`` walks the same depth-first search but keeps, per node, the
costs of the partial paths that reached it (Martins 1984, Hansen 1980).
A partial path is cut when a cost recorded at its endpoint, or a trip
already found, dominates its own.  The cut is exact because costs are
non-negative: completing the dominating prefix with the cut prefix's
suffix and removing any cycle gives a simple path within the cap whose
cost dominates every completion of the cut prefix.  A trip found later
may still dominate one found before; one sweep over the trips' costs
(:func:`frontier._frontier`) drops those.  The walk carries a partial
path's cost as two plain ints, and the labels are ``(time, energy)`` int
pairs compared by :mod:`frontier`'s component rules; a :class:`CostPair`
is built only for a trip that reaches the destination.  Networks keep a
per-node adjacency index built once at construction, so expanding a node
costs no edge scan.

Every walk is also steered toward its goal.  :class:`LeastCosts` runs a
reverse Dijkstra from the destination over the network's reverse
adjacency and gives each node its least time and least energy to it.  A
partial path is cut when its energy plus the least energy still needed
exceeds the cap, or, given a time limit, when its time plus the least
time still needed exceeds that.  Both cuts are exact, because edge costs
are non-negative and finite: a cut path has no completion within the
limits, so the trips found and their order are unchanged.

Two input syntaxes are supported.  A network read from either is checked
once, by its reader, which hands the checked edges to
:class:`RoadNetwork` past the constructor's checks; a network built in
code is checked by the constructor.  The syntaxes are a line-oriented
fact format ::

    edge(p,q,[2,4]).
    node(isolated).      % optional; when present, declares the node set

and a JSON document (the CLI's file format)::

    {"nodes": ["p", "q"],
     "edges": [{"from": "p", "to": "q", "time": 2, "energy": 4}]}
"""

from __future__ import annotations

import heapq
import re
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .errors import (FormatError, InputError, ParseError, UnknownNodeError,
                     fields, load_json)
from .frontier import _DOMINATES_COMPONENTS, STRICT, _check_mode, _frontier
from .semiring import CostPair

Adjacency = Tuple[Tuple[str, CostPair], ...]


@dataclass(frozen=True)
class RoadNetwork:
    """A directed graph with (time, energy) edge costs.

    ``nodes`` and ``edges`` are stored as the network's own copies (a tuple
    and a read-only mapping), so the adjacency indexes built from them at
    construction can never go stale.  Node names must be non-empty
    strings, every edge endpoint must be a node, and every edge cost a
    :class:`CostPair` with finite components.
    """

    nodes: Tuple[str, ...]
    edges: Mapping[Tuple[str, str], CostPair]
    _adjacency: Dict[str, Adjacency] = field(init=False, repr=False,
                                             compare=False)
    # Incoming (src, time, energy) triples per node, for LeastCosts.
    _reverse: Dict[str, Tuple[Tuple[str, int, int], ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        for node in nodes:
            if not isinstance(node, str) or not node:
                raise InputError(f"node name must be a non-empty string, "
                                 f"got {node!r}")
        known = set(nodes)
        edges = dict(self.edges)
        for (src, dst), cost in edges.items():
            if src not in known or dst not in known:
                unknown = src if src not in known else dst
                raise InputError(f"edge {src}->{dst}: unknown node "
                                 f"{unknown!r}")
            # CostPair admits only non-negative ints and infinity.
            if (type(cost) is not CostPair or type(cost.time) is not int
                    or type(cost.energy) is not int):
                raise InputError(f"edge {src}->{dst}: cost must be a "
                                 f"CostPair of finite components, got "
                                 f"{cost!r}")
        self._index(nodes, edges)

    @classmethod
    def _from_checked(cls, nodes: Tuple[str, ...],
                      edges: Dict[Tuple[str, str], CostPair]) -> "RoadNetwork":
        """The network over ``nodes`` and ``edges``, which a reader has
        checked as ``__post_init__`` would and hands over."""
        net = object.__new__(cls)
        net._index(nodes, edges)
        return net

    def _index(self, nodes: Tuple[str, ...],
               edges: Dict[Tuple[str, str], CostPair]) -> None:
        out: Dict[str, List[Tuple[str, CostPair]]] = defaultdict(list)
        into: Dict[str, List[Tuple[str, int, int]]] = defaultdict(list)
        for (src, dst), cost in edges.items():
            out[src].append((dst, cost))
            into[dst].append((src, *cost))
        for pairs in out.values():
            # Destinations are unique per source, so costs are never compared.
            pairs.sort()
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", MappingProxyType(edges))
        object.__setattr__(self, "_adjacency",
                           dict(zip(out, map(tuple, out.values()))))
        object.__setattr__(self, "_reverse",
                           dict(zip(into, map(tuple, into.values()))))

    def neighbours(self, node: str) -> Adjacency:
        """Outgoing ``(dst, cost)`` pairs, sorted by destination."""
        return self._adjacency.get(node, ())


@dataclass(frozen=True)
class TripSolution:
    """A simple path together with its summed (time, energy) cost."""

    path: Tuple[str, ...]
    cost: CostPair


def _edge_fault(edges, known, src: str, dst: str) -> Optional[str]:
    """Why the edge src->dst cannot join ``edges`` over the nodes ``known``."""
    if (src, dst) in edges:
        return f"duplicate edge {src}->{dst}"
    if src not in known:
        return f"unknown node {src!r}"
    if dst not in known:
        return f"unknown node {dst!r}"
    return None


_EDGE_FACT = re.compile(
    r"^edge\(\s*(\w+)\s*,\s*(\w+)\s*,\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*\)$")
_NODE_FACT = re.compile(r"^node\(\s*(\w+)\s*\)$")


def parse_network(text: str) -> RoadNetwork:
    """Parse the fact format; errors carry the offending line number.

    Facts end with ``.`` and several may share a line.  Without ``node``
    facts the node set is the set of edge endpoints; with them, every
    endpoint must be declared.
    """
    nodes: List[str] = []
    edge_list = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        cut = raw_line.find("%")
        line = (raw_line if cut < 0 else raw_line[:cut]).strip()
        if not line:
            continue
        statements = [part.strip() for part in line.split(".")]
        if statements[-1]:
            raise ParseError(f"fact {statements[-1]!r} does not end with '.'",
                             line_no)
        for statement in statements[:-1]:
            if not statement:
                continue
            edge_match = _EDGE_FACT.match(statement)
            if edge_match:
                src, dst, time, energy = edge_match.groups()
                edge_list.append((line_no, src, dst,
                                  CostPair(int(time), int(energy))))
                continue
            node_match = _NODE_FACT.match(statement)
            if node_match:
                nodes.append(node_match.group(1))
                continue
            raise ParseError(f"malformed network fact {statement!r}", line_no)

    known = set(nodes) or {end for _, src, dst, _ in edge_list
                           for end in (src, dst)}
    edges: Dict[Tuple[str, str], CostPair] = {}
    for line_no, src, dst, cost in edge_list:
        fault = _edge_fault(edges, known, src, dst)
        if fault is not None:
            raise ParseError(fault, line_no)
        edges[src, dst] = cost
    return RoadNetwork._from_checked(tuple(sorted(known)), edges)


_EDGE_KEYS = ("from", "to", "time", "energy")
_EDGE_ROW = itemgetter(*_EDGE_KEYS)


def network_from_json(data) -> RoadNetwork:
    """Read the JSON network format, checking every edge entry once.

    The entries are read and checked in bulk; a document that fails is
    read again, entry by entry, by :func:`_explain`, which names the fault.
    """
    nodes, raw_edges = fields(data, "network file", ("nodes", "edges"))
    if (not isinstance(nodes, list)
            or not all(isinstance(n, str) and n for n in nodes)):
        raise FormatError('"nodes" must be a list of node names')
    if not isinstance(raw_edges, list):
        raise FormatError('"edges" must be a list')
    known = set(nodes)
    edges = _bulk_edges(raw_edges, known)
    if edges is None:
        edges = _explain(raw_edges, known)
    return RoadNetwork._from_checked(tuple(sorted(known)), edges)


def _bulk_edges(raw_edges: list, known: set
                ) -> Optional[Dict[Tuple[str, str], CostPair]]:
    """The edges of ``raw_edges``, or None if any entry is faulty.

    Endpoints must be known nodes (so strings), costs non-negative ints,
    and each (from, to) pair must appear once: the rules
    :func:`_explain` applies entry by entry.
    """
    if not raw_edges:
        return {}
    try:
        srcs, dsts, times, energies = zip(*map(_EDGE_ROW, raw_edges))
        if not (known.issuperset(srcs) and known.issuperset(dsts)):
            return None
    except (KeyError, TypeError):
        # An entry that is no object or lacks a key, or an unhashable end.
        return None
    costs = times + energies
    if {type(cost) for cost in costs} != {int} or min(costs) < 0:
        return None
    # Every component is a non-negative int, so each pair is built as a
    # tuple, without CostPair's own check.
    edges = dict(zip(zip(srcs, dsts), map(tuple.__new__, repeat(CostPair),
                                          zip(times, energies))))
    return edges if len(edges) == len(raw_edges) else None


def _explain(raw_edges: list, known: set) -> Dict[Tuple[str, str], CostPair]:
    """Read ``raw_edges`` one entry at a time: the edges, or the error of
    the first fault.

    Every entry's keys and types are checked before any duplicate edge or
    unknown node is reported, so the first such fault is held back until
    the last entry has been read.
    """
    edges: Dict[Tuple[str, str], CostPair] = {}
    fault = None
    for index, entry in enumerate(raw_edges):
        try:
            src, dst = entry["from"], entry["to"]
            time, energy = entry["time"], entry["energy"]
        except (KeyError, TypeError):
            fields(entry, f"edges[{index}]", _EDGE_KEYS)  # names the fault
            raise
        if not isinstance(src, str):
            raise FormatError(f"edges[{index}].from must be a node name, "
                              f"got {src!r}")
        if not isinstance(dst, str):
            raise FormatError(f"edges[{index}].to must be a node name, "
                              f"got {dst!r}")
        if type(time) is not int or time < 0:
            raise FormatError(f"edges[{index}]: time must be a non-negative "
                              f"integer, got {time!r}")
        if type(energy) is not int or energy < 0:
            raise FormatError(f"edges[{index}]: energy must be a "
                              f"non-negative integer, got {energy!r}")
        if fault is None:
            fault = _edge_fault(edges, known, src, dst)
            if fault is not None:
                fault = f"edges[{index}]: {fault}"
        edges[src, dst] = CostPair(time, energy)
    if fault is not None:
        raise FormatError(fault)
    return edges


def load_network(path: str | Path) -> RoadNetwork:
    return load_json(path, network_from_json)


class LeastCosts:
    """The least time and the least energy from each node to ``dest``.

    Each is found by a reverse Dijkstra from ``dest`` over the network's
    reverse adjacency, run outward only as far as a caller has asked, and
    resumed when a caller asks for more.  The two are minimised apart, over
    every path, so each bounds from below what any path from the node
    still needs.
    """

    def __init__(self, net: RoadNetwork, dest: str):
        if dest not in net.nodes:
            raise UnknownNodeError(f"unknown node {dest!r}")
        self.dest = dest
        self._reverse = net._reverse
        # Per component, time then energy: the settled least costs, and a
        # heap of tentative ones, stale entries included.
        self._settled: Tuple[Dict[str, int], Dict[str, int]] = ({}, {})
        self._heaps = ([(0, dest)], [(0, dest)])

    def time(self, radius: int) -> Mapping[str, int]:
        """Least times to ``dest`` by node.  Every node whose least time
        is at most ``radius`` is present (others may be); a node absent
        needs more than ``radius``."""
        return self._within(0, radius)

    def energy(self, radius: int) -> Mapping[str, int]:
        """Least energies to ``dest`` by node, as :meth:`time` gives the
        least times."""
        return self._within(1, radius)

    def _within(self, component: int, radius: int) -> Dict[str, int]:
        settled, heap = self._settled[component], self._heaps[component]
        while heap and heap[0][0] <= radius:
            cost, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled[node] = cost
            for edge in self._reverse.get(node, ()):
                if edge[0] not in settled:
                    heapq.heappush(heap, (cost + edge[1 + component], edge[0]))
        return settled


def _walk(net: RoadNetwork, source: str, dest: str, energy_limit: int,
          mode: Optional[str] = None, time_limit: Optional[int] = None,
          least: Optional[LeastCosts] = None) -> List[TripSolution]:
    """Depth-first walk over the simple capped paths source -> dest.

    The walk keeps an explicit stack of frames, one per node of the path:
    the node's neighbour iterator, and the path's time and energy up to
    the node.  So a path may be as long as the network.  Trips come out in
    lexicographic order of their node sequence.  A partial path is cut
    when it cannot reach ``dest`` within the energy cap, or within
    ``time_limit`` when one is given, even by the least costs of ``least``
    (made here when not given).  With a dominance ``mode``, a partial path
    is also cut when a partial path already recorded at its endpoint, or a
    trip already found, dominates it.
    """
    for node in (source, dest):
        if node not in net.nodes:
            raise UnknownNodeError(f"unknown node {node!r}")
    if type(energy_limit) is not int or energy_limit < 0:
        raise InputError(f"energy limit must be a non-negative integer, "
                         f"got {energy_limit!r}")
    if time_limit is not None and type(time_limit) is not int:
        raise InputError(f"time limit must be an integer, "
                         f"got {time_limit!r}")
    if least is None:
        least = LeastCosts(net, dest)
    elif least.dest != dest:
        raise ValueError(f"least costs to {least.dest!r} cannot steer a "
                         f"walk to {dest!r}")
    dominated: Optional[Callable[[str, int, int], bool]] = None
    if mode is not None:
        _check_mode(mode)
        dominated = _pruner(_DOMINATES_COMPONENTS[mode], dest)
    least_energy = least.energy(energy_limit)
    least_time = None if time_limit is None else least.time(time_limit)

    results: List[TripSolution] = []
    path = [source]
    visited = {source}
    stack = [(iter(net.neighbours(source)), 0, 0)]
    while stack:
        neighbours, time, energy = stack[-1]
        for neighbour, cost in neighbours:
            if neighbour in visited:
                continue
            next_energy = energy + cost.energy
            still = least_energy.get(neighbour)
            if still is None or next_energy + still > energy_limit:
                continue
            next_time = time + cost.time
            if least_time is not None:
                still = least_time.get(neighbour)
                if still is None or next_time + still > time_limit:
                    continue
            if dominated is not None and dominated(neighbour, next_time,
                                                   next_energy):
                continue
            if neighbour == dest:
                results.append(TripSolution(path=(*path, neighbour),
                                            cost=CostPair(next_time,
                                                          next_energy)))
                continue
            path.append(neighbour)
            visited.add(neighbour)
            stack.append((iter(net.neighbours(neighbour)), next_time,
                          next_energy))
            break
        else:
            stack.pop()
            visited.remove(path.pop())
    return results


def _pruner(dominates: Callable[[int, int, int, int], bool],
            dest: str) -> Callable[[str, int, int], bool]:
    """The prune step: True cuts the partial path, False records its cost.

    ``dominates`` is a rule of :mod:`frontier` on (time, energy)
    components.  Each node keeps, as ``(time, energy)`` int pairs, the
    costs of the partial paths that reached it and were not cut, minus
    those a later one dominates (dominance is transitive, so dropping them
    loses no cut).  The labels at ``dest`` are the trips found so far.
    """
    labels: Dict[str, List[Tuple[int, int]]] = {}

    def dominated(node: str, time: int, energy: int) -> bool:
        here = labels.setdefault(node, [])
        for old_time, old_energy in here:
            if dominates(old_time, old_energy, time, energy):
                return True
        if node != dest:
            for trip_time, trip_energy in labels.get(dest, ()):
                if dominates(trip_time, trip_energy, time, energy):
                    return True
        here[:] = [old for old in here
                   if not dominates(time, energy, old[0], old[1])]
        here.append((time, energy))
        return False

    return dominated


def enumerate_paths(net: RoadNetwork, source: str, dest: str,
                    energy_limit: int, time_limit: Optional[int] = None,
                    least: Optional[LeastCosts] = None) -> List[TripSolution]:
    """All simple paths source -> dest with total energy within the cap.

    With ``time_limit``, only those whose total time is within it too.
    Paths have at least one edge and never repeat a node, so the
    destination only ever appears as the final endpoint; querying a node
    against itself therefore yields nothing.  Results are in lexicographic
    order of the node sequence.  ``least``, the :class:`LeastCosts` to
    ``dest``, lets callers that search toward one destination many times
    compute it once.
    """
    return _walk(net, source, dest, energy_limit, time_limit=time_limit,
                 least=least)


def best_paths(net: RoadNetwork, source: str, dest: str, energy_limit: int,
               mode: str = STRICT) -> List[TripSolution]:
    """The trips of the pruned walk whose cost survives a frontier sweep.

    The same trips, in the same order, as ``frontier_filter`` over
    :func:`enumerate_paths`: lexicographic order of the node sequence.
    """
    trips = _walk(net, source, dest, energy_limit, mode)
    kept = _frontier([trip.cost for trip in trips], mode)
    return [trip for trip in trips if trip.cost in kept]


def trip_solutions(front) -> List[TripSolution]:
    # Unused by the solvers; perfbench/tracer.py wraps it by name.
    return [TripSolution(path=item.witness, cost=item.cost) for item in front]
