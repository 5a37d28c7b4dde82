"""Road networks and the trip-level optimizer.

A network is a directed graph whose edges carry finite (time, energy)
costs.  Trips are *simple* paths (no repeated node) between two nodes
whose total energy stays within a cap -- the cap models the charge
available for the trip.  :func:`enumerate_paths` lists all of them;
:func:`best_paths` returns only the non-dominated ones.

``best_paths`` walks the same depth-first search but keeps, per node, the
costs of the partial paths that reached it (Martins 1984, Hansen 1980).
A partial path is cut when a cost recorded at its endpoint, or a trip
already found, dominates its own.  The cut is exact because costs are
non-negative: completing the dominating prefix with the cut prefix's
suffix and removing any cycle gives a simple path within the cap whose
cost dominates every completion of the cut prefix.  Networks keep a
per-node adjacency index built once at construction, so expanding a node
costs no edge scan.

Two input syntaxes are supported: a line-oriented fact format ::

    edge(p,q,[2,4]).
    node(isolated).      % optional; when present, declares the node set

and a JSON document (the CLI's file format)::

    {"nodes": ["p", "q"],
     "edges": [{"from": "p", "to": "q", "time": 2, "energy": 4}]}
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .errors import (FormatError, InputError, ParseError, UnknownNodeError,
                     fields, load_json)
from .frontier import (_DOMINATES, STRICT, CostFrontier, _check_mode,
                       frontier_filter)
from .semiring import CostPair

Adjacency = Tuple[Tuple[str, CostPair], ...]


@dataclass(frozen=True)
class RoadNetwork:
    """A directed graph with (time, energy) edge costs.

    ``edges`` is stored as a read-only mapping, so the adjacency index
    built from it at construction can never go stale.
    """

    nodes: Tuple[str, ...]
    edges: Mapping[Tuple[str, str], CostPair]
    _adjacency: Dict[str, Adjacency] = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        edges = MappingProxyType(dict(self.edges))
        out: Dict[str, List[Tuple[str, CostPair]]] = {}
        for (src, dst), cost in edges.items():
            out.setdefault(src, []).append((dst, cost))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adjacency", {
            src: tuple(sorted(pairs, key=lambda pair: pair[0]))
            for src, pairs in out.items()})

    def neighbours(self, node: str) -> Adjacency:
        """Outgoing ``(dst, cost)`` pairs, sorted by destination."""
        return self._adjacency.get(node, ())


@dataclass(frozen=True)
class TripSolution:
    """A simple path together with its summed (time, energy) cost."""

    path: Tuple[str, ...]
    cost: CostPair


def _check_cost(value, what: str, where: str):
    if type(value) is not int or value < 0:
        raise FormatError(f"{where}: {what} must be a non-negative integer, "
                          f"got {value!r}")
    return value


def _assemble(nodes, edge_list, describe):
    node_set = set(nodes)
    edges: Dict[Tuple[str, str], CostPair] = {}
    for where, src, dst, cost in edge_list:
        if (src, dst) in edges:
            raise describe(where, f"duplicate edge {src}->{dst}")
        for endpoint in (src, dst):
            if endpoint not in node_set:
                raise describe(where, f"unknown node {endpoint!r}")
        edges[(src, dst)] = cost
    return RoadNetwork(nodes=tuple(sorted(node_set)), edges=edges)


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

    if not nodes:
        nodes = [end for _, src, dst, _ in edge_list for end in (src, dst)]

    def describe(line_no, message):
        return ParseError(message, line_no)

    return _assemble(nodes, edge_list, describe)


def network_from_json(data) -> RoadNetwork:
    nodes, raw_edges = fields(data, "network file", ("nodes", "edges"))
    if (not isinstance(nodes, list)
            or not all(isinstance(n, str) and n for n in nodes)):
        raise FormatError('"nodes" must be a list of node names')
    if not isinstance(raw_edges, list):
        raise FormatError('"edges" must be a list')
    edge_list = []
    for index, entry in enumerate(raw_edges):
        where = f"edges[{index}]"
        src, dst, time, energy = fields(entry, where,
                                        ("from", "to", "time", "energy"))
        for key, endpoint in (("from", src), ("to", dst)):
            if not isinstance(endpoint, str):
                raise FormatError(f"{where}.{key} must be a node name, "
                                  f"got {endpoint!r}")
        edge_list.append((where, src, dst,
                          CostPair(_check_cost(time, "time", where),
                                   _check_cost(energy, "energy", where))))

    def describe(where, message):
        return FormatError(f"{where}: {message}")

    return _assemble(nodes, edge_list, describe)


def load_network(path: str | Path) -> RoadNetwork:
    return load_json(path, network_from_json)


def _walk(net: RoadNetwork, source: str, dest: str, energy_limit: int,
          mode: Optional[str] = None) -> List[TripSolution]:
    """Depth-first walk over the simple capped paths source -> dest.

    Trips come out in lexicographic order of their node sequence.  With a
    dominance ``mode``, a partial path is cut when a partial path already
    recorded at its endpoint, or a trip already found, dominates it.
    """
    for node in (source, dest):
        if node not in net.nodes:
            raise UnknownNodeError(f"unknown node {node!r}")
    if type(energy_limit) is not int or energy_limit < 0:
        raise InputError(f"energy limit must be a non-negative integer, "
                         f"got {energy_limit!r}")
    dominated: Optional[Callable[[str, CostPair], bool]] = None
    if mode is not None:
        _check_mode(mode)
        dominated = _pruner(_DOMINATES[mode], dest)

    results: List[TripSolution] = []
    path = [source]
    visited = {source}

    def walk(node: str, time: int, energy: int) -> None:
        for neighbour, cost in net.neighbours(node):
            next_energy = energy + cost.energy
            if next_energy > energy_limit or neighbour in visited:
                continue
            next_time = time + cost.time
            if dominated is not None and dominated(
                    neighbour, CostPair(next_time, next_energy)):
                continue
            path.append(neighbour)
            if neighbour == dest:
                results.append(TripSolution(path=tuple(path),
                                            cost=CostPair(next_time,
                                                          next_energy)))
            else:
                visited.add(neighbour)
                walk(neighbour, next_time, next_energy)
                visited.remove(neighbour)
            path.pop()

    walk(source, 0, 0)
    return results


def _pruner(dominates: Callable[[CostPair, CostPair], bool],
            dest: str) -> Callable[[str, CostPair], bool]:
    """The prune step: True cuts the partial path, False records its cost.

    Each node keeps the costs of the partial paths that reached it and were
    not cut, minus those a later one dominates (dominance is transitive, so
    dropping them loses no cut).  The labels at ``dest`` are the trips
    found so far.
    """
    labels: Dict[str, List[CostPair]] = {}

    def dominated(node: str, cost: CostPair) -> bool:
        here = labels.setdefault(node, [])
        if any(dominates(old, cost) for old in here):
            return True
        if node != dest and any(dominates(trip, cost)
                                for trip in labels.get(dest, ())):
            return True
        here[:] = [old for old in here if not dominates(cost, old)]
        here.append(cost)
        return False

    return dominated


def enumerate_paths(net: RoadNetwork, source: str, dest: str,
                    energy_limit: int) -> List[TripSolution]:
    """All simple paths source -> dest with total energy within the cap.

    Paths have at least one edge and never repeat a node, so the
    destination only ever appears as the final endpoint; querying a node
    against itself therefore yields nothing.  Results are in lexicographic
    order of the node sequence.
    """
    return _walk(net, source, dest, energy_limit)


def best_paths(net: RoadNetwork, source: str, dest: str, energy_limit: int,
               mode: str = STRICT) -> CostFrontier:
    """The non-dominated trips; witnesses are the node sequences.

    The same items, in the same order, as ``frontier_filter`` over
    :func:`enumerate_paths`, found by the pruned walk.
    """
    trips = _walk(net, source, dest, energy_limit, mode)
    return frontier_filter([(t.path, t.cost) for t in trips], mode)


def trip_solutions(front: CostFrontier) -> List[TripSolution]:
    return [TripSolution(path=item.witness, cost=item.cost) for item in front]
