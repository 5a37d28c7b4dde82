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
(:func:`frontier._undominated`) drops those.  The walk carries a partial
path's cost as two plain ints, and the labels are ``(time, energy)`` int
pairs compared by :mod:`frontier`'s component rules; a :class:`CostPair`
is built only for a trip that reaches the destination.  Networks keep a
per-node adjacency index built once at construction, so expanding a node
costs no edge scan.

Every walk is also steered toward its goal by one least-energy map: one
reverse Dijkstra from the destination over the network's reverse
adjacency gives each node that can reach it its least energy to it.  A
network computes the map for a destination once, on the first walk to
it, and keeps it for every later walk there.  A partial path is cut when
its energy plus the least energy still needed exceeds the cap.  A leg
with a time limit is cut on its own time: a partial path whose time
already exceeds the limit is dropped.  Both cuts are exact, because edge
costs are non-negative and finite: a cut path has no completion within
the limits, so the trips found and their order are unchanged.

Two input syntaxes are supported.  Both readers build the network through
the :class:`RoadNetwork` constructor, which checks every network; a
reader checks its input as it reads it only to name a fault by its line
or entry.  The syntaxes are a line-oriented fact format ::

    edge(p,q,[2,4]).
    node(isolated).      % optional; when present, declares the node set

and a JSON document (the CLI's file format)::

    {"nodes": ["p", "q"],
     "edges": [{"from": "p", "to": "q", "time": 2, "energy": 4}]}

A node may be declared once only, in either syntax.  :func:`load_network`
reads a JSON file on every call, but a process parses each distinct
network text once and keeps the last 16 networks read; a rewritten file
is read again.
"""

from __future__ import annotations

import functools
import heapq
import os
import re
from collections import defaultdict
from operator import attrgetter
from types import MappingProxyType
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Tuple)

from .errors import (FormatError, Frozen, InputError, ParseError,
                     UnknownNodeError, _decode, fields, load_text)
from .frontier import _DOMINATES_COMPONENTS, STRICT, _check_mode, _undominated
from .semiring import CostPair

Adjacency = Tuple[Tuple[str, CostPair], ...]


class RoadNetwork(Frozen):
    """A directed graph with (time, energy) edge costs.

    ``nodes`` and ``edges`` are stored as the network's own copies (a tuple
    and a read-only mapping), so the adjacency indexes built from them at
    construction can never go stale.  Node names must be non-empty
    strings, every edge key a (source, destination) pair of nodes, and
    every edge cost a :class:`CostPair` with finite components.

    A network also keeps the least-energy maps its walks have asked for,
    one per destination (see :meth:`_least_energy`): at most one int per
    (node, destination asked for), so at most ``len(nodes)`` squared, and
    freed with the network.  They are derived, private state: equality,
    the refused hash and repr go by ``nodes`` and ``edges`` only, copy
    and pickle act as on a fresh network, and a shallow copy shares the
    maps.
    """

    # Outgoing (dst, cost) pairs and incoming (src, energy) pairs per
    # node, and the least-energy maps by destination, in the private fields.
    __slots__ = ("nodes", "edges", "_adjacency", "_reverse", "_least")

    def __init__(self, nodes: Tuple[str, ...],
                 edges: Mapping[Tuple[str, str], CostPair]):
        nodes = tuple(nodes)
        for node in nodes:
            if not isinstance(node, str) or not node:
                raise InputError(f"node name must be a non-empty string, "
                                 f"got {node!r}")
        known = set(nodes)
        if len(known) != len(nodes):
            raise InputError(f"node {_repeated(nodes)!r} is given more "
                             f"than once")
        edges = dict(edges)
        out: Dict[str, List[Tuple[str, CostPair]]] = defaultdict(list)
        into: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
        for key, cost in edges.items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise InputError(f"edge key must be a (source, destination) "
                                 f"pair, got {key!r}")
            src, dst = key
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
            out[src].append((dst, cost))
            into[dst].append((src, cost.energy))
        for pairs in out.values():
            # Destinations are unique per source, so costs are never compared.
            pairs.sort()
        self._init(nodes, MappingProxyType(edges),
                   dict(zip(out, map(tuple, out.values()))),
                   dict(zip(into, map(tuple, into.values()))), {})

    def _least_energy(self, dest: str) -> Dict[str, int]:
        """The least energy from each node that can reach ``dest`` to it;
        a node absent from the map cannot.  Callers must not change it.

        One reverse Dijkstra from ``dest`` over the reverse adjacency, run
        on the first call for ``dest`` and kept for the later ones.  The
        least energy is minimised over every path, so it bounds from below
        what any path from the node still needs.
        """
        energy = self._least.get(dest)
        if energy is None:
            energy = {}
            reverse = self._reverse
            heap = [(0, dest)]
            while heap:
                cost, node = heapq.heappop(heap)
                if node in energy:
                    continue
                energy[node] = cost
                for src, edge_energy in reverse.get(node, ()):
                    if src not in energy:
                        heapq.heappush(heap, (cost + edge_energy, src))
            # Kept only once whole, so no caller sees a partial map.
            self._least[dest] = energy
        return energy

    def neighbours(self, node: str) -> Adjacency:
        """Outgoing ``(dst, cost)`` pairs, sorted by destination."""
        return self._adjacency.get(node, ())


class TripSolution(NamedTuple):
    """A simple path and its summed (time, energy) cost; a tuple."""

    path: Tuple[str, ...]
    cost: CostPair


def _repeated(names) -> str:
    """The first of ``names`` that an earlier one repeats; there is one."""
    seen = set()
    return next(name for name in names if name in seen or seen.add(name))


def _edge_fault(edges, known, src: str, dst: str) -> Optional[str]:
    """Why the edge src->dst cannot join ``edges`` over the nodes ``known``."""
    if (src, dst) in edges:
        return f"duplicate edge {src}->{dst}"
    if src not in known:
        return f"unknown node {src!r}"
    if dst not in known:
        return f"unknown node {dst!r}"
    return None


_EDGE_FACT = re.compile(r"^edge\(\s*(\w+)\s*,\s*(\w+)\s*,"
                        r"\s*\[\s*([0-9]+)\s*,\s*([0-9]+)\s*\]\s*\)$")
_NODE_FACT = re.compile(r"^node\(\s*(\w+)\s*\)$")


def parse_network(text: str) -> RoadNetwork:
    """Parse the fact format; errors carry the offending line number.

    Facts end with ``.`` and several may share a line.  Without ``node``
    facts the node set is the set of edge endpoints; with them, every
    endpoint must be declared.
    """
    nodes = set()
    edge_list = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.partition("%")[0].strip()
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
                try:
                    cost = CostPair(int(time), int(energy))
                except ValueError as exc:  # more digits than int() reads
                    raise ParseError(f"edge {src}->{dst}: {exc}",
                                     line_no) from exc
                edge_list.append((line_no, src, dst, cost))
                continue
            node_match = _NODE_FACT.match(statement)
            if node_match:
                node = node_match.group(1)
                if node in nodes:
                    raise ParseError(f"node {node!r} is declared more than "
                                     f"once", line_no)
                nodes.add(node)
                continue
            raise ParseError(f"malformed network fact {statement!r}", line_no)

    known = nodes or {end for _, src, dst, _ in edge_list
                      for end in (src, dst)}
    edges: Dict[Tuple[str, str], CostPair] = {}
    for line_no, src, dst, cost in edge_list:
        fault = _edge_fault(edges, known, src, dst)
        if fault is not None:
            raise ParseError(fault, line_no)
        edges[src, dst] = cost
    return RoadNetwork(tuple(sorted(known)), edges)


_EDGE_KEYS = ("from", "to", "time", "energy")


def network_from_json(data) -> RoadNetwork:
    """Read the JSON network format, one edge entry at a time.

    Each entry's keys and types are checked as it is read, and its cost
    built.  The first duplicate edge or unknown node is held back until
    the last entry has been read, so that a fault of keys or types in any
    entry is the one reported.
    """
    nodes, raw_edges = fields(data, "network file", ("nodes", "edges"))
    if (not isinstance(nodes, list)
            or not all(isinstance(n, str) and n for n in nodes)):
        raise FormatError('"nodes" must be a list of node names')
    if not isinstance(raw_edges, list):
        raise FormatError('"edges" must be a list')
    known = set(nodes)
    if len(known) != len(nodes):
        raise FormatError(f'"nodes" lists {_repeated(nodes)!r} more than once')
    edges: Dict[Tuple[str, str], CostPair] = {}
    fault = None
    for index, entry in enumerate(raw_edges):
        src, dst, time, energy = fields(entry, f"edges[{index}]", _EDGE_KEYS)
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
    return RoadNetwork(tuple(sorted(known)), edges)


@functools.lru_cache(maxsize=16)
def _network_of_text(text: str) -> RoadNetwork:
    # Networks are frozen, so one may serve every reader of its text; a
    # faulty text raises, and lru_cache keeps no exception.
    return network_from_json(_decode(text))


def load_network(path: str | os.PathLike[str]) -> RoadNetwork:
    """The network of the JSON file at ``path``; errors name the path.

    The file is read on every call, but a process parses each distinct
    network text once and keeps the last 16 networks read: a rewritten
    file is read again, and files of equal text share one network.
    """
    return load_text(path, _network_of_text)


def _walk(net: RoadNetwork, source: str, dest: str, energy_limit: int,
          mode: Optional[str] = None,
          time_limit: Optional[int] = None) -> List[TripSolution]:
    """Depth-first walk over the simple capped paths source -> dest.

    The walk keeps an explicit stack of frames, one per node of the path:
    the node's neighbour iterator, and the path's time and energy up to
    the node.  So a path may be as long as the network.  Trips come out in
    lexicographic order of their node sequence.  A partial path is cut
    when it cannot reach ``dest`` within the energy cap even by the
    network's least energies to ``dest``, and, given a ``time_limit``,
    when its own time exceeds it.  With a dominance ``mode``, a partial
    path is also cut when a partial path already recorded at its
    endpoint, or a trip already found, dominates it.
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
    dominated: Optional[Callable[[str, int, int], bool]] = None
    if mode is not None:
        dominated = _pruner(_DOMINATES_COMPONENTS[mode], dest)
    least_energy = net._least_energy(dest)

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
            if time_limit is not None and next_time > time_limit:
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
                    energy_limit: int,
                    time_limit: Optional[int] = None) -> List[TripSolution]:
    """All simple paths source -> dest with total energy within the cap.

    With ``time_limit``, only those whose total time is within it too.
    Paths have at least one edge and never repeat a node, so the
    destination only ever appears as the final endpoint; querying a node
    against itself therefore yields nothing.  Results are in lexicographic
    order of the node sequence.  Every search toward ``dest`` on one
    network is steered by the one least-energy map the network keeps for
    it; a time limit needs no map, since a partial path is cut on its own
    time.
    """
    return _walk(net, source, dest, energy_limit, time_limit=time_limit)


def best_paths(net: RoadNetwork, source: str, dest: str, energy_limit: int,
               mode: str = STRICT) -> List[TripSolution]:
    """The trips of the pruned walk whose cost survives a frontier sweep.

    The same trips, in the same order, as ``frontier_filter`` over
    :func:`enumerate_paths`: lexicographic order of the node sequence.
    """
    _check_mode(mode)
    return _undominated(_walk(net, source, dest, energy_limit, mode),
                        attrgetter("cost"), mode)


def trip_solutions(front) -> List[TripSolution]:
    # Unused by the solvers; perfbench/tracer.py wraps it by name.
    return [TripSolution(path=item.witness, cost=item.cost) for item in front]
