import itertools
import json
import random
import re
import sys

import pytest

from softcsp import (
    CostPair,
    best_paths,
    enumerate_paths,
    load_network,
    network_from_json,
    parse_network,
)
from softcsp.errors import (
    FormatError,
    InputError,
    ModeMismatchError,
    ParseError,
    UnknownNodeError,
)
from softcsp.frontier import STRICT, WEAK, frontier_filter
from softcsp.roadnet import (RoadNetwork, TripSolution, _network_of_text,
                             _walk, trip_solutions)
from softcsp.semiring import INF

from conftest import FIXTURES, corridor_data, oversized_integer
from oracles import (oracle_filter, oracle_network_from_json, oracle_paths,
                     reference_walk)


class TestFactFormat:
    def test_fixture_facts(self):
        net = parse_network((FIXTURES / "network.edges").read_text("utf-8"))
        assert net.nodes == ("p", "q", "r", "s", "t")
        assert len(net.edges) == 9
        assert net.edges[("p", "q")] == CostPair(2, 4)
        assert net.edges[("s", "t")] == CostPair(1, 1)

    def test_declared_nodes_without_edges(self):
        net = parse_network("node(a). node(b).\n")
        assert net.nodes == ("a", "b")
        assert net.edges == {}

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_network("edge(p,q,[2]).\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_network("edge(p,q,[2,4]).\nedge(p,q,[1,1]).\n")

    def test_undeclared_endpoint(self):
        with pytest.raises(ParseError, match="unknown node"):
            parse_network("node(p).\nedge(p,q,[2,4]).\n")

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_network("edge(p,q,[2,4])\n")

    def test_repeated_node(self):
        with pytest.raises(ParseError, match=re.escape(
                "line 2: node 'p' is declared more than once")):
            parse_network("node(p). node(q).\nnode(p).\n")

    def test_costs_are_ascii_digits(self):
        # \d would also read ARABIC-INDIC DIGIT THREE as 3.
        with pytest.raises(ParseError, match=r"^line 1: malformed network "
                                             r"fact 'edge\(a,b,\[\u0663,1\]\)'$"):
            parse_network("edge(a,b,[\u0663,1]).")

    def test_oversized_integer_names_the_line(self):
        digits = oversized_integer()
        # The ValueError's own text differs between Python versions.
        with pytest.raises(ParseError, match=r"^line 2: edge q->p: "):
            parse_network(f"edge(p,q,[1,1]).\nedge(q,p,[1,{digits}]).\n")


class TestJsonFormat:
    def test_fixture(self, network):
        assert network.nodes == ("p", "q", "r", "s", "t")
        assert len(network.edges) == 9

    def test_missing_cost_field(self):
        with pytest.raises(FormatError, match="edges\\[0\\]"):
            network_from_json({"nodes": ["p", "q"],
                               "edges": [{"from": "p", "to": "q", "time": 2}]})

    def test_negative_cost(self):
        with pytest.raises(FormatError):
            network_from_json({"nodes": ["p", "q"],
                               "edges": [{"from": "p", "to": "q",
                                          "time": -1, "energy": 1}]})

    def test_unknown_endpoint(self):
        with pytest.raises(FormatError, match="unknown node"):
            network_from_json({"nodes": ["p"],
                               "edges": [{"from": "p", "to": "q",
                                          "time": 1, "energy": 1}]})

    def test_duplicate_edge(self):
        edge = {"from": "p", "to": "q", "time": 1, "energy": 1}
        with pytest.raises(FormatError, match="duplicate"):
            network_from_json({"nodes": ["p", "q"], "edges": [edge, dict(edge)]})

    def test_repeated_node(self):
        with pytest.raises(FormatError, match=re.escape(
                '"nodes" lists \'p\' more than once')):
            network_from_json({"nodes": ["p", "q", "p"], "edges": []})

    def test_edges_are_read_only(self, network):
        with pytest.raises(TypeError):
            network.edges[("p", "q")] = CostPair(0, 0)
        with pytest.raises(TypeError):
            del network.edges[("p", "q")]
        assert [dst for dst, _ in network.neighbours("p")] == ["q", "r", "t"]

    def test_bad_json_reports_path(self, tmp_path):
        bad = tmp_path / "net.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(FormatError, match="net.json"):
            load_network(bad)


def _one_edge(time, energy):
    """The text of a network file with the one edge p->q."""
    return json.dumps({"nodes": ["p", "q"], "edges": [
        {"from": "p", "to": "q", "time": time, "energy": energy}]})


class TestLoadNetwork:
    """A process parses each distinct network text once and keeps the
    last 16 networks read."""

    def test_the_same_text_gives_the_same_network(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(_one_edge(1, 2), encoding="utf-8")
        assert load_network(path) is load_network(str(path))

    def test_a_rewritten_file_is_read_again(self, tmp_path):
        # Both writes may fall within one tick of the file's mtime.
        path = tmp_path / "net.json"
        path.write_text(_one_edge(1, 2), encoding="utf-8")
        first = load_network(path)
        path.write_text(_one_edge(3, 4), encoding="utf-8")
        assert load_network(path).edges == {("p", "q"): CostPair(3, 4)}
        assert first.edges == {("p", "q"): CostPair(1, 2)}

    def test_files_of_equal_text_share_one_network(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            path.write_text(_one_edge(5, 6), encoding="utf-8")
        assert load_network(paths[0]) is load_network(paths[1])

    def test_a_faulty_file_fails_on_every_read_until_mended(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            path.write_text('{"nodes": ["p", "p"], "edges": []}',
                            encoding="utf-8")
        for path in paths + paths:
            with pytest.raises(FormatError, match=re.escape(
                    f"{path}: \"nodes\" lists 'p' more than once")):
                load_network(path)
        paths[0].write_text(_one_edge(7, 8), encoding="utf-8")
        assert load_network(paths[0]).edges == {("p", "q"): CostPair(7, 8)}

    def test_more_texts_than_are_kept(self, tmp_path):
        path = tmp_path / "net.json"
        for _ in range(2):
            for time in range(40):
                path.write_text(_one_edge(time, 0), encoding="utf-8")
                assert load_network(path).edges == {
                    ("p", "q"): CostPair(time, 0)}
        assert _network_of_text.cache_info().currsize <= 16


# --- gate: the JSON reader against the entry-by-entry reference -----------

def _network_document(rng):
    """A valid network document: shuffled node names, and edges with zero
    costs, extra keys and any key order."""
    names = [f"n{i}" for i in range(rng.randint(2, 7))]
    nodes = rng.sample(names, len(names))
    pairs = [(a, b) for a in names for b in names if a != b]
    edges = []
    count = 0 if rng.random() < 0.05 else rng.randint(1, len(pairs))
    for src, dst in rng.sample(pairs, count):
        entry = {"from": src, "to": dst, "time": rng.randint(0, 9),
                 "energy": rng.randint(0, 9)}
        if rng.random() < 0.1:
            entry["note"] = "x"
        if rng.random() < 0.3:
            entry = dict(reversed(entry.items()))
        edges.append(entry)
    return {"nodes": nodes, "edges": edges}


def _spoil(rng, doc):
    """``doc`` with one to three random faults; a few edits may leave it
    valid (an empty edge list is one)."""
    nodes, edges = doc["nodes"], doc["edges"]
    for _ in range(rng.randint(1, 3)):
        edit = rng.choices(range(9), (3, 3, 3, 3, 3, 1, 1, 1, 1))[0]
        listed = isinstance(edges, list)
        entries = [e for e in edges if isinstance(e, dict)] if listed else []
        if edit == 0 and entries:
            entry = rng.choice(entries)
            entry.pop(rng.choice(("from", "to", "time", "energy")), None)
        elif edit == 1 and entries:
            rng.choice(entries)[rng.choice(("time", "energy"))] = rng.choice(
                (True, False, 1.5, 2.0, -1, -7, "1", None))
        elif edit == 2 and listed:
            edges.insert(rng.randint(0, len(edges)),
                         rng.choice(("x", ["n0", "n1", 1, 1], 3, None)))
        elif edit == 3 and entries:
            twin = dict(rng.choice(entries), time=rng.randint(0, 9))
            edges.insert(rng.randint(0, len(edges)), twin)
        elif edit == 4 and entries:
            rng.choice(entries)[rng.choice(("from", "to"))] = rng.choice(
                ("zz", "N0", ["n0"], 1, None))
        elif edit == 5 and isinstance(nodes, list) and nodes:
            if rng.random() < 0.5:
                nodes.insert(rng.randint(0, len(nodes)), rng.choice(nodes))
            else:
                nodes[rng.randrange(len(nodes))] = rng.choice(
                    ("", 1, None, ["n0"]))
        elif edit == 6:
            if rng.random() < 0.5:
                nodes = doc["nodes"] = rng.choice(("n0", {"n0": 1}, None))
            else:
                edges = doc["edges"] = rng.choice(({}, "n0->n1", None))
        elif edit == 7:
            edges = doc["edges"] = []
        elif edit == 8:
            if rng.random() < 0.5:
                return list(doc.values())
            del doc[rng.choice(("nodes", "edges"))]
            return doc
    return doc


# The faults a network document can have, each named by a part of its
# message; the first part that a message contains names its fault.
FAULTS = ("network file must", "network file is missing", '"nodes" must',
          '"edges" must', '"nodes" lists', "must be an object", "is missing",
          ".from must", ".to must", "time must", "energy must",
          "duplicate edge", "unknown node")


def _read(reader, doc):
    try:
        return "ok", reader(doc)
    except InputError as err:
        return type(err), str(err)


def test_json_reader_matches_the_reference():
    # Each document goes to the reader and to the reference, which reads
    # one entry at a time: the same network (nodes, edges, adjacency and
    # reverse adjacency), or the same error type and message.
    rng = random.Random("network-gate")
    seen = set()
    for trial in range(3000):
        doc = _network_document(rng)
        if trial % 3:
            doc = _spoil(rng, doc)
        want = _read(oracle_network_from_json, doc)
        got = _read(network_from_json, doc)
        if want[0] != "ok":
            assert got == want, doc
            seen.add(next(k for k in FAULTS if k in want[1]))
            continue
        assert got[0] == "ok", (doc, got)
        net, ref = got[1], want[1]
        assert net.nodes == ref.nodes and net.edges == ref.edges, doc
        assert all(type(cost) is CostPair for cost in net.edges.values())
        assert all(net.neighbours(n) == ref.neighbours(n) for n in net.nodes)
        assert net._reverse == ref._reverse, doc
        seen.add("ok" if net.edges else "ok, no edges")
    assert seen == {*FAULTS, "ok", "ok, no edges"}


class TestRoadNetwork:
    def test_keeps_its_own_nodes(self):
        nodes = ["a", "b"]
        net = RoadNetwork(nodes=nodes, edges={("a", "b"): CostPair(1, 1)})
        nodes.append("c")
        assert net.nodes == ("a", "b")
        assert enumerate_paths(net, "a", "b", 5)[0].path == ("a", "b")

    def test_rejects_a_repeated_node(self):
        with pytest.raises(InputError,
                           match="node 'p' is given more than once"):
            RoadNetwork(nodes=("p", "q", "p"), edges={})

    def test_rejects_an_edge_to_an_undeclared_node(self):
        # Unchecked, the walk would return the trip a, z, b.
        edges = {("a", "z"): CostPair(1, 1), ("z", "b"): CostPair(1, 1)}
        with pytest.raises(InputError, match="edge a->z: unknown node 'z'"):
            RoadNetwork(nodes=["a", "b"], edges=edges)

    @pytest.mark.parametrize("name", [1, "", None, ("a",)])
    def test_rejects_a_node_name_that_is_not_a_non_empty_string(self, name):
        # The JSON reader's rule; it keeps witness order the frontier's.
        with pytest.raises(InputError, match=re.escape(
                f"node name must be a non-empty string, got {name!r}")):
            RoadNetwork(nodes=["a", name], edges={})

    @pytest.mark.parametrize("cost", [(1, 2), CostPair(1, INF),
                                      CostPair(INF, 1), None])
    def test_rejects_a_cost_that_is_not_a_finite_cost_pair(self, cost):
        # Unchecked, a tuple failed later in the walk with AttributeError,
        # and an infinite component broke the least-cost bounds.
        with pytest.raises(InputError, match=re.escape(
                f"edge a->b: cost must be a CostPair of finite components, "
                f"got {cost!r}")):
            RoadNetwork(nodes=["a", "b"], edges={("a", "b"): cost})


class TestEnumeration:
    def test_limit_ten(self, network):
        trips = enumerate_paths(network, "p", "t", 10)
        assert {(t.path, t.cost) for t in trips} == {
            (("p", "t"), CostPair(3, 9)),
            (("p", "q", "t"), CostPair(4, 8)),
            (("p", "q", "r", "s", "t"), CostPair(7, 9)),
        }

    def test_limit_eight(self, network):
        trips = enumerate_paths(network, "p", "t", 8)
        assert [(t.path, t.cost) for t in trips] == [
            (("p", "q", "t"), CostPair(4, 8))]

    def test_no_round_trips(self, network):
        assert enumerate_paths(network, "p", "p", 10) == []

    def test_unknown_node(self, network):
        with pytest.raises(UnknownNodeError):
            enumerate_paths(network, "p", "nowhere", 10)

    def test_negative_limit(self, network):
        with pytest.raises(InputError):
            enumerate_paths(network, "p", "t", -1)

    def test_lexicographic_order(self, network):
        trips = enumerate_paths(network, "p", "t", 100)
        assert [t.path for t in trips] == sorted(t.path for t in trips)


class TestBestPaths:
    def test_canonical_query(self, network):
        trips = best_paths(network, "p", "t", 10, STRICT)
        assert [(t.path, t.cost) for t in trips] == [
            (("p", "q", "t"), CostPair(4, 8)),
            (("p", "t"), CostPair(3, 9)),
        ]

    def test_zero_limit(self, network):
        assert len(best_paths(network, "p", "t", 0, STRICT)) == 0

    def test_from_interior_node(self, network):
        assert best_paths(network, "r", "t", 4, STRICT) == [
            TripSolution(path=("r", "s", "t"), cost=CostPair(4, 4))]


def random_network(rng, max_nodes=7, cyclic=True, edge_probability=0.4,
                   time_span=5, energy_span=5, min_nodes=2):
    count = rng.randint(min_nodes, max_nodes)
    nodes = [f"n{i}" for i in range(count)]
    edges = {}
    for i, src in enumerate(nodes):
        for j, dst in enumerate(nodes):
            if i == j:
                continue
            if not cyclic and j < i:
                continue
            if rng.random() < edge_probability:
                edges[(src, dst)] = (rng.randint(0, time_span),
                                     rng.randint(0, energy_span))
    data = {"nodes": nodes,
            "edges": [{"from": s, "to": d, "time": t, "energy": e}
                      for (s, d), (t, e) in edges.items()]}
    return network_from_json(data), edges, nodes


class TestProperties:
    def test_outputs_are_simple_connected_and_summed(self, network):
        rng = random.Random("selfcheck")
        for _ in range(40):
            source, dest = rng.sample(network.nodes, 2)
            for trip in enumerate_paths(network, source, dest, rng.randint(0, 20)):
                assert len(set(trip.path)) == len(trip.path)
                total = CostPair(0, 0)
                for a, b in zip(trip.path, trip.path[1:]):
                    total = total.add(network.edges[(a, b)])
                assert total == trip.cost

    def test_limit_monotonicity(self, network):
        for limit in range(0, 20):
            smaller = {t.path for t in enumerate_paths(network, "p", "t", limit)}
            larger = {t.path for t in enumerate_paths(network, "p", "t", limit + 1)}
            assert smaller <= larger

    def test_best_is_dominance_free_subset(self, network):
        rng = random.Random("subset")
        for _ in range(40):
            source, dest = rng.sample(network.nodes, 2)
            limit = rng.randint(0, 20)
            mode = rng.choice((STRICT, WEAK))
            everything = {(t.path, t.cost)
                          for t in enumerate_paths(network, source, dest, limit)}
            best = best_paths(network, source, dest, limit, mode)
            assert {(t.path, t.cost) for t in best} <= everything


@pytest.mark.parametrize("cyclic", [False, True], ids=["dag", "cyclic"])
def test_against_recursive_oracle(cyclic):
    rng = random.Random(f"oracle-{cyclic}")
    for _ in range(40):
        net, edges, nodes = random_network(rng, cyclic=cyclic)
        source, dest = rng.sample(nodes, 2)
        limit = rng.randint(0, 12)
        expected = oracle_paths(edges, source, dest, limit)
        got = sorted((t.path, t.cost.time, t.cost.energy)
                     for t in enumerate_paths(net, source, dest, limit))
        assert got == expected
        costs = [(t, e) for _, t, e in expected]
        for mode in (STRICT, WEAK):
            best = best_paths(net, source, dest, limit, mode)
            assert {(t.cost.time, t.cost.energy) for t in best} \
                == oracle_filter(costs, mode)
    # The time limit keeps exactly the trips within it; the network's one
    # least-energy map serves every search toward its destination.
    for _ in range(40):
        net, edges, nodes = random_network(rng, cyclic=cyclic)
        source, dest = rng.sample(nodes, 2)
        for _ in range(4):
            limit, time_limit = rng.randint(0, 12), rng.randint(-1, 12)
            expected = [p for p in oracle_paths(edges, source, dest, limit)
                        if p[1] <= time_limit]
            got = enumerate_paths(net, source, dest, limit, time_limit)
            assert [(t.path, t.cost.time, t.cost.energy) for t in got] \
                == expected


@pytest.mark.parametrize("cyclic", [False, True], ids=["dag", "cyclic"])
def test_least_costs_are_the_cheapest_paths(cyclic):
    # The least energy over the simple paths to dest, for exactly the
    # nodes that can reach it: a node that cannot is absent.
    rng = random.Random(f"least-{cyclic}")
    for _ in range(60):
        net, edges, nodes = random_network(rng, cyclic=cyclic)
        dest = rng.choice(nodes)
        cheapest = {dest: 0}
        for node in nodes:
            paths = oracle_paths(edges, node, dest, 10**9)
            if node != dest and paths:
                cheapest[node] = min(p[2] for p in paths)
        assert net._least_energy(dest) == cheapest


def test_walk_checks_its_steering(network):
    with pytest.raises(InputError, match="time limit"):
        enumerate_paths(network, "p", "t", 10, time_limit=1.5)
    with pytest.raises(UnknownNodeError):
        enumerate_paths(network, "p", "nowhere", 10)


def test_pruned_search_matches_enumerate_then_filter():
    # The gate for the pruned search: identical items (witnesses, costs and
    # order) to filtering the full enumeration, in both modes.  Small cost
    # spans make zero-cost edges and ties common; a quarter of the queries
    # ask for a node against itself.  The last 40 cases draw costs up to
    # 10**6, where ties are rare.
    rng = random.Random("pruned-search")
    trips_seen = kept = 0
    for index in range(440):
        span = rng.choice((1, 2, 4)) if index < 400 else 10**6
        net, _, nodes = random_network(rng, min_nodes=3, max_nodes=8,
                                       cyclic=index % 4 != 0,
                                       edge_probability=rng.choice((0.4, 0.7)),
                                       time_span=span, energy_span=span)
        if index % 4 == 1:
            source = dest = rng.choice(nodes)
        else:
            source, dest = rng.sample(nodes, 2)
        limit = rng.randint(span, 6 * span + 6)
        trips = enumerate_paths(net, source, dest, limit)
        trips_seen += len(trips)
        for mode in (STRICT, WEAK):
            expected = trip_solutions(
                frontier_filter([(t.path, t.cost) for t in trips], mode))
            assert best_paths(net, source, dest, limit, mode) == expected
            kept += len(expected)
    # The battery must exercise real frontiers, and real pruning.
    assert kept > 800 and trips_seen > 3 * kept


# Every cost an ordered pair of a, b, c may have in the exhaustive gate.
TINY_COSTS = (None, (0, 0), (0, 1), (1, 0), (1, 1))
TINY_PAIRS = tuple(itertools.permutations("abc", 2))


@pytest.mark.parametrize("source, dest", [("a", "c"), ("b", "a"), ("c", "b")])
def test_every_three_node_network(source, dest):
    # The bounded-exhaustive gate: every network on a, b and c whose
    # ordered pairs are each absent or cost (t, e) in {0, 1}^2 (5**6
    # networks), energy limits 0-2 and both modes.  Across the three
    # queries the third node sorts between, after and before the ends.
    trips_seen, kept = 0, {STRICT: 0, WEAK: 0}
    for costs in itertools.product(TINY_COSTS, repeat=len(TINY_PAIRS)):
        edges = {pair: cost for pair, cost in zip(TINY_PAIRS, costs)
                 if cost is not None}
        net = RoadNetwork(nodes=("a", "b", "c"),
                          edges={pair: CostPair(*cost)
                                 for pair, cost in edges.items()})
        within_two = oracle_paths(edges, source, dest, 2)
        for limit in range(3):
            expected = [trip for trip in within_two if trip[2] <= limit]
            assert [(t.path, *t.cost) for t in
                    enumerate_paths(net, source, dest, limit)] == expected
            trips_seen += len(expected)
            for mode in (STRICT, WEAK):
                front = oracle_filter([trip[1:] for trip in expected], mode)
                best = [trip for trip in expected if trip[1:] in front]
                assert [(t.path, *t.cost) for t in
                        best_paths(net, source, dest, limit, mode)] == best
                kept[mode] += len(best)
    # Each mode drops trips, and weak dominance drops more.
    assert trips_seen > kept[STRICT] > kept[WEAK] > 0


def grid_network(rng, size):
    """A bidirectional size x size grid; each direction draws its costs."""
    nodes = [f"n{r}{c}" for r in range(size) for c in range(size)]
    edges = []
    for r in range(size):
        for c in range(size):
            for nr, nc in ((r, c + 1), (r + 1, c)):
                if nr < size and nc < size:
                    for a, b in (((r, c), (nr, nc)), ((nr, nc), (r, c))):
                        edges.append({"from": "n%d%d" % a, "to": "n%d%d" % b,
                                      "time": rng.randint(1, 9),
                                      "energy": rng.randint(1, 9)})
    return network_from_json({"nodes": nodes, "edges": edges})


def test_walk_work_is_pinned(monkeypatch):
    # The work the walk does, pinned: the calls to ``neighbours`` (one per
    # expanded partial path) and the trips it returns, per mode.  A faster
    # walk must make the same cuts, so these counts must not move.
    calls = 0
    neighbours = RoadNetwork.neighbours

    def counted(net, node):
        nonlocal calls
        calls += 1
        return neighbours(net, node)

    monkeypatch.setattr(RoadNetwork, "neighbours", counted)
    rng = random.Random("walk-work")
    queries = []
    for index in range(60):
        span = rng.choice((1, 4, 10**6))
        net, _, nodes = random_network(rng, min_nodes=4, max_nodes=8,
                                       cyclic=index % 3 != 0,
                                       edge_probability=0.6,
                                       time_span=span, energy_span=span)
        source, dest = rng.sample(nodes, 2)
        queries.append((net, source, dest, rng.randint(span, 6 * span + 6)))
    grid = grid_network(rng, 6)
    queries += [(grid, "n00", "n55", limit) for limit in (40, 60, 80)]
    work = {}
    for mode in (STRICT, WEAK):
        calls = trips = 0
        for net, source, dest, limit in queries:
            trips += len(_walk(net, source, dest, limit, mode))
        work[mode] = (calls, trips)
    assert work == {STRICT: (1675, 292), WEAK: (1346, 197)}


def test_time_limit_keeps_exactly_the_trips_within_it_at_scale():
    # Past the brute-force oracle's reach: on seeded grids, a time-limited
    # search gives exactly the uncut enumeration's trips within the limit,
    # in order, every search steered by the one map the network keeps.
    rng = random.Random("time-cut-at-scale")
    checked = kept = 0
    for size, cap in ((6, 56), (7, 64), (8, 70)):
        net = grid_network(rng, size)
        source, dest = "n00", f"n{size - 1}{size - 1}"
        every = enumerate_paths(net, source, dest, cap)
        times = sorted(trip.cost.time for trip in every)
        for time_limit in (-5, -1, 0, times[0] - 1, times[0],
                           times[len(times) // 2], times[-1], times[-1] + 1):
            expected = [trip for trip in every if trip.cost.time <= time_limit]
            assert enumerate_paths(net, source, dest, cap,
                                   time_limit) == expected
            checked += 1
            kept += len(expected)
    assert checked == 24 and kept > 10000


def test_walk_matches_the_recursive_reference(monkeypatch):
    # The walk on an explicit stack against the recursive walk it replaced:
    # the same trips, item for item, from the same expansions, in order,
    # with and without a dominance mode and a time limit.
    expanded = []
    neighbours = RoadNetwork.neighbours

    def recorded(net, node):
        expanded.append(node)
        return neighbours(net, node)

    monkeypatch.setattr(RoadNetwork, "neighbours", recorded)
    rng = random.Random("stack-walk")
    trips = expansions = 0
    for index in range(120):
        span = rng.choice((1, 4, 10**6))
        net, _, nodes = random_network(rng, min_nodes=3, max_nodes=8,
                                       cyclic=index % 3 != 0,
                                       edge_probability=rng.choice((0.4, 0.7)),
                                       time_span=span, energy_span=span)
        source, dest = rng.sample(nodes, 2)
        if index % 10 == 0:
            source = dest
        limit = rng.randint(span, 6 * span + 6)
        for time_limit in (None, rng.randint(0, 6 * span + 6)):
            for mode in (None, STRICT, WEAK):
                runs = []
                for walk in (_walk, reference_walk):
                    expanded.clear()
                    found = walk(net, source, dest, limit, mode, time_limit)
                    runs.append((found, list(expanded)))
                assert runs[0] == runs[1]
                trips += len(found)
                expansions += len(expanded)
    assert trips > 1000 and expansions > 5000


def test_corridor_longer_than_the_recursion_limit():
    net = network_from_json(corridor_data(1200))
    path = tuple(f"n{i}" for i in range(1200))
    assert len(path) > sys.getrecursionlimit()
    assert enumerate_paths(net, "n0", "n1199", 5000) \
        == [TripSolution(path=path, cost=CostPair(1199, 1199))]
    for mode in (STRICT, WEAK):
        assert best_paths(net, "n0", "n1199", 5000, mode) \
            == [TripSolution(path=path, cost=CostPair(1199, 1199))]

def test_best_paths_checks_its_inputs(network):
    with pytest.raises(UnknownNodeError):
        best_paths(network, "p", "nowhere", 10)
    with pytest.raises(InputError):
        best_paths(network, "p", "t", -1)
    with pytest.raises(ModeMismatchError):
        best_paths(network, "p", "t", 10, "pareto")
