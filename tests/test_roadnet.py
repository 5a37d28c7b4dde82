import random
import re

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
from softcsp.roadnet import LeastCosts, RoadNetwork, _walk, trip_solutions
from softcsp.semiring import INF

from conftest import FIXTURES
from oracles import oracle_filter, oracle_paths


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


class TestRoadNetwork:
    def test_keeps_its_own_nodes(self):
        nodes = ["a", "b"]
        net = RoadNetwork(nodes=nodes, edges={("a", "b"): CostPair(1, 1)})
        nodes.append("c")
        assert net.nodes == ("a", "b")
        assert enumerate_paths(net, "a", "b", 5)[0].path == ("a", "b")

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
        front = best_paths(network, "p", "t", 10, STRICT)
        assert {(i.witness, i.cost) for i in front} == {
            (("p", "t"), CostPair(3, 9)),
            (("p", "q", "t"), CostPair(4, 8)),
        }
        assert [t.path for t in trip_solutions(front)] == [
            ("p", "q", "t"), ("p", "t")]

    def test_zero_limit(self, network):
        assert len(best_paths(network, "p", "t", 0, STRICT)) == 0

    def test_from_interior_node(self, network):
        front = best_paths(network, "r", "t", 4, STRICT)
        assert {(i.witness, i.cost) for i in front} == {
            (("r", "s", "t"), CostPair(4, 4))}


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
            front = best_paths(network, source, dest, limit, mode)
            assert {(i.witness, i.cost) for i in front} <= everything


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
            front = best_paths(net, source, dest, limit, mode)
            assert {(c.time, c.energy) for c in front.costs()} \
                == oracle_filter(costs, mode)
    # The time limit keeps exactly the trips within it; one LeastCosts
    # serves every search toward its destination.
    for _ in range(40):
        net, edges, nodes = random_network(rng, cyclic=cyclic)
        source, dest = rng.sample(nodes, 2)
        least = LeastCosts(net, dest)
        for _ in range(4):
            limit, time_limit = rng.randint(0, 12), rng.randint(-1, 12)
            expected = [p for p in oracle_paths(edges, source, dest, limit)
                        if p[1] <= time_limit]
            got = enumerate_paths(net, source, dest, limit, time_limit, least)
            assert [(t.path, t.cost.time, t.cost.energy) for t in got] \
                == expected


@pytest.mark.parametrize("cyclic", [False, True], ids=["dag", "cyclic"])
def test_least_costs_are_the_cheapest_paths(cyclic):
    # Each component's least cost over the simple paths, whatever the
    # order and size of the radii asked for; a node beyond the radius may
    # be absent, and a node that cannot reach dest always is.
    rng = random.Random(f"least-{cyclic}")
    for _ in range(60):
        net, edges, nodes = random_network(rng, cyclic=cyclic)
        dest = rng.choice(nodes)
        cheapest = {}
        for node in nodes:
            paths = oracle_paths(edges, node, dest, 10**9)
            if node == dest:
                cheapest[node] = (0, 0)
            elif paths:
                cheapest[node] = (min(p[1] for p in paths),
                                  min(p[2] for p in paths))
        least = LeastCosts(net, dest)
        for _ in range(4):
            radius = rng.randint(-1, 25)
            for index, found in enumerate((least.time(radius),
                                           least.energy(radius))):
                assert all(cheapest[node][index] == cost
                           for node, cost in found.items())
                assert {node for node, costs in cheapest.items()
                        if costs[index] <= radius} <= set(found)


def test_walk_checks_its_steering(network):
    with pytest.raises(ValueError, match="least costs to 'q'"):
        enumerate_paths(network, "p", "t", 10, least=LeastCosts(network, "q"))
    with pytest.raises(InputError, match="time limit"):
        enumerate_paths(network, "p", "t", 10, time_limit=1.5)
    with pytest.raises(UnknownNodeError):
        LeastCosts(network, "nowhere")


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
            expected = frontier_filter([(t.path, t.cost) for t in trips], mode)
            assert best_paths(net, source, dest, limit, mode) == expected
            kept += len(expected)
    # The battery must exercise real frontiers, and real pruning.
    assert kept > 800 and trips_seen > 3 * kept


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


def test_best_paths_checks_its_inputs(network):
    with pytest.raises(UnknownNodeError):
        best_paths(network, "p", "nowhere", 10)
    with pytest.raises(InputError):
        best_paths(network, "p", "t", -1)
    with pytest.raises(ModeMismatchError):
        best_paths(network, "p", "t", 10, "pareto")
