import random

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
from softcsp.roadnet import trip_solutions

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


def test_pruned_search_matches_enumerate_then_filter():
    # The gate for the pruned search: identical items (witnesses, costs and
    # order) to filtering the full enumeration, in both modes.  Small cost
    # spans make zero-cost edges and ties common; a quarter of the queries
    # ask for a node against itself.
    rng = random.Random("pruned-search")
    trips_seen = kept = 0
    for index in range(400):
        span = rng.choice((1, 2, 4))
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


def test_best_paths_checks_its_inputs(network):
    with pytest.raises(UnknownNodeError):
        best_paths(network, "p", "nowhere", 10)
    with pytest.raises(InputError):
        best_paths(network, "p", "t", -1)
    with pytest.raises(ModeMismatchError):
        best_paths(network, "p", "t", 10, "pareto")
