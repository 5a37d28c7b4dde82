import itertools
import json
import random
import re
import sys
from collections import Counter

import pytest

from softcsp import (
    Appointment,
    ChargingPolicy,
    ChargingStation,
    CostPair,
    best_journeys,
    best_paths,
    enumerate_journeys,
    enumerate_paths,
    load_network,
    new_soc,
    time_sum,
)
from softcsp.errors import FormatError, InputError, ModeMismatchError
from softcsp.frontier import STRICT, WEAK
from softcsp.journey import (
    DEFAULT_POLICY,
    LegTiming,
    _solution,
    appointments_from_json,
    stations_from_json,
)
from softcsp import journey
from softcsp.roadnet import RoadNetwork, network_from_json

from conftest import shuttle_data
from oracles import oracle_filter, oracle_journeys, oracle_paths
from test_roadnet import grid_network, random_network


class TestTimeSum:
    def test_leg_one_timing(self):
        assert time_sum(7, 1, 2) == 10

    def test_leg_two_timing(self):
        assert time_sum(11, 2, 4) == 17

    def test_zero(self):
        assert time_sum(0, 0, 0) == 0


class TestNewSoc:
    def test_default_rate(self):
        assert new_soc(3, 2) == 5

    def test_capacity_cap(self):
        assert new_soc(3, 2, ChargingPolicy(capacity=4)) == 4

    def test_zero_duration(self):
        assert new_soc(10, 0) == 10

    def test_rate(self):
        assert new_soc(1, 3, ChargingPolicy(rate=2)) == 7

    def test_bad_policy(self):
        with pytest.raises(InputError):
            ChargingPolicy(rate=0)
        with pytest.raises(InputError):
            ChargingPolicy(threshold=-1)

    def test_capacity_below_threshold(self):
        with pytest.raises(InputError,
                           match="capacity 2 is below the threshold 4"):
            ChargingPolicy(capacity=2, threshold=4)
        assert ChargingPolicy(capacity=4, threshold=4).capacity == 4


def summarize(solution):
    return (tuple(leg.path for leg in solution.legs),
            solution.charging_events,
            (solution.cost.time, solution.cost.energy),
            solution.final_soc)


class TestCanonicalScenario:
    def test_four_journeys(self, network, appointments, stations):
        journeys = enumerate_journeys(network, appointments, stations, 10)
        assert [summarize(s) for s in journeys] == [
            ((("p", "q", "r"), ("r", "q", "t")), (), (6, 10), 0),
            ((("p", "q", "r"), ("r", "s", "t")), (), (7, 9), 1),
            ((("p", "r"), ("r", "q", "t")), (("r", "csr1"),), (5, 12), 0),
            ((("p", "r"), ("r", "s", "t")), (("r", "csr1"),), (6, 11), 1),
        ]

    def test_timings(self, network, appointments, stations):
        journeys = enumerate_journeys(network, appointments, stations, 10)
        by_legs = {tuple(l.path for l in s.legs): s for s in journeys}
        charged = by_legs[(("p", "r"), ("r", "s", "t"))]
        assert [(t.departure, t.arrival) for t in charged.timings] \
            == [(8, 10), (13, 17)]

    def test_spotless_station_blocks_charging(self, network, appointments):
        only_empty = [ChargingStation("csr2", 0, "r")]
        journeys = enumerate_journeys(network, appointments, only_empty, 10)
        assert [summarize(s)[:2] for s in journeys] == [
            ((("p", "q", "r"), ("r", "q", "t")), ()),
            ((("p", "q", "r"), ("r", "s", "t")), ()),
        ]

    def test_single_leg_journeys(self, network, stations):
        pair = [Appointment("p", 7, 1), Appointment("t", 18, 3)]
        journeys = enumerate_journeys(network, pair, stations, 9)
        assert [summarize(s) for s in journeys] == [
            ((("p", "q", "r", "s", "t"),), (), (7, 9), 0),
            ((("p", "q", "t"),), (), (4, 8), 1),
            ((("p", "t"),), (), (3, 9), 0),
        ]


class TestBestJourneys:
    def test_strict_keeps_all_four(self, network, appointments, stations):
        front = best_journeys(network, appointments, stations, 10, mode=STRICT)
        assert {(s.cost.time, s.cost.energy) for s in front} \
            == {(6, 11), (5, 12), (7, 9), (6, 10)}

    def test_weak_drops_the_tied_journey(self, network, appointments, stations):
        front = best_journeys(network, appointments, stations, 10, mode=WEAK)
        assert {(s.cost.time, s.cost.energy) for s in front} \
            == {(5, 12), (7, 9), (6, 10)}

    def test_single_leg_frontier(self, network, stations):
        pair = [Appointment("p", 7, 1), Appointment("t", 18, 3)]
        front = best_journeys(network, pair, stations, 9, mode=STRICT)
        assert {(s.cost.time, s.cost.energy) for s in front} \
            == {(3, 9), (4, 8)}

    def test_solutions_map_back(self, network, appointments, stations):
        journeys = enumerate_journeys(network, appointments, stations, 10)
        picked = best_journeys(network, appointments, stations, 10)
        assert len(picked) == 4
        assert all(s in journeys for s in picked)


@pytest.mark.parametrize("mode", [None, "", "pareto"])
@pytest.mark.parametrize("solver", ["best_paths", "best_journeys"])
def test_best_solvers_reject_an_unknown_mode(network, appointments, stations,
                                              solver, mode):
    # None too: the enumerators' "no mode" is not a dominance mode, and
    # best_paths would return the dominated trip p,q,r,s,t with the rest.
    query = {"best_paths": lambda: best_paths(network, "p", "t", 10, mode),
             "best_journeys": lambda: best_journeys(
                 network, appointments, stations, 10, mode=mode)}[solver]
    with pytest.raises(ModeMismatchError,
                       match=f"^unknown dominance mode {mode!r}$"):
        query()


class TestDominatedLeg:
    # The frontier needs a dominated first leg: a,x,b costs more than a,b
    # but leaves too little charge for any b->c path, which forces the
    # charge that opens the fast b,y,c leg.  Pruning legs by dominance
    # would lose the <3,22> journey.
    NETWORK = {"nodes": ["a", "b", "c", "x", "y"],
               "edges": [{"from": s, "to": d, "time": t, "energy": e}
                         for s, d, t, e in (("a", "b", 1, 1), ("a", "x", 1, 1),
                                            ("x", "b", 1, 1), ("b", "c", 10, 5),
                                            ("b", "y", 0, 10),
                                            ("y", "c", 1, 10))]}
    APPOINTMENTS = [Appointment("a", 0, 0), Appointment("b", 10, 20),
                    Appointment("c", 100, 0)]
    STATIONS = [ChargingStation("s", 1, "b")]

    @pytest.mark.parametrize("mode", [STRICT, WEAK])
    def test_frontier_keeps_the_charged_journey(self, mode):
        net = network_from_json(self.NETWORK)
        front = best_journeys(net, self.APPOINTMENTS, self.STATIONS, 6,
                              mode=mode)
        assert [((tuple(leg.path for leg in s.legs), s.charging_events),
                 (s.cost.time, s.cost.energy)) for s in front] == [
            (((("a", "b"), ("b", "c")), ()), (11, 6)),
            (((("a", "x", "b"), ("b", "y", "c")), (("b", "s"),)), (3, 22)),
        ]


class TestReplay:
    def test_corrupted_solution_raises(self, network, appointments, stations):
        # _solution rebuilds the charged journey from its chain of links
        # and refuses each corrupted input.
        good = enumerate_journeys(network, appointments, stations, 10)[2]
        assert good.charging_events == (("r", "csr1"),)
        link = None
        for leg, charge in zip(good.legs, (None, ("r", "csr1"))):
            link = (leg, charge, link)
        time, energy = good.cost
        policy = ChargingPolicy()
        assert _solution(time, energy, link, good.final_soc, 10, policy,
                         appointments) == good
        early = appointments[:2] + [appointments[2]._replace(
            start=good.timings[1].arrival - 1)]
        corrupted = [
            ((time, energy, link, good.final_soc + 1, 10, policy,
              appointments), "final state of charge"),
            ((time + 1, energy, link, good.final_soc, 10, policy,
              appointments), "cost is not the sum"),
            ((time, energy + 1, link, good.final_soc, 10, policy,
              appointments), "cost is not the sum"),
            ((time, energy, link, good.final_soc, 10,
              ChargingPolicy(threshold=5), appointments), "charge trace fell"),
            ((time, energy, link, good.final_soc, 10, policy, early),
             "late arrival"),
        ]
        for args, message in corrupted:
            with pytest.raises(RuntimeError,
                               match=f"journey self-check failed: {message}"):
                _solution(*args)


class TestValidation:
    def test_too_few_appointments(self, network, stations):
        with pytest.raises(InputError):
            enumerate_journeys(network, [Appointment("p", 0, 0)], stations, 5)

    def test_unknown_appointment_location(self, network, stations):
        appointments = [Appointment("nowhere", 0, 0), Appointment("t", 9, 1)]
        with pytest.raises(InputError):
            enumerate_journeys(network, appointments, stations, 5)

    def test_unknown_station_location(self, network, appointments):
        with pytest.raises(InputError):
            enumerate_journeys(network, appointments,
                               [ChargingStation("cs", 1, "nowhere")], 5)

    def test_soc_below_threshold(self, network, appointments, stations):
        with pytest.raises(InputError):
            enumerate_journeys(network, appointments, stations, 1,
                               ChargingPolicy(threshold=2))

    def test_soc_above_capacity(self, network, appointments, stations):
        # A charge would lower such a level to the capacity.
        with pytest.raises(InputError, match="above the capacity"):
            enumerate_journeys(network, appointments, stations, 10,
                               ChargingPolicy(capacity=3))
        assert enumerate_journeys(network, appointments, stations, 10,
                                  ChargingPolicy(capacity=10))

    def test_repeated_station_name(self):
        # Two stations named "s" would give two journeys with one witness.
        net = network_from_json({"nodes": ["a", "b"],
                                 "edges": [{"from": "a", "to": "b",
                                            "time": 1, "energy": 2}]})
        appointments = [Appointment("a", 0, 3), Appointment("b", 10, 0)]
        stations = [ChargingStation("s", 1, "a"), ChargingStation("s", 2, "a")]
        message = ("stations[1]: station name 's' is already used by "
                   "stations[0]")
        for solver in (enumerate_journeys, best_journeys):
            with pytest.raises(InputError, match=re.escape(message)):
                solver(net, appointments, stations, 1)

    @pytest.mark.parametrize("name", [1, None, ("s",)])
    def test_station_name_is_not_a_string(self, network, appointments, name):
        # Journeys are ordered by witness, station names included, and that
        # order is the frontier's only over strings.
        stations = [ChargingStation(name, 1, "r")]
        for solver in (enumerate_journeys, best_journeys):
            with pytest.raises(InputError, match=re.escape(
                    f"charging station name {name!r} is not a string")):
                solver(network, appointments, stations, 10)

    @pytest.mark.parametrize("change, message", [
        ({"initial_soc": 2.0},
         "initial state of charge must be an integer, got 2.0"),
        ({"initial_soc": "2"},
         "initial state of charge must be an integer, got '2'"),
        ({"initial_soc": True},
         "initial state of charge must be an integer, got True"),
        ({"appointments": [Appointment("p", 0.5, 1), Appointment("t", 9, 1)]},
         "appointment at 'p': start must be an integer, got 0.5"),
        ({"appointments": [Appointment("p", 0, 1), Appointment("t", 9, 1.0)]},
         "appointment at 't': duration must be an integer, got 1.0"),
        ({"stations": [ChargingStation("cs", 1.5, "r")]},
         "charging station 'cs': spots must be an integer, got 1.5"),
        ({"policy": {"rate": 1.5}},
         "charging rate must be an integer, got 1.5"),
        ({"policy": {"capacity": False}},
         "capacity must be an integer, got False"),
        ({"policy": {"threshold": 0.5}},
         "threshold must be an integer, got 0.5"),
    ])
    def test_counts_must_be_integers(self, network, appointments, stations,
                                     change, message):
        args = {"appointments": appointments, "stations": stations,
                "initial_soc": 10, "policy": {}, **change}
        for solver in (enumerate_journeys, best_journeys):
            with pytest.raises(InputError) as info:
                solver(network, args["appointments"], args["stations"],
                       args["initial_soc"], ChargingPolicy(**args["policy"]))
            assert str(info.value) == message


class TestInputFiles:
    def test_appointment_schema(self):
        with pytest.raises(FormatError):
            appointments_from_json([{"location": "p", "start": 1}])
        with pytest.raises(FormatError):
            appointments_from_json([{"location": "p", "start": -1,
                                     "duration": 0}])

    def test_station_schema(self):
        with pytest.raises(FormatError):
            stations_from_json([{"name": "cs", "spots": "many",
                                 "location": "p"}])

    def test_station_names_are_unique(self):
        with pytest.raises(FormatError, match=re.escape(
                "stations[2]: station name 'cs' is already used by "
                "stations[0]")):
            stations_from_json([{"name": "cs", "spots": 1, "location": "p"},
                                {"name": "cr", "spots": 1, "location": "r"},
                                {"name": "cs", "spots": 2, "location": "r"}])


class TestInvariants:
    def test_arrivals_meet_next_start(self, network, appointments, stations):
        for soc in range(0, 14):
            for s in enumerate_journeys(network, appointments, stations, soc):
                assert all(t.arrival <= appointments[i + 1].start
                           for i, t in enumerate(s.timings))

    def test_branch_exclusivity(self, network, appointments, stations):
        # A leg carries a charging event iff no path at all fit the
        # pre-charge state of charge; re-derive the decisions and compare.
        from softcsp.roadnet import enumerate_paths
        for soc in range(0, 14):
            for s in enumerate_journeys(network, appointments, stations, soc):
                level = soc
                predicted = []
                for i, leg in enumerate(s.legs):
                    here = appointments[i]
                    options = enumerate_paths(network, here.location,
                                              appointments[i + 1].location,
                                              level)
                    if options:
                        assert any(t.path == leg.path for t in options)
                    else:
                        predicted.append(here.location)
                        level = new_soc(level, here.duration)
                    level -= leg.cost.energy
                    assert level >= 0
                assert predicted == [loc for loc, _ in s.charging_events]
                assert level == s.final_soc

    def test_higher_soc_never_loses_nocharge_options(self, network,
                                                     appointments, stations):
        def nocharge_legsets(soc):
            return {tuple(leg.path for leg in s.legs)
                    for s in enumerate_journeys(network, appointments,
                                                stations, soc)
                    if not s.charging_events}
        for soc in range(0, 13):
            low = nocharge_legsets(soc)
            high = nocharge_legsets(soc + 1)
            # Charging can only be forced at *lower* levels, so every
            # charge-free journey stays available when starting higher.
            assert low <= high


def oracle_of(net, appointments, stations, soc, policy=DEFAULT_POLICY):
    """Every journey by the brute-force oracle, as ``summarize`` tuples in
    witness order."""
    return oracle_journeys(
        {(s, d): (c.time, c.energy) for (s, d), c in net.edges.items()},
        [(a.location, a.start, a.duration) for a in appointments],
        [(s.name, s.spots, s.location) for s in stations], soc,
        policy.rate, policy.capacity, policy.threshold)


def reference_journeys(net, appointments, stations, soc, policy, mode):
    """best_journeys by its definition, from the brute-force oracles: the
    non-dominated journeys, as ``summarize`` tuples in witness order."""
    every = oracle_of(net, appointments, stations, soc, policy)
    front = oracle_filter([cost for _, _, cost, _ in every], mode)
    return [j for j in every if j[2] in front]


def test_against_bruteforce_oracle(network, appointments, stations):
    for soc in range(0, 14):
        expected = oracle_of(network, appointments, stations, soc)
        got = [summarize(s)
               for s in enumerate_journeys(network, appointments, stations, soc)]
        assert got == expected


def random_journey_instance(rng, force_low_soc, counts=(2, 3), tight=False):
    """A small instance; with ``force_low_soc`` the first leg starts with
    too little charge for any path, so only the charging branch can save
    it (edge energies are >= 1 to make "too little" reachable).  The
    number of appointments is drawn from ``counts``; with ``tight``, each
    gap is the leg's least travel time plus 0..2, where a path exists."""
    net, edges, nodes = random_network(rng, max_nodes=5, edge_probability=0.6,
                                       time_span=3, energy_span=3)
    for key, (t, e) in list(edges.items()):
        edges[key] = (t, max(1, e))
    net = network_from_json(
        {"nodes": nodes,
         "edges": [{"from": s, "to": d, "time": t, "energy": e}
                   for (s, d), (t, e) in edges.items()]})
    appointments = []
    start = 0
    previous = None
    for _ in range(rng.randint(*counts)):
        pool = [n for n in nodes if n != previous] if previous else nodes
        location = rng.choice(pool)
        paths = oracle_paths(edges, previous, location, 10**9) \
            if previous else []
        if tight and paths:
            start += min(time for _, time, _ in paths) + rng.randint(0, 2)
        else:
            start += rng.randint(4, 14)
        appointments.append(Appointment(location, start, rng.randint(1, 4)))
        start = appointments[-1].end
        previous = appointments[-1].location
    stations = [ChargingStation(f"cs{i}", rng.randint(0, 3),
                                rng.choice(appointments).location
                                if rng.random() < 0.7
                                else rng.choice(nodes))
                for i in range(rng.randint(0, 3))]
    if force_low_soc:
        soc = 0
        stations.append(ChargingStation("cs-start", rng.randint(1, 3),
                                        appointments[0].location))
    else:
        soc = rng.randint(0, 7)
    return net, edges, appointments, stations, soc


# The first draws have 2 or 3 appointments and loose gaps; the rest add
# tight gaps (least travel time plus 0..2), where the time cut bites, and 4
# appointments, where states are reached again.
JOURNEY_DRAWS = ([{}] * 60 + [{"tight": True}] * 60
                 + [{"counts": (4, 4)}] * 30
                 + [{"counts": (4, 4), "tight": True}] * 30)


def test_random_instances_match_oracle():
    rng = random.Random("journey-oracle")
    charged = late = 0
    for index, shape in enumerate(JOURNEY_DRAWS[:30] + JOURNEY_DRAWS[60:]):
        net, _, appointments, stations, soc = \
            random_journey_instance(rng, force_low_soc=index % 2 == 0,
                                    **shape)
        got = [summarize(s) for s in
               enumerate_journeys(net, appointments, stations, soc)]
        assert got == oracle_of(net, appointments, stations, soc)
        charged += sum(1 for j in got if j[1])
        late += not got and shape.get("tight", False)
    # The forced-charging branch and the time cut must be exercised.
    assert charged > 0 and late > 0


@pytest.mark.parametrize("mode", [STRICT, WEAK])
def test_best_journeys_match_filtered_oracle(mode):
    rng = random.Random(f"journey-frontier-{mode}")
    kept = charged = late = 0
    for index, shape in enumerate(JOURNEY_DRAWS):
        net, _, appointments, stations, soc = \
            random_journey_instance(rng, force_low_soc=index % 2 == 0,
                                    **shape)
        got = [summarize(s) for s in
               best_journeys(net, appointments, stations, soc, mode=mode)]
        assert got == reference_journeys(net, appointments, stations, soc,
                                         DEFAULT_POLICY, mode)
        kept += len(got)
        charged += sum(1 for j in got if j[1])
        late += not got and shape.get("tight", False)
    assert charged > 0 and kept > charged and late > 0


# The bounded-exhaustive gate's scope: each of these ordered pairs of a, b
# and c is absent or costs (t, e) in SMALL_COSTS (5**4 networks).
SMALL_PAIRS = (("a", "b"), ("a", "c"), ("c", "b"), ("b", "a"))
SMALL_COSTS = (None, (0, 1), (1, 0), (1, 2), (2, 1))
SMALL_SCHEDULES = (
    [Appointment("a", 0, 1), Appointment("b", 3, 1), Appointment("a", 6, 0)],
    [Appointment("a", 0, 0), Appointment("b", 2, 2), Appointment("a", 5, 0)],
)
SMALL_STATIONS = ([], [ChargingStation("s", 1, "a")],
                  [ChargingStation("s", 1, "b")])
SMALL_POLICIES = (ChargingPolicy(rate=1), ChargingPolicy(rate=2, capacity=3))


def test_every_small_journey():
    # The bounded-exhaustive gate: every network of the scope, both
    # schedules, no station or one at either end of the first leg, both
    # policies, initial charges 0-3 and both modes, 60 000 queries, each
    # compared item for item with the oracles.
    queries = found = charged = 0
    kept = {STRICT: 0, WEAK: 0}
    for costs in itertools.product(SMALL_COSTS, repeat=len(SMALL_PAIRS)):
        net = RoadNetwork(nodes=("a", "b", "c"),
                          edges={pair: CostPair(*cost)
                                 for pair, cost in zip(SMALL_PAIRS, costs)
                                 if cost is not None})
        for appointments, stations, policy in itertools.product(
                SMALL_SCHEDULES, SMALL_STATIONS, SMALL_POLICIES):
            for soc in range(4):
                every = oracle_of(net, appointments, stations, soc, policy)
                found += len(every)
                # reference_journeys, with one oracle run for both modes.
                for mode in (STRICT, WEAK):
                    front = oracle_filter([j[2] for j in every], mode)
                    expected = [j for j in every if j[2] in front]
                    assert [summarize(s) for s in best_journeys(
                        net, appointments, stations, soc, policy, mode)] \
                        == expected
                    queries += 1
                    kept[mode] += len(expected)
                    charged += sum(1 for j in expected if j[1])
    # Both modes drop journeys, weak dominance more; charging is forced.
    assert queries == 60_000
    assert found > kept[STRICT] > kept[WEAK] > 0 and charged > 0


def small_network(*edges):
    return network_from_json({"nodes": sorted({n for e in edges
                                               for n in e[:2]}),
                              "edges": [{"from": s, "to": d, "time": t,
                                         "energy": e}
                                        for s, d, t, e in edges]})


class TestLegCuts:
    # Each case has a leg with no trip, so no journey exists; both solvers
    # must agree with the oracle in both modes.
    POLICY = ChargingPolicy(rate=2)

    def check(self, net, appointments, stations, soc):
        assert oracle_of(net, appointments, stations, soc, self.POLICY) == []
        assert enumerate_journeys(net, appointments, stations, soc,
                                  self.POLICY) == []
        for mode in (STRICT, WEAK):
            assert best_journeys(net, appointments, stations, soc,
                                 self.POLICY, mode) == []

    def test_only_route_within_the_charge_arrives_late(self):
        # a,b fits the charge but arrives at 15, after b starts at 10.  A
        # path fits, so the vehicle may not charge for the fast a,x,b, and
        # the journey dies.
        net = small_network(("a", "b", 10, 1), ("a", "x", 1, 3),
                            ("x", "b", 1, 3))
        appointments = [Appointment("a", 0, 5), Appointment("b", 10, 0)]
        stations = [ChargingStation("s", 1, "a")]
        self.check(net, appointments, stations, 2)
        # With time to spare, the slow route is the journey, uncharged.
        appointments[1] = Appointment("b", 15, 0)
        assert [summarize(s) for s in best_journeys(
            net, appointments, stations, 2, self.POLICY)] \
            == [((("a", "b"),), (), (10, 1), 1)]

    @pytest.mark.parametrize("spots", [0, 1])
    def test_consecutive_appointments_at_one_node(self, spots):
        net = small_network(("a", "b", 1, 1), ("b", "a", 1, 1))
        appointments = [Appointment("a", 0, 1), Appointment("b", 5, 1),
                        Appointment("b", 10, 1)]
        self.check(net, appointments, [ChargingStation("s", spots, "b")], 4)

    def test_negative_gap(self):
        net = small_network(("a", "b", 0, 1))
        appointments = [Appointment("a", 0, 5), Appointment("b", 4, 0)]
        self.check(net, appointments, [ChargingStation("s", 1, "a")], 3)

    def test_goal_cannot_be_reached(self):
        net = small_network(("a", "b", 1, 1), ("c", "a", 1, 1))
        appointments = [Appointment("a", 0, 1), Appointment("c", 5, 1)]
        self.check(net, appointments, [ChargingStation("s", 1, "a")], 4)


def test_journeys_are_ordered_by_legs_before_stations():
    # No path fits the starting charge, so the first leg charges at one of
    # two stations, and the second leg has two incomparable routes.  The
    # search meets the stations before the second legs; the output is
    # ordered by every leg first, then by station.
    net = small_network(("a", "b", 1, 2), ("b", "c", 3, 1), ("b", "x", 1, 1),
                        ("x", "c", 1, 1))
    appointments = [Appointment("a", 0, 3), Appointment("b", 10, 0),
                    Appointment("c", 20, 0)]
    stations = [ChargingStation("s2", 1, "a"), ChargingStation("s1", 1, "a")]
    expected = oracle_of(net, appointments, stations, 1)
    assert [(legs[1], events) for legs, events, _, _ in expected] == [
        (("b", "c"), (("a", "s1"),)), (("b", "c"), (("a", "s2"),)),
        (("b", "x", "c"), (("a", "s1"),)), (("b", "x", "c"), (("a", "s2"),))]
    assert [summarize(s) for s in enumerate_journeys(
        net, appointments, stations, 1)] == expected
    for mode in (STRICT, WEAK):
        assert [summarize(s) for s in best_journeys(
            net, appointments, stations, 1, mode=mode)] == expected


def counting_searches(monkeypatch):
    """Record the arguments of every leg search the journey solvers make."""
    searches = []
    real = journey.enumerate_paths

    def counting(net, source, dest, energy_limit, time_limit=None):
        searches.append((source, dest, energy_limit, time_limit))
        return real(net, source, dest, energy_limit, time_limit)

    monkeypatch.setattr(journey, "enumerate_paths", counting)
    return searches


def test_one_search_per_charging_decision(monkeypatch):
    # Two usable stations at the start, and no path fits the initial
    # charge: the recharged level is searched once, not once per station.
    net = network_from_json({"nodes": ["a", "b"],
                             "edges": [{"from": "a", "to": "b", "time": 1,
                                        "energy": 2}]})
    appointments = [Appointment("a", 0, 3), Appointment("b", 10, 0)]
    stations = [ChargingStation("s2", 1, "a"), ChargingStation("s1", 2, "a")]
    for solver in (enumerate_journeys, best_journeys):
        searches = counting_searches(monkeypatch)
        found = solver(net, appointments, stations, 1)
        assert [s.charging_events for s in found] == [(("a", "s1"),),
                                                       (("a", "s2"),)]
        assert [limit for _, _, limit, _ in searches].count(
            new_soc(1, 3)) == 1


def test_each_leg_and_charge_is_searched_once(monkeypatch):
    # Two routes of equal energy each way between a and b, and appointments
    # alternating between them, so distinct partial journeys reach one
    # (appointment, charge) state.  Each solver searches a leg once per
    # usable charge in a call.
    net = small_network(("a", "b", 1, 2), ("a", "x", 1, 1), ("x", "b", 2, 1),
                        ("b", "a", 1, 2), ("b", "y", 1, 1), ("y", "a", 2, 1))
    appointments = [Appointment("a" if k % 2 == 0 else "b", 20 * k, 2)
                    for k in range(5)]
    stations = [ChargingStation("sa", 1, "a"), ChargingStation("sb", 1, "b")]
    # The oracle's journeys to appointment k are the prefixes reaching it;
    # the last field of each is the charge on arrival.
    reached = Counter((k, prefix[-1]) for k in range(2, len(appointments) + 1)
                      for prefix in oracle_of(net, appointments[:k],
                                              stations, 5))
    assert max(reached.values()) > 1
    searches = counting_searches(monkeypatch)
    every = enumerate_journeys(net, appointments, stations, 5)
    assert max(Counter(searches).values()) == 1
    assert any(s.charging_events for s in every)
    assert [summarize(s) for s in every] \
        == oracle_of(net, appointments, stations, 5)
    for mode in (STRICT, WEAK):
        searches.clear()
        found = best_journeys(net, appointments, stations, 5, mode=mode)
        assert max(Counter(searches).values()) == 1
        assert [summarize(s) for s in found] == reference_journeys(
            net, appointments, stations, 5, DEFAULT_POLICY, mode)


def test_consecutive_appointments_at_one_node_never_charge(monkeypatch):
    # A leg is a trip, and a trip has at least one edge, so two consecutive
    # appointments at one node give no journey.  The charging rule never
    # fires there: the least energy from a node to itself is 0, so a
    # vehicle at the threshold searches the leg at its own level and does
    # not charge at the station it stands by.
    net = small_network(("a", "b", 1, 1), ("b", "a", 1, 1))
    appointments = [Appointment("a", 0, 3), Appointment("a", 10, 0)]
    stations = [ChargingStation("s", 1, "a")]
    assert oracle_of(net, appointments, stations, 0) == []
    for solver in (enumerate_journeys, best_journeys):
        searches = counting_searches(monkeypatch)
        assert solver(net, appointments, stations, 0) == []
        assert searches == [("a", "a", 0, 7)]


def test_more_appointments_than_the_recursion_limit():
    network, appointments = shuttle_data(1100)
    net = network_from_json(network)
    appointments = appointments_from_json(appointments)
    assert len(appointments) > sys.getrecursionlimit()
    legs = tuple((("a", "b"), ("b", "a"))[k % 2] for k in range(1099))
    expected = [(legs, (), (1099, 0), 0)]
    assert [summarize(s) for s in
            enumerate_journeys(net, appointments, [], 0)] == expected
    for mode in (STRICT, WEAK):
        assert [summarize(s) for s in
                best_journeys(net, appointments, [], 0, mode=mode)] \
            == expected


# --- gate: shifting every start shifts only the timings ----------------------

def shifted_journeys(solver, net, appointments, stations, soc, *args,
                     shift):
    """``solver``'s journeys, checked against those of the appointments
    moved ``shift`` later: a leg leaves at its appointment's end and only
    the gaps count, so only the timings may move, and by ``shift``."""
    moved = [a._replace(start=a.start + shift) for a in appointments]
    journeys = solver(net, appointments, stations, soc, *args)
    assert solver(net, moved, stations, soc, *args) == [
        j._replace(timings=tuple(LegTiming(t.departure + shift,
                                           t.arrival + shift)
                                 for t in j.timings))
        for j in journeys]
    return journeys


def grid_journey_instance(rng, size):
    """5 to 8 appointments on a seeded size x size grid, each gap the
    leg's least travel time plus 0..2, stations at about half of the
    locations (some spotless), a drawn charge, and a capacity or none."""
    net = grid_network(rng, size)
    # Least times are least energies with the costs swapped.
    by_time = RoadNetwork(nodes=net.nodes,
                          edges={pair: CostPair(cost.energy, cost.time)
                                 for pair, cost in net.edges.items()})
    appointments, start, previous = [], 0, None
    for _ in range(rng.randint(5, 8)):
        location = rng.choice([n for n in net.nodes if n != previous])
        if previous is not None:
            start += (by_time._least_energy(location)[previous]
                      + rng.randint(0, 2))
        appointments.append(Appointment(location, start, rng.randint(1, 4)))
        start, previous = appointments[-1].end, location
    stations = [ChargingStation(f"cs{k}", rng.randint(0, 2), location)
                for k, location in enumerate(sorted({a.location
                                                     for a in appointments}))
                if rng.random() < 0.6]
    policy = ChargingPolicy(rate=15, capacity=rng.choice((None, 150)))
    return net, appointments, stations, rng.randint(60, 150), policy


def test_shifting_every_start_shifts_only_the_timings():
    # Past the brute-force oracle's reach, the journeys compared with
    # themselves: a long shuttle, and seeded grid journeys in both modes;
    # enumerate_journeys where it stays small (one shuttle journey, the
    # grid journeys' first three appointments).
    network, appointments = shuttle_data(4400)
    net = network_from_json(network)
    appointments = appointments_from_json(appointments)
    for mode in (STRICT, WEAK):
        assert len(shifted_journeys(best_journeys, net, appointments, [], 0,
                                    DEFAULT_POLICY, mode, shift=7)) == 1
    assert len(shifted_journeys(enumerate_journeys, net, appointments, [], 0,
                                shift=7)) == 1
    rng = random.Random("journey-shift")
    queries = found = charged = 0
    for index in range(40):
        net, appointments, stations, soc, policy = \
            grid_journey_instance(rng, 5 + index % 2)
        shift = rng.randint(1, 50)
        for mode in (STRICT, WEAK):
            journeys = shifted_journeys(best_journeys, net, appointments,
                                        stations, soc, policy, mode,
                                        shift=shift)
            charged += any(j.charging_events for j in journeys)
        found += bool(journeys)
        shifted_journeys(enumerate_journeys, net, appointments[:3], stations,
                         soc, policy, shift=shift)
        queries += 1
    # At least half of the queries have a journey; some charge.
    assert 2 * found >= queries and charged > 0


def test_a_used_network_answers_like_a_fresh_one(tmp_path):
    # A network keeps the least-energy map of every destination asked for,
    # and its later searches read the kept map.  On seeded grids, a mixed
    # run of trip and journey queries on one network gives the same items,
    # in the same order, as the same queries on a fresh network each.
    rng = random.Random("used-network")
    queries = found = journeys = 0
    for index in range(6):
        net, appointments, stations, soc, policy = \
            grid_journey_instance(rng, 5 + index % 2)
        document = {"nodes": list(net.nodes),
                    "edges": [{"from": src, "to": dst, "time": cost.time,
                               "energy": cost.energy}
                              for (src, dst), cost in net.edges.items()]}
        assert net._least == {}
        runs = [(best_journeys, appointments, stations, soc, policy, mode)
                for mode in (STRICT, WEAK)]
        runs.append((enumerate_journeys, appointments[:3], stations, soc,
                     policy))
        asked = {a.location for a in appointments[1:]}
        for _ in range(10):
            source, dest = rng.sample(net.nodes, 2)
            cap = rng.randint(10, 40)
            asked.add(dest)
            runs += [(best_paths, source, dest, cap, STRICT),
                     (best_paths, source, dest, cap, WEAK),
                     (enumerate_paths, source, dest, cap),
                     (enumerate_paths, source, dest, cap,
                      rng.randint(10, 40))]
        rng.shuffle(runs)
        used = [solver(net, *args) for solver, *args in runs]
        fresh = [solver(network_from_json(document), *args)
                 for solver, *args in runs]
        assert used == fresh
        found += sum(map(len, used))
        journeys += sum(len(result) for (solver, *_), result
                        in zip(runs, used) if solver is best_journeys)
        assert set(net._least) == asked
        for dest in asked:
            assert net._least_energy(dest) is net._least_energy(dest)
        queries += len(runs)
    assert queries == 6 * 43 and found > 1000 and journeys > 10
    # Every load of one file gives one network, so one set of maps.
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    first, second = load_network(path), load_network(path)
    assert first._least_energy("n00") is second._least_energy("n00")
    assert first._least is second._least
