import dataclasses
import random

import pytest

from softcsp import (
    Appointment,
    ChargingPolicy,
    ChargingStation,
    CostPair,
    best_journeys,
    enumerate_journeys,
    new_soc,
    time_sum,
)
from softcsp.errors import FormatError, InputError
from softcsp.frontier import STRICT, WEAK
from softcsp.journey import (
    LegTiming,
    _replay,
    appointments_from_json,
    stations_from_json,
)
from softcsp import journey
from softcsp.roadnet import network_from_json

from oracles import oracle_filter, oracle_journeys
from test_roadnet import random_network


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
        good = enumerate_journeys(network, appointments, stations, 10)[0]
        charges = [None] * len(good.legs)
        _replay(good, charges, 10, ChargingPolicy(), appointments)
        late = LegTiming(departure=good.timings[0].departure,
                         arrival=good.timings[0].arrival + 1)
        corrupted = [
            dataclasses.replace(good, final_soc=good.final_soc + 1),
            dataclasses.replace(good, timings=(late,) + good.timings[1:]),
        ]
        for solution in corrupted:
            with pytest.raises(RuntimeError, match="self-check"):
                _replay(solution, charges, 10, ChargingPolicy(), appointments)
        with pytest.raises(RuntimeError, match="threshold"):
            _replay(good, charges, 10, ChargingPolicy(threshold=5),
                    appointments)


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


def test_against_bruteforce_oracle(network, appointments, stations):
    edges = {(s, d): (c.time, c.energy) for (s, d), c in network.edges.items()}
    raw_appointments = [(a.location, a.start, a.duration) for a in appointments]
    raw_stations = [(s.name, s.spots, s.location) for s in stations]
    for soc in range(0, 14):
        expected = oracle_journeys(edges, raw_appointments, raw_stations, soc)
        got = [summarize(s)
               for s in enumerate_journeys(network, appointments, stations, soc)]
        assert sorted(got) == expected


def random_journey_instance(rng, force_low_soc):
    """A small instance; with ``force_low_soc`` the first leg starts with
    too little charge for any path, so only the charging branch can save
    it (edge energies are >= 1 to make "too little" reachable)."""
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
    for _ in range(rng.randint(2, 3)):
        start += rng.randint(4, 14)
        pool = [n for n in nodes if n != previous] if previous else nodes
        appointments.append(Appointment(rng.choice(pool), start,
                                        rng.randint(1, 4)))
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


def test_random_instances_match_oracle():
    rng = random.Random("journey-oracle")
    charged = 0
    for index in range(30):
        net, edges, appointments, stations, soc = \
            random_journey_instance(rng, force_low_soc=index % 2 == 0)
        raw_appointments = [(a.location, a.start, a.duration)
                            for a in appointments]
        raw_stations = [(s.name, s.spots, s.location) for s in stations]
        expected = oracle_journeys(edges, raw_appointments, raw_stations, soc)
        got = sorted(summarize(s) for s in
                     enumerate_journeys(net, appointments, stations, soc))
        assert got == expected
        charged += sum(1 for j in got if j[1])
    assert charged > 0  # the forced-charging branch must be exercised


@pytest.mark.parametrize("mode", [STRICT, WEAK])
def test_best_journeys_match_filtered_oracle(mode):
    rng = random.Random(f"journey-frontier-{mode}")
    kept = charged = 0
    for index in range(60):
        net, edges, appointments, stations, soc = \
            random_journey_instance(rng, force_low_soc=index % 2 == 0)
        raw_appointments = [(a.location, a.start, a.duration)
                            for a in appointments]
        raw_stations = [(s.name, s.spots, s.location) for s in stations]
        every = oracle_journeys(edges, raw_appointments, raw_stations, soc)
        front = oracle_filter([cost for _, _, cost, _ in every], mode)
        expected = [j for j in every if j[2] in front]
        got = [summarize(s) for s in
               best_journeys(net, appointments, stations, soc, mode=mode)]
        assert got == expected
        kept += len(got)
        charged += sum(1 for j in got if j[1])
    assert charged > 0 and kept > charged


def test_one_search_per_charging_decision(monkeypatch):
    # Two usable stations at the start, and no path fits the initial
    # charge: the recharged level is searched once, not once per station.
    net = network_from_json({"nodes": ["a", "b"],
                             "edges": [{"from": "a", "to": "b", "time": 1,
                                        "energy": 2}]})
    appointments = [Appointment("a", 0, 3), Appointment("b", 10, 0)]
    stations = [ChargingStation("s2", 1, "a"), ChargingStation("s1", 2, "a")]
    limits = []
    real = journey.enumerate_paths

    def counting(net, source, dest, energy_limit):
        limits.append(energy_limit)
        return real(net, source, dest, energy_limit)

    monkeypatch.setattr(journey, "enumerate_paths", counting)
    found = enumerate_journeys(net, appointments, stations, 1)
    assert [s.charging_events for s in found] == [(("a", "s1"),),
                                                   (("a", "s2"),)]
    assert limits.count(new_soc(1, 3)) == 1
