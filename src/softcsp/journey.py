"""The journey-level optimizer: trips chained through timed appointments.

A journey visits the appointment locations in their given order.  For each
leg the vehicle may take any simple path whose energy fits the current
state of charge; when *no* path at all fits, and only then, a charging
event is scheduled at the current location and the leg is searched once
more, at the recharged level.  Each usable station (one with free spots)
there is an alternative, paired with every path that second search finds.
Charging spans the whole appointment and never delays departure: the
vehicle always leaves when the appointment ends and must arrive before the
next one starts.

:func:`enumerate_journeys` and :func:`best_journeys` share one dynamic
program, run forward over the legs.  Each leg departs at its appointment's
end whatever came before, and the charging rule reads only the current
level, so what can follow a partial journey depends only on its state of
charge.  Each layer holds the partial journeys that reach an appointment,
by state of charge, and every leg out of a state extends them all.
``enumerate_journeys`` keeps them all; ``best_journeys`` drops, per state,
the partials that another partial of the same state dominates, and once
more over the finished journeys.  Dropping early is exact in both
dominance modes, because adding the same continuation to two costs
preserves dominance and equal costs never knock each other out.  A leg's
trips are searched once per (leg, usable charge), capped by the energy and
by the time to the next appointment, steered by the least-energy map
that the network keeps for the leg's destination and cut on their own
time; the same map decides whether any path fits, late ones included,
and so whether to charge.  The independent reference is the brute force
``oracle_journeys`` of the test suite's ``oracles`` module.

A partial journey is a chain of linked legs, so a journey costs time
linear in its appointments, and each finished journey is built and
self-checked in one pass over its chain.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import FormatError, Frozen, InputError, fields, load_json
from .frontier import STRICT, CostFrontier, _check_mode, _undominated
from .roadnet import RoadNetwork, TripSolution, enumerate_paths
from .semiring import CostPair


def _check_int(value, what: str) -> None:
    # type(), not isinstance(): bool is an int subclass; the JSON readers
    # reject it too.
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")


class Appointment(NamedTuple):
    """A stay at ``location`` from ``start`` for ``duration``; a tuple."""

    location: str
    start: int
    duration: int

    @property
    def end(self) -> int:
        return self.start + self.duration


class ChargingStation(NamedTuple):
    """Station ``name``, with ``spots`` free spots at ``location``; a tuple."""

    name: str
    spots: int
    location: str


class ChargingPolicy(Frozen):
    """How charging events change the state of charge.

    ``rate`` is energy gained per time unit spent at the appointment;
    ``capacity`` caps the level (unbounded when None) and may not be
    below ``threshold``, the level the charge may never fall below, so
    the energy available for a leg is ``soc - threshold``.
    """

    __slots__ = ("rate", "capacity", "threshold")

    def __init__(self, rate: int = 1, capacity: Optional[int] = None,
                 threshold: int = 0):
        self._init(rate, capacity, threshold)
        _check_int(self.rate, "charging rate")
        if self.capacity is not None:
            _check_int(self.capacity, "capacity")
        _check_int(self.threshold, "threshold")
        if self.rate <= 0:
            raise InputError("charging rate must be positive")
        if self.capacity is not None and self.capacity < 0:
            raise InputError("capacity must be non-negative")
        if self.threshold < 0:
            raise InputError("threshold must be non-negative")
        if self.capacity is not None and self.capacity < self.threshold:
            raise InputError(f"capacity {self.capacity} is below the "
                             f"threshold {self.threshold}")


DEFAULT_POLICY = ChargingPolicy()


class LegTiming(NamedTuple):
    """When a leg leaves and arrives; a tuple."""

    departure: int
    arrival: int


class JourneySolution(NamedTuple):
    """A journey's legs, charging, cost, timings and final charge; a tuple."""

    legs: Tuple[TripSolution, ...]
    charging_events: Tuple[Tuple[str, str], ...]  # (location, station name)
    cost: CostPair
    timings: Tuple[LegTiming, ...]
    final_soc: int


def time_sum(appt_start: int, appt_duration: int, travel_time: int) -> int:
    """Arrival time of a leg leaving when its appointment ends."""
    return appt_start + appt_duration + travel_time


def new_soc(soc: int, appt_duration: int,
            policy: ChargingPolicy = DEFAULT_POLICY) -> int:
    """State of charge after charging for the whole appointment."""
    charged = soc + policy.rate * appt_duration
    if policy.capacity is not None:
        charged = min(policy.capacity, charged)
    return charged


def _validate_inputs(net: RoadNetwork, appointments, stations, initial_soc,
                     policy) -> None:
    if len(appointments) < 2:
        raise InputError("a journey needs at least two appointments")
    for appt in appointments:
        if appt.location not in net.nodes:
            raise InputError(f"appointment location {appt.location!r} is not "
                             f"a network node")
        _check_int(appt.start, f"appointment at {appt.location!r}: start")
        _check_int(appt.duration,
                   f"appointment at {appt.location!r}: duration")
        if appt.start < 0 or appt.duration < 0:
            raise InputError(f"appointment at {appt.location!r} has negative "
                             f"timing")
    for station in stations:
        if not isinstance(station.name, str):
            raise InputError(f"charging station name {station.name!r} is "
                             f"not a string")
        if station.location not in net.nodes:
            raise InputError(f"charging station {station.name!r} is at "
                             f"unknown node {station.location!r}")
        _check_int(station.spots, f"charging station {station.name!r}: spots")
        if station.spots < 0:
            raise InputError(f"charging station {station.name!r} has "
                             f"negative spots")
    _check_station_names(stations)
    _check_int(initial_soc, "initial state of charge")
    if initial_soc < policy.threshold:
        raise InputError("initial state of charge is below the threshold")
    if policy.capacity is not None and initial_soc > policy.capacity:
        raise InputError("initial state of charge is above the capacity")


def _check_station_names(stations, error=InputError) -> None:
    # A journey names the station it charges at, so names must be unique.
    first: Dict[str, int] = {}
    for index, station in enumerate(stations):
        earlier = first.setdefault(station.name, index)
        if earlier != index:
            raise error(f"stations[{index}]: station name "
                        f"{station.name!r} is already used by "
                        f"stations[{earlier}]")


def _solution(time: int, energy: int, link, final_soc: int,
              initial_soc: int, policy: ChargingPolicy,
              appointments) -> JourneySolution:
    """The journey of a finished partial, built and self-checked in one
    pass over its chain of legs (see :func:`_journeys`): the charge stays
    at or above the threshold and ends at ``final_soc``, each arrival is
    in time, and the legs' costs sum to (time, energy).  Explicit raises
    rather than asserts, so the checks survive -O."""
    def check(condition: bool, message: str) -> None:
        if not condition:
            raise RuntimeError(f"journey self-check failed: {message}")

    chain = []
    while link is not None:
        chain.append(link)
        link = link[2]
    legs, events, timings = [], [], []
    soc, total_time, total_energy = initial_soc, 0, 0
    for (trip, charge, _), here, there in zip(reversed(chain), appointments,
                                              appointments[1:]):
        if charge is not None:
            soc = new_soc(soc, here.duration, policy)
            events.append(charge)
        leg_time, leg_energy = trip.cost
        soc -= leg_energy
        check(soc >= policy.threshold, "charge trace fell below the threshold")
        arrival = time_sum(here.start, here.duration, leg_time)
        check(arrival <= there.start, "late arrival slipped through")
        legs.append(trip)
        timings.append(LegTiming(departure=here.end, arrival=arrival))
        total_time += leg_time
        total_energy += leg_energy
    check(soc == final_soc, "final state of charge mismatch")
    check((total_time, total_energy) == (time, energy),
          "cost is not the sum of the legs' costs")
    return JourneySolution(legs=tuple(legs), charging_events=tuple(events),
                           cost=CostPair(time, energy),
                           timings=tuple(timings), final_soc=final_soc)


def _usable_stations(stations) -> Dict[str, List[str]]:
    """The names of the stations with free spots, by location, sorted."""
    usable: Dict[str, List[str]] = {}
    for station in sorted(stations, key=lambda s: s.name):
        if station.spots > 0:
            usable.setdefault(station.location, []).append(station.name)
    return usable


def _journey_witness(solution: JourneySolution) -> tuple:
    return (tuple(leg.path for leg in solution.legs),
            solution.charging_events)


def _journeys(net: RoadNetwork, appointments, stations, initial_soc: int,
              policy: ChargingPolicy,
              mode: Optional[str]) -> List[JourneySolution]:
    """The journeys of the module docstring's forward program, in witness
    order: every one without a ``mode``, the non-dominated ones with it.
    A layer maps each state of charge on arrival to the partial journeys
    that reach it, as (time, energy, link), where ``link`` is ``None`` or
    the last leg's (trip, charging event or None, previous link)."""
    _validate_inputs(net, appointments, stations, initial_soc, policy)
    appointments = list(appointments)
    usable = _usable_stations(stations)
    # Every trip, not only the non-dominated ones (best_paths): a dominated
    # leg can force the charge that opens a non-dominated journey.
    trips: Dict[Tuple[str, str, int, int], List[TripSolution]] = {}
    layer = {initial_soc: [(0, 0, None)]}
    time_energy = itemgetter(0, 1)
    for here, there in zip(appointments, appointments[1:]):
        to_there = net._least_energy(there.location)
        reached: Dict[int, list] = {}
        for soc, partials in layer.items():
            # Charge only when no path at all fits, however late it arrives.
            usable_charge = soc - policy.threshold
            need = to_there.get(here.location)
            if need is None or need > usable_charge:
                level = new_soc(soc, here.duration, policy)
                charges = [(here.location, name)
                           for name in usable.get(here.location, ())]
                if not charges:
                    continue
            else:
                level, charges = soc, [None]
            search = (here.location, there.location,
                      level - policy.threshold, there.start - here.end)
            if search not in trips:
                trips[search] = enumerate_paths(net, *search)
            for trip in trips[search]:
                leg_time, leg_energy = trip.cost
                following = reached.setdefault(level - leg_energy, [])
                for charge in charges:
                    following += [(time + leg_time, energy + leg_energy,
                                   (trip, charge, link))
                                  for time, energy, link in partials]
        layer = {soc: _undominated(partials, time_energy, mode)
                 for soc, partials in reached.items()}
    finished = _undominated([(*partial, soc)
                             for soc, partials in layer.items()
                             for partial in partials], time_energy, mode)
    journeys = [_solution(*partial, initial_soc, policy, appointments)
                for partial in finished]
    journeys.sort(key=_journey_witness)
    return journeys


def enumerate_journeys(net: RoadNetwork, appointments: List[Appointment],
                       stations: List[ChargingStation], initial_soc: int,
                       policy: ChargingPolicy = DEFAULT_POLICY,
                       ) -> List[JourneySolution]:
    """All feasible journeys through the appointments, in a fixed order.

    Per leg, either (a) any simple path within the current usable charge
    that arrives on time, or (b) -- only when no path at all fits the
    usable charge -- a charging event at one of the local stations with
    free spots, followed by any path within the recharged level.  Ordered
    lexicographically by leg node sequences, then by station names.  The
    forward program keeps every partial journey of each state.
    """
    return _journeys(net, appointments, stations, initial_soc, policy, None)


def best_journeys(net: RoadNetwork, appointments: List[Appointment],
                  stations: List[ChargingStation], initial_soc: int,
                  policy: ChargingPolicy = DEFAULT_POLICY,
                  mode: str = STRICT) -> List[JourneySolution]:
    """The non-dominated journeys by total (time, energy) cost, as a list
    of :class:`JourneySolution` in frontier order.

    The same items, in the same order, as ``frontier_filter`` over
    :func:`enumerate_journeys`: node and station names are strings, so the
    witness order is the frontier's order.  The forward program drops a
    partial journey that another of its state dominates: both have the
    same continuations, and each continuation keeps the dominance.
    """
    _check_mode(mode)
    return _journeys(net, appointments, stations, initial_soc, policy, mode)


def journey_solutions(front: CostFrontier,
                      journeys: List[JourneySolution]) -> List[JourneySolution]:
    """Map frontier items back to the journeys they were built from."""
    # Unused by the solvers; perfbench/tracer.py wraps it by name.
    by_witness = {_journey_witness(s): s for s in journeys}
    return [by_witness[item.witness] for item in front]


# --- input files ------------------------------------------------------------

def appointments_from_json(data) -> List[Appointment]:
    if not isinstance(data, list) or len(data) == 0:
        raise FormatError("appointments file must be a non-empty list")
    appointments = []
    for index, entry in enumerate(data):
        where = f"appointments[{index}]"
        location, start, duration = fields(entry, where,
                                           ("location", "start", "duration"))
        if not isinstance(location, str):
            raise FormatError(f"{where}.location must be a node name")
        for label, value in (("start", start), ("duration", duration)):
            if type(value) is not int or value < 0:
                raise FormatError(f"{where}.{label} must be a non-negative "
                                  f"integer")
        appointments.append(Appointment(location=location, start=start,
                                        duration=duration))
    return appointments


def stations_from_json(data) -> List[ChargingStation]:
    if not isinstance(data, list):
        raise FormatError("stations file must be a list")
    stations = []
    for index, entry in enumerate(data):
        where = f"stations[{index}]"
        name, spots, location = fields(entry, where,
                                       ("name", "spots", "location"))
        if not isinstance(name, str) or not isinstance(location, str):
            raise FormatError(f"{where}: name and location must be strings")
        if type(spots) is not int or spots < 0:
            raise FormatError(f"{where}.spots must be a non-negative integer")
        stations.append(ChargingStation(name=name, spots=spots,
                                        location=location))
    _check_station_names(stations, FormatError)
    return stations


def load_appointments(path: str | os.PathLike[str]) -> List[Appointment]:
    return load_json(path, appointments_from_json)


def load_stations(path: str | os.PathLike[str]) -> List[ChargingStation]:
    return load_json(path, stations_from_json)
