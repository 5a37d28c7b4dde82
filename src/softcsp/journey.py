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

A partial journey is one tuple of legs and one tuple of per-leg charging
events (``None`` where the leg did not charge).  The summed (time, energy)
cost and the per-leg timings are built from these and the appointments
once the last leg is placed, and the charge trace is replayed as a
self-check before the journey is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .errors import FormatError, InputError, fields, load_json
from .frontier import STRICT, CostFrontier, frontier_filter
from .roadnet import RoadNetwork, TripSolution, enumerate_paths
from .semiring import CostPair


@dataclass(frozen=True)
class Appointment:
    location: str
    start: int
    duration: int

    @property
    def end(self) -> int:
        return self.start + self.duration


@dataclass(frozen=True)
class ChargingStation:
    name: str
    spots: int
    location: str


@dataclass(frozen=True)
class ChargingPolicy:
    """How charging events change the state of charge.

    ``rate`` is energy gained per time unit spent at the appointment;
    ``capacity`` caps the level (unbounded when None) and may not be
    below ``threshold``, the level the charge may never fall below, so
    the energy available for a leg is ``soc - threshold``.
    """

    rate: int = 1
    capacity: Optional[int] = None
    threshold: int = 0

    def __post_init__(self):
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


@dataclass(frozen=True)
class LegTiming:
    departure: int
    arrival: int


@dataclass(frozen=True)
class JourneySolution:
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
        if appt.start < 0 or appt.duration < 0:
            raise InputError(f"appointment at {appt.location!r} has negative "
                             f"timing")
    _check_station_names(stations)
    for station in stations:
        if station.location not in net.nodes:
            raise InputError(f"charging station {station.name!r} is at "
                             f"unknown node {station.location!r}")
        if station.spots < 0:
            raise InputError(f"charging station {station.name!r} has "
                             f"negative spots")
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


def _replay(solution: JourneySolution, leg_charges, initial_soc: int,
            policy: ChargingPolicy, appointments) -> None:
    # Self-check: walking the charge trace must stay above the threshold
    # and land exactly on final_soc, and every arrival must be in time.
    # Explicit raises rather than asserts, so the check survives -O.
    def check(condition: bool, message: str) -> None:
        if not condition:
            raise RuntimeError(f"journey self-check failed: {message}")

    soc = initial_soc
    for index, leg in enumerate(solution.legs):
        here, there = appointments[index], appointments[index + 1]
        if leg_charges[index] is not None:
            soc = new_soc(soc, here.duration, policy)
        soc -= leg.cost.energy
        check(soc >= policy.threshold, "charge trace fell below the threshold")
        timing = solution.timings[index]
        check(timing.departure == here.end, "departure is not the "
                                            "appointment's end")
        check(timing.arrival == time_sum(here.start, here.duration,
                                         leg.cost.time),
              "arrival does not match the leg's travel time")
        check(timing.arrival <= there.start, "late arrival slipped through")
    check(soc == solution.final_soc, "final state of charge mismatch")


def _journey_witness(solution: JourneySolution) -> tuple:
    return (tuple(leg.path for leg in solution.legs),
            solution.charging_events)


def enumerate_journeys(net: RoadNetwork,
                       appointments: List[Appointment],
                       stations: List[ChargingStation],
                       initial_soc: int,
                       policy: ChargingPolicy = DEFAULT_POLICY,
                       ) -> List[JourneySolution]:
    """All feasible journeys through the appointments, in a fixed order.

    Per leg, either (a) any simple path within the current usable charge
    that arrives on time, or (b) -- only when no path at all fits the
    usable charge -- a charging event at one of the local stations with
    free spots, followed by any path within the recharged level.  Ordered
    lexicographically by leg node sequences, then by station names.
    """
    _validate_inputs(net, appointments, stations, initial_soc, policy)
    appointments = list(appointments)
    usable: Dict[str, List[str]] = {}
    for station in sorted(stations, key=lambda s: s.name):
        if station.spots > 0:
            usable.setdefault(station.location, []).append(station.name)

    results: List[JourneySolution] = []

    def extend(index: int, soc: int, legs: tuple, leg_charges: tuple) -> None:
        if index == len(appointments) - 1:
            cost = CostPair(0, 0)
            for leg in legs:
                cost = cost.add(leg.cost)
            timings = tuple(
                LegTiming(departure=appt.end,
                          arrival=time_sum(appt.start, appt.duration,
                                           leg.cost.time))
                for appt, leg in zip(appointments, legs))
            solution = JourneySolution(
                legs=legs,
                charging_events=tuple(c for c in leg_charges if c is not None),
                cost=cost, timings=timings, final_soc=soc)
            _replay(solution, leg_charges, initial_soc, policy, appointments)
            results.append(solution)
            return
        here, there = appointments[index], appointments[index + 1]
        # Every leg, not only the non-dominated ones (best_paths): charging
        # happens only when no path fits, so a dominated leg can force a
        # charge that leads to a non-dominated journey.
        branches = [(trip, None, soc) for trip in enumerate_paths(
            net, here.location, there.location, soc - policy.threshold)]
        if not branches and here.location in usable:
            # One search at the recharged level serves every local station.
            charged = new_soc(soc, here.duration, policy)
            trips = enumerate_paths(net, here.location, there.location,
                                    charged - policy.threshold)
            branches = [(trip, (here.location, name), charged)
                        for name in usable[here.location] for trip in trips]
        for trip, charge, level in branches:
            if time_sum(here.start, here.duration,
                        trip.cost.time) <= there.start:
                extend(index + 1, level - trip.cost.energy, legs + (trip,),
                       leg_charges + (charge,))

    extend(0, initial_soc, (), ())
    results.sort(key=_journey_witness)
    return results


def best_journeys(net: RoadNetwork,
                  appointments: List[Appointment],
                  stations: List[ChargingStation],
                  initial_soc: int,
                  policy: ChargingPolicy = DEFAULT_POLICY,
                  mode: str = STRICT) -> List[JourneySolution]:
    """The non-dominated journeys by total (time, energy) cost, as a list
    of :class:`JourneySolution` in frontier order."""
    journeys = enumerate_journeys(net, appointments, stations, initial_soc,
                                  policy)
    front = frontier_filter([(_journey_witness(s), s.cost) for s in journeys],
                            mode)
    return journey_solutions(front, journeys)


def journey_solutions(front: CostFrontier,
                      journeys: List[JourneySolution]) -> List[JourneySolution]:
    """Map frontier items back to the journeys they were built from."""
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


def load_appointments(path: str | Path) -> List[Appointment]:
    return load_json(path, appointments_from_json)


def load_stations(path: str | Path) -> List[ChargingStation]:
    return load_json(path, stations_from_json)
