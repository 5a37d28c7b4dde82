"""The journey-level optimizer: trips chained through timed appointments.

A journey visits the appointment locations in their given order.  For each
leg the vehicle may take any simple path whose energy fits the current
state of charge; when *no* path at all fits, and only then, a charging
event is scheduled at the current location (one alternative per usable
station) and the leg is retried at the recharged level.  Charging spans
the whole appointment and never delays departure: the vehicle always
leaves when the appointment ends and must arrive before the next one
starts.

Results carry the legs, the charging events, the per-leg timings, the
summed (time, energy) cost and the final state of charge.  The charge
trace is replayed as a self-check before a journey is emitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .errors import FormatError, InputError
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
    ``capacity`` caps the level (unbounded when None); ``threshold`` is
    the level the charge may never fall below, so the energy available
    for a leg is ``soc - threshold``.
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
    for station in stations:
        if station.location not in net.nodes:
            raise InputError(f"charging station {station.name!r} is at "
                             f"unknown node {station.location!r}")
        if station.spots < 0:
            raise InputError(f"charging station {station.name!r} has "
                             f"negative spots")
    if initial_soc < policy.threshold:
        raise InputError("initial state of charge is below the threshold")


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
    by_location: Dict[str, List[ChargingStation]] = {}
    for station in sorted(stations, key=lambda s: s.name):
        by_location.setdefault(station.location, []).append(station)

    results: List[JourneySolution] = []

    def extend(index: int, soc: int, legs, leg_charges, timings) -> None:
        if index == len(appointments) - 1:
            cost = CostPair(0, 0)
            for leg in legs:
                cost = cost.add(leg.cost)
            solution = JourneySolution(
                legs=tuple(legs),
                charging_events=tuple(c for c in leg_charges if c is not None),
                cost=cost, timings=tuple(timings), final_soc=soc)
            _replay(solution, leg_charges, initial_soc, policy, appointments)
            results.append(solution)
            return
        here, there = appointments[index], appointments[index + 1]
        # Every leg, not only the non-dominated ones (best_paths): charging
        # happens only when no path fits, so a dominated leg can force a
        # charge that leads to a non-dominated journey.
        options = enumerate_paths(net, here.location, there.location,
                                  soc - policy.threshold)
        if options:
            branches = [(trip, None, soc - trip.cost.energy)
                        for trip in options]
        else:
            branches = []
            for station in by_location.get(here.location, ()):
                if station.spots <= 0:
                    continue
                charged = new_soc(soc, here.duration, policy)
                for trip in enumerate_paths(net, here.location, there.location,
                                            charged - policy.threshold):
                    branches.append((trip, (here.location, station.name),
                                     charged - trip.cost.energy))
        for trip, charge, next_soc in branches:
            arrival = time_sum(here.start, here.duration, trip.cost.time)
            if arrival > there.start:
                continue
            extend(index + 1, next_soc,
                   legs + [trip],
                   leg_charges + [charge],
                   timings + [LegTiming(departure=here.end, arrival=arrival)])

    extend(0, initial_soc, [], [], [])
    results.sort(key=lambda s: (tuple(leg.path for leg in s.legs),
                                s.charging_events))
    return results


def _journey_witness(solution: JourneySolution) -> tuple:
    return (tuple(leg.path for leg in solution.legs),
            solution.charging_events)


def journey_frontier(journeys: List[JourneySolution],
                     mode: str = STRICT) -> CostFrontier:
    """The non-dominated journeys of a list, by total (time, energy) cost.

    Witnesses are (leg node sequences, charging events); map them back to
    the journeys with :func:`journey_solutions`.
    """
    return frontier_filter([(_journey_witness(s), s.cost) for s in journeys],
                           mode)


def best_journeys(net: RoadNetwork,
                  appointments: List[Appointment],
                  stations: List[ChargingStation],
                  initial_soc: int,
                  policy: ChargingPolicy = DEFAULT_POLICY,
                  mode: str = STRICT) -> CostFrontier:
    """The non-dominated journeys by total (time, energy) cost."""
    return journey_frontier(enumerate_journeys(net, appointments, stations,
                                               initial_soc, policy), mode)


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
        if not isinstance(entry, dict):
            raise FormatError(f"{where} must be an object")
        missing = [k for k in ("location", "start", "duration")
                   if k not in entry]
        if missing:
            raise FormatError(f"{where} is missing {missing!r}")
        location, start, duration = (entry["location"], entry["start"],
                                     entry["duration"])
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
        if not isinstance(entry, dict):
            raise FormatError(f"{where} must be an object")
        missing = [k for k in ("name", "spots", "location") if k not in entry]
        if missing:
            raise FormatError(f"{where} is missing {missing!r}")
        name, spots, location = (entry["name"], entry["spots"],
                                 entry["location"])
        if not isinstance(name, str) or not isinstance(location, str):
            raise FormatError(f"{where}: name and location must be strings")
        if type(spots) is not int or spots < 0:
            raise FormatError(f"{where}.spots must be a non-negative integer")
        stations.append(ChargingStation(name=name, spots=spots,
                                        location=location))
    return stations


def _load_json(path: str | Path):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_appointments(path: str | Path) -> List[Appointment]:
    try:
        return appointments_from_json(_load_json(path))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_stations(path: str | Path) -> List[ChargingStation]:
    try:
        return stations_from_json(_load_json(path))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
