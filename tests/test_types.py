import copy
import pickle

import pytest

from softcsp import lookup
from softcsp.constraints import make_constraint
from softcsp.frontier import FrontierItem, frontier_filter
from softcsp.journey import (Appointment, ChargingPolicy, ChargingStation,
                             JourneySolution, LegTiming)
from softcsp.roadnet import RoadNetwork, TripSolution, enumerate_paths
from softcsp.sclp import lfp, parse_program
from softcsp.scsp import SCSPProblem
from softcsp.semiring import CostPair


def _constraint():
    return make_constraint(lookup("wcsp"), ["a", "b"], ["x"],
                           {("a",): 1, ("b",): 2})


def _program():
    return parse_program("#semiring wcsp\n#constants a.\np(a) :- 2.\n")


def _trip():
    return TripSolution(("p", "q"), CostPair(1, 2))


# One instance of each public immutable type, and what copy.copy,
# copy.deepcopy and a pickle round trip (at every protocol) give: an equal value ("equal"), a
# value equal in repr only, because it holds a copy of a semiring instance,
# which compares by identity ("repr"), or an error.  A mappingproxy (a
# network's edges, a fixpoint's interpretation) cannot be deep-copied or
# pickled, nor can a semiring instance's lambdas be pickled.
INSTANCES = {
    "SemiringValue": (lambda: lookup("wcsp").value(3),
                      "equal", "equal", "equal"),
    "SemiringSpec": (lambda: lookup("wcsp"),
                     "repr", "repr", pickle.PicklingError),
    "FrontierItem": (lambda: FrontierItem(CostPair(1, 2), ("p",)),
                     "equal", "equal", "equal"),
    "CostFrontier": (lambda: frontier_filter([(("p",), CostPair(1, 2))]),
                     "equal", "equal", "equal"),
    "SoftConstraint": (_constraint, "equal", "equal", pickle.PicklingError),
    "SCSPProblem": (lambda: SCSPProblem(lookup("wcsp"), ["a", "b"],
                                        [_constraint()], ["x"]),
                    "equal", "repr", pickle.PicklingError),
    "Program": (_program, "equal", "repr", pickle.PicklingError),
    "LfpResult": (lambda: lfp(_program()), "equal", TypeError, TypeError),
    "RoadNetwork": (lambda: RoadNetwork(("p", "q"),
                                        {("p", "q"): CostPair(1, 2)}),
                    "equal", TypeError, TypeError),
    "TripSolution": (_trip, "equal", "equal", "equal"),
    "Appointment": (lambda: Appointment("p", 0, 1), "equal", "equal", "equal"),
    "ChargingStation": (lambda: ChargingStation("s", 1, "p"),
                        "equal", "equal", "equal"),
    "ChargingPolicy": (lambda: ChargingPolicy(2, 10, 1),
                       "equal", "equal", "equal"),
    "LegTiming": (lambda: LegTiming(1, 2), "equal", "equal", "equal"),
    "JourneySolution": (lambda: JourneySolution(
        (_trip(),), (), CostPair(1, 2), (LegTiming(1, 2),), 3),
        "equal", "equal", "equal"),
}


def _field_names(value):
    return getattr(value, "_fields", None) or type(value).__slots__


@pytest.mark.parametrize("name", INSTANCES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = INSTANCES[name][0]()
    assert type(value).__name__ == name
    for field in (*_field_names(value), "extra"):
        before = getattr(value, field, None)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field, None) is before, field


@pytest.mark.parametrize("name", INSTANCES)
def test_copy_deepcopy_and_pickle(name):
    build, copied, deep, pickled = INSTANCES[name]
    _check_copies(build(), copied, deep, pickled)


def _check_copies(value, copied, deep, pickled):
    checks = [(copy.copy, copied), (copy.deepcopy, deep)] + [
        (lambda v, p=protocol: pickle.loads(pickle.dumps(v, p)), pickled)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for operation, outcome in checks:
        if outcome in ("equal", "repr"):
            result = operation(value)
            assert type(result) is type(value)
            assert (result == value) is (outcome == "equal")
            assert repr(result) == repr(value)
        else:
            with pytest.raises(outcome):
                operation(value)


def test_kept_maps_leave_a_network_as_a_fresh_one():
    # The least-energy maps a network keeps are private, derived state:
    # once it has computed some, it compares, prints, refuses a hash,
    # copies and pickles as a fresh network does.
    build, copied, deep, pickled = INSTANCES["RoadNetwork"]
    fresh, used = build(), build()
    assert enumerate_paths(used, "p", "q", 5) == [_trip()]
    used._least_energy("p")
    assert set(used._least) == {"p", "q"} and fresh._least == {}
    assert used == fresh and repr(used) == repr(fresh)
    for network in (used, fresh):
        with pytest.raises(TypeError):
            hash(network)
    _check_copies(used, copied, deep, pickled)
    assert enumerate_paths(copy.copy(used), "p", "q", 5) == [_trip()]


def test_named_tuples_equal_plain_tuples():
    assert LegTiming(1, 2) == (1, 2) < LegTiming(1, 3)
    assert _trip()._replace(cost=CostPair(0, 0)) == (("p", "q"), (0, 0))

