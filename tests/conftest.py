import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from softcsp import CostPair, INF, lookup
from softcsp.constraints import make_constraint
from softcsp.journey import load_appointments, load_stations
from softcsp.roadnet import load_network

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SEMIRING_KEYS = ("csp", "fcsp", "wcsp", "costpair")


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def network():
    return load_network(FIXTURES / "network.json")


@pytest.fixture
def appointments():
    return load_appointments(FIXTURES / "appointments.json")


@pytest.fixture
def stations():
    return load_stations(FIXTURES / "stations.json")


# --- random data shared by property loops -----------------------------------

def random_payload(rng: random.Random, key: str):
    if key == "csp":
        return rng.random() < 0.5
    if key == "fcsp":
        return Fraction(rng.randint(0, 6), 6)
    if key == "wcsp":
        return INF if rng.random() < 0.15 else rng.randint(0, 9)
    if key == "costpair":
        def component():
            return INF if rng.random() < 0.1 else rng.randint(0, 6)
        return CostPair(component(), component())
    raise AssertionError(key)


def random_value(rng: random.Random, spec):
    return spec.value(random_payload(rng, spec.key))


def random_constraint(rng: random.Random, spec, domain, names, max_support=2):
    size = rng.randint(0, min(max_support, len(names)))
    chosen = rng.sample(list(names), size)
    import itertools
    table = {key: random_value(rng, spec)
             for key in itertools.product(domain, repeat=size)}
    return make_constraint(spec, domain, chosen, table)


def specs():
    return [lookup(key) for key in SEMIRING_KEYS]


# --- queries deeper than Python's recursion limit ---------------------------

def corridor_data(length=1200):
    """The JSON network n0 -> n1 -> ... -> n{length-1}; each edge costs
    time 1 and energy 1."""
    nodes = [f"n{i}" for i in range(length)]
    return {"nodes": nodes,
            "edges": [{"from": a, "to": b, "time": 1, "energy": 1}
                      for a, b in zip(nodes, nodes[1:])]}


def shuttle_data(count=1100):
    """A JSON network of nodes a and b joined both ways by edges of time 1
    and energy 0, and ``count`` JSON appointments alternating between them,
    one every 10 time units, each lasting 1."""
    network = {"nodes": ["a", "b"],
               "edges": [{"from": "a", "to": "b", "time": 1, "energy": 0},
                         {"from": "b", "to": "a", "time": 1, "energy": 0}]}
    appointments = [{"location": "ab"[k % 2], "start": 10 * k, "duration": 1}
                    for k in range(count)]
    return network, appointments


# --- integers longer than int() reads from text -----------------------------

def oversized_integer() -> str:
    """The decimal text of an integer one digit longer than Python's limit
    on reading integers from text; skips where there is no such limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python reads integers of any length")
    return "7" * (limit + 1)


def longest_integer() -> str:
    """The decimal text of the longest integer Python reads from text; the
    sum of two of them is one digit too long to print.  Skips where there
    is no such limit."""
    return oversized_integer()[1:]
