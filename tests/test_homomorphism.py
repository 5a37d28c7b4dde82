"""Gate past the oracles' reach: the map wcsp -> csp, v -> (v != inf).

Costs are non-negative, so the map keeps the semiring structure: the
``+`` of wcsp (min) becomes the ``+`` of csp (or), its ``×`` (+) becomes
and, inf and 0 become False and True.  Solving the mapped problem must
then give the mapped solution, row for row, and the fixpoint of the
mapped program the mapped fixpoint, atom for atom.  Both sides are the
system's own solvers, so the sizes can be far past the exhaustive
oracles.  Only values are compared, not round counts: a closure can
settle in fewer csp rounds than wcsp rounds.
"""

import itertools
import random

import pytest

from softcsp import INF, Program, SCSPProblem, lfp, lookup, solve
from softcsp.constraints import make_constraint

from test_sclp import _sized_closure_program

WCSP = lookup("wcsp")
CSP = lookup("csp")
DOMAIN = ("d0", "d1", "d2")


def feasible(value):
    """The map: a wcsp value to the csp value of whether it is finite."""
    return CSP.value(value.payload != INF)


def chain(size):
    names = [f"x{k:03d}" for k in range(size)]
    return [names[k:k + 2] for k in range(size - 1)], names


def lattice(side):
    names = [f"v{r}_{c}" for r in range(side) for c in range(side)]
    supports = [[f"v{r}_{c}", f"v{r}_{c + 1}"]
                for r in range(side) for c in range(side - 1)]
    supports += [[f"v{r}_{c}", f"v{r + 1}_{c}"]
                 for r in range(side - 1) for c in range(side)]
    return supports, names


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("shape", [(chain, 120), (lattice, 6)],
                         ids=["chain-120", "lattice-6x6"])
def test_solve_commutes_with_the_map(shape, seed):
    build, size = shape
    rng = random.Random(f"homomorphism-{build.__name__}-{seed}")
    supports, names = build(size)
    supports += [[name] for name in names if rng.random() < 0.3]
    tables = [(support, {row: WCSP.value(INF if rng.random() < 0.1
                                         else rng.randint(0, 9))
                         for row in itertools.product(DOMAIN,
                                                      repeat=len(support))})
              for support in supports]
    interface = rng.sample(names, 2)
    # One interface value is ruled out, so the solution has both values.
    tables.append(([interface[0]], {("d0",): WCSP.value(INF),
                                    ("d1",): WCSP.value(1),
                                    ("d2",): WCSP.value(2)}))
    solutions = {}
    for spec, value_of in ((WCSP, lambda v: v), (CSP, feasible)):
        constraints = [make_constraint(spec, DOMAIN, support,
                                       {row: value_of(v)
                                        for row, v in table.items()})
                       for support, table in tables]
        solutions[spec.key] = solve(SCSPProblem(
            spec=spec, domain=DOMAIN, constraints=constraints,
            interface=interface))
    wcsp, csp = solutions["wcsp"], solutions["csp"]
    assert csp.support == wcsp.support
    assert [(row, v.payload) for row, v in csp.table.items()] \
        == [(row, feasible(v).payload) for row, v in wcsp.table.items()]
    assert {v.payload for v in csp.table.values()} == {False, True}


@pytest.mark.parametrize("seed", [1, 2])
def test_lfp_commutes_with_the_map(seed):
    rng = random.Random(f"homomorphism-closure-{seed}")
    program = _sized_closure_program(rng, WCSP, 20, "dense")
    clauses = tuple(
        clause._replace(body_value=WCSP.value(INF))
        if not clause.body_atoms and rng.random() < 0.1 else clause
        for clause in program.clauses)
    constants = program.constants
    program = Program(spec=WCSP, clauses=clauses, constants=constants)
    mapped = Program(spec=CSP, constants=constants, clauses=tuple(
        clause if clause.body_value is None
        else clause._replace(body_value=feasible(clause.body_value))
        for clause in clauses))
    fixpoint = lfp(program).interpretation
    assert [(atom, v.payload)
            for atom, v in lfp(mapped).interpretation.items()] \
        == [(atom, feasible(v).payload) for atom, v in fixpoint.items()]
    assert {feasible(v).payload for v in fixpoint.values()} == {False, True}
