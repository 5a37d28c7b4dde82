"""Gates past the oracles' reach: semiring maps onto csp that keep the
structure.

Two maps are checked.  wcsp -> csp, v -> (v != inf): costs are
non-negative, so the ``+`` of wcsp (min) becomes the ``+`` of csp (or),
its ``×`` (+) becomes and, inf and 0 become False and True.  fcsp -> csp,
v -> (v >= α), the α-cut, for α in (0, 1]: max becomes or, min becomes
and, 0 and 1 become False and True.  Solving the mapped problem must then
give the mapped solution, row for row, and the fixpoint of the mapped
program the mapped fixpoint, atom for atom.  Both sides are the system's
own solvers, so the sizes can be far past the exhaustive oracles.  Only
values are compared, not round counts: a closure can settle in fewer csp
rounds than wcsp rounds.
"""

import itertools
import random
from fractions import Fraction

import pytest

from softcsp import INF, Program, SCSPProblem, lfp, lookup, solve
from softcsp.constraints import make_constraint

from test_sclp import _sized_closure_program

WCSP = lookup("wcsp")
FCSP = lookup("fcsp")
CSP = lookup("csp")
DOMAIN = ("d0", "d1", "d2")
CUTS = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(1))


def feasible(value):
    """The map: a wcsp value to the csp value of whether it is finite."""
    return CSP.value(value.payload != INF)


def alpha_cut(alpha):
    """The map: an fcsp value to the csp value of whether it reaches
    ``alpha``."""
    return lambda value: CSP.value(value.payload >= alpha)


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


SHAPES = pytest.mark.parametrize("shape", [(chain, 120), (lattice, 6)],
                                 ids=["chain-120", "lattice-6x6"])


def _tables(rng, shape, spec, draw, ruled_out, kept):
    """Random tables of ``draw(rng, row)`` values over ``shape``, some
    names with a unary table too, and two interface names.  The first
    interface name's value d0 is ``ruled_out`` (the zero) and d1 and d2
    get ``kept``, so the solution has both mapped values."""
    build, size = shape
    supports, names = build(size)
    supports += [[name] for name in names if rng.random() < 0.3]
    tables = [(support, {row: spec.value(draw(rng, row))
                         for row in itertools.product(DOMAIN,
                                                      repeat=len(support))})
              for support in supports]
    interface = rng.sample(names, 2)
    tables.append(([interface[0]], {
        (d,): spec.value(raw) for d, raw in zip(DOMAIN, (ruled_out, *kept))}))
    return tables, interface


def _solve(tables, interface, spec, value_of):
    constraints = [make_constraint(spec, DOMAIN, support,
                                   {row: value_of(v)
                                    for row, v in table.items()})
                   for support, table in tables]
    return solve(SCSPProblem(spec=spec, domain=DOMAIN,
                             constraints=constraints, interface=interface))


def _assert_solve_commutes(tables, interface, spec, maps):
    solution = _solve(tables, interface, spec, lambda v: v)
    for h in maps:
        mapped = _solve(tables, interface, CSP, h)
        assert mapped.support == solution.support
        assert [(row, v.payload) for row, v in mapped.table.items()] \
            == [(row, h(v).payload) for row, v in solution.table.items()]
        assert {v.payload for v in mapped.table.values()} == {False, True}


def _assert_lfp_commutes(rng, spec, zero, maps):
    """Dense closures over 20 constants, a tenth of the facts at ``zero``
    so that both mapped values occur."""
    program = _sized_closure_program(rng, spec, 20, "dense")
    clauses = tuple(
        clause._replace(body_value=spec.value(zero))
        if not clause.body_atoms and rng.random() < 0.1 else clause
        for clause in program.clauses)
    constants = program.constants
    fixpoint = lfp(Program(spec=spec, clauses=clauses,
                           constants=constants)).interpretation
    for h in maps:
        mapped = Program(spec=CSP, constants=constants, clauses=tuple(
            clause if clause.body_value is None
            else clause._replace(body_value=h(clause.body_value))
            for clause in clauses))
        assert [(atom, v.payload)
                for atom, v in lfp(mapped).interpretation.items()] \
            == [(atom, h(v).payload) for atom, v in fixpoint.items()]
        assert {h(v).payload for v in fixpoint.values()} == {False, True}


@pytest.mark.parametrize("seed", [1, 2])
@SHAPES
def test_solve_commutes_with_the_map(shape, seed):
    rng = random.Random(f"homomorphism-{shape[0].__name__}-{seed}")
    tables, interface = _tables(
        rng, shape, WCSP,
        lambda rng, row: INF if rng.random() < 0.1 else rng.randint(0, 9),
        INF, (1, 2))
    _assert_solve_commutes(tables, interface, WCSP, [feasible])


@pytest.mark.parametrize("seed", [1, 2])
@SHAPES
def test_solve_commutes_with_the_alpha_cuts(shape, seed):
    # Every table is 1 where all its names are d1, so even the cut at 1
    # keeps a row.
    rng = random.Random(f"alpha-cut-{shape[0].__name__}-{seed}")
    tables, interface = _tables(
        rng, shape, FCSP,
        lambda rng, row: 1 if set(row) == {"d1"}
        else Fraction(rng.randint(0, 10), 10),
        0, (1, Fraction(1, 2)))
    _assert_solve_commutes(tables, interface, FCSP, map(alpha_cut, CUTS))


@pytest.mark.parametrize("seed", [1, 2])
def test_lfp_commutes_with_the_map(seed):
    rng = random.Random(f"homomorphism-closure-{seed}")
    _assert_lfp_commutes(rng, WCSP, INF, [feasible])


@pytest.mark.parametrize("seed", [1, 2])
def test_lfp_commutes_with_the_alpha_cuts(seed):
    rng = random.Random(f"alpha-cut-closure-{seed}")
    _assert_lfp_commutes(rng, FCSP, 0, map(alpha_cut, CUTS))
