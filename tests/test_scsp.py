import itertools
import json
import random

import pytest

from softcsp import (
    INF,
    Permutation,
    SCSPProblem,
    blevel,
    combine,
    hide,
    load_problem,
    lookup,
    permute,
    problem_from_json,
    solve,
    sr_eq,
    sr_plus,
    sr_times,
    unit_constraint,
)
from softcsp import scsp
from softcsp.scsp import best_level
from softcsp.constraints import make_constraint
from softcsp.errors import FormatError, InputError, InstanceMismatchError

from conftest import FIXTURES, random_constraint, random_value, specs
from oracles import dense_solve, oracle_scsp
from test_constraints import COLORS, WCSP, coloring_constraints


def coloring_problem(interface=("x", "y")):
    return SCSPProblem(spec=WCSP, domain=COLORS,
                       constraints=tuple(coloring_constraints()),
                       interface=frozenset(interface))


class TestColoringExample:
    def test_solution_table(self):
        solution = solve(coloring_problem())
        assert solution.support == ("x", "y")
        for a, b in itertools.product(COLORS, repeat=2):
            expected = INF if a == b else 4
            assert solution.evaluate({"x": a, "y": b}).payload == expected

    def test_blevel(self):
        assert blevel(coloring_problem()).payload == 4

    def test_blevel_of_zero_constraint_problem(self):
        from softcsp import zero_constraint
        problem = SCSPProblem(spec=WCSP, domain=COLORS,
                              constraints=(zero_constraint(WCSP, COLORS),),
                              interface=frozenset())
        assert blevel(problem).payload == INF


class TestEdgeCases:
    def test_empty_constraint_set_solves_to_unit(self):
        problem = SCSPProblem(spec=WCSP, domain=COLORS, constraints=(),
                              interface=frozenset({"x"}))
        assert solve(problem) == unit_constraint(WCSP, COLORS)
        assert blevel(problem).payload == 0

    def test_interface_covering_all_supports_means_no_hiding(self):
        problem = coloring_problem(interface=("x", "y", "z"))
        c_xy, c_yz, c_zx = coloring_constraints()
        assert solve(problem) == combine(combine(c_xy, c_yz), c_zx)

    def test_problem_keeps_its_own_copies(self):
        constraints = list(coloring_constraints())
        interface = ["x", "y"]
        problem = SCSPProblem(spec=WCSP, domain=list(COLORS),
                              constraints=constraints, interface=interface)
        before = solve(problem)
        constraints.clear()
        interface.clear()
        assert problem.constraints == tuple(coloring_constraints())
        assert problem.interface == frozenset({"x", "y"})
        assert problem.domain == COLORS
        assert solve(problem) == before

    def test_repeated_domain_value_rejected(self):
        with pytest.raises(InputError,
                           match=r"domain\[2\] 'a' is the same value as "
                                 r"domain\[0\] 'a'"):
            SCSPProblem(spec=WCSP, domain=("a", "b", "a"), constraints=(),
                        interface=frozenset())

    def test_mixed_semirings_rejected(self):
        with pytest.raises(InstanceMismatchError):
            SCSPProblem(spec=lookup("fcsp"), domain=COLORS,
                        constraints=tuple(coloring_constraints()),
                        interface=frozenset())


class TestProblemFile:
    def test_fixture_round_trip(self):
        problem = load_problem(FIXTURES / "coloring.json")
        assert problem.spec.key == "wcsp"
        assert problem.interface == {"x", "y"}
        assert blevel(problem).payload == 4
        assert solve(problem) == solve(coloring_problem())

    def test_missing_field(self):
        with pytest.raises(FormatError):
            problem_from_json({"semiring": "wcsp", "domain": ["a"],
                               "interface": []})

    def test_incomplete_table(self):
        data = {"semiring": "wcsp", "domain": ["a", "b"], "interface": [],
                "constraints": [{"support": ["x"],
                                 "rows": [{"assign": ["a"], "value": 1}]}]}
        with pytest.raises(FormatError):
            problem_from_json(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[1].update(value=-2),
         "constraints[0]: row ('red', 'blue'): -2 is not a value of the "
         "'wcsp' carrier: -2 is not a natural number or infinity"),
        (lambda rows: rows.pop(4),
         "constraints[0]: table has 8 rows, expected 9 (|D|^2); "
         "first missing ('blue', 'blue')"),
    ], ids=["value", "count"])
    def test_table_errors_name_the_row(self, edit, message):
        data = json.loads((FIXTURES / "coloring.json").read_text())
        edit(data["constraints"][0]["rows"])
        with pytest.raises(FormatError) as info:
            problem_from_json(data)
        assert str(info.value) == message

    def test_duplicate_row(self):
        row = {"assign": ["a"], "value": 1}
        data = {"semiring": "wcsp", "domain": ["a"], "interface": [],
                "constraints": [{"support": ["x"], "rows": [row, dict(row)]}]}
        with pytest.raises(FormatError, match="duplicate"):
            problem_from_json(data)

    def test_unknown_semiring(self):
        data = {"semiring": "nosuch", "domain": ["a"], "interface": [],
                "constraints": []}
        with pytest.raises(Exception):
            problem_from_json(data)

    def test_inf_encoding(self, tmp_path):
        data = {"semiring": "wcsp", "domain": ["a"], "interface": ["x"],
                "constraints": [{"support": ["x"],
                                 "rows": [{"assign": ["a"], "value": "inf"}]}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        problem = load_problem(path)
        assert solve(problem).evaluate({"x": "a"}).payload == INF


def _random_problem(rng, spec):
    domain = ("d0", "d1", "d2")[: rng.randint(1, 3)]
    names = ("n1", "n2", "n3", "n4")
    constraints = tuple(random_constraint(rng, spec, domain, names)
                        for _ in range(rng.randint(0, 4)))
    all_names = {n for c in constraints for n in c.support}
    interface = frozenset(n for n in all_names if rng.random() < 0.5)
    return SCSPProblem(spec=spec, domain=domain, constraints=constraints,
                       interface=interface)


@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.key)
def test_hiding_order_is_irrelevant(spec):
    rng = random.Random(f"hideorder-{spec.key}")
    for _ in range(40):
        problem = _random_problem(rng, spec)
        acc = unit_constraint(spec, problem.domain)
        for c in problem.constraints:
            acc = combine(acc, c)
        hidden = sorted(set(acc.support) - problem.interface)
        rng.shuffle(hidden)
        shuffled = acc
        for name in hidden:
            shuffled = hide(name, shuffled)
        assert shuffled == solve(problem)


@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.key)
def test_blevel_is_solution_fully_hidden(spec):
    rng = random.Random(f"blevel-{spec.key}")
    for _ in range(40):
        problem = _random_problem(rng, spec)
        solution = solve(problem)
        for name in sorted(solution.support):
            solution = hide(name, solution)
        assert sr_eq(spec, solution.table[()], blevel(problem))


@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.key)
def test_against_full_enumeration(spec):
    rng = random.Random(f"oracle-{spec.key}")
    for _ in range(40):
        problem = _random_problem(rng, spec)
        raw = [(c.support, c.table) for c in problem.constraints]
        iface, rows = oracle_scsp(spec, problem.domain, raw,
                                  problem.interface, sr_times, sr_plus)
        solution = solve(problem)
        assert set(solution.support) <= set(problem.interface)
        for key, value in rows.items():
            eta = dict(zip(iface, key))
            assert sr_eq(spec, solution.evaluate(eta), value)


# --- bucket elimination against the dense fold --------------------------------

def _table(c):
    return (c.domain, c.support,
            [(key, type(v.payload), v.payload) for key, v in c.table.items()])


def _gate_problem(rng, spec, supports, names):
    """A problem over ``supports`` whose constraint domains and constraint
    order are shuffled, with a random interface of 0..all names."""
    domain = ("d0", "d1", "d2")[: rng.randint(1, 3)]
    constraints = []
    for support in supports:
        order = rng.sample(domain, len(domain))
        table = {key: random_value(rng, spec)
                 for key in itertools.product(order, repeat=len(support))}
        constraints.append(make_constraint(spec, order, support, table))
    rng.shuffle(constraints)
    interface = rng.sample(names, rng.randint(0, len(names)))
    return SCSPProblem(spec=spec, domain=domain, constraints=constraints,
                       interface=interface)


def _chain(rng):
    names = [f"x{i}" for i in range(rng.randint(3, 7))]
    supports = [names[i:i + 2] for i in range(len(names) - 1)]
    supports += [[n] for n in names if rng.random() < 0.3]
    return supports, names


def _lattice(rng):
    rows, cols = rng.choice([(2, 2), (2, 3)])
    names = [f"v{r}{c}" for r in range(rows) for c in range(cols)]
    supports = [[f"v{r}{c}", f"v{r}{c + 1}"]
                for r in range(rows) for c in range(cols - 1)]
    supports += [[f"v{r}{c}", f"v{r + 1}{c}"]
                 for r in range(rows - 1) for c in range(cols)]
    return supports, names


def _hypergraph(rng):
    names = [f"h{i}" for i in range(rng.randint(1, 6))]
    supports = [rng.sample(names, rng.randint(1, min(3, len(names))))
                for _ in range(rng.randint(1, 6))]
    return supports, sorted({n for s in supports for n in s})


@pytest.mark.parametrize("shape", [_chain, _lattice, _hypergraph],
                         ids=["chain", "lattice", "hypergraph"])
@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.key)
def test_solve_matches_dense_fold(spec, shape):
    rng = random.Random(f"dense-{spec.key}-{shape.__name__}")
    for _ in range(25):
        problem = _gate_problem(rng, spec, *shape(rng))
        dense = dense_solve(problem)
        assert _table(solve(problem)) == _table(dense)
        expected = best_level(dense)
        assert (type(blevel(problem).payload), blevel(problem).payload) \
            == (type(expected.payload), expected.payload)


@pytest.mark.parametrize("problem", [
    SCSPProblem(spec=WCSP, domain=("a", "b"), interface=["x"], constraints=[
        make_constraint(WCSP, ["b", "a"], ["x"], {("a",): 1, ("b",): 2}),
        make_constraint(WCSP, ["a", "b"], ["x", "y"],
                        {("a", "a"): 3, ("a", "b"): 0,
                         ("b", "a"): INF, ("b", "b"): 5})]),
    SCSPProblem(spec=WCSP, domain=("a", "b"), interface=(), constraints=()),
], ids=["domain-order", "empty"])
def test_solve_keeps_the_problem_domain_order(problem):
    assert _table(solve(problem)) == _table(dense_solve(problem))
    assert blevel(problem).payload == best_level(dense_solve(problem)).payload


def test_elimination_keeps_tables_narrow(monkeypatch):
    widest = []

    def recording(op):
        def wrapper(*args):
            result = op(*args)
            widest.append(len(result.support))
            return result
        return wrapper

    monkeypatch.setattr(scsp, "combine", recording(scsp.combine))
    monkeypatch.setattr(scsp, "hide", recording(scsp.hide))
    rng = random.Random("width")
    names = [f"x{i}" for i in range(8)]
    domain = ("d0", "d1", "d2")
    for interface in ([], ["x0"], ["x0", "x7"], ["x2", "x5"]):
        constraints = [random_constraint(rng, WCSP, domain, pair, 2)
                       for pair in zip(names, names[1:])]
        problem = SCSPProblem(spec=WCSP, domain=domain,
                              constraints=constraints, interface=interface)
        widest.clear()
        solve(problem)
        assert widest and max(widest) <= 3
