import itertools
import json
import random
from fractions import Fraction
from types import MappingProxyType

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
from oracles import dense_solve, oracle_problem_from_json, oracle_scsp
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


# --- the problem reader against the per-row reference ------------------------

# Values valid under each semiring, and the look-alikes and spellings that
# one or both reject.  A costpair value is a list, which cannot be hashed,
# so a valid costpair table is always placed by the row-by-row reading.
_VALID = {"wcsp": (0, 1, 2, 7, "inf"),
          "fcsp": (0, 1, "1", "0", "1/2", "3/10", 1.0, 0.5, -0.0),
          "costpair": ([1, 2], ["inf", 0], [0, 0])}
_ODD_VALUES = (1, 1.0, True, "1", -0.0, "inf", float("nan"), "3/2", None,
               [1, 2], {"v": 1}, [1], [1, -1], [1.5, 0])
_DOMAINS = (["a"], ["a", "b"], ["a", "b", "c"], [0, 1], [1, "x", None],
            [0.5, "a"])


def _problem_document(rng):
    semiring = rng.choice(("wcsp", "fcsp", "costpair"))
    domain = list(rng.choice(_DOMAINS))
    names = ["x", "y", "z"]
    constraints = []
    for _ in range(rng.randint(0, 3)):
        support = rng.sample(names, rng.choice((0, 1, 1, 2, 2, 2, 3)))
        rows = [{"assign": list(assign), "value": rng.choice(_VALID[semiring])}
                for assign in itertools.product(domain, repeat=len(support))]
        if rng.random() < 0.5:
            rng.shuffle(rows)
        constraints.append({"support": support, "rows": rows})
    return {"semiring": semiring, "domain": domain,
            "interface": rng.sample(names, rng.randint(0, 3)),
            "constraints": constraints}


def _spoil_problem(rng, doc):
    """``doc`` with one to three faults, or rarities, put in its tables."""
    for _ in range(rng.randint(1, 3)):
        entries = doc["constraints"]
        if not entries:
            entries.append({"support": ["x"], "rows": []})
        entry = rng.choice(entries)
        if not (isinstance(entry, dict)
                and isinstance(entry.get("rows"), list)):
            continue  # spoiled already
        rows = entry["rows"]
        if not rows:
            rows.append({"assign": [doc["domain"][0]], "value": 1})
        at = rng.randrange(len(rows))
        row = rows[at]
        assign = row.get("assign") if isinstance(row, dict) else None
        edit = rng.randrange(13)
        if edit == 0:
            # A mapping that is not a JSON object is no row either.
            rows[at] = rng.choice(([], "row", None, 1, MappingProxyType(
                row if isinstance(row, dict) else {})))
        elif edit == 1 and isinstance(row, dict):
            row.pop(rng.choice(("assign", "value")), None)
        elif edit == 2 and isinstance(row, dict):
            row["assign"] = rng.choice(("a", None, {"x": "a"}, 1, ("a",)))
        elif edit == 3 and isinstance(assign, list):
            if row["assign"] and rng.random() < 0.5:
                row["assign"] = row["assign"][:-1]
            else:
                row["assign"] = row["assign"] + [doc["domain"][0]]
        elif edit == 4 and isinstance(assign, list) and assign:
            row["assign"] = list(row["assign"])
            row["assign"][rng.randrange(len(row["assign"]))] = rng.choice(
                (["a"], {"a": 1}, "zz", 5, True, 1.0, Fraction(1)))
        elif edit == 5 and isinstance(row, dict) and "assign" in row:
            # A duplicate, spelled with 1.0 or true where the domain has 1.
            twin = dict(row, value=rng.choice(_VALID[doc["semiring"]]))
            if isinstance(twin["assign"], list):
                twin["assign"] = [rng.choice((True, 1.0)) if v == 1 else v
                                  for v in twin["assign"]]
            rows.insert(rng.randint(0, len(rows)), twin)
        elif edit == 6 and isinstance(entry.get("support"), list) \
                and entry["support"]:
            support = entry["support"] = entry["support"] + entry["support"][:1]
            if rng.random() < 0.5:  # with a row for each assignment
                entry["rows"] = [
                    {"assign": list(assign), "value": 1} for assign in
                    itertools.product(doc["domain"], repeat=len(support))]
        elif edit == 7:
            rows.pop(at)
        elif edit in (8, 9) and isinstance(row, dict):
            row["value"] = rng.choice(_ODD_VALUES)
        elif edit == 10:
            key = rng.choice(("support", "rows", None))
            if key is None:
                entries[entries.index(entry)] = rng.choice(
                    ([], "c", None, MappingProxyType(entry)))
            elif rng.random() < 0.5:
                del entry[key]
            else:
                entry[key] = rng.choice(("x", None, {"x": 1}, ["x", 1]))
        elif edit == 11:
            rng.shuffle(rows)
        elif edit == 12 and isinstance(entry.get("support"), list):
            # Names that are no strings, yet one per place.
            entry["support"] = list(range(len(entry["support"])))
    return doc


# The faults of a problem's tables, each named by a part of its message.
TABLE_FAULTS = ("must be an object", "is missing", ".support must be",
                ".rows must be", ".assign must be a list",
                "must be a JSON scalar",
                "duplicate assignment", "duplicate names in support",
                "does not match support", "is not a value of the", "table has")


# Documents the gate reads before its random ones.
FIXED_DOCUMENTS = [
    # A support of 70 names with one row: the row count is wrong, and is
    # found without a table of 2**70 rows.
    {"semiring": "wcsp", "domain": ["a", "b"], "interface": [],
     "constraints": [{"support": [f"v{i:02d}" for i in range(70)],
                      "rows": [{"assign": ["a"] * 70, "value": 1}]}]},
]


def _gate_documents(rng):
    yield from FIXED_DOCUMENTS
    for trial in range(3000):
        doc = _problem_document(rng)
        yield _spoil_problem(rng, doc) if trial % 3 else doc


def _read_problem(reader, doc):
    try:
        problem = reader(doc)
    except InputError as err:
        return type(err), str(err)
    return "ok", (problem.spec.key, problem.domain, problem.interface,
                  [(c.support, c.rows, [type(v) for v in c.rows])
                   for c in problem.constraints])


def test_json_reader_matches_the_reference():
    # Each document goes to the reader and to the reference, which reads
    # one row at a time and coerces each value on its own: the same
    # problem (its constraints' supports, rows and payload types), or the
    # same error type and message.
    rng = random.Random("problem-gate")
    seen = set()
    for doc in _gate_documents(rng):
        want = _read_problem(oracle_problem_from_json, doc)
        assert _read_problem(problem_from_json, doc) == want, doc
        seen.add(want[0] if want[0] == "ok"
                 else next(k for k in TABLE_FAULTS if k in want[1]))
    assert seen == {*TABLE_FAULTS, "ok"}


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


# --- every small problem -----------------------------------------------------

def test_every_small_problem():
    # Bounded-exhaustive: names x and y over the domain (a, b), wcsp values
    # 0, 1 and inf, every table on every subset of the support shapes {x},
    # {y} and {x, y}, and every interface: 8200 constraint sets, 32 800
    # problems.  The constraints on {x} list the domain as (b, a), so the
    # stride walk also reads through a domain in another order.  solve and
    # best_level must agree with oracle_scsp, which enumerates assignments
    # without the library's tables; its rows, in product order over the
    # problem domain, pin solve's row order.  dense_solve, which shares
    # the library's operators, is checked on one interface per constraint
    # set, each in turn.
    domain = ("a", "b")
    values = (0, 1, INF)

    def shape(support, order):
        # Every table on ``support``: its raw form, and built over ``order``.
        keys = list(itertools.product(domain, repeat=len(support)))
        for row in itertools.product(values, repeat=len(keys)):
            table = dict(zip(keys, map(WCSP.value, row)))
            yield (support, table), make_constraint(WCSP, order, support, table)

    shapes = [[None, *shape(("x",), ("b", "a"))],
              [None, *shape(("y",), domain)],
              [None, *shape(("x", "y"), domain)]]
    interfaces = [(), ("x",), ("y",), ("x", "y")]
    for index, chosen in enumerate(itertools.product(*shapes)):
        chosen = [pair for pair in chosen if pair is not None]
        raw = [pair[0] for pair in chosen]
        constraints = [pair[1] for pair in chosen]
        for interface in interfaces:
            problem = SCSPProblem(spec=WCSP, domain=domain,
                                  constraints=constraints, interface=interface)
            iface, rows = oracle_scsp(WCSP, domain, raw, interface,
                                      sr_times, sr_plus)
            solution = solve(problem)
            assert solution.support == tuple(iface)
            want = [rows[key].payload
                    for key in itertools.product(domain, repeat=len(iface))]
            assert [(type(v), v) for v in solution.rows] \
                == [(type(v), v) for v in want], (raw, interface)
            assert best_level(solution).payload == min(want)
            if interface == interfaces[index % len(interfaces)]:
                assert solution.rows == dense_solve(problem).rows
