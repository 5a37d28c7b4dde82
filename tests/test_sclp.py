import random

import pytest

from softcsp import (
    Atom,
    Clause,
    INF,
    Program,
    eval_goal,
    ground,
    lookup,
    lfp,
    parse_goal,
    parse_program,
    sr_leq,
    tp_step,
)
from softcsp.errors import (
    EmptyUniverseError,
    FunctionSymbolError,
    InputError,
    NonConvergenceError,
    ParseError,
)
from softcsp.sclp import atom_universe, bottom

from conftest import FIXTURES

WCSP = lookup("wcsp")
CSP = lookup("csp")


@pytest.fixture
def costs_program():
    return parse_program((FIXTURES / "costs.sclp").read_text(encoding="utf-8"))


def atom(text):
    return parse_goal(text)[0]


class TestParsing:
    def test_fixture_program(self, costs_program):
        assert costs_program.spec.key == "wcsp"
        assert costs_program.constants == ("a", "b", "c")
        assert len(costs_program.clauses) == 6
        fact = costs_program.clauses[4]
        assert fact.head == Atom("t", ("a",))
        assert fact.body_value.payload == 2

    def test_empty_body_reads_as_best(self):
        program = parse_program("#semiring wcsp\n#constants a.\nok(a).\n")
        assert eval_goal(program, [atom("ok(a)")]).payload == 0

    def test_missing_semiring(self):
        with pytest.raises(ParseError):
            parse_program("#constants a.\np(a).\n")

    def test_missing_constants(self):
        with pytest.raises(ParseError):
            parse_program("#semiring wcsp\np(a).\n")

    def test_undeclared_constant(self):
        with pytest.raises(ParseError, match="not declared"):
            parse_program("#semiring wcsp\n#constants a.\np(b).\n")

    def test_function_symbols_rejected(self):
        with pytest.raises(FunctionSymbolError):
            parse_program("#semiring wcsp\n#constants a.\np(f(a)).\n")

    def test_missing_period(self):
        with pytest.raises(ParseError, match="'.'"):
            parse_program("#semiring wcsp\n#constants a.\np(a)\n")

    def test_value_must_fit_semiring(self):
        with pytest.raises(ParseError):
            parse_program("#semiring wcsp\n#constants a.\np(a) :- true.\n")

    def test_goal_atoms_must_be_ground(self):
        with pytest.raises(ParseError):
            parse_goal("s(X)")

    def test_goal_errors_carry_no_line(self):
        # A goal is not read from a file, so its errors have no line.
        for text in ("s((", "s(a))", "s(f(a))"):
            with pytest.raises(ParseError) as info:
                parse_goal(text)
            assert info.value.line is None
            assert not str(info.value).startswith("line")

    def test_comments_and_blank_lines(self):
        program = parse_program(
            "% a comment\n#semiring wcsp\n#constants a.\n\np(a) :- 1. % fact\n")
        assert len(program.clauses) == 1


class TestGrounding:
    def test_variable_clause_expands(self):
        program = parse_program(
            "#semiring wcsp\n#constants a,b,c.\ns(X) :- p(X,Y).\n")
        grounded = ground(program)
        assert len(grounded.clauses) == 9
        assert Clause(head=Atom("s", ("a",)),
                      body_atoms=(Atom("p", ("a", "b")),)) in grounded.clauses

    def test_ground_program_unchanged(self, costs_program):
        grounded = ground(costs_program)
        assert ground(grounded).clauses == grounded.clauses
        fact = Clause(head=Atom("t", ("a",)), body_value=WCSP.value(2))
        assert fact in grounded.clauses

    def test_empty_universe_with_variables(self):
        program = Program(spec=WCSP,
                          clauses=(Clause(head=Atom("p", ("X",))),),
                          constants=())
        with pytest.raises(EmptyUniverseError):
            ground(program)


EXPECTED_FIXPOINT = {
    "t(a)": 2, "r(a)": 3, "q(a)": 2,
    "p(a,c)": 3, "p(a,b)": 2,
    "s(a)": 2, "s(b)": INF, "s(c)": INF,
}


class TestFixpoint:
    def test_first_step_fires_only_facts(self, costs_program):
        grounded = ground(costs_program)
        first = tp_step(grounded, bottom(grounded))
        assert first[atom("t(a)")].payload == 2
        assert first[atom("r(a)")].payload == 3
        for name, value in first.items():
            if name not in (atom("t(a)"), atom("r(a)")):
                assert value.payload == INF

    def test_step_from_third_interpretation(self, costs_program):
        grounded = ground(costs_program)
        interp = bottom(grounded)
        for _ in range(3):
            interp = tp_step(grounded, interp)
        assert interp[atom("s(a)")].payload == 3
        nxt = tp_step(grounded, interp)
        assert nxt[atom("s(a)")].payload == 2  # min {inf, 2, 3}

    def test_fixpoint_values_and_iteration_count(self, costs_program):
        grounded = ground(costs_program)
        result = lfp(grounded)
        assert result.iterations == 4
        for text, expected in EXPECTED_FIXPOINT.items():
            assert result.interpretation[atom(text)].payload == expected
        assert tp_step(grounded, result.interpretation) == result.interpretation

    def test_facts_only_program(self):
        program = ground(parse_program(
            "#semiring wcsp\n#constants a.\nt(a) :- 2.\n"))
        result = lfp(program)
        assert result.iterations == 1
        assert result.interpretation[atom("t(a)")].payload == 2

    def test_self_loop_stays_at_zero(self):
        program = ground(parse_program(
            "#semiring wcsp\n#constants a.\nq(a) :- q(a).\n"))
        result = lfp(program)
        assert result.interpretation[atom("q(a)")].payload == INF
        assert result.iterations <= 1

    def test_no_clauses_means_all_zero(self):
        program = Program(spec=WCSP, clauses=(), constants=("a",))
        result = lfp(program)
        assert result.interpretation == {}
        assert result.iterations == 0

    def test_iteration_cap(self, costs_program):
        grounded = ground(costs_program)
        with pytest.raises(NonConvergenceError) as err:
            lfp(grounded, max_iters=2)
        assert err.value.previous is not None
        assert err.value.last is not None
        assert err.value.last != err.value.previous

    def test_cap_must_be_positive(self, costs_program):
        with pytest.raises(InputError):
            lfp(ground(costs_program), max_iters=0)


class TestGoals:
    def test_goal_values(self, costs_program):
        assert eval_goal(costs_program, parse_goal("s(a)")).payload == 2
        assert eval_goal(costs_program, parse_goal("s(b)")).payload == INF

    def test_conjunctive_goal_multiplies(self, costs_program):
        value = eval_goal(costs_program, parse_goal("t(a), r(a)"))
        assert value.payload == 5

    def test_empty_goal_is_one(self, costs_program):
        assert eval_goal(costs_program, []).payload == 0

    def test_unknown_predicate_is_zero(self, costs_program):
        assert eval_goal(costs_program, [Atom("nosuch", ("a",))]).payload == INF


def _random_program(rng, spec, predicates=("p", "q", "r"), constants=("a", "b")):
    clauses = []
    for _ in range(rng.randint(1, 5)):
        head = Atom(rng.choice(predicates), (rng.choice(constants),))
        if rng.random() < 0.5:
            clauses.append(Clause(head=head, body_value=spec.value(
                rng.choice([True, False]) if spec.key == "csp"
                else rng.randint(0, 5))))
        else:
            body = tuple(Atom(rng.choice(predicates), (rng.choice(constants),))
                         for _ in range(rng.randint(1, 2)))
            clauses.append(Clause(head=head, body_atoms=body))
    return Program(spec=spec, clauses=tuple(clauses), constants=constants)


def _interp_leq(spec, i1, i2):
    return all(sr_leq(spec, i1[a], i2[a]) for a in i1)


def test_tp_step_is_monotone():
    rng = random.Random("monotone")
    for _ in range(60):
        program = _random_program(rng, WCSP)
        universe = atom_universe(program)
        better = {a: WCSP.value(rng.choice(["inf", rng.randint(0, 9)]))
                  for a in universe}
        worse = {a: WCSP.value("inf" if better[a].payload == INF
                               else better[a].payload + rng.randint(0, 4))
                 for a in universe}
        assert _interp_leq(WCSP, worse, better)
        assert _interp_leq(WCSP, tp_step(program, worse),
                           tp_step(program, better))


def test_iteration_is_an_ascending_chain():
    rng = random.Random("ascending")
    for _ in range(60):
        program = _random_program(rng, WCSP)
        previous = bottom(program)
        for _ in range(6):
            current = tp_step(program, previous)
            assert _interp_leq(WCSP, previous, current)
            previous = current


def _derivable(program):
    # Classical-LP oracle: an atom is derivable iff some clause for it has
    # a true fact value or an all-derivable body.  Set closure, no
    # semiring machinery.
    derivable = set()
    changed = True
    while changed:
        changed = False
        for clause in program.clauses:
            if clause.head in derivable:
                continue
            if clause.body_value is not None:
                fires = clause.body_value.payload is True
            else:
                fires = all(a in derivable for a in clause.body_atoms)
            if fires:
                derivable.add(clause.head)
                changed = True
    return derivable


def test_boolean_instance_recovers_classical_semantics():
    rng = random.Random("classical")
    for _ in range(80):
        program = _random_program(rng, CSP)
        result = lfp(program)
        expected = _derivable(program)
        for a, value in result.interpretation.items():
            assert value.payload is (a in expected)
