import itertools
import random
import re
from fractions import Fraction

import pytest

from softcsp import (
    Atom,
    Clause,
    INF,
    Program,
    SemiringValue,
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
from softcsp import sclp
from softcsp.sclp import atom_universe, bottom, default_max_iters
from softcsp.scsp import SCSPProblem, solve

from conftest import FIXTURES, random_constraint
from oracles import (
    oracle_lfp,
    oracle_parse_atom,
    oracle_parse_clause,
    oracle_parse_goal,
    oracle_split_top,
    scsp_as_sclp,
)

WCSP = lookup("wcsp")
CSP = lookup("csp")


@pytest.fixture
def costs_program():
    return parse_program((FIXTURES / "costs.sclp").read_text(encoding="utf-8"))


def atom(text):
    return parse_goal(text)[0]


def ring_text(n):
    """Transitive closure over a ring of ``n`` constants, each edge 1."""
    names = [f"c{k}" for k in range(n)]
    text = "#semiring wcsp\n#constants " + ",".join(names) + ".\n"
    for a, b in zip(names, names[1:] + names[:1]):
        text += f"edge({a},{b}) :- 1.\n"
    return text + ("path(X,Y) :- edge(X,Y).\n"
                   "path(X,Y) :- edge(X,Z), path(Z,Y).\n")


class TestAtomsAndClauses:
    def test_atom_value_semantics(self):
        a = Atom(predicate="p", args=("a",))
        assert str(a) == "p(a)" and str(Atom("q")) == "q"
        assert repr(a) == "Atom(predicate='p', args=('a',))"
        assert a == Atom("p", ("a",)) and hash(a) == hash(Atom("p", ("a",)))
        assert a != Atom("p", ("b",)) and Atom("q").args == ()
        # An atom is the tuple (predicate, args).
        assert a == ("p", ("a",)) and hash(a) == hash(("p", ("a",)))
        with pytest.raises(AttributeError):
            a.predicate = "q"
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_clause_value_semantics(self):
        head, body = Atom("p", ("X",)), (Atom("q", ("X", "a")),)
        rule = Clause(head=head, body_atoms=body)
        fact = Clause(head=Atom("t", ("a",)), body_value=WCSP.value(2))
        assert str(rule) == "p(X) :- q(X,a)."
        assert str(fact) == "t(a) :- 2."
        assert str(Clause(Atom("u"))) == "u."
        assert repr(rule) == ("Clause(head=Atom(predicate='p', args=('X',)), "
                              "body_atoms=(Atom(predicate='q', args=('X', 'a')),), "
                              "body_value=None)")
        assert rule == Clause(head, body) and hash(rule) == hash(Clause(head, body))
        assert (fact.body_atoms, rule.body_value) == ((), None)
        assert list(rule.atoms()) == [head, *body]
        assert rule.variables() == {"X"} and not rule.is_ground()
        assert fact.is_ground()
        with pytest.raises(AttributeError):
            rule.head = Atom("z")
        with pytest.raises(AttributeError):
            rule.extra = 1

    def test_clause_body_is_atoms_or_a_value(self):
        with pytest.raises(ValueError, match="either atoms or a value, not both"):
            Clause(head=Atom("p"), body_atoms=(Atom("q"),),
                   body_value=WCSP.one)
        # _make, and _replace through it, check as the constructor does.
        p_a, value = Atom("p", ("a",)), WCSP.value(2)
        fact = Clause(p_a, body_value=value)
        assert fact._replace(body_value=WCSP.one) == Clause(p_a, (), WCSP.one)
        assert Clause._make((p_a, (p_a,), None)) == Clause(p_a, (p_a,))
        with pytest.raises(ValueError, match="either atoms or a value"):
            fact._replace(body_atoms=(p_a,))
        with pytest.raises(ValueError, match="either atoms or a value"):
            Clause._make((p_a, (p_a,), value))


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

    def test_goal_atoms_must_be_ground(self, costs_program):
        # parse_goal and eval_goal apply one rule, with one message.
        message = "goal atom s(X,Y) is not ground (X is a variable)"
        with pytest.raises(ParseError) as parsed:
            parse_goal("t(a), s(X,Y)")
        with pytest.raises(ParseError) as evaluated:
            eval_goal(costs_program, [Atom("t", ("a",)), Atom("s", ("X", "Y"))])
        assert str(parsed.value) == str(evaluated.value) == message

    def test_goal_errors_carry_no_line(self):
        # A goal is not read from a file, so its errors have no line.
        for text in ("s((", "s(a))", "s(f(a))"):
            with pytest.raises(ParseError) as info:
                parse_goal(text)
            assert info.value.line is None
            assert not str(info.value).startswith("line")

    def test_constants_directive_may_declare_none(self):
        for line in ("#constants.", "#constants .", "#constants  . "):
            program = parse_program(f"#semiring wcsp\n{line}\nq :- 1.\n")
            assert program.constants == ()
            assert eval_goal(program, [atom("q")]).payload == 1

    def test_comments_and_blank_lines(self):
        program = parse_program(
            "% a comment\n#semiring wcsp\n#constants a.\n\np(a) :- 1. % fact\n")
        assert len(program.clauses) == 1


# --- gate: the parser against the character-by-character reference ---------

# Balanced text whose predicate's parenthesis closes before the atom ends.
# The reference reports it as unbalanced (the terms it reads, 'a) q(a',
# do not balance); the parser names the atom.
MISREPORTED = [
    ("clause", "p(a) q(a)", "malformed atom 'p(a) q(a)'"),
    ("clause", "p(a) :- q(a)r(b)", "malformed atom 'q(a)r(b)'"),
    ("clause", "p(a) :- q(a)(b)", "malformed atom 'q(a)(b)'"),
    ("goal", "p(a) q(b)", "malformed atom 'p(a) q(b)'"),
]


def _blank(rng):
    return rng.choice(("", "", "", " ", "  ", "\t", "\xa0"))


def _atom_text(rng):
    predicate = rng.choice(("p", "q", "edge", "path_2", "r9"))
    if rng.random() < 0.25:
        return predicate
    terms = [_blank(rng) + rng.choice(("a", "b", "c0", "X", "Y", "_z"))
             + _blank(rng) for _ in range(rng.randint(1, 3))]
    return f"{predicate}{_blank(rng)}({','.join(terms)})"


def _atoms_text(rng):
    return ",".join(_blank(rng) + _atom_text(rng) + _blank(rng)
                    for _ in range(rng.randint(1, 3)))


def _clause_text(rng):
    head = _blank(rng) + _atom_text(rng) + _blank(rng)
    kind = rng.random()
    if kind < 0.2:
        return head
    if kind < 0.5:
        return head + ":-" + _blank(rng) + rng.choice(
            ("", "0", "3", "inf", "true", "false", "1/2", "1/0", "0.5", "7/3"))
    return head + ":-" + _atoms_text(rng)


def _mutate(rng, text):
    """``text`` with one to three random edits."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        edit = rng.randrange(7)
        if edit == 0:
            text = text[:at] + rng.choice("(), ") + text[at:]
        elif edit == 1:
            spots = [i for i, ch in enumerate(text) if ch in "(), "]
            if spots:
                i = rng.choice(spots)
                text = text[:i] + text[i + 1:]
        elif edit == 2:
            spots = [i for i, ch in enumerate(text) if ch.islower()]
            if spots:
                i = rng.choice(spots)
                text = text[:i] + text[i].upper() + text[i + 1:]
        else:
            insert = [rng.choice("0123456789"),
                      rng.choice(("f(a)", "g(X,b)", "h()", "k(f(Y))")),
                      rng.choice(("5", "inf", "1/0", "0.5", "true")),
                      rng.choice((";", ".", ":-", "-", "="))][edit - 3]
            text = text[:at] + insert + text[at:]
    return text


def _parsed(parse, *args):
    try:
        return "ok", parse(*args)
    except InputError as err:
        return type(err), str(err), getattr(err, "line", None)


# Each kind of text with the parser and the reference that read it.
PARSERS = {
    "clause": (lambda text, spec: sclp._parse_clause(text, spec, 3),
               lambda text, spec: oracle_parse_clause(text, spec, 3)),
    "goal": (lambda text, spec: parse_goal(text),
             lambda text, spec: oracle_parse_goal(text)),
    "atom": (lambda text, spec: sclp.parse_atom(text, 3),
             lambda text, spec: oracle_parse_atom(text, 3)),
}


def _compare(kind, text):
    """The parser's and the reference's reading of ``text``; the one
    allowed difference is the misreport MISREPORTED shows, for which the
    atom the parser names is returned in place of the reference's."""
    spec = lookup(("wcsp", "fcsp", "csp")[len(text) % 3])
    parse, reference = PARSERS[kind]
    got, want = _parsed(parse, text, spec), _parsed(reference, text, spec)
    if got == want:
        return got, None
    line = 3 if kind != "goal" else None
    prefix = "line 3: " if line else ""
    assert want == (ParseError, prefix + "unbalanced parentheses", line), \
        (kind, text)
    assert got[0] is ParseError and got[2] == line, (kind, text)
    named = got[1][len(prefix):]
    assert named.startswith("malformed atom '"), (kind, text)
    oracle_split_top(named[len("malformed atom '"):-1], None)  # balances
    return got, named


def test_parser_matches_the_reference():
    # Each text goes to the parser and to the reference, which walks it
    # one character at a time: the same atoms and clauses, or the same
    # error type, message and line.  The one allowed difference is the
    # misreport MISREPORTED shows.
    rng = random.Random("parser-gate")
    makers = {"clause": _clause_text, "goal": _atoms_text, "atom": _atom_text}
    cases = [(kind, text) for kind, text, _ in MISREPORTED]
    for trial in range(6000):
        kind = ("clause", "clause", "goal", "atom")[trial % 4]
        text = makers[kind](rng)
        cases.append((kind, text if trial % 3 == 0 else _mutate(rng, text)))
    seen, misreported = set(), {}
    for kind, text in cases:
        got, named = _compare(kind, text)
        seen.add("ok" if got[0] == "ok" else got[0].__name__ if
                 got[0] is not ParseError else
                 " ".join(got[1].removeprefix("line 3: ").split()[:2]))
        if named is not None:
            misreported[kind, text] = named
    for kind, text, message in MISREPORTED:
        assert misreported[kind, text] == message
    assert len(misreported) > 20
    assert seen == {"ok", "malformed atom", "malformed term",
                    "unbalanced parentheses", "empty body", "goal atom",
                    "FunctionSymbolError", "InstanceMismatchError"}


def test_parser_matches_the_reference_on_every_short_text():
    # Every text of one to five characters over the grammar's marks, a
    # predicate, a constant, a variable and a number (111 110 texts), read
    # as a clause and as a goal, under the rule of the random gate above.
    misreported = set()
    for size in range(1, 6):
        for text in map("".join, itertools.product("pXa(),: -1", repeat=size)):
            for kind in ("clause", "goal"):
                if _compare(kind, text)[1] is not None:
                    misreported.add((kind, text))
    assert misreported == {("clause", "p()()"), ("clause", "a()()"),
                           ("goal", "p()()"), ("goal", "a()()")}


class TestGrounding:
    def test_variable_clause_expands(self):
        program = parse_program(
            "#semiring wcsp\n#constants a,b,c.\ns(X) :- p(X,Y).\n")
        grounded = ground(program)
        assert len(grounded.clauses) == 9
        assert Clause(head=Atom("s", ("a",)),
                      body_atoms=(Atom("p", ("a", "b")),)) in grounded.clauses

    def test_program_keeps_its_own_copies(self):
        fact = Clause(head=Atom("p"), body_value=WCSP.one)
        clauses, constants = [fact], ["a"]
        program = Program(spec=WCSP, clauses=clauses, constants=constants)
        clauses.append(Clause(head=Atom("q")))
        constants.append("b")
        assert (program.clauses, program.constants) == ((fact,), ("a",))

    @pytest.mark.parametrize("name", ["X", "_a", "a b", "", "a\n", "1a", 1, None])
    def test_program_checks_its_constants(self, name):
        # A program built in code checks its constants as #constants does.
        with pytest.raises(InputError, match=re.escape(f"bad constant {name!r}")):
            Program(spec=WCSP, clauses=(), constants=("a", name))

    def test_program_keeps_each_constant_once(self):
        clauses = (Clause(head=Atom("p", ("X",)), body_value=WCSP.one),)
        program = Program(spec=WCSP, clauses=clauses, constants=("b", "a", "b"))
        assert program.constants == ("b", "a")
        assert atom_universe(program) == (Atom("p", ("a",)), Atom("p", ("b",)))
        assert default_max_iters(program) == 30
        assert lfp(program) == lfp(ground(program))

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

    def test_empty_universe_fails_even_if_the_clause_never_fires(self):
        # p(X) reads an atom nothing derives, so forward grounding would
        # never bind X; lfp still refuses the program as ground() does.
        program = Program(spec=WCSP,
                          clauses=(Clause(head=Atom("q"), body_value=WCSP.one),
                                   Clause(head=Atom("p", ("X",)),
                                          body_atoms=(Atom("never", ("X",)),))),
                          constants=())
        with pytest.raises(EmptyUniverseError) as expected:
            ground(program)
        for evaluate in (lfp, lambda p: eval_goal(p, [Atom("q")])):
            with pytest.raises(EmptyUniverseError) as got:
                evaluate(program)
            assert str(got.value) == str(expected.value)


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

    def test_interpretation_is_read_only(self, costs_program):
        interpretation = lfp(costs_program).interpretation
        atom_ = next(iter(interpretation))
        with pytest.raises(TypeError):
            interpretation[atom_] = interpretation[atom_]
        with pytest.raises(TypeError):
            del interpretation[atom_]

    def test_iteration_cap(self, costs_program):
        grounded = ground(costs_program)
        with pytest.raises(NonConvergenceError) as err:
            lfp(grounded, max_iters=2)
        assert err.value.previous is not None
        assert err.value.last is not None
        assert err.value.last != err.value.previous

    def test_cap_names_the_atoms_still_changing(self, costs_program):
        with pytest.raises(NonConvergenceError) as err:
            lfp(ground(costs_program), max_iters=2)
        assert str(err.value).endswith("still changing: p(a,b), s(a)")

    def test_cap_names_at_most_five_atoms(self):
        # A ring of 8 constants: after 2 rounds every path(X,Y) three hops
        # apart is still changing, 8 atoms in all.
        with pytest.raises(NonConvergenceError) as err:
            lfp(ground(parse_program(ring_text(8))), max_iters=2)
        changing = sorted((a for a in err.value.last
                           if err.value.last[a] != err.value.previous[a]),
                          key=lambda a: a.args)
        assert len(changing) == 8
        shown = ", ".join(str(a) for a in changing[:5])
        assert str(err.value).endswith(f"still changing: {shown} +3 more")

    def test_non_ground_program_rejected(self, costs_program):
        with pytest.raises(ValueError, match="ground program"):
            tp_step(costs_program, bottom(costs_program))

    def test_lfp_grounds_its_program(self, costs_program):
        assert lfp(costs_program) == lfp(ground(costs_program))

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


# --- gate: the incremental lfp against naive Kleene iteration ----------------

def _random_value(rng, spec):
    if spec.key == "csp":
        return spec.value(rng.choice([True, False]))
    if spec.key == "fcsp":
        return spec.value(Fraction(rng.randint(0, 4), 4))
    if spec.key == "wcsp":
        return spec.value(rng.choice(["inf", 0, 1, 2, 5]))
    return spec.value((rng.choice(["inf", 0, 1, 3]), rng.choice(["inf", 0, 2])))


def _random_atom(rng, predicate, arity, terms):
    return Atom(predicate, tuple(rng.choice(terms) for _ in range(arity)))


def _random_gate_program(rng, spec):
    """Clauses built directly, so every semiring (costpair too) is covered.

    Predicates ``p``/``q``/``r``/``s`` of arity 0..2 head the clauses;
    ``never`` appears only in bodies, so its readers never fire.  Bodies
    mix constants and the variables X, Y, Z; some clauses read their own
    head, and some facts are the semiring zero.
    """
    constants = ("a", "b", "c")[: rng.randint(1, 3)]
    arity = {name: rng.randint(0, 2) for name in ("p", "q", "r", "s", "never")}
    heads = ("p", "q", "r", "s")
    terms = constants + ("X", "Y", "Z")
    clauses = []
    for _ in range(rng.randint(1, 10)):
        name = rng.choice(heads)
        head = _random_atom(rng, name, arity[name], terms)
        kind = rng.random()
        if kind < 0.35:
            value = spec.zero if rng.random() < 0.2 else _random_value(rng, spec)
            clauses.append(Clause(head=head, body_value=value))
        elif kind < 0.4:
            clauses.append(Clause(head=head))
        elif kind < 0.5:
            clauses.append(Clause(head=head, body_atoms=(head,)))
        else:
            body = tuple(_random_atom(rng, b, arity[b], terms) for b in
                         rng.choices(heads + ("never",), weights=(3, 3, 3, 3, 1),
                                     k=rng.randint(1, 3)))
            clauses.append(Clause(head=head, body_atoms=body))
    return Program(spec=spec, clauses=tuple(clauses), constants=constants)


def _random_closure_program(rng, spec):
    """Transitive closure over random edges: fixpoints up to n rounds deep."""
    constants = tuple(f"c{k}" for k in range(rng.randint(2, 4)))
    clauses = [Clause(head=Atom("edge", (a, b)),
                      body_value=_random_value(rng, spec))
               for a in constants for b in constants if rng.random() < 0.4]
    clauses += [
        Clause(head=Atom("path", ("X", "Y")),
               body_atoms=(Atom("edge", ("X", "Y")),)),
        Clause(head=Atom("path", ("X", "Y")),
               body_atoms=(Atom("edge", ("X", "Z")), Atom("path", ("Z", "Y")))),
    ]
    return Program(spec=spec, clauses=tuple(clauses), constants=constants)


def _filter_edge_programs(spec):
    """Fixed ground programs at the edge of dropping the clauses that can
    only add zero.

    ``s(a)`` reads an atom defined only by a zero fact; ``p``/``q`` are a
    dead cycle read next to the live ``u``; every clause of ``h(a)`` is
    dead but ``g(a)`` reads it.  ``r :- u`` comes before ``u``'s fact, so a
    pass that only knew the heads seen so far would drop it.  ``p(z)``
    heads a fact but lies outside the universe over ``a``, so the
    ``q(a)`` that reads it stays zero.
    """
    p, q, r, u, w = (Atom(name) for name in "pqruw")
    t, s, h, g, never = (Atom(name, ("a",)) for name in
                         ("t", "s", "h", "g", "never"))
    one = spec.one
    return [
        (Clause(t, body_value=spec.zero), Clause(s, (t,))),
        (Clause(p, (q,)), Clause(q, (p,)), Clause(r, (p, u)), Clause(r, (u,)),
         Clause(u, body_value=one), Clause(w, (r, w)), Clause(w, (u,))),
        (Clause(h, (never,)), Clause(h, body_value=spec.zero),
         Clause(g, (h,)), Clause(g, body_value=one), Clause(s, (g, h))),
        (Clause(Atom("p", ("z",)), body_value=one),
         Clause(Atom("q", ("a",)), (Atom("p", ("z",)),))),
    ]


def _grounding_edge_programs(spec):
    """Fixed programs with variables, over the constants a and b.

    Variables only in the head (``p(X) :- q.``, ``f(X).``, a fact with a
    value, and ``t(X,Y) :- p(Y)`` with X free) range over every constant.
    ``d(X) :- q(X)`` and ``d(a) :- q(a)`` give the same ground clause, as
    do the two positions of ``e :- q(a), q(a)``.  ``w(z) :- q(X)`` heads an
    atom outside the universe, so ``v(X) :- w(z)`` never fires.
    """
    one = spec.one
    mid = spec.value({"csp": True, "fcsp": Fraction(1, 2), "wcsp": 3,
                      "costpair": (1, 2)}[spec.key])

    def a(name, *args):
        return Atom(name, args)

    return [
        (Clause(a("p", "X"), (a("q"),)), Clause(a("q"), body_value=one),
         Clause(a("f", "X")), Clause(a("g", "X"), body_value=mid),
         Clause(a("t", "X", "Y"), (a("p", "Y"), a("g", "X")))),
        (Clause(a("q", "a"), body_value=mid),
         Clause(a("d", "X"), (a("q", "X"),)), Clause(a("d", "a"), (a("q", "a"),)),
         Clause(a("e"), (a("q", "a"), a("q", "a"))),
         Clause(a("e"), (a("d", "X"), a("q", "X")))),
        (Clause(a("q", "a"), body_value=one),
         Clause(a("w", "z"), (a("q", "X"),)),
         Clause(a("v", "X"), (a("w", "z"),)),
         Clause(a("u", "X"), (a("q", "X"), a("u", "X")))),
    ]


def _lfp_outcome(program, max_iters):
    try:
        result = lfp(program, max_iters=max_iters)
    except NonConvergenceError as err:
        return "cap", err.previous, err.last
    return "fixpoint", result.interpretation, result.iterations


@pytest.mark.parametrize("key", ["csp", "fcsp", "wcsp", "costpair"])
def test_lfp_matches_naive_iteration(key):
    spec = lookup(key)
    rng = random.Random(f"lfp-gate:{key}")
    cases = []
    for trial in range(200):
        build = _random_closure_program if trial % 4 == 0 else _random_gate_program
        program = build(rng, spec)
        caps = (rng.randint(1, 3), default_max_iters(program))
        # lfp grounds the program itself, so it must give the same answer
        # with or without ground() in front.
        cases += [(ground(program), caps), (program, caps)]
    for clauses in _filter_edge_programs(spec):
        program = Program(spec=spec, clauses=clauses, constants=("a",))
        cases.append((program, (1, 2, default_max_iters(program))))
    for clauses in _grounding_edge_programs(spec):
        program = Program(spec=spec, clauses=clauses, constants=("a", "b"))
        cases.append((program, (1, 2, default_max_iters(program))))
    outcomes = set()
    for program, caps in cases:
        for cap in caps:
            got = _lfp_outcome(program, cap)
            want = oracle_lfp(ground(program), cap, tp_step, bottom)
            assert got[0] == want[0]
            assert list(got[1].items()) == list(want[1].items())
            if got[0] == "fixpoint":
                assert got[2] == want[2]
            else:
                assert list(got[2].items()) == list(want[2].items())
            outcomes.add(got[0] if got[0] == "cap" else min(got[2], 3))
    # Both ends of the contract are exercised, and fixpoints of depth > 2.
    assert outcomes == {"cap", 0, 1, 2, 3}


# --- gate: lfp against bucket elimination ------------------------------------

@pytest.mark.parametrize("key", ["csp", "fcsp", "wcsp"])
def test_lfp_matches_bucket_elimination(key):
    # An SCSP written as a program: the sol rule joins every constraint,
    # so lfp's join and scsp.solve, which share no code, must give each
    # sol atom the payload of the solution's row.
    spec = lookup(key)
    rng = random.Random(f"scsp-sclp:{key}")
    for _ in range(100):
        domain = ("d0", "d1", "d2")[: rng.randint(2, 3)]
        names = [f"n{k}" for k in range(rng.randint(2, 5))]
        constraints = [random_constraint(rng, spec, domain, names, 3)
                       for _ in range(rng.randint(0, 4))]
        interface = rng.sample(names, rng.randint(0, len(names)))
        solution = solve(SCSPProblem(spec=spec, domain=domain,
                                     constraints=constraints,
                                     interface=interface))
        tables = [(c.support, {row: v.payload for row, v in c.table.items()})
                  for c in constraints]
        program = parse_program(scsp_as_sclp(key, domain, tables,
                                             solution.support))
        sol = {a.args: v.payload for a, v in lfp(program).interpretation.items()
               if a.predicate == "sol"}
        assert sol == {row: v.payload for row, v in solution.table.items()}


@pytest.mark.parametrize("key", ["csp", "fcsp", "wcsp", "costpair"])
def test_lfp_returns_tagged_values(key):
    # lfp computes on bare payloads; what it hands out is tagged again.
    spec = lookup(key)
    rng = random.Random(f"lfp-tags:{key}")
    seen = {"fixpoint": 0, "cap": 0}
    for trial in range(60):
        build = _random_closure_program if trial % 4 == 0 else _random_gate_program
        program = build(rng, spec)
        for cap in (1, 2, default_max_iters(program)):
            try:
                interps = [lfp(program, max_iters=cap).interpretation]
                outcome = "fixpoint"
            except NonConvergenceError as err:
                interps = [err.previous, err.last]
                outcome = "cap"
            for interp in interps:
                assert list(interp) == list(atom_universe(program))
                spec.check(*interp.values())
            seen[outcome] += bool(interps[0])
    assert seen["fixpoint"] and seen["cap"]


def test_default_max_iters_counts_the_universe():
    rng = random.Random("max-iters")
    for key in ("csp", "wcsp"):
        for _ in range(60):
            program = _random_gate_program(rng, lookup(key))
            assert default_max_iters(program) == \
                10 * len(atom_universe(program)) + 10
    empty = Program(spec=WCSP, clauses=(Clause(head=Atom("p", ("X",))),
                                        Clause(head=Atom("z"))),
                    constants=())
    assert default_max_iters(empty) == 10 * len(atom_universe(empty)) + 10 == 20


def _record_evaluations(monkeypatch):
    """Have ``lfp`` report each (clauses, interpretation) pair it passes to
    ``_head_value``: the instances of one head and, copied at the call and
    tagged with the program's instance, the values they read (``lfp``
    passes bare payloads)."""
    calls = []
    head_value = sclp._head_value

    def recording(spec, clauses, payloads):
        calls.append((list(clauses), {atom: SemiringValue(spec.key, payload)
                                      for atom, payload in payloads.items()}))
        return head_value(spec, clauses, payloads)

    monkeypatch.setattr(sclp, "_head_value", recording)
    return calls


def _rule_instances(calls):
    """The distinct rule instances among the recorded evaluations."""
    return list(dict.fromkeys(c for clauses, _ in calls for c in clauses
                              if c.body_atoms))


def test_forward_grounding_builds_only_live_instances(monkeypatch):
    # Over a 6-ring, ground() builds 36 + 216 instances of the two path
    # rules; only 6 + 36 of them read atoms that turn non-zero.
    program = parse_program(ring_text(6))
    rules = [c for c in ground(program).clauses if c.body_atoms]
    calls = _record_evaluations(monkeypatch)
    result = lfp(program)
    built = _rule_instances(calls)
    assert (len(rules), len(built)) == (252, 42)
    assert set(built) <= set(rules)
    assert result == lfp(ground(program))

    # A dead cycle, or a reader of a zero fact, builds nothing, but every
    # atom still dumps at zero.
    dead = parse_program("#semiring wcsp\n#constants a.\np :- q.\nq :- p.\n"
                         "z :- inf.\ny :- z.\n")
    calls.clear()
    result = lfp(dead)
    assert calls == []
    assert list(result.interpretation.items()) == \
        [(Atom(name), WCSP.zero) for name in "pqyz"]
    assert result.iterations == 0

    # A binding that both body atoms match is taken once.
    twice = parse_program("#semiring wcsp\n#constants a.\nq :- 1.\ne :- q, q.\n")
    calls.clear()
    lfp(twice)
    assert _rule_instances(calls) == [Clause(Atom("e"), (Atom("q"), Atom("q")))]


def test_round_evaluates_only_instances_whose_body_moved(monkeypatch):
    # Round 2 sets h from h :- q.  Round 3 builds h :- b; q did not change
    # in round 2, so h's value already covers h :- q and only h :- b is
    # evaluated (the sum is idempotent and values only climb).
    program = parse_program("#semiring wcsp\n#constants a.\nq :- 1.\n"
                            "b :- q.\nh :- q.\nh :- b.\n")
    calls = _record_evaluations(monkeypatch)
    result = lfp(program)
    evaluated = [c for clauses, _ in calls for c in clauses]
    assert evaluated.count(Clause(Atom("h"), (Atom("q"),))) == 1
    assert evaluated.count(Clause(Atom("h"), (Atom("b"),))) == 1
    one = WCSP.value(1)
    assert list(result.interpretation.items()) == \
        [(Atom("b"), one), (Atom("h"), one), (Atom("q"), one)]
    assert result.iterations == 2


def _zero_product_program():
    """``h`` has an instance but stays zero: <inf,0> x <0,inf> is
    <inf,inf>, the costpair zero.  ``g`` and ``k`` read it."""
    spec = lookup("costpair")
    a, b, h, g, k = (Atom(name) for name in "abhgk")
    return Program(spec=spec, constants=(), clauses=(
        Clause(a, body_value=spec.value(("inf", 0))),
        Clause(b, body_value=spec.value((0, "inf"))),
        Clause(h, (a, b)), Clause(g, (h,)), Clause(k, (a, h)),
        Clause(k, (a,))))


@pytest.mark.parametrize("key", ["csp", "fcsp", "wcsp", "costpair"])
def test_no_instance_is_evaluated_with_a_zero_body_atom(key, monkeypatch):
    spec = lookup(key)
    rng = random.Random(f"zero-body:{key}")
    programs = [(_random_closure_program if trial % 4 == 0
                 else _random_gate_program)(rng, spec) for trial in range(200)]
    programs += [Program(spec=spec, clauses=clauses, constants=("a",))
                 for clauses in _filter_edge_programs(spec)]
    programs += [Program(spec=spec, clauses=clauses, constants=("a", "b"))
                 for clauses in _grounding_edge_programs(spec)]
    if key == "costpair":
        programs.append(_zero_product_program())
    calls = _record_evaluations(monkeypatch)
    for program in programs:
        for cap in (1, 2, default_max_iters(program)):
            calls.clear()
            try:
                lfp(program, max_iters=cap)
            except NonConvergenceError:
                pass
            for clauses, interp in calls:
                for clause in clauses:
                    assert all(interp[a] != spec.zero for a in clause.body_atoms), \
                        clause
    if key == "costpair":
        # h's instance is built and evaluated, but nothing that reads h.
        evaluated = {c.head: c for c in _rule_instances(calls)}
        assert set(evaluated) == {Atom("h"), Atom("k")}
        assert evaluated[Atom("k")].body_atoms == (Atom("a"),)
        assert lfp(_zero_product_program()).interpretation[Atom("h")] == spec.zero


def _sized_closure_program(rng, spec, n, shape):
    """Transitive closure over ``n`` constants, as the benchmark writes
    it: ``dense`` draws each ordered pair of distinct constants as an edge
    with probability 1/2, ``ring`` is one cycle through the constants in
    random order, and no edge is the semiring zero."""
    constants = tuple(f"c{k:02d}" for k in range(n))
    if shape == "dense":
        pairs = [(a, b) for a in constants for b in constants
                 if a != b and rng.random() < 0.5]
    else:
        order = rng.sample(constants, n)
        pairs = list(zip(order, order[1:] + order[:1]))
    clauses = [Clause(head=Atom("edge", pair), body_value=spec.value(
        rng.randint(0, 9) if spec.key == "wcsp"
        else Fraction(rng.randint(1, 10), 10))) for pair in pairs]
    clauses += [
        Clause(head=Atom("path", ("X", "Y")),
               body_atoms=(Atom("edge", ("X", "Y")),)),
        Clause(head=Atom("path", ("X", "Y")),
               body_atoms=(Atom("edge", ("X", "Z")), Atom("path", ("Z", "Y")))),
    ]
    return Program(spec=spec, clauses=tuple(clauses), constants=constants)


def test_join_work_is_pinned(monkeypatch):
    # The work the fixpoint does, pinned per program: the rule instances
    # the join builds (each once, and each evaluated), the _head_value
    # calls (one per head a round re-evaluates) and the rounds.  A
    # different join must build the same instances and evaluate them in
    # the same rounds.
    calls = _record_evaluations(monkeypatch)
    built = []
    new_instances = sclp._new_instances

    def recording(*args):
        for instance in new_instances(*args):
            built.append(instance)
            yield instance

    monkeypatch.setattr(sclp, "_new_instances", recording)

    def work_of(program):
        calls.clear()
        built.clear()
        iterations = lfp(program).iterations
        assert len(set(built)) == len(built)
        assert set(built) == set(_rule_instances(calls))
        return len(built), len(calls), iterations

    work = {}
    for key in ("wcsp", "fcsp"):
        rng = random.Random(f"join-work:{key}")
        for shape in ("ring", "dense"):
            for n in (8, 12, 16):
                work[key, shape, n] = work_of(
                    _sized_closure_program(rng, lookup(key), n, shape))
    # Every body atom turns non-zero in round one, so each instance reads
    # a fresh atom at every position; it is still built once.
    assert work_of(parse_program(
        "#semiring wcsp\n#constants a,b.\nq(a) :- 1.\nq(b) :- 2.\n"
        "r(a,b) :- 1.\nr(b,b) :- 3.\ns(X,Y) :- q(X), r(X,Y), q(Y).\n")) \
        == (2, 6, 2)
    assert work == {
        ("wcsp", "ring", 8): (72, 80, 9),
        ("wcsp", "ring", 12): (156, 168, 13),
        ("wcsp", "ring", 16): (272, 288, 17),
        ("wcsp", "dense", 8): (252, 218, 5),
        ("wcsp", "dense", 12): (884, 710, 8),
        ("wcsp", "dense", 16): (2108, 1119, 6),
        ("fcsp", "ring", 8): (72, 80, 9),
        ("fcsp", "ring", 12): (156, 168, 13),
        ("fcsp", "ring", 16): (272, 288, 17),
        ("fcsp", "dense", 8): (243, 231, 6),
        ("fcsp", "dense", 12): (832, 762, 8),
        ("fcsp", "dense", 16): (1819, 1270, 8),
    }


@pytest.mark.parametrize("cap", [2.0, "3", True])
def test_max_iters_must_be_an_integer(costs_program, cap):
    with pytest.raises(InputError, match=re.escape(f"got {cap!r}")):
        lfp(costs_program, max_iters=cap)
