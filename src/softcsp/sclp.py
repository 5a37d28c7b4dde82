"""Logic programs with semiring-valued facts and their fixpoint semantics.

A program is a list of clauses ``head :- body`` over one semiring, where a
body is either a list of atoms, a semiring value (the clause is then a
fact stating the cost/level of its head), or empty (read as the best
value).  Programs declare a finite constant universe; grounding replaces
each clause by all instantiations of its variables over that universe.

The semantics is bottom-up: an interpretation maps every ground atom to a
semiring value (missing atoms count as the worst value), and one step of
the consequence operator recomputes each atom as the semiring sum, over
its defining clauses, of the product of the body values.  Iterating from
the all-worst interpretation climbs monotonically to the least fixpoint;
with exact arithmetic the fixpoint test is plain equality.

:func:`lfp` runs exactly those rounds on the program as written, ground
or not, in one semi-naive loop that grounds as it evaluates.  An instance
that reads an atom at zero adds zero, because zero absorbs the product and
is the unit of the sum; and values only climb, so an atom that has turned
non-zero stays so.  The first round therefore evaluates only the facts
with a non-zero value.  After each round the atoms that just turned
non-zero are joined against the rules, and each instance built is filed
under the atoms it reads.  A round then updates a head differentially: it
evaluates only the head's instances that are new or that read an atom
the round before changed, and adds their products to the head's current
value.  This is exact because the sum of a c-semiring is idempotent, so
it is the least upper bound of the semiring order, and values only
climb: an instance that reads no changed atom has the product it had a
round ago, which the head's current value already covers, and the
current value is covered by the next one.  So after k rounds the
interpretation is still the k-th naive iterate of the ground program.
The round count and the iteration cap mean what they mean for
:func:`tp_step`, and every atom of the universe is in the result, atoms
that stay at zero (dead cycles such as ``p :- q. q :- p.``) included.

The tags of a program's values are checked once, when the
:class:`Program` is built, so inside the rounds the interpretation maps
each atom to its bare payload and the instance's payload operations
combine them.  Values are tagged again once per atom, where they leave:
in :func:`lfp`'s result and in a :class:`NonConvergenceError`.
:func:`tp_step` checks the tags of the interpretation it is given, then
reads its payloads.  Atoms and clauses are tuples, so the rounds' many
dictionary lookups hash and compare them in C.

Program text format (one clause per line)::

    #semiring wcsp
    #constants a,b,c.
    s(X) :- p(X,Y).
    t(a) :- 2.
    q(a).

Identifiers starting with an uppercase letter or ``_`` are variables;
``%`` starts a comment.  Terms must be constants or variables: function
symbols are recognised and rejected.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, NamedTuple, Optional, Tuple

from .errors import (
    EmptyUniverseError,
    FunctionSymbolError,
    InputError,
    NonConvergenceError,
    ParseError,
)
from .semiring import SemiringSpec, SemiringValue, format_value, lookup, sr_times


class Atom(NamedTuple):
    """``predicate(args)``, or ``predicate`` alone when there are no args.

    An atom is a tuple, so it hashes and compares in C; it therefore also
    compares equal to the plain tuple ``(predicate, args)``.
    """

    predicate: str
    args: Tuple[str, ...] = ()

    def __str__(self):
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(self.args)})"


def is_variable(term: str) -> bool:
    return bool(term) and (term[0].isupper() or term[0] == "_")


def _is_constant(name: Any) -> bool:
    """Whether ``name`` is an identifier that is not a variable."""
    return (isinstance(name, str) and _IDENT.fullmatch(name) is not None
            and not is_variable(name))


class _ClauseFields(NamedTuple):
    head: Atom
    body_atoms: Tuple[Atom, ...] = ()
    body_value: Optional[SemiringValue] = None


class Clause(_ClauseFields):
    """``head :- body`` with the body split into atoms and/or a value.

    Facts carry their value in ``body_value`` and have no body atoms; an
    empty body (no atoms, no value) is the unconditional best-value fact,
    because the product over zero atoms is the multiplicative unit.  Like
    :class:`Atom`, a clause is a tuple.
    """

    __slots__ = ()

    def __new__(cls, head: Atom, body_atoms: Tuple[Atom, ...] = (),
                body_value: Optional[SemiringValue] = None):
        if body_value is not None and body_atoms:
            raise ValueError("a clause body is either atoms or a value, not both")
        return tuple.__new__(cls, (head, body_atoms, body_value))

    def atoms(self) -> Iterable[Atom]:
        yield self.head
        yield from self.body_atoms

    def variables(self) -> FrozenSet[str]:
        return frozenset(t for atom in self.atoms() for t in atom.args
                         if is_variable(t))

    def is_ground(self) -> bool:
        return not any(is_variable(t) for atom in self.atoms()
                       for t in atom.args)

    def __str__(self):
        if self.body_value is not None:
            return f"{self.head} :- {format_value(self.body_value)}."
        if self.body_atoms:
            return f"{self.head} :- {', '.join(map(str, self.body_atoms))}."
        return f"{self.head}."


@dataclass(frozen=True)
class Program:
    spec: SemiringSpec
    clauses: Tuple[Clause, ...]
    constants: Tuple[str, ...]

    def __post_init__(self):
        # Own copies the caller cannot change; constants checked as
        # #constants checks them and kept once each, in first order; fact
        # tags checked once, here.
        constants = tuple(self.constants)
        for name in constants:
            if not _is_constant(name):
                raise InputError(f"bad constant {name!r}")
        object.__setattr__(self, "clauses", tuple(self.clauses))
        object.__setattr__(self, "constants", tuple(dict.fromkeys(constants)))
        self.spec.check(*filter(None, (c.body_value for c in self.clauses)))


Interpretation = Dict[Atom, SemiringValue]


def _substitute_atom(atom: Atom, binding: Dict[str, str]) -> Atom:
    return Atom(atom.predicate, tuple(map(binding.get, atom.args, atom.args)))


def _check_universe(program: Program) -> None:
    """Raise if a clause has variables but there are no constants for them."""
    if program.constants:
        return
    for clause in program.clauses:
        if not clause.is_ground():
            raise EmptyUniverseError(
                f"clause '{clause}' has variables but the constant universe "
                f"is empty"
            )


def _instances(clause: Clause, constants: Tuple[str, ...]) -> Iterable[Clause]:
    """``clause`` with its sorted variables over every tuple of ``constants``,
    in ``itertools.product`` order."""
    variables = sorted(clause.variables())
    for values in itertools.product(constants, repeat=len(variables)):
        binding = dict(zip(variables, values))
        yield Clause(head=_substitute_atom(clause.head, binding),
                     body_atoms=tuple(_substitute_atom(a, binding)
                                      for a in clause.body_atoms),
                     body_value=clause.body_value)


def ground(program: Program) -> Program:
    """Replace every clause by all instantiations of its variables."""
    _check_universe(program)
    return Program(spec=program.spec, constants=program.constants,
                   clauses=[instance for clause in program.clauses
                            for instance in _instances(clause, program.constants)])


def _signatures(program: Program) -> list:
    """The sorted (predicate, arity) pairs the clauses use."""
    return sorted({(a.predicate, len(a.args))
                   for clause in program.clauses
                   for a in (clause.head, *clause.body_atoms)})


def atom_universe(program: Program) -> Tuple[Atom, ...]:
    """Every instantiation over the constants of every program predicate.

    The atoms come in dump order: by predicate, arity, then arguments.
    """
    constants = sorted(program.constants)
    atoms = []
    for predicate, arity in _signatures(program):
        for args in itertools.product(constants, repeat=arity):
            atoms.append(Atom(predicate, args))
    return tuple(atoms)


def bottom(program: Program) -> Interpretation:
    """The worst interpretation: every ground atom at the semiring zero."""
    zero = program.spec.zero
    return {atom: zero for atom in atom_universe(program)}


def _by_head(program: Program) -> Dict[Atom, list]:
    """The clauses of a ground program grouped by head, in program order."""
    by_head: Dict[Atom, list] = {}
    for clause in program.clauses:
        if not clause.is_ground():
            raise ValueError("the consequence operator requires a ground program")
        by_head.setdefault(clause.head, []).append(clause)
    return by_head


def _head_value(spec: SemiringSpec, clauses: Iterable[Clause],
                payloads: Dict[Atom, Any]) -> Any:
    """The payload of the sum over ``clauses`` of their body products,
    reading each body atom's payload in ``payloads`` (zero if absent)."""
    zero, times = spec._zero, spec._times
    value = zero
    for clause in clauses:
        if clause.body_value is not None:
            contribution = clause.body_value.payload
        else:
            contribution = spec._one
            for body_atom in clause.body_atoms:
                contribution = times(contribution,
                                     payloads.get(body_atom, zero))
        value = spec._plus(value, contribution)
    return value


def _boxed(spec: SemiringSpec, payloads: Dict[Atom, Any]) -> Interpretation:
    """``payloads`` with each payload tagged with ``spec``'s instance."""
    key = spec.key
    return {atom: SemiringValue(key, payload)
            for atom, payload in payloads.items()}


def tp_step(program: Program, interp: Interpretation) -> Interpretation:
    """One application of the immediate-consequence operator.

    Each ground atom becomes the sum over its defining clauses of the
    product of the body values under ``interp``; atoms with no defining
    clause stay at zero.  ``program`` must be ground.
    """
    rules, spec = _by_head(program), program.spec
    spec.check(*interp.values())
    payloads = {atom: value.payload for atom, value in interp.items()}
    return _boxed(spec, {atom: _head_value(spec, rules.get(atom, ()), payloads)
                         for atom in atom_universe(program)})


def _signature(atom: Atom) -> Tuple[str, int]:
    return atom.predicate, len(atom.args)


class _AtomIndex:
    """Ground atoms by signature and, once asked for, by the values at
    given argument positions."""

    def __init__(self):
        self._atoms: Dict[Tuple[str, int], list] = {}
        self._keyed: Dict[Tuple[str, int], Dict[tuple, Dict[tuple, list]]] = {}

    def add(self, atom: Atom) -> None:
        signature = _signature(atom)
        self._atoms.setdefault(signature, []).append(atom)
        for positions, buckets in self._keyed.get(signature, {}).items():
            key = tuple(atom.args[i] for i in positions)
            buckets.setdefault(key, []).append(atom)

    def size(self, pattern: Atom) -> int:
        return len(self._atoms.get(_signature(pattern), ()))

    def matches(self, pattern: Atom,
                binding: Dict[str, str]) -> Iterable[Tuple[Atom, Dict[str, str]]]:
        """Each indexed atom that ``pattern`` reads under ``binding``, in
        the order added, with ``binding`` extended to read it.

        The atoms come from the bucket keyed by the positions that
        constants and ``binding`` fix, so only the other, free positions
        are read; a variable free at two positions must read one value.
        """
        signature = _signature(pattern)
        fixed, free = {}, []
        for i, term in enumerate(pattern.args):
            if is_variable(term):
                if term not in binding:
                    free.append((i, term))
                    continue
                term = binding[term]
            fixed[i] = term
        atoms = self._atoms.get(signature, ())
        if fixed:
            by_positions = self._keyed.setdefault(signature, {})
            positions = tuple(fixed)
            buckets = by_positions.get(positions)
            if buckets is None:
                buckets = by_positions[positions] = {}
                for atom in atoms:
                    buckets.setdefault(tuple(atom.args[i] for i in positions),
                                       []).append(atom)
            atoms = buckets.get(tuple(fixed.values()), ())
        for atom in atoms:
            extended = dict(binding)
            for i, variable in free:
                if extended.setdefault(variable, atom.args[i]) != atom.args[i]:
                    break
            else:
                yield atom, extended


def _join(steps: list, binding: Dict[str, str],
          slots: list) -> Iterable[Dict[str, str]]:
    """Every extension of ``binding`` that matches each step's pattern to
    an atom of its index, taking the steps in the order given.

    ``steps``, at least one, are (body position, pattern, index) triples;
    with each binding yielded, ``slots`` holds the atoms matched, by position.
    """
    (position, pattern, index), rest = steps[0], steps[1:]
    for atom, extended in index.matches(pattern, binding):
        slots[position] = atom
        if rest:
            yield from _join(rest, extended, slots)
        else:
            yield extended


def _rules(clauses: Iterable[Clause]) -> list:
    """Each clause with body atoms, paired with its head-only variables
    (sorted): the variables that appear in the head and in no body atom."""
    return [(rule, sorted(rule.variables()
                          - {t for a in rule.body_atoms for t in a.args}))
            for rule in clauses if rule.body_atoms]


def _new_instances(rules: list, fresh: _AtomIndex, index: _AtomIndex,
                   constants: Tuple[str, ...]) -> Iterable[Clause]:
    """The instances of ``rules`` (as :func:`_rules` lists them) that read
    an atom of ``fresh`` and otherwise only atoms of ``index`` (which
    holds ``fresh`` too).

    For each body position whose signature ``fresh`` holds, the rule is
    joined with that body atom matched in ``fresh`` first, then the
    others, fewest indexed atoms first, in ``index``; a body that matches
    at several positions is built once.  Variables only in the head range
    over every constant.
    """
    for rule, head_only in rules:
        body = rule.body_atoms
        taken = set()
        slots = list(body)
        for i, pattern in enumerate(body):
            if not fresh.size(pattern):
                continue
            rest = sorted(((j, a, index) for j, a in enumerate(body) if j != i),
                          key=lambda step: index.size(step[1]))
            for full in _join([(i, pattern, fresh), *rest], {}, slots):
                instance_body = tuple(slots)
                if instance_body in taken:
                    continue
                taken.add(instance_body)
                for values in itertools.product(constants,
                                                repeat=len(head_only)):
                    head = _substitute_atom(
                        rule.head, {**full, **dict(zip(head_only, values))})
                    yield Clause(head=head, body_atoms=instance_body)


def _name_atoms(atoms: Iterable[Atom]) -> str:
    """The first five atoms, then how many more there are."""
    names = [str(a) for a in atoms]
    more = len(names) - 5
    return ", ".join(names[:5]) + (f" +{more} more" if more > 0 else "")


@dataclass(frozen=True)
class LfpResult:
    """A reached fixpoint plus the number of steps that built it.

    ``iterations`` is the k for which k applications of the consequence
    operator to the bottom interpretation produce the fixpoint (the k+1-th
    application confirms it).
    """

    interpretation: Interpretation = field(repr=False)
    iterations: int


def default_max_iters(program: Program) -> int:
    """Ten rounds per atom of the universe, plus ten."""
    size = sum(len(program.constants) ** arity
               for _, arity in _signatures(program))
    return 10 * size + 10


def lfp(program: Program, max_iters: Optional[int] = None) -> LfpResult:
    """Iterate the consequence operator from bottom until it stabilises.

    ``program`` need not be ground: the rounds are those of iterating
    :func:`tp_step` on ``ground(program)``, but an instance is built only
    once its body atoms are all non-zero, and a round evaluates only the
    instances that are new or read an atom the round before changed.
    Their products are added to their head's current value, which is
    exact because the semiring sum is idempotent and values only climb
    (see the module docstring).  The rounds compute on bare payloads; the
    result tags each atom's value once.  After k rounds the
    interpretation is T_P^k(bottom), in dump order.

    Raises :class:`EmptyUniverseError`, as :func:`ground` does, if a clause
    has variables but the program declares no constants, and
    :class:`InputError` if ``max_iters`` is not an integer of at least 1.

    Raises :class:`NonConvergenceError`, carrying the last two
    interpretations (tagged, like the result) and naming the atoms that
    differ between them, if no fixpoint is found within ``max_iters``
    applications.
    """
    _check_universe(program)
    if max_iters is None:
        max_iters = default_max_iters(program)
    if type(max_iters) is not int:
        raise InputError(f"max_iters must be an integer, got {max_iters!r}")
    if max_iters < 1:
        raise InputError("max_iters must be at least 1")
    spec, constants = program.spec, program.constants
    plus, zero = spec._plus, spec._zero
    interp = dict.fromkeys(atom_universe(program), zero)
    rules = _rules(program.clauses)
    readers: Dict[Atom, list] = {}
    index = _AtomIndex()
    built: Iterable[Clause] = [
        instance for clause in program.clauses
        if not clause.body_atoms and clause.body_value != spec.zero
        for instance in _instances(clause, constants)]
    changed: Dict[Atom, Any] = {}
    for step in range(max_iters + 1):
        due: Dict[Atom, dict] = {}
        for atom in changed:
            for instance in readers.get(atom, ()):
                due.setdefault(instance.head, {})[instance] = None
        for instance in built:
            # Heads outside the universe are left out, as tp_step leaves
            # them out.
            if instance.head in interp:
                due.setdefault(instance.head, {})[instance] = None
                for atom in set(instance.body_atoms):
                    readers.setdefault(atom, []).append(instance)
        changed = {}
        for head, instances in due.items():
            old = interp[head]
            value = plus(old, _head_value(spec, instances, interp))
            if value != old:
                changed[head] = value
        if step == max_iters:
            break
        if not changed:
            return LfpResult(interpretation=_boxed(spec, interp),
                             iterations=step)
        # Values only climb, so an atom turns non-zero once, and each
        # instance is built in the round its last body atom does.
        fresh = _AtomIndex()
        for atom in changed:
            if interp[atom] == zero:
                index.add(atom)
                fresh.add(atom)
        interp.update(changed)
        built = _new_instances(rules, fresh, index, constants)
    message = f"no fixpoint within {max_iters} iterations"
    if changed:
        message += ("; still changing: "
                    + _name_atoms(a for a in interp if a in changed))
    raise NonConvergenceError(message, previous=_boxed(spec, interp),
                              last=_boxed(spec, {**interp, **changed}))


def _ground_goal(atoms: Tuple[Atom, ...]) -> Tuple[Atom, ...]:
    """``atoms``, once each is checked to be ground."""
    for atom in atoms:
        for term in atom.args:
            if is_variable(term):
                raise ParseError(f"goal atom {atom} is not ground "
                                 f"({term} is a variable)")
    return atoms


def eval_goal(program: Program, goal: Optional[Iterable[Atom]] = None,
              max_iters: Optional[int] = None) -> SemiringValue:
    """Compute the fixpoint with :func:`lfp`, then multiply the goal
    atoms' values.

    Atoms over unknown predicates or constants evaluate to zero, matching
    the bottom default.  The empty goal is the empty product, i.e. one.
    """
    goal_atoms = _ground_goal(tuple(goal or ()))
    result = lfp(program, max_iters=max_iters)
    spec = program.spec
    value = spec.one
    for atom in goal_atoms:
        value = sr_times(spec, value,
                         result.interpretation.get(atom, spec.zero))
    return value


# --- program text parsing ---------------------------------------------------

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_VALUE = re.compile(r"^(inf|true|false|\d+(\.\d+)?|\d+/\d+)$")


def _strip_comment(line: str) -> str:
    cut = line.find("%")
    return line if cut < 0 else line[:cut]


def _split_top(text: str, line_no: Optional[int]) -> list:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", line_no)
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ParseError("unbalanced parentheses", line_no)
    parts.append("".join(current).strip())
    return parts


def parse_atom(text: str, line_no: Optional[int] = None) -> Atom:
    """Parse ``pred`` or ``pred(t1,...,tn)`` with constant/variable terms."""
    text = text.strip()
    match = re.match(r"^([a-z][A-Za-z0-9_]*)\s*(\((.*)\))?$", text, re.DOTALL)
    if not match:
        raise ParseError(f"malformed atom {text!r}", line_no)
    predicate, _, arg_text = match.groups()
    if arg_text is None:
        return Atom(predicate)
    args = []
    for term in _split_top(arg_text, line_no):
        if "(" in term or ")" in term:
            raise FunctionSymbolError(
                f"term {term!r} uses a function symbol; only constants and "
                f"variables are supported", line_no)
        if not _IDENT.match(term):
            raise ParseError(f"malformed term {term!r}", line_no)
        args.append(term)
    return Atom(predicate, tuple(args))


def _parse_value(raw: str, spec: SemiringSpec) -> SemiringValue:
    if raw in ("inf", "true", "false") or "/" in raw or "." in raw:
        return spec.value(raw)
    return spec.value(int(raw))


def _parse_clause(text: str, spec: SemiringSpec, line_no: int) -> Clause:
    if ":-" in text:
        head_text, body_text = text.split(":-", 1)
        head = parse_atom(head_text, line_no)
        body_text = body_text.strip()
        if not body_text:
            raise ParseError("empty body after ':-'", line_no)
        parts = _split_top(body_text, line_no)
        if len(parts) == 1 and _VALUE.match(parts[0]):
            return Clause(head=head, body_value=_parse_value(parts[0], spec))
        atoms = tuple(parse_atom(p, line_no) for p in parts)
        return Clause(head=head, body_atoms=atoms)
    return Clause(head=parse_atom(text, line_no))


def parse_goal(text: str) -> Tuple[Atom, ...]:
    """Parse a goal: one or more comma-separated ground atoms."""
    stripped = text.strip().rstrip(".")
    if stripped.startswith(":-"):
        stripped = stripped[2:].strip()
    if not stripped:
        raise ParseError("empty goal")
    return _ground_goal(tuple(parse_atom(p)
                              for p in _split_top(stripped, None)))


def parse_program(text: str) -> Program:
    """Parse program text into an (ungrounded) :class:`Program`.

    Requires one ``#semiring`` and one ``#constants`` directive; the
    latter declares the Herbrand universe and must cover every constant
    used in the clauses.
    """
    spec: Optional[SemiringSpec] = None
    constants: Tuple[str, ...] = ()
    first_line: Dict[str, int] = {}
    pending: list = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        for directive in ("#semiring", "#constants"):
            if line.startswith(directive):
                if directive in first_line:
                    raise ParseError(f"{directive} given twice (first on "
                                     f"line {first_line[directive]})", line_no)
                first_line[directive] = line_no
        if line.startswith("#semiring"):
            key = line[len("#semiring"):].strip().rstrip(".").strip()
            try:
                spec = lookup(key)
            except Exception as exc:
                raise ParseError(str(exc), line_no) from None
            continue
        if line.startswith("#constants"):
            body = line[len("#constants"):].strip().rstrip(".")
            names = [n.strip() for n in body.split(",") if n.strip()]
            for name in names:
                if not _is_constant(name):
                    raise ParseError(f"bad constant {name!r}", line_no)
            constants = tuple(names)
            continue
        if line.startswith("#"):
            raise ParseError(f"unknown directive {line.split()[0]!r}", line_no)
        if not line.endswith("."):
            raise ParseError("clause does not end with '.'", line_no)
        pending.append((line[:-1].strip(), line_no))

    if spec is None:
        raise ParseError("program is missing a #semiring directive")
    if "#constants" not in first_line:
        raise ParseError("program is missing a #constants directive")

    clauses = []
    for clause_text, line_no in pending:
        try:
            clause = _parse_clause(clause_text, spec, line_no)
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(str(exc), line_no) from exc
        for atom in clause.atoms():
            for term in atom.args:
                if not is_variable(term) and term not in constants:
                    raise ParseError(
                        f"constant {term!r} is not declared in #constants",
                        line_no)
        clauses.append(clause)

    return Program(spec=spec, clauses=clauses, constants=constants)
