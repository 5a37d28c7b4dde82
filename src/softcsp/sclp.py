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
under the atoms it reads.  Each rule is compiled once per call, the way
compiled Datalog engines evaluate semi-naively: its variables and
constants get slots of one list, and each join order becomes a plan whose
steps look up an index bucket keyed by the positions that constants and
earlier steps fix, bind the slots of the variables they meet first, and
compare the positions of a variable repeated within one atom; the head is
read off the slots.  A round then updates a head differentially: it
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
symbols are recognised and rejected.  A clause body or goal is read by
one compiled regex match per atom; only text the scan rejects is split at
its top-level commas, to name the fault.
"""

from __future__ import annotations

import itertools
import re
from operator import itemgetter
from types import MappingProxyType
from typing import (Any, Callable, Dict, FrozenSet, Iterable, Mapping,
                    NamedTuple, NoReturn, Optional, Tuple)

from .errors import (
    EmptyUniverseError,
    Frozen,
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

    @classmethod
    def _make(cls, iterable) -> "Clause":
        # NamedTuple's _make, which _replace calls, skips __new__.
        return cls(*iterable)

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


class Program(Frozen):
    __slots__ = ("spec", "clauses", "constants")

    def __init__(self, spec: SemiringSpec, clauses: Tuple[Clause, ...],
                 constants: Tuple[str, ...]):
        # Own copies the caller cannot change; constants checked as
        # #constants checks them and kept once each, in first order; fact
        # tags checked once, here.
        constants = tuple(constants)
        for name in constants:
            if not _is_constant(name):
                raise InputError(f"bad constant {name!r}")
        self._init(spec, tuple(clauses), tuple(dict.fromkeys(constants)))
        spec.check(*filter(None, (c.body_value for c in self.clauses)))


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


def _tuple_getter(slots: Tuple[int, ...]) -> Callable[[list], tuple]:
    """The values of a list at ``slots``, as a tuple of any length."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        slot, = slots
        return lambda env: (env[slot],)
    return lambda env: ()


class _AtomIndex:
    """Ground atoms by signature and, once asked for, in buckets keyed by
    their values at given argument positions (one value for one position,
    a tuple of values for several)."""

    def __init__(self):
        self._atoms: Dict[Tuple[str, int], list] = {}
        self._keyed: Dict[Tuple[str, int], Dict[tuple, tuple]] = {}

    def add(self, atom: Atom) -> None:
        signature = _signature(atom)
        self._atoms.setdefault(signature, []).append(atom)
        for key, buckets in self._keyed.get(signature, {}).values():
            buckets.setdefault(key(atom.args), []).append(atom)

    def size(self, signature: Tuple[str, int]) -> int:
        return len(self._atoms.get(signature, ()))

    def source(self, signature: Tuple[str, int],
               positions: Tuple[int, ...]) -> Any:
        """The atoms of ``signature`` in the order added: a list, or, when
        ``positions`` is not empty, a dict of lists by their values there."""
        atoms = self._atoms.get(signature, [])
        if not positions:
            return atoms
        by_positions = self._keyed.setdefault(signature, {})
        if positions not in by_positions:
            key, buckets = itemgetter(*positions), {}
            for atom in atoms:
                buckets.setdefault(key(atom.args), []).append(atom)
            by_positions[positions] = key, buckets
        return by_positions[positions][1]


class _Rule:
    """A clause with body atoms, compiled once per :func:`lfp` call.

    Every term of the rule has a slot of ``env``: the body variables in
    order of first occurrence, then the head-only variables (the ones in
    the head and in no body atom) in sorted order, then the constants,
    whose slots hold them from the start.  A join writes the slots of the
    variables it binds and reads only slots written before, so one
    ``env`` serves every join of the rule.  The head is read off ``env``.
    """

    def __init__(self, clause: Clause):
        self.body = clause.body_atoms
        self.signatures = tuple(map(_signature, self.body))
        slot: Dict[str, int] = {}
        for atom in self.body:
            for term in atom.args:
                if term not in slot and is_variable(term):
                    slot[term] = len(slot)
        start = len(slot)
        for term in sorted({t for t in clause.head.args if is_variable(t)}
                           .difference(slot)):
            slot[term] = len(slot)
        self.head_only = slice(start, len(slot))
        self.head_width = len(slot) - start
        for atom in clause.atoms():
            for term in atom.args:
                slot.setdefault(term, len(slot))
        self._slot, self.env = slot, list(slot)
        self.head = (clause.head.predicate,
                     _tuple_getter(tuple(slot[t] for t in clause.head.args)))
        self._plans: Dict[Tuple[int, ...], list] = {}

    def plan(self, order: Tuple[int, ...]) -> list:
        """The join steps that match the body atoms in ``order``.

        A step is (body position, signature, bucket positions, bucket
        key, binds, checks).  The bucket positions are those a constant
        or an earlier step fixes, and the key reads their values off
        ``env`` (None when no position is fixed).  ``binds`` are the
        (argument position, slot) pairs of the variables first bound
        here; ``checks`` pair an argument position with an earlier one of
        the same atom that holds the same unbound variable.  Compiled
        once per order.
        """
        steps = self._plans.get(order)
        if steps is None:
            steps = self._plans[order] = []
            bound = set()
            for position in order:
                atom = self.body[position]
                fixed, binds, checks, first = [], [], [], {}
                for i, term in enumerate(atom.args):
                    slot = self._slot[term]
                    if slot in bound or not is_variable(term):
                        fixed.append((i, slot))
                    elif term in first:
                        checks.append((first[term], i))
                    else:
                        first[term] = i
                        binds.append((i, slot))
                bound.update(slot for _, slot in binds)
                steps.append((position, self.signatures[position],
                              tuple(i for i, _ in fixed),
                              itemgetter(*(s for _, s in fixed)) if fixed
                              else None, tuple(binds), tuple(checks)))
        return steps


def _join(steps: list, env: list, matched: list) -> Iterable[None]:
    """Yield once per way to match each step to an atom of its source,
    taking the steps in the order given.

    ``steps``, at least one, are :meth:`_Rule.plan` steps whose signature
    and positions are replaced by what :meth:`_AtomIndex.source` returns
    for them.  At each yield ``env`` holds the slots bound and ``matched``
    the atoms matched, by body position.  The join keeps the steps it has
    entered on an explicit stack, each with its iterator over the atoms
    left to match, so a body may be longer than the recursion limit.
    """
    last, depth, stack = len(steps) - 1, 0, []
    position, atoms, key, binds, checks = steps[0]
    atoms = iter(atoms if key is None else atoms.get(key(env), ()))
    while True:
        for atom in atoms:
            args = atom.args
            for i, j in checks:
                if args[i] != args[j]:
                    break
            else:
                for i, slot in binds:
                    env[slot] = args[i]
                matched[position] = atom
                if depth == last:
                    yield None
                    continue
                stack.append((atoms, position, binds, checks))
                depth += 1
                position, atoms, key, binds, checks = steps[depth]
                atoms = iter(atoms if key is None else atoms.get(key(env), ()))
                break
        else:
            if not stack:
                return
            atoms, position, binds, checks = stack.pop()
            depth -= 1


def _new_instances(rules: list, fresh: _AtomIndex, index: _AtomIndex,
                   constants: Tuple[str, ...]) -> Iterable[Clause]:
    """The instances of ``rules``, each a :class:`_Rule`, that read an atom
    of ``fresh`` and otherwise only atoms of ``index`` (which holds
    ``fresh`` too).

    For each body position whose signature ``fresh`` holds, the rule is
    joined with that body atom matched in ``fresh`` first, then the
    others, fewest indexed atoms first, in ``index``; a body that matches
    at several positions is built once.  Each order runs the rule's
    compiled plan for it, so the join binds slots and reads bucket keys
    without looking at a term.  Variables only in the head range over
    every constant.
    """
    for rule in rules:
        signatures, env = rule.signatures, rule.env
        predicate, head_args = rule.head
        taken = set()
        matched = list(rule.body)
        for i, signature in enumerate(signatures):
            if not fresh.size(signature):
                continue
            order = (i, *sorted((j for j in range(len(signatures)) if j != i),
                                key=lambda j: index.size(signatures[j])))
            steps = [(position, (index if n else fresh).source(sig, fixed),
                      key, binds, checks)
                     for n, (position, sig, fixed, key, binds, checks)
                     in enumerate(rule.plan(order))]
            for _ in _join(steps, env, matched):
                instance_body = tuple(matched)
                if instance_body in taken:
                    continue
                taken.add(instance_body)
                for values in itertools.product(constants,
                                                repeat=rule.head_width):
                    env[rule.head_only] = values
                    yield Clause(head=Atom(predicate, head_args(env)),
                                 body_atoms=instance_body)


def _name_atoms(atoms: Iterable[Atom]) -> str:
    """The first five atoms, then how many more there are."""
    names = [str(a) for a in atoms]
    more = len(names) - 5
    return ", ".join(names[:5]) + (f" +{more} more" if more > 0 else "")


class LfpResult(NamedTuple):
    """A reached fixpoint plus the number of steps that built it.

    ``iterations`` is the k for which k applications of the consequence
    operator to the bottom interpretation produce the fixpoint (the k+1-th
    application confirms it).  ``interpretation`` is a read-only view,
    left out of the repr.  A result is a tuple.
    """

    interpretation: Mapping[Atom, SemiringValue]
    iterations: int

    def __repr__(self):
        return f"LfpResult(iterations={self.iterations!r})"


def default_max_iters(program: Program) -> int:
    """Ten rounds per atom of the universe, plus ten."""
    return _default_cap(atom_universe(program))


def _default_cap(universe: Tuple[Atom, ...]) -> int:
    """:func:`default_max_iters` for a program with this atom universe."""
    return 10 * len(universe) + 10


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
    applications.  The cap counts the round that confirms the fixpoint,
    so a result reporting ``iterations`` k needs a cap of at least k + 1;
    at a cap of k the error says that the last round changed nothing.
    """
    _check_universe(program)
    universe = atom_universe(program)
    if max_iters is None:
        max_iters = _default_cap(universe)
    if type(max_iters) is not int:
        raise InputError(f"max_iters must be an integer, got {max_iters!r}")
    if max_iters < 1:
        raise InputError("max_iters must be at least 1")
    spec, constants = program.spec, program.constants
    plus, zero = spec._plus, spec._zero
    interp = dict.fromkeys(universe, zero)
    rules = [_Rule(clause) for clause in program.clauses if clause.body_atoms]
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
            return LfpResult(
                interpretation=MappingProxyType(_boxed(spec, interp)),
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
    else:
        message += (f"; the last round changed nothing, so a cap of "
                    f"{max_iters + 1} returns the fixpoint")
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

_TERM = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT = re.compile(_TERM)
_VALUE = re.compile(r"inf|true|false|[0-9]+(\.[0-9]+)?|[0-9]+/[0-9]+")
# One well-formed atom and the blanks around it: the predicate, then the
# terms (None without parentheses) with the blanks around them stripped.
_ATOM = re.compile(rf"\s*([a-z][A-Za-z0-9_]*)\s*"
                   rf"(?:\(\s*({_TERM}(?:\s*,\s*{_TERM})*)\s*\))?\s*")
_COMMA = re.compile(r"\s*,\s*")
# A directive's name: '#' and the whole word after it.
_DIRECTIVE = re.compile(r"#\w*")
# What the scan rejects is diagnosed against these: an atom read loosely,
# with anything between the predicate's parenthesis and the last one, and
# a parenthesised group with no parenthesis inside it.
_LOOSE_ATOM = re.compile(r"([a-z][A-Za-z0-9_]*)\s*(?:\((.*)\))?", re.DOTALL)
_GROUP = re.compile(r"\([^()]*\)")


def _matched_atom(match: re.Match) -> Atom:
    predicate, terms = match.groups()
    return Atom(predicate, () if terms is None else tuple(_COMMA.split(terms)))


def parse_atom(text: str, line_no: Optional[int] = None) -> Atom:
    """Parse ``pred`` or ``pred(t1,...,tn)`` with constant/variable terms."""
    match = _ATOM.fullmatch(text)
    if match is None:
        _fault([text.strip()], line_no)
    return _matched_atom(match)


def _atoms(text: str, line_no: Optional[int]) -> Tuple[Atom, ...]:
    """Parse comma-separated atoms, one ``_ATOM`` match each."""
    atoms, pos, end = [], 0, len(text)
    while True:
        match = _ATOM.match(text, pos)
        if match is None:
            break
        atoms.append(_matched_atom(match))
        pos = match.end()
        if pos == end:
            return tuple(atoms)
        if text[pos] != ",":
            break
        pos += 1
    _fault(_top_level(text), line_no)


def _top_level(text: str) -> Optional[list]:
    """``text`` split at the commas outside parentheses, each part stripped,
    or None if its parentheses do not balance.

    Groups are blanked innermost first, one regex pass per depth, and
    what no pass could blank is unbalanced.
    """
    blanked, count = text, 1
    while count:
        blanked, count = _GROUP.subn(lambda group: "_" * len(group[0]),
                                     blanked)
    if "(" in blanked or ")" in blanked:
        return None
    parts, start = [], 0
    for piece in blanked.split(","):
        parts.append(text[start:start + len(piece)].strip())
        start += len(piece) + 1
    return parts


def _fault(parts: Optional[list], line_no: Optional[int]) -> NoReturn:
    """Raise the error of the first of ``parts`` (stripped atom texts) that
    is not an atom, or the unbalanced parentheses that ``None`` stands for.
    An atom's text that balances, but whose predicate's parenthesis closes
    before its end (``p(a) q(b)``), is malformed."""
    if parts is None:
        raise ParseError("unbalanced parentheses", line_no)
    for part in parts:
        match = _LOOSE_ATOM.fullmatch(part)
        if match is None:
            raise ParseError(f"malformed atom {part!r}", line_no)
        if match[2] is None:
            continue
        terms = _top_level(match[2])
        if terms is None:
            if _top_level(part) is None:
                raise ParseError("unbalanced parentheses", line_no)
            raise ParseError(f"malformed atom {part!r}", line_no)
        for term in terms:
            if "(" in term:
                raise FunctionSymbolError(
                    f"term {term!r} uses a function symbol; only constants "
                    f"and variables are supported", line_no)
            if not _IDENT.fullmatch(term):
                raise ParseError(f"malformed term {term!r}", line_no)
    # Not reached: _ATOM accepts every text that passes the checks above.
    raise ParseError(f"malformed atom {', '.join(parts)!r}", line_no)


def _parse_value(raw: str, spec: SemiringSpec) -> SemiringValue:
    if raw in ("inf", "true", "false") or "/" in raw or "." in raw:
        return spec.value(raw)
    try:
        number = int(raw)
    except ValueError as exc:  # more digits than int() reads
        raise InputError(str(exc)) from exc
    return spec.value(number)


def _parse_clause(text: str, spec: SemiringSpec, line_no: int) -> Clause:
    head_text, arrow, body_text = text.partition(":-")
    head = parse_atom(head_text, line_no)
    if not arrow:
        return Clause(head=head)
    body_text = body_text.strip()
    if not body_text:
        raise ParseError("empty body after ':-'", line_no)
    if _VALUE.fullmatch(body_text):
        return Clause(head=head, body_value=_parse_value(body_text, spec))
    return Clause(head=head, body_atoms=_atoms(body_text, line_no))


def parse_goal(text: str) -> Tuple[Atom, ...]:
    """Parse a goal: one or more comma-separated ground atoms."""
    stripped = text.strip().rstrip(".")
    if stripped.startswith(":-"):
        stripped = stripped[2:].strip()
    if not stripped:
        raise ParseError("empty goal")
    return _ground_goal(_atoms(stripped, None))


def parse_program(text: str) -> Program:
    """Parse program text into an (ungrounded) :class:`Program`.

    Requires one ``#semiring`` and one ``#constants`` directive, each
    named by the whole word after ``#``; the latter declares the Herbrand
    universe and must cover every constant used in the clauses.
    """
    spec: Optional[SemiringSpec] = None
    constants: Tuple[str, ...] = ()
    first_line: Dict[str, int] = {}
    pending: list = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.partition("%")[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            directive = _DIRECTIVE.match(line)[0]
            if directive not in ("#semiring", "#constants"):
                raise ParseError(f"unknown directive {line.split()[0]!r}", line_no)
            if directive in first_line:
                raise ParseError(f"{directive} given twice (first on "
                                 f"line {first_line[directive]})", line_no)
            first_line[directive] = line_no
            body = line[len(directive):].strip().rstrip(".").strip()
            if directive == "#semiring":
                try:
                    spec = lookup(body)
                except InputError as exc:
                    raise ParseError(str(exc), line_no) from None
                continue
            names = [n.strip() for n in body.split(",") if n.strip()]
            for name in names:
                if not _is_constant(name):
                    raise ParseError(f"bad constant {name!r}", line_no)
            constants = tuple(names)
            continue
        if not line.endswith("."):
            raise ParseError("clause does not end with '.'", line_no)
        pending.append((line[:-1].strip(), line_no))

    if spec is None:
        raise ParseError("program is missing a #semiring directive")
    if "#constants" not in first_line:
        raise ParseError("program is missing a #constants directive")

    clauses, declared = [], set(constants)
    for clause_text, line_no in pending:
        try:
            clause = _parse_clause(clause_text, spec, line_no)
        except ParseError:
            raise
        except InputError as exc:  # a value outside the carrier, or too long
            raise ParseError(str(exc), line_no) from exc
        for atom in clause.atoms():
            for term in atom.args:
                if term not in declared and not is_variable(term):
                    raise ParseError(
                        f"constant {term!r} is not declared in #constants",
                        line_no)
        clauses.append(clause)

    return Program(spec=spec, clauses=clauses, constants=constants)
