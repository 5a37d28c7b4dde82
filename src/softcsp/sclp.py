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

:func:`lfp` runs exactly those rounds, but does per round only the work
that can change a value (semi-naive evaluation).  It indexes the ground
program once: clauses by head, and for each atom the heads of the clauses
that read it.  It drops dead clauses: a clause whose value is zero, or
whose body reads an atom that heads no clause (such an atom stays at zero
in every round), adds zero in every round, because zero absorbs the
product and is the unit of the sum.  The first round evaluates every head
with a live clause; each later round only the heads that read an atom
changed by the round before, since every other head would be recomputed
from the same values.  So after k rounds the interpretation is still the
k-th naive iterate, the round count and the iteration cap mean what they
mean for :func:`tp_step`, and every atom of the universe, dead ones
included, is in the result.

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
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from .errors import (
    EmptyUniverseError,
    FunctionSymbolError,
    InputError,
    NonConvergenceError,
    ParseError,
)
from .semiring import SemiringSpec, SemiringValue, format_value, lookup, sr_plus, sr_times


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: Tuple[str, ...] = ()

    def __str__(self):
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(self.args)})"


def is_variable(term: str) -> bool:
    return bool(term) and (term[0].isupper() or term[0] == "_")


@dataclass(frozen=True)
class Clause:
    """``head :- body`` with the body split into atoms and/or a value.

    Facts carry their value in ``body_value`` and have no body atoms; an
    empty body (no atoms, no value) is the unconditional best-value fact,
    because the product over zero atoms is the multiplicative unit.
    """

    head: Atom
    body_atoms: Tuple[Atom, ...] = ()
    body_value: Optional[SemiringValue] = None

    def __post_init__(self):
        if self.body_value is not None and self.body_atoms:
            raise ValueError("a clause body is either atoms or a value, not both")

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


Interpretation = Dict[Atom, SemiringValue]


def _substitute_atom(atom: Atom, binding: Dict[str, str]) -> Atom:
    return Atom(atom.predicate,
                tuple(binding.get(t, t) for t in atom.args))


def ground(program: Program) -> Program:
    """Replace every clause by all instantiations of its variables."""
    clauses = []
    for clause in program.clauses:
        variables = sorted(clause.variables())
        if not variables:
            clauses.append(clause)
            continue
        if not program.constants:
            raise EmptyUniverseError(
                f"clause '{clause}' has variables but the constant universe "
                f"is empty"
            )
        for values in itertools.product(program.constants, repeat=len(variables)):
            binding = dict(zip(variables, values))
            clauses.append(Clause(
                head=_substitute_atom(clause.head, binding),
                body_atoms=tuple(_substitute_atom(a, binding)
                                 for a in clause.body_atoms),
                body_value=clause.body_value,
            ))
    return Program(spec=program.spec, clauses=tuple(clauses),
                   constants=program.constants)


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
                interp: Interpretation) -> SemiringValue:
    """The sum over ``clauses`` of the product of their body values."""
    zero = spec.zero
    value = zero
    for clause in clauses:
        if clause.body_value is not None:
            contribution = clause.body_value
        else:
            contribution = spec.one
            for body_atom in clause.body_atoms:
                contribution = sr_times(spec, contribution,
                                        interp.get(body_atom, zero))
        value = sr_plus(spec, value, contribution)
    return value


def tp_step(program: Program, interp: Interpretation) -> Interpretation:
    """One application of the immediate-consequence operator.

    Each ground atom becomes the sum over its defining clauses of the
    product of the body values under ``interp``; atoms with no defining
    clause stay at zero.  ``program`` must be ground.
    """
    by_head = _by_head(program)
    return {atom: _head_value(program.spec, by_head.get(atom, ()), interp)
            for atom in atom_universe(program)}


def _live_clauses(spec: SemiringSpec,
                  by_head: Dict[Atom, list]) -> Dict[Atom, list]:
    """The clauses that are not dead, by head; heads left with none drop out.

    A clause is dead if its value is zero or it reads an atom that heads no
    clause.  Such an atom is zero in the bottom interpretation and every
    round keeps it there, so a dead clause adds zero in every round and
    dropping it is exact.
    """
    zero = spec.zero
    return {head: kept for head, clauses in by_head.items()
            if (kept := [c for c in clauses if c.body_value != zero
                         and all(a in by_head for a in c.body_atoms)])}


def _changes(spec: SemiringSpec, live: Dict[Atom, list],
             heads: Iterable[Atom], interp: Interpretation) -> Interpretation:
    """The new values of ``heads`` under ``interp`` that differ from it."""
    changed = {}
    for head in heads:
        value = _head_value(spec, live[head], interp)
        if value != interp[head]:
            changed[head] = value
    return changed


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

    The rounds are those of iterating :func:`tp_step`, but clauses with a
    zero value or reading an atom that heads no clause are dropped, the
    first round evaluates only heads with a clause left and each later one
    only the heads reading an atom the round before changed (see the
    module docstring), so after k rounds the interpretation is
    T_P^k(bottom), in dump order.

    Raises :class:`NonConvergenceError`, carrying the last two
    interpretations and naming the atoms that differ between them, if no
    fixpoint is found within ``max_iters`` applications.
    """
    if max_iters is None:
        max_iters = default_max_iters(program)
    if max_iters < 1:
        raise InputError("max_iters must be at least 1")
    spec = program.spec
    interp = bottom(program)
    # Heads outside the universe are left out, as tp_step leaves them out.
    live = _live_clauses(spec, {head: clauses for head, clauses in
                                _by_head(program).items() if head in interp})
    readers: Dict[Atom, set] = {}
    for head, clauses in live.items():
        for clause in clauses:
            for atom in clause.body_atoms:
                readers.setdefault(atom, set()).add(head)

    heads: Iterable[Atom] = live
    for step in range(max_iters):
        changed = _changes(spec, live, heads, interp)
        if not changed:
            return LfpResult(interpretation=interp, iterations=step)
        interp.update(changed)
        heads = {h for atom in changed for h in readers.get(atom, ())}
    changed = _changes(spec, live, heads, interp)
    message = f"no fixpoint within {max_iters} iterations"
    if changed:
        message += ("; still changing: "
                    + _name_atoms(a for a in interp if a in changed))
    raise NonConvergenceError(message, previous=interp,
                              last={**interp, **changed})


def eval_goal(program: Program, goal: Optional[Iterable[Atom]] = None,
              max_iters: Optional[int] = None) -> SemiringValue:
    """Ground, compute the fixpoint, and multiply the goal atoms' values.

    Atoms over unknown predicates or constants evaluate to zero, matching
    the bottom default.  The empty goal is the empty product, i.e. one.
    """
    goal_atoms = tuple(goal or ())
    for atom in goal_atoms:
        bad = [t for t in atom.args if is_variable(t)]
        if bad:
            raise ParseError(f"goal atom {atom} is not ground ({bad[0]} is a variable)")
    grounded = ground(program)
    result = lfp(grounded, max_iters=max_iters)
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
    atoms = tuple(parse_atom(p) for p in _split_top(stripped, None))
    for atom in atoms:
        for term in atom.args:
            if is_variable(term):
                raise ParseError(f"goal atom {atom} is not ground "
                                 f"({term} is a variable)")
    return atoms


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
                if not _IDENT.match(name) or is_variable(name):
                    raise ParseError(f"bad constant {name!r}", line_no)
            constants = tuple(dict.fromkeys(names))
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

    return Program(spec=spec, clauses=tuple(clauses), constants=constants)
