"""Soft constraint satisfaction problems and their solution semantics.

A problem is a set of constraints over one semiring plus a set of
*interface* names.  Its solution combines every constraint and hides all
non-interface names, leaving a constraint over (at most) the interface;
the *best level of consistency* hides everything and leaves the single
best value the problem can achieve.

The JSON problem format::

    {
      "semiring": "wcsp",
      "domain": ["red", "blue", "green"],
      "interface": ["x", "y"],
      "constraints": [
        {"support": ["x", "y"],
         "rows": [{"assign": ["red", "red"], "value": "inf"}, ...]}
      ]
    }

``"inf"`` encodes the weighted infinity.  Tables must be total.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, FrozenSet, Tuple

from .constraints import (Name, SoftConstraint, check_domain, combine, hide,
                          make_constraint, unit_constraint)
from .errors import FormatError, InputError, InstanceMismatchError, fields, load_json
from .semiring import SemiringSpec, SemiringValue, lookup


@dataclass(frozen=True)
class SCSPProblem:
    spec: SemiringSpec
    domain: Tuple[Any, ...]
    constraints: Tuple[SoftConstraint, ...]
    interface: FrozenSet[Name]

    def __post_init__(self):
        for c in self.constraints:
            if c.spec.key != self.spec.key:
                raise InstanceMismatchError(
                    f"constraint over {c.spec.key!r} in a {self.spec.key!r} "
                    f"problem"
                )
            if set(c.domain) != set(self.domain):
                raise InstanceMismatchError(
                    "constraint domain differs from the problem domain"
                )


def solve(problem: SCSPProblem) -> SoftConstraint:
    """Combine all constraints, then hide every non-interface name.

    Hiding proceeds in ascending name order; by the hiding-commutation law
    the order cannot change the result.  The result's minimal support is a
    subset of the interface.
    """
    # Fold pairwise left-to-right over constraints sorted by support; the
    # order is semantically irrelevant, sorting just pins intermediates.
    acc = unit_constraint(problem.spec, problem.domain)
    for c in sorted(problem.constraints, key=lambda c: c.support):
        acc = combine(acc, c)
    for name in sorted(set(acc.support) - set(problem.interface)):
        acc = hide(name, acc)
    return acc


def best_level(solution: SoftConstraint) -> SemiringValue:
    """The best level of consistency from :func:`solve`'s result: hide
    the names left in it."""
    for name in sorted(solution.support):
        solution = hide(name, solution)
    return solution.table[()]


def blevel(problem: SCSPProblem) -> SemiringValue:
    """The best level of consistency: the solution with every name hidden."""
    return best_level(solve(problem))


def _check_scalars(values: list, where: str) -> None:
    for index, value in enumerate(values):
        if not isinstance(value, (str, int, float, type(None))):
            raise FormatError(f"{where}[{index}] must be a JSON scalar, "
                              f"got {value!r}")


def problem_from_json(data: Any) -> SCSPProblem:
    """Validate and build a problem from parsed JSON."""
    semiring, domain, interface, raw_constraints = fields(
        data, "problem file", ("semiring", "domain", "interface", "constraints"))
    spec = lookup(semiring)
    if not isinstance(domain, list) or not domain:
        raise FormatError('"domain" must be a non-empty list')
    _check_scalars(domain, "domain")
    check_domain(domain)
    if not isinstance(interface, list) or not all(isinstance(n, str) for n in interface):
        raise FormatError('"interface" must be a list of names')
    if not isinstance(raw_constraints, list):
        raise FormatError('"constraints" must be a list')

    constraints = []
    for index, entry in enumerate(raw_constraints):
        where = f"constraints[{index}]"
        support, rows = fields(entry, where, ("support", "rows"))
        if not isinstance(support, list) or not all(isinstance(n, str) for n in support):
            raise FormatError(f'{where}.support must be a list of names')
        if not isinstance(rows, list):
            raise FormatError(f"{where}.rows must be a list")
        table = {}
        for row_index, row in enumerate(rows):
            row_where = f"{where}.rows[{row_index}]"
            assign, value = fields(row, row_where, ("assign", "value"))
            if not isinstance(assign, list):
                raise FormatError(f"{row_where}.assign must be a list")
            _check_scalars(assign, f"{row_where}.assign")
            key = tuple(assign)
            if key in table:
                raise FormatError(f"{row_where}: duplicate "
                                  f"assignment {assign!r}")
            table[key] = value
        try:
            constraints.append(make_constraint(spec, domain, support, table))
        except InputError as exc:
            raise FormatError(f"{where}: {exc}") from exc

    return SCSPProblem(spec=spec, domain=tuple(domain),
                       constraints=tuple(constraints),
                       interface=frozenset(interface))


def load_problem(path: str | Path) -> SCSPProblem:
    return load_json(path, problem_from_json)
