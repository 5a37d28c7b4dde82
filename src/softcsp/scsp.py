"""Soft constraint satisfaction problems and their solution semantics.

A problem is a set of constraints over one semiring plus a set of
*interface* names.  Its solution combines every constraint and hides all
non-interface names, leaving a constraint over (at most) the interface;
the *best level of consistency* hides everything and leaves the single
best value the problem can achieve: the ``+`` of the solution's rows.

:func:`solve` never combines every constraint into one table.  Hiding
distributes over combination (``hide(x, c1 x c2) = c1 x hide(x, c2)``
when ``x`` is not in ``c1``'s support), so it eliminates the
non-interface names one at a time, combining only the constraints that
mention the name before hiding it (bucket elimination), and its tables
are as wide as the elimination order's buckets.

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

:func:`problem_from_json` reads each table once, through the one table
builder of :mod:`softcsp.constraints`: a row's assignment is looked up
among the offsets of its table's product order, and each distinct value
is coerced once per problem.  A faulty table is read again only to name
its fault: its rows, one at a time, for a malformed or repeated row, and
if none is, the builder's own error is raised.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from typing import Any, FrozenSet, Tuple

from .constraints import (Name, SoftConstraint, _table, check_domain, combine,
                          hide, unit_constraint)
from .errors import (FormatError, Frozen, InputError, InstanceMismatchError,
                     fields, load_json)
from .semiring import SemiringSpec, SemiringValue, lookup


class SCSPProblem(Frozen):
    __slots__ = ("spec", "domain", "constraints", "interface")

    def __init__(self, spec: SemiringSpec, domain: Tuple[Any, ...],
                 constraints: Tuple[SoftConstraint, ...],
                 interface: FrozenSet[Name]):
        # Own copies, so the caller's lists cannot change the problem.
        self._init(spec, check_domain(domain), tuple(constraints),
                   frozenset(interface))
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

    Names are eliminated one bucket at a time (bucket elimination): the
    bucket of a name is the constraints that mention it, and hiding
    distributes over combination, so the bucket alone is combined and the
    name hidden from the result, which rejoins the pool.  The next name
    is the one whose bucket has the fewest names in all, ties broken by
    name.  What is left is folded into the unit constraint over the
    problem domain, so the rows follow its order.  The result's minimal
    support is a subset of the interface.
    """
    pool = sorted(problem.constraints, key=lambda c: c.support)
    names = sorted({n for c in pool for n in c.support} - problem.interface)
    while names:
        name = min(names, key=lambda x: (
            len({n for c in pool if x in c.support for n in c.support}), x))
        names.remove(name)
        bucket = [c for c in pool if name in c.support]
        pool = [c for c in pool if name not in c.support]
        pool.append(hide(name, functools.reduce(combine, bucket)))
    acc = unit_constraint(problem.spec, problem.domain)
    for c in sorted(pool, key=lambda c: c.support):
        acc = combine(acc, c)
    return acc


def best_level(solution: SoftConstraint) -> SemiringValue:
    """The best level of consistency from :func:`solve`'s result: the
    ``+`` of its rows, which is what hiding every name left in it gives."""
    spec = solution.spec
    return SemiringValue(spec.key, functools.reduce(spec._plus, solution.rows))


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
    dom = check_domain(domain)
    if not isinstance(interface, list) or not all(isinstance(n, str) for n in interface):
        raise FormatError('"interface" must be a list of names')
    if not isinstance(raw_constraints, list):
        raise FormatError('"constraints" must be a list')

    offsets, payloads = {}, {}  # shared by the tables (see _table)
    constraints = [_constraint(spec, dom, entry, f"constraints[{index}]",
                               offsets, payloads)
                   for index, entry in enumerate(raw_constraints)]
    return SCSPProblem(spec=spec, domain=dom, constraints=constraints,
                       interface=interface)


def _constraint(spec: SemiringSpec, dom: tuple, entry: Any, where: str,
                offsets: dict, payloads: dict) -> SoftConstraint:
    """The constraint of one entry of ``"constraints"``, its rows' JSON
    shape checked in bulk.  A malformed row, or a repeated assignment,
    raises before any fault of the table."""
    support, rows = fields(entry, where, ("support", "rows"))
    if not isinstance(support, list) or not all(isinstance(n, str) for n in support):
        raise FormatError(f"{where}.support must be a list of names")
    if not isinstance(rows, list):
        raise FormatError(f"{where}.rows must be a list")
    try:
        assigns, values = [*map(_ASSIGN, rows)], [*map(_VALUE, rows)]
        shaped = ({*map(type, rows)} <= {dict} and {*map(type, assigns)} <= {list}
                  and _SCALARS.issuperset(map(type, itertools.chain(*assigns))))
    except (KeyError, TypeError):
        shaped = False  # a row that is no JSON object
    if not shaped:
        _explain_rows(rows, where)  # names the malformed row
    try:
        return _table(spec, dom, support, assigns, values, offsets, payloads)
    except InputError as exc:
        _explain_rows(rows, where)  # a row fault is named first
        raise FormatError(f"{where}: {exc}") from exc


# A row's assignment and value; a JSON scalar is one of these types.
_ASSIGN, _VALUE = operator.itemgetter("assign"), operator.itemgetter("value")
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _explain_rows(rows: list, where: str) -> None:
    """Raise the error of the first row of ``rows`` that is malformed or
    repeats an assignment, if there is one; the rows are read again, one
    at a time, only to name that fault."""
    seen = set()
    for index, row in enumerate(rows):
        at = f"{where}.rows[{index}]"
        assign, _ = fields(row, at, ("assign", "value"))
        if not isinstance(assign, list):
            raise FormatError(f"{at}.assign must be a list")
        _check_scalars(assign, f"{at}.assign")
        if tuple(assign) in seen:
            raise FormatError(f"{at}: duplicate assignment {assign!r}")
        seen.add(tuple(assign))


def load_problem(path: str | os.PathLike[str]) -> SCSPProblem:
    return load_json(path, problem_from_json)
