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

:func:`problem_from_json` reads each row once: a row's assignment is
looked up among the offsets of its table's product order, and each
distinct value is coerced once per problem.  Only a document with a
fault is read again, row by row, to name the row and the fault.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from .constraints import (Name, SoftConstraint, _rows, check_domain, combine,
                          hide, make_constraint, unit_constraint)
from .errors import FormatError, InputError, InstanceMismatchError, fields, load_json
from .semiring import SemiringSpec, SemiringValue, lookup


@dataclass(frozen=True)
class SCSPProblem:
    spec: SemiringSpec
    domain: Tuple[Any, ...]
    constraints: Tuple[SoftConstraint, ...]
    interface: FrozenSet[Name]

    def __post_init__(self):
        # Own copies, so the caller's lists cannot change the problem.
        object.__setattr__(self, "domain", check_domain(self.domain))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "interface", frozenset(self.interface))
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


def _check_scalars(values: list, where: Callable[[], str]) -> None:
    # where() names the list; it is formatted only for a fault.
    for index, value in enumerate(values):
        if not isinstance(value, (str, int, float, type(None))):
            raise FormatError(f"{where()}[{index}] must be a JSON scalar, "
                              f"got {value!r}")


def problem_from_json(data: Any) -> SCSPProblem:
    """Validate and build a problem from parsed JSON."""
    semiring, domain, interface, raw_constraints = fields(
        data, "problem file", ("semiring", "domain", "interface", "constraints"))
    spec = lookup(semiring)
    if not isinstance(domain, list) or not domain:
        raise FormatError('"domain" must be a non-empty list')
    _check_scalars(domain, lambda: "domain")
    dom = check_domain(domain)
    if not isinstance(interface, list) or not all(isinstance(n, str) for n in interface):
        raise FormatError('"interface" must be a list of names')
    if not isinstance(raw_constraints, list):
        raise FormatError('"constraints" must be a list')

    constraints = _bulk_constraints(spec, dom, raw_constraints)
    if constraints is None:
        constraints = _explain(spec, domain, raw_constraints)
    return SCSPProblem(spec=spec, domain=dom, constraints=constraints,
                       interface=interface)


# A row's assignment and value; a JSON scalar is one of these types.
_ROW = operator.itemgetter("assign", "value")
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _bulk_constraints(spec: SemiringSpec, domain: Tuple[Any, ...],
                      raw_constraints: list) -> Optional[list]:
    """The constraints of ``raw_constraints``, or None if any is faulty.

    Each row's assignment is looked up, as a tuple, in a map from every
    assignment to its offset in the canonical product order, made once
    per order of the names in a support.  A table is total and free of
    duplicates exactly when its |D|^k rows have |D|^k distinct offsets.
    Each distinct value is coerced once per problem, keyed by its type
    too, so ``1``, ``1.0`` and ``true`` stay apart.  The rules are those
    :func:`_explain` applies row by row.
    """
    offsets: Dict[Tuple[int, ...], Dict[tuple, int]] = {}
    payloads: Dict[Tuple[type, Any], Any] = {}
    constraints = []
    try:
        for entry in raw_constraints:
            if type(entry) is not dict:
                return None
            support, rows = entry["support"], entry["rows"]
            if (type(support) is not list or type(rows) is not list
                    or {*map(type, support)} - {str}
                    or len(set(support)) != len(support)
                    or {*map(type, rows)} - {dict}):
                return None
            count = len(domain) ** len(support)
            if len(rows) != count:
                return None
            canonical = tuple(sorted(support))
            ranks = tuple(map(canonical.index, support))
            offset = offsets.get(ranks)
            if offset is None:
                # A table whose payloads are their own offsets, read in
                # the given order of its names.
                numbered = SoftConstraint(spec, domain, canonical, range(count))
                offset = offsets[ranks] = dict(zip(
                    itertools.product(domain, repeat=len(support)),
                    _rows(numbered, tuple(support), domain)))
            assigns, values = zip(*map(_ROW, rows))
            if ({*map(type, assigns)} - {list} or not _SCALARS.issuperset(
                    map(type, itertools.chain.from_iterable(assigns)))):
                return None
            at = [*map(offset.__getitem__, map(tuple, assigns))]
            keys = [*zip(map(type, values), values)]
            for key in {*keys}.difference(payloads):
                payloads[key] = spec._payload(key[1])
            table = [*map(payloads.__getitem__, keys)]
            if at != [*range(count)]:
                # A duplicate leaves some offset out: a KeyError here.
                table = map(dict(zip(at, table)).__getitem__, range(count))
            constraints.append(SoftConstraint(spec, domain, canonical, table))
    except (KeyError, TypeError, InputError):
        # A row that lacks a key or assigns outside the domain, or a value
        # that is unhashable or outside the carrier.
        return None
    return constraints


def _explain(spec: SemiringSpec, domain: list, raw_constraints: list) -> list:
    """Read ``raw_constraints`` one row at a time: the constraints, or the
    error of the first fault."""
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
            if not isinstance(row, dict) or "assign" not in row or "value" not in row:
                fields(row, f"{where}.rows[{row_index}]", ("assign", "value"))  # raises
            assign = row["assign"]
            if not isinstance(assign, list):
                raise FormatError(f"{where}.rows[{row_index}].assign must be a list")
            _check_scalars(assign, lambda: f"{where}.rows[{row_index}].assign")
            key = tuple(assign)
            if key in table:
                raise FormatError(f"{where}.rows[{row_index}]: duplicate "
                                  f"assignment {assign!r}")
            table[key] = row["value"]
        try:
            constraints.append(make_constraint(spec, domain, support, table))
        except InputError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return constraints


def load_problem(path: str | Path) -> SCSPProblem:
    return load_json(path, problem_from_json)
