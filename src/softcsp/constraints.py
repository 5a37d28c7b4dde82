"""Soft constraints: finite-support tables from name assignments to values.

A soft constraint assigns a semiring value to every assignment of a finite
set of *names* (variables) over a finite domain.  Constraints over one
semiring instance themselves form a c-semiring: pointwise ``+`` keeps the
better of two constraints, pointwise ``x`` combines them, and two extra
operators manage names explicitly:

* ``hide(x, c)`` projects a name out of ``c`` by summing (best-choosing)
  over its domain values;
* ``permute(rho, c)`` relabels the names of ``c`` through a finite
  permutation;
* ``fusion(x, y, ...)`` is the constraint that is best exactly where two
  names agree.

Constraints are dense tables over their sorted *declared* support, with
rows in product order over the domain.  Every operator reads rows by
position through one reader, ``_rows``, in its first operand's domain
order.  Two constraints are equal when they agree on every assignment of
the union of their supports.  The *minimal* support (the names a table
genuinely depends on) is computed on demand; names the table is constant
in do not count.  Names are plain strings, totally ordered lexicographically.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, FrozenSet, Iterable, Mapping, Tuple

from .errors import (
    DegenerateFusionError,
    IncompleteTableError,
    InputError,
    InstanceMismatchError,
    InvalidPermutationError,
    UnboundNameError,
)
from .semiring import SemiringSpec, SemiringValue, sr_plus, sr_times

Name = str


class Permutation:
    """A finite permutation of names: bijective on its (finite) kernel."""

    def __init__(self, mapping: Mapping[Name, Name]):
        moved = {src: dst for src, dst in mapping.items() if src != dst}
        targets = list(moved.values())
        if len(set(targets)) != len(targets) or set(targets) != set(moved):
            raise InvalidPermutationError(
                f"mapping {dict(mapping)!r} is not a bijection on its kernel"
            )
        self._map: Dict[Name, Name] = moved

    @classmethod
    def identity(cls) -> "Permutation":
        return cls({})

    @classmethod
    def from_pairs(cls, mapping: Mapping[Name, Name]) -> "Permutation":
        """Complete a partial injective renaming into a permutation.

        Every maximal chain ``a -> b -> ... -> e`` of the given mapping is
        closed into a cycle by sending its end back to its start, so e.g.
        ``{v: x, w: y}`` becomes the pair of swaps ``(v x)(w y)``.
        """
        moved = {s: d for s, d in mapping.items() if s != d}
        if len(set(moved.values())) != len(moved):
            raise InvalidPermutationError(
                f"mapping {dict(mapping)!r} is not injective"
            )
        full = dict(moved)
        starts = sorted(set(moved) - set(moved.values()))
        for start in starts:
            end = start
            while end in moved:
                end = moved[end]
            full[end] = start
        return cls(full)

    @property
    def kernel(self) -> FrozenSet[Name]:
        return frozenset(self._map)

    def apply(self, name: Name) -> Name:
        return self._map.get(name, name)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: ``compose(p1, p2)(x) == p1(p2(x))``."""
        names = set(self._map) | set(other._map)
        return Permutation({n: self.apply(other.apply(n)) for n in names})

    def inverse(self) -> "Permutation":
        return Permutation({dst: src for src, dst in self._map.items()})

    def __eq__(self, other):
        return isinstance(other, Permutation) and self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __repr__(self):
        return f"Permutation({self._map!r})"


@dataclass(frozen=True, eq=False)
class SoftConstraint:
    """A dense table from support assignments to semiring values.

    ``support`` is the declared support, kept sorted; ``table`` maps a
    value tuple per support name (in support order) to a tagged value,
    lists its rows in product order over ``domain``, and is stored as a
    read-only copy.  Equality is semantic: two constraints over the same
    instance and domain set are equal when :meth:`evaluate` gives equal
    payloads on every assignment of the union of their supports.
    """

    spec: SemiringSpec
    domain: Tuple[Any, ...]
    support: Tuple[Name, ...]
    table: Mapping[Tuple[Any, ...], SemiringValue] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    def evaluate(self, assignment: Mapping[Name, Any]) -> SemiringValue:
        """Look up the value for ``assignment``.

        The assignment must bind every declared support name; names beyond
        the support never affect the result.
        """
        key = []
        for name in self.support:
            if name not in assignment:
                raise UnboundNameError(
                    f"assignment does not bind support name {name!r}"
                )
            value = assignment[name]
            if value not in self.domain:
                raise InputError(
                    f"value {value!r} for name {name!r} is outside the "
                    f"domain {list(self.domain)!r}"
                )
            key.append(value)
        return self.table[tuple(key)]

    def minimal_support(self) -> FrozenSet[Name]:
        """The names the table genuinely depends on.

        A declared name whose slices are constant (the table never changes
        when only that name varies) is dropped.
        """
        real = set()
        for idx, name in enumerate(self.support):
            groups: Dict[Tuple[Any, ...], SemiringValue] = {}
            for key, value in self.table.items():
                rest = key[:idx] + key[idx + 1:]
                seen = groups.get(rest)
                if seen is None:
                    groups[rest] = value
                elif seen.payload != value.payload:
                    real.add(name)
                    break
        return frozenset(real)

    def __eq__(self, other):
        if not isinstance(other, SoftConstraint):
            return NotImplemented
        if self.spec.key != other.spec.key:
            raise InstanceMismatchError(
                f"cannot compare constraints over {self.spec.key!r} and "
                f"{other.spec.key!r}"
            )
        if set(self.domain) != set(other.domain):
            return False
        names = sorted(set(self.support) | set(other.support))
        for key in itertools.product(self.domain, repeat=len(names)):
            eta = dict(zip(names, key))
            if self.evaluate(eta).payload != other.evaluate(eta).payload:
                return False
        return True

    __hash__ = None

    def __repr__(self):
        return (f"SoftConstraint({self.spec.key}, support={list(self.support)}, "
                f"{len(self.table)} rows)")


def check_domain(domain: Iterable[Any]) -> Tuple[Any, ...]:
    """The domain as a tuple; it must be non-empty and list each value once.

    Values that compare equal, such as ``1``, ``1.0`` and ``True``, are
    one value to a table, so a domain naming two of them is rejected
    rather than collapsed.
    """
    values = tuple(domain)
    if not values:
        raise InputError("constraint domain must be non-empty")
    first: Dict[Any, int] = {}
    for index, value in enumerate(values):
        earlier = first.setdefault(value, index)
        if earlier != index:
            raise InputError(f"domain[{index}] {value!r} is the same value as "
                             f"domain[{earlier}] {values[earlier]!r}")
    return values


def make_constraint(spec: SemiringSpec, domain: Iterable[Any],
                    support: Iterable[Name],
                    table: Mapping[Tuple[Any, ...], Any]) -> SoftConstraint:
    """Build a constraint from an explicit, total table.

    ``table`` keys are value tuples aligned with ``support`` as given by
    the caller; rows are re-indexed to the canonical sorted support order.
    Missing or extra rows raise :class:`IncompleteTableError`; values are
    coerced into ``spec``'s carrier.
    """
    dom = check_domain(domain)
    given = tuple(support)
    if len(set(given)) != len(given):
        raise InputError(f"duplicate names in support {list(given)!r}")

    rows: Dict[Tuple[Any, ...], SemiringValue] = {}
    for raw_key, raw_value in table.items():
        key = tuple(raw_key)
        if len(key) != len(given) or any(v not in dom for v in key):
            raise IncompleteTableError(
                f"row {key!r} does not match support {list(given)!r} over "
                f"domain {list(dom)!r}"
            )
        if key in rows:
            raise IncompleteTableError(f"duplicate row {key!r}")
        rows[key] = spec.value(raw_value)

    expected = len(dom) ** len(given)
    if len(rows) != expected:
        raise IncompleteTableError(
            f"table has {len(rows)} rows, expected {expected} "
            f"(|D|^{len(given)})"
        )
    canonical = tuple(sorted(given))
    return _build(spec, dom, canonical, _rows(given, rows, canonical, dom))


def _rows(names: Tuple[Name, ...], table: Mapping[Tuple[Any, ...], Any],
          support: Tuple[Name, ...], domain: Tuple[Any, ...],
          rename: Callable[[Name], Name] = lambda n: n) -> list:
    # The rows of a table over ``names``, listed in product order over
    # ``support`` and ``domain``; each name n is read at rename(n).  Keys
    # are looked up by value, so the table's own domain order is irrelevant.
    at = [support.index(rename(n)) for n in names]
    keys = itertools.product(domain, repeat=len(support))
    # itemgetter returns a bare value, not a tuple, for a single index.
    if len(at) > 1:
        return [table[key] for key in map(operator.itemgetter(*at), keys)]
    return [table[tuple([key[i] for i in at])] for key in keys]


def _build(spec: SemiringSpec, domain: Tuple[Any, ...],
           support: Tuple[Name, ...],
           values: Iterable[SemiringValue]) -> SoftConstraint:
    # ``values`` lists the rows in product order over ``domain``.
    keys = itertools.product(domain, repeat=len(support))
    return SoftConstraint(spec=spec, domain=domain, support=support,
                          table=dict(zip(keys, values)))


def constant_constraint(spec: SemiringSpec, domain: Iterable[Any],
                        value: Any) -> SoftConstraint:
    """The support-free constraint mapping every assignment to ``value``."""
    return _build(spec, check_domain(domain), (), [spec.value(value)])


def unit_constraint(spec: SemiringSpec, domain: Iterable[Any]) -> SoftConstraint:
    return constant_constraint(spec, domain, spec.one)


def zero_constraint(spec: SemiringSpec, domain: Iterable[Any]) -> SoftConstraint:
    return constant_constraint(spec, domain, spec.zero)


def _check_compatible(c1: SoftConstraint, c2: SoftConstraint) -> None:
    if c1.spec.key != c2.spec.key:
        raise InstanceMismatchError(
            f"cannot combine constraints over {c1.spec.key!r} and "
            f"{c2.spec.key!r}"
        )
    if set(c1.domain) != set(c2.domain):
        raise InputError("cannot combine constraints over different domains")


def _pointwise(op, c1: SoftConstraint, c2: SoftConstraint) -> SoftConstraint:
    _check_compatible(c1, c2)
    support = tuple(sorted(set(c1.support) | set(c2.support)))
    rows1 = _rows(c1.support, c1.table, support, c1.domain)
    rows2 = _rows(c2.support, c2.table, support, c1.domain)
    return _build(c1.spec, c1.domain, support,
                  [op(c1.spec, a, b) for a, b in zip(rows1, rows2)])


def combine(c1: SoftConstraint, c2: SoftConstraint) -> SoftConstraint:
    """Pointwise multiplicative combination over the union of supports."""
    return _pointwise(sr_times, c1, c2)


def csum(c1: SoftConstraint, c2: SoftConstraint) -> SoftConstraint:
    """Pointwise additive combination over the union of supports."""
    return _pointwise(sr_plus, c1, c2)


def hide(name: Name, c: SoftConstraint) -> SoftConstraint:
    """Project ``name`` out of ``c`` by summing over its domain values.

    Hiding eliminates the name from the support by choosing, pointwise,
    the best value for it.  Hiding a name outside the support is a no-op.
    """
    if name not in c.support:
        return c
    support = tuple(n for n in c.support if n != name)
    # With the hidden name read last, each run of |D| rows is one output row.
    rows = _rows(c.support, c.table, support + (name,), c.domain)
    plus = functools.partial(sr_plus, c.spec)
    size = len(c.domain)
    return _build(c.spec, c.domain, support,
                  [functools.reduce(plus, rows[i:i + size])
                   for i in range(0, len(rows), size)])


def _renamed(c: SoftConstraint,
             rename: Callable[[Name], Name]) -> SoftConstraint:
    # c with each name n read at rename(n); c itself if no name moves.
    if all(rename(n) == n for n in c.support):
        return c
    support = tuple(sorted({rename(n) for n in c.support}))
    return _build(c.spec, c.domain, support,
                  _rows(c.support, c.table, support, c.domain, rename))


def permute(rho: Permutation, c: SoftConstraint) -> SoftConstraint:
    """Relabel the names of ``c`` through ``rho``.

    The result evaluated at ``eta`` equals ``c`` evaluated at
    ``eta . rho``; its support is the image of ``c``'s support.
    """
    return _renamed(c, rho.apply)


def _substitute(c: SoftConstraint, src: Name, dst: Name) -> SoftConstraint:
    # Replace src by dst in the support, merging if dst is already there:
    # the result reads dst wherever c read src.  Internal helper for the
    # fusion and hiding laws; not a permutation.
    return _renamed(c, lambda n: dst if n == src else n)


def fusion(x: Name, y: Name, spec: SemiringSpec,
           domain: Iterable[Any]) -> SoftConstraint:
    """The constraint over {x, y} that is ``one`` exactly where x == y."""
    if x == y:
        raise DegenerateFusionError(f"fusion of {x!r} with itself")
    dom = check_domain(domain)
    return _build(spec, dom, tuple(sorted((x, y))),
                  [spec.one if a == b else spec.zero
                   for a, b in itertools.product(dom, repeat=2)])


def support(c: SoftConstraint) -> FrozenSet[Name]:
    """The minimal support: declared names the table genuinely depends on."""
    return c.minimal_support()
