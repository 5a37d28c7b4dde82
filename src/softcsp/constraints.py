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

Constraints are stored as dense tables over their *declared* support, so
equality is decidable and cheap at the small scales this library targets.
The *minimal* support (the names a table genuinely depends on) is computed
on demand; names the table is constant in do not count.  Names are plain
strings, totally ordered lexicographically.
"""

from __future__ import annotations

import itertools
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
    and is stored as a read-only copy.  Equality is semantic: two
    constraints are equal when they agree as functions of their minimal
    supports.
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

    def _minimized(self) -> Tuple[Tuple[Name, ...], Dict[Tuple[Any, ...], Any]]:
        minimal = sorted(self.minimal_support())
        if tuple(minimal) == self.support:
            return self.support, {k: v.payload for k, v in self.table.items()}
        fixed = self.domain[0] if self.domain else None
        indices = [self.support.index(n) for n in minimal]
        table = {}
        for key in itertools.product(self.domain, repeat=len(minimal)):
            full = [fixed] * len(self.support)
            for pos, idx in enumerate(indices):
                full[idx] = key[pos]
            table[key] = self.table[tuple(full)].payload
        return tuple(minimal), table

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
        return self._minimized() == other._minimized()

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
    canonical = tuple(sorted(given))
    reorder = [given.index(n) for n in canonical]

    rows: Dict[Tuple[Any, ...], SemiringValue] = {}
    seen = set()
    for raw_key, raw_value in table.items():
        key = tuple(raw_key)
        if len(key) != len(given) or any(v not in dom for v in key):
            raise IncompleteTableError(
                f"row {key!r} does not match support {list(given)!r} over "
                f"domain {list(dom)!r}"
            )
        if key in seen:
            raise IncompleteTableError(f"duplicate row {key!r}")
        seen.add(key)
        rows[tuple(key[i] for i in reorder)] = spec.value(raw_value)

    expected = len(dom) ** len(given)
    if len(rows) != expected:
        raise IncompleteTableError(
            f"table has {len(rows)} rows, expected {expected} "
            f"(|D|^{len(given)})"
        )
    ordered = {key: rows[key]
               for key in itertools.product(dom, repeat=len(canonical))}
    return SoftConstraint(spec=spec, domain=dom, support=canonical, table=ordered)


def _build(spec: SemiringSpec, domain: Tuple[Any, ...],
           support: Tuple[Name, ...],
           value_at: Callable[[Dict[Name, Any]], SemiringValue]) -> SoftConstraint:
    table = {}
    for key in itertools.product(domain, repeat=len(support)):
        table[key] = value_at(dict(zip(support, key)))
    return SoftConstraint(spec=spec, domain=domain, support=support, table=table)


def constant_constraint(spec: SemiringSpec, domain: Iterable[Any],
                        value: Any) -> SoftConstraint:
    """The support-free constraint mapping every assignment to ``value``."""
    dom = check_domain(domain)
    v = spec.value(value)
    return SoftConstraint(spec=spec, domain=dom, support=(), table={(): v})


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
    return _build(c1.spec, c1.domain, support,
                  lambda eta: op(c1.spec, c1.evaluate(eta), c2.evaluate(eta)))


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

    def value_at(eta: Dict[Name, Any]) -> SemiringValue:
        acc = None
        for d in c.domain:
            row = c.evaluate({**eta, name: d})
            acc = row if acc is None else sr_plus(c.spec, acc, row)
        return acc

    return _build(c.spec, c.domain, support, value_at)


def permute(rho: Permutation, c: SoftConstraint) -> SoftConstraint:
    """Relabel the names of ``c`` through ``rho``.

    The result evaluated at ``eta`` equals ``c`` evaluated at
    ``eta . rho``; its support is the image of ``c``'s support.
    """
    if all(rho.apply(n) == n for n in c.support):
        return c
    support = tuple(sorted(rho.apply(n) for n in c.support))
    return _build(c.spec, c.domain, support,
                  lambda eta: c.evaluate({n: eta[rho.apply(n)] for n in c.support}))


def _substitute(c: SoftConstraint, src: Name, dst: Name) -> SoftConstraint:
    # Replace src by dst in the support, merging if dst is already there:
    # the result reads dst wherever c read src.  Internal helper for the
    # fusion and hiding laws; not a permutation.
    if src not in c.support or src == dst:
        return c
    support = tuple(sorted((set(c.support) - {src}) | {dst}))
    return _build(c.spec, c.domain, support,
                  lambda eta: c.evaluate(
                      {n: (eta[dst] if n == src else eta[n]) for n in c.support}))


def fusion(x: Name, y: Name, spec: SemiringSpec,
           domain: Iterable[Any]) -> SoftConstraint:
    """The constraint over {x, y} that is ``one`` exactly where x == y."""
    if x == y:
        raise DegenerateFusionError(f"fusion of {x!r} with itself")
    dom = check_domain(domain)
    support = tuple(sorted((x, y)))
    return _build(spec, dom, support,
                  lambda eta: spec.one if eta[x] == eta[y] else spec.zero)


def support(c: SoftConstraint) -> FrozenSet[Name]:
    """The minimal support: declared names the table genuinely depends on."""
    return c.minimal_support()
