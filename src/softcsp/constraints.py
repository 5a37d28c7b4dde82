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

Constraints are dense tables over their sorted *declared* support: one
tuple of bare payloads in product order over the domain.  Semiring tags
are checked where values enter, so operators apply the instance's payload
operations to rows read by one stride walk, ``_rows``, in their first
operand's domain order.  Two constraints are equal when they agree on
every assignment of the union of their supports.  The *minimal* support
(the names a table genuinely depends on) is computed on demand.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping
from typing import (Any, Callable, Collection, Dict, FrozenSet, Iterable,
                    Optional, Tuple)

from .errors import (
    DegenerateFusionError,
    Frozen,
    IncompleteTableError,
    InputError,
    InstanceMismatchError,
    InvalidPermutationError,
    UnboundNameError,
)
from .semiring import SemiringSpec, SemiringValue

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


class SoftConstraint(Frozen):
    """A dense table from support assignments to semiring values.

    ``support`` is the declared support, kept sorted; ``rows`` holds a bare
    payload of ``spec`` per assignment, in product order over ``domain``;
    ``table`` is a read-only mapping of the same rows from a value tuple
    per support name to the tagged value.  Equality is semantic: two
    constraints over the same instance and domain set are equal when they
    give equal payloads on every assignment of the union of their supports.
    """

    __slots__ = ("spec", "domain", "support", "rows")

    def __init__(self, spec: SemiringSpec, domain: Tuple[Any, ...],
                 support: Tuple[Name, ...], rows: Tuple[Any, ...]):
        # Own tuples, so a caller's lists cannot change the constraint.
        if not (type(domain) is type(support) is tuple):
            domain, support = tuple(domain), tuple(support)
        self._init(spec, domain, support, tuple(rows))

    table = property(lambda self: _Table(self))

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
        size = len(self.domain)
        real = set()
        for name in self.support:
            # With the name read last, each run of |D| rows is one slice.
            rest = tuple(n for n in self.support if n != name)
            rows = _rows(self, rest + (name,), self.domain)
            if any(rows[k::size] != rows[::size] for k in range(1, size)):
                real.add(name)
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
        names = tuple(sorted(set(self.support) | set(other.support)))
        return _rows(self, names, self.domain) == _rows(other, names, self.domain)

    __hash__ = None

    def __repr__(self):
        return (f"SoftConstraint({self.spec.key}, support={list(self.support)}, "
                f"{len(self.rows)} rows)")


class _Table(Mapping):
    """A constraint's rows as tagged values, in product order."""

    def __init__(self, c: SoftConstraint):
        self._c = c

    def __len__(self):
        return len(self._c.rows)

    def __iter__(self):
        return itertools.product(self._c.domain, repeat=len(self._c.support))

    def __getitem__(self, key):
        c, at = self._c, 0
        if not (isinstance(key, tuple) and len(key) == len(c.support)
                and all(map(c.domain.__contains__, key))):
            raise KeyError(key)
        for value in key:
            at = at * len(c.domain) + c.domain.index(value)
        return SemiringValue(c.spec.key, c.rows[at])


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
    coerced into ``spec``'s carrier, and the tags of tagged values checked.
    The table is read once; only a faulty one is read again, row by row,
    to name its first faulty row (see :func:`_table`).
    """
    return _table(spec, check_domain(domain), support, table.keys(),
                  table.values(), {}, {})


def _table(spec: SemiringSpec, dom: Tuple[Any, ...], given: Iterable[Name],
           keys: Iterable, values: Collection, offsets: dict,
           payloads: dict) -> SoftConstraint:
    """The constraint over the names ``given`` whose row ``keys[i]``, a
    value per name in the given order, holds ``values[i]``.

    Each key is looked up in a map from every assignment to its offset in
    the canonical product order, kept in ``offsets`` per order of the
    names: |D|^k rows are a total table exactly when their offsets are
    distinct.  Each distinct value is coerced once, kept in ``payloads``
    under its type and value, so ``1``, ``1.0`` and ``true`` stay apart.
    Both caches may serve every table over one ``spec`` and ``dom``.
    A table that read cannot place (a faulty one, or one whose values
    cannot be hashed) is read again row by row: its first row that does
    not match the support, repeats a row or holds a value outside the
    carrier raises, then a wrong row count, found before anything of
    size |D|^k is built.
    """
    given = tuple(given)
    if len(set(given)) != len(given):
        raise InputError(f"duplicate names in support {list(given)!r}")
    canonical, keys = tuple(sorted(given)), [*map(tuple, keys)]
    count = len(dom) ** len(given)
    if len(keys) == count:
        ranks = tuple(map(canonical.index, given))
        if ranks not in offsets:
            # A table whose payloads are their own offsets, read in the
            # given order of its names.
            numbered = SoftConstraint(spec, dom, canonical, range(count))
            offsets[ranks] = dict(zip(itertools.product(dom, repeat=len(given)),
                                      _rows(numbered, given, dom)))
        try:
            at = [*map(offsets[ranks].__getitem__, keys)]
            typed = [*zip(map(type, values), values)]
            for key in {*typed}.difference(payloads):
                payloads[key] = spec._payload(key[1])
            rows = map(payloads.__getitem__, typed)
            if at != [*range(count)]:
                # A duplicate leaves some offset out: a KeyError here.
                rows = map(dict(zip(at, rows)).__getitem__, range(count))
            return SoftConstraint(spec, dom, canonical, rows)
        except (KeyError, TypeError, InputError):
            pass  # named below
    known, filled = frozenset(dom), {}
    for key, value in zip(keys, values):
        if len(key) != len(given) or not all(map(known.__contains__, key)):
            raise IncompleteTableError(f"row {key!r} does not match support "
                                       f"{list(given)!r} over domain {list(dom)!r}")
        if key in filled:
            raise IncompleteTableError(f"duplicate row {key!r}")
        try:
            filled[key] = spec._payload(value)
        except InstanceMismatchError as exc:
            if isinstance(value, SemiringValue):
                raise  # a tag mismatch, not a value outside the carrier
            raise InstanceMismatchError(f"row {key!r}: {exc}") from None
    listed = itertools.product(dom, repeat=len(given))
    if len(keys) != count:
        missing = next(key for key in listed if key not in filled)
        raise IncompleteTableError(f"table has {len(keys)} rows, expected {count} "
                                   f"(|D|^{len(given)}); first missing {missing!r}")
    # The rows over the given order of the names, re-read in sorted order.
    listed = SoftConstraint(spec, dom, given, map(filled.__getitem__, listed))
    return SoftConstraint(spec, dom, canonical, _rows(listed, canonical, dom))


def _rows(c: SoftConstraint, support: Tuple[Name, ...], domain: Tuple[Any, ...],
          rename: Optional[Callable[[Name], Name]] = None) -> tuple:
    # c's payloads in product order over ``support`` and ``domain``, each name
    # n read at rename(n), or at n if rename is None.  Each name's stride in
    # c.rows is worked out once; a name c lacks has stride 0.  A row's offset
    # is the sum over the names of stride times the value's place in c.domain.
    names = c.support if rename is None else tuple(map(rename, c.support))
    if domain == c.domain and names == support:
        return c.rows
    size, stride, strides = len(domain), 1, {}
    for name in reversed(names):
        strides[name] = strides.get(name, 0) + stride
        stride *= size
    places = None if domain == c.domain else [*map(c.domain.index, domain)]
    at = [0]
    for s in map(strides.get, support, itertools.repeat(0)):
        if places is None:
            offsets = range(0, s * size, s) if s else (0,) * size
        else:
            offsets = [s * place for place in places]
        at = [i + offset for i in at for offset in offsets]
    # itemgetter returns a bare value, not a tuple, for a single index.
    if len(at) > 1:
        return operator.itemgetter(*at)(c.rows)
    return (c.rows[at[0]],)


def constant_constraint(spec: SemiringSpec, domain: Iterable[Any],
                        value: Any) -> SoftConstraint:
    """The support-free constraint mapping every assignment to ``value``."""
    return SoftConstraint(spec, check_domain(domain), (), (spec._payload(value),))


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
    return SoftConstraint(c1.spec, c1.domain, support, map(
        op, _rows(c1, support, c1.domain), _rows(c2, support, c1.domain)))


def combine(c1: SoftConstraint, c2: SoftConstraint) -> SoftConstraint:
    """Pointwise multiplicative combination over the union of supports."""
    return _pointwise(c1.spec._times, c1, c2)


def csum(c1: SoftConstraint, c2: SoftConstraint) -> SoftConstraint:
    """Pointwise additive combination over the union of supports."""
    return _pointwise(c1.spec._plus, c1, c2)


def hide(name: Name, c: SoftConstraint) -> SoftConstraint:
    """Project ``name`` out of ``c`` by summing over its domain values.

    Hiding eliminates the name from the support by choosing, pointwise,
    the best value for it.  Hiding a name outside the support is a no-op.
    """
    if name not in c.support:
        return c
    support = tuple(n for n in c.support if n != name)
    # With the hidden name read last, each run of |D| rows is one output row.
    rows, size = _rows(c, support + (name,), c.domain), len(c.domain)
    values = rows[::size]
    for k in range(1, size):
        values = list(map(c.spec._plus, values, rows[k::size]))
    return SoftConstraint(c.spec, c.domain, support, values)


def _renamed(c: SoftConstraint,
             rename: Callable[[Name], Name]) -> SoftConstraint:
    # c with each name n read at rename(n); c itself if no name moves.
    if all(rename(n) == n for n in c.support):
        return c
    support = tuple(sorted({rename(n) for n in c.support}))
    return SoftConstraint(c.spec, c.domain, support,
                          _rows(c, support, c.domain, rename))


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
    return SoftConstraint(spec, dom, tuple(sorted((x, y))),
                          [spec._one if a == b else spec._zero
                           for a, b in itertools.product(dom, repeat=2)])


def support(c: SoftConstraint) -> FrozenSet[Name]:
    """The minimal support: declared names the table genuinely depends on."""
    return c.minimal_support()
