"""C-semirings and the concrete instances used throughout the package.

A c-semiring is a commutative semiring whose additive operation is
idempotent and has the multiplicative unit as absorbing element.  Addition
induces a partial order, ``a <= b  iff  a + b == b``, under which "greater"
means "better": the additive unit (``zero``) is the worst value and the
multiplicative unit (``one``) the best.

Four instances are provided, addressed by lowercase catalog keys:

========  =============================  ==========  =========
key       carrier                        plus        times
========  =============================  ==========  =========
csp       booleans                       or          and
fcsp      exact rationals in [0, 1]      max         min
wcsp      naturals plus infinity         min         +
costpair  (time, energy) natural pairs   pairwise    pairwise
          with infinity                  min         +
========  =============================  ==========  =========

The payload operations are, row by row, the callables ``operator.or_`` and
``and_``, ``max`` and ``min``, ``min`` and ``operator.add``, and
:meth:`CostPair.cmin` and :meth:`CostPair.add`.

All arithmetic is exact: Python integers with a distinguished infinity and
:class:`fractions.Fraction` for the fuzzy carrier.  Equality of values, and
of anything built from them (constraint tables, interpretations), is
therefore decidable, which the fixpoint and axiom machinery relies on.

Values are tagged with their instance key.  The public operations, and
constraint tables and programs where values enter them, check the tags and
raise :class:`~softcsp.errors.InstanceMismatchError` on a mix, so wiring
bugs surface there; inside, tables and programs compute on bare payloads.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Any, Callable, Dict, NamedTuple

from .errors import Frozen, InstanceMismatchError, UnknownInstanceError

INF = math.inf


def _coerce_extended_natural(raw: Any) -> Any:
    if raw == "inf":
        return INF
    if type(raw) is int and raw >= 0:
        return raw
    if isinstance(raw, float) and raw == INF:
        return INF
    raise ValueError(f"{raw!r} is not a natural number or infinity")


def format_extended_natural(v: Any) -> str:
    return "inf" if v == INF else str(v)


class _CostFields(NamedTuple):
    time: int | float
    energy: int | float


class CostPair(_CostFields):
    """A (time, energy) cost vector over naturals extended with infinity.

    Componentwise addition saturates at infinity; ``<inf,inf>`` is the unit
    of the pairwise minimum and ``<0,0>`` the unit of the pairwise sum.  A
    cost pair is a tuple, so it equals the plain tuple ``(time, energy)``;
    every way of building one (the constructor, ``_make``, ``_replace``)
    checks its components.
    """

    __slots__ = ()

    def __new__(cls, time: int | float, energy: int | float):
        # Two non-negative ints, the common case, pass in one test.
        if not (type(time) is int is type(energy) and time >= 0 <= energy):
            for component in (time, energy):
                if not (component >= 0 if type(component) is int
                        else isinstance(component, float) and component == INF):
                    raise ValueError(
                        f"cost component {component!r} must be a "
                        f"non-negative integer or infinity"
                    )
        return tuple.__new__(cls, (time, energy))

    @classmethod
    def _make(cls, iterable) -> "CostPair":
        # NamedTuple's _make, which _replace calls, skips __new__.
        return cls(*iterable)

    def add(self, other: "CostPair") -> "CostPair":
        return CostPair(self.time + other.time, self.energy + other.energy)

    def cmin(self, other: "CostPair") -> "CostPair":
        return CostPair(min(self.time, other.time), min(self.energy, other.energy))

    def __str__(self):
        return f"<{format_extended_natural(self.time)},{format_extended_natural(self.energy)}>"


class SemiringValue(NamedTuple):
    """A carrier element tagged with the key of its semiring instance.  A
    value is a tuple, so it equals the plain tuple ``(kind, payload)``."""

    kind: str
    payload: Any

    def __str__(self):
        return format_value(self)

    def __repr__(self):
        return f"SemiringValue({self.kind}, {format_value(self)})"


class SemiringSpec(Frozen):
    """A concrete c-semiring instance: the carrier's units, its two
    operations and the reader and writers of its values.

    ``_coerce`` reads a raw value into a payload of the carrier and raises
    ``ValueError``, ``TypeError`` or ``ZeroDivisionError`` for anything
    outside it, so it is the one test of carrier membership.  Payload-level
    callables are private; go through :func:`sr_plus`, :func:`sr_times`,
    :func:`sr_leq` and :func:`sr_eq`, which enforce the instance tags.
    Instances are frozen, so the shared catalog entries cannot be changed,
    and compare by identity.
    """

    __slots__ = ("key", "_zero", "_one", "_plus", "_times", "_coerce",
                 "_to_json", "_render")

    def __init__(self, key: str, _zero: Any, _one: Any, _plus: Callable,
                 _times: Callable, _coerce: Callable, _to_json: Callable,
                 _render: Callable[[Any], str]):
        self._init(key, _zero, _one, _plus, _times, _coerce, _to_json,
                   _render)

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __repr__(self):
        return f"SemiringSpec({self.key})"

    @property
    def zero(self) -> SemiringValue:
        return SemiringValue(self.key, self._zero)

    @property
    def one(self) -> SemiringValue:
        return SemiringValue(self.key, self._one)

    def value(self, raw: Any) -> SemiringValue:
        """Wrap ``raw`` as a tagged value of this instance.

        Accepts payloads, the instance's textual/JSON encodings (e.g.
        ``"inf"`` for the weighted infinity, ``"1/2"`` for a fuzzy
        rational) and already-tagged values of the same instance.
        """
        return SemiringValue(self.key, self._payload(raw))

    def _payload(self, raw: Any) -> Any:
        # What value(raw) carries, without building the tagged value.
        if isinstance(raw, SemiringValue):
            self.check(raw)
            return raw.payload
        try:
            return self._coerce(raw)
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            reason = ("zero denominator" if isinstance(exc, ZeroDivisionError)
                      else exc)
            raise InstanceMismatchError(
                f"{raw!r} is not a value of the {self.key!r} carrier: {reason}"
            ) from None

    def to_json(self, value: SemiringValue) -> Any:
        self.check(value)
        return self._to_json(value.payload)

    def check(self, *values: SemiringValue) -> None:
        for v in values:
            if not isinstance(v, SemiringValue) or v.kind != self.key:
                got = v.kind if isinstance(v, SemiringValue) else type(v).__name__
                raise InstanceMismatchError(
                    f"value of instance {got!r} used where {self.key!r} was "
                    f"expected"
                )


def sr_plus(spec: SemiringSpec, a: SemiringValue, b: SemiringValue) -> SemiringValue:
    """Additive combination (idempotent, commutative; picks the better)."""
    spec.check(a, b)
    return SemiringValue(spec.key, spec._plus(a.payload, b.payload))


def sr_times(spec: SemiringSpec, a: SemiringValue, b: SemiringValue) -> SemiringValue:
    """Multiplicative combination (commutative; absorbing on zero)."""
    spec.check(a, b)
    return SemiringValue(spec.key, spec._times(a.payload, b.payload))


def sr_leq(spec: SemiringSpec, a: SemiringValue, b: SemiringValue) -> bool:
    """The induced order: a <= b iff a + b == b (b is at least as good)."""
    spec.check(a, b)
    return spec._plus(a.payload, b.payload) == b.payload


def sr_eq(spec: SemiringSpec, a: SemiringValue, b: SemiringValue) -> bool:
    """Decidable exact equality on one carrier; mismatched tags are an error."""
    spec.check(a, b)
    return a.payload == b.payload


def format_value(value: SemiringValue) -> str:
    """Stable textual rendering, used by the CLI and error messages."""
    spec = _INSTANCES.get(value.kind)
    if spec is None:
        return repr(value.payload)
    return spec._render(value.payload)


# --- instance definitions ---------------------------------------------------

def _bool_coerce(raw):
    if isinstance(raw, bool):
        return raw
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError("expected true or false")


# The canonical spellings of a fuzzy value, ``digits`` and ``digits/digits``.
_FUZZY_TEXT = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def _fuzzy_coerce(raw):
    if type(raw) is str:
        # A canonical spelling within [0, 1] is read by integers alone;
        # any other text, and every fault, takes Fraction(str) below.
        match = _FUZZY_TEXT.fullmatch(raw)
        if match is not None:
            numerator, denominator = map(int, match.groups("1"))
            if 0 < denominator and numerator <= denominator:
                return Fraction(numerator, denominator)
    if isinstance(raw, bool):
        raise ValueError("booleans are not fuzzy values")
    if isinstance(raw, float):
        # Go through the decimal representation so e.g. 0.3 means 3/10,
        # not the nearest binary float.
        raw = str(raw)
    if not isinstance(raw, (Fraction, int, str)):
        raise ValueError("expected a rational")
    if isinstance(raw, str) and not raw.isascii():
        # Fraction(str) reads any Unicode digit; the carrier's text is ASCII.
        raise ValueError(f"Invalid literal for Fraction: {raw!r}")
    value = Fraction(raw)
    if not 0 <= value <= 1:
        raise ValueError(f"{value} is outside [0, 1]")
    return value


def _fuzzy_to_json(v: Fraction):
    return int(v) if v.denominator == 1 else str(v)


def _pair_coerce(raw):
    if isinstance(raw, CostPair):
        return raw
    if isinstance(raw, (tuple, list)) and len(raw) == 2:
        return CostPair(_coerce_extended_natural(raw[0]),
                        _coerce_extended_natural(raw[1]))
    raise ValueError("expected a (time, energy) pair")


def _pair_to_json(v: CostPair):
    return ["inf" if v.time == INF else v.time,
            "inf" if v.energy == INF else v.energy]


_INSTANCES: Dict[str, SemiringSpec] = {}

for _spec in (
    SemiringSpec(
        key="csp",
        _zero=False,
        _one=True,
        _plus=operator.or_,
        _times=operator.and_,
        _coerce=_bool_coerce,
        _to_json=lambda v: v,
        _render=lambda v: "true" if v else "false",
    ),
    SemiringSpec(
        key="fcsp",
        _zero=Fraction(0),
        _one=Fraction(1),
        _plus=max,
        _times=min,
        _coerce=_fuzzy_coerce,
        _to_json=_fuzzy_to_json,
        _render=str,
    ),
    SemiringSpec(
        key="wcsp",
        _zero=INF,
        _one=0,
        _plus=min,
        _times=operator.add,
        _coerce=_coerce_extended_natural,
        _to_json=lambda v: "inf" if v == INF else v,
        _render=format_extended_natural,
    ),
    SemiringSpec(
        key="costpair",
        _zero=CostPair(INF, INF),
        _one=CostPair(0, 0),
        _plus=CostPair.cmin,
        _times=CostPair.add,
        _coerce=_pair_coerce,
        _to_json=_pair_to_json,
        _render=str,
    ),
):
    _INSTANCES[_spec.key] = _spec


def instance_catalog() -> Dict[str, SemiringSpec]:
    """All known instances, keyed by their lowercase catalog key."""
    return dict(_INSTANCES)


def lookup(key: str) -> SemiringSpec:
    """Resolve a catalog key, raising for unknown ones and non-strings."""
    spec = _INSTANCES.get(key) if isinstance(key, str) else None
    if spec is None:
        known = ", ".join(sorted(_INSTANCES))
        raise UnknownInstanceError(
            f"unknown semiring instance {key!r} (known: {known})"
        )
    return spec
