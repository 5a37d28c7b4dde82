import dataclasses
import random
from fractions import Fraction

import pytest

from softcsp import (
    CostPair,
    INF,
    format_value,
    instance_catalog,
    lookup,
    sr_eq,
    sr_leq,
    sr_plus,
    sr_times,
)
from softcsp.errors import InstanceMismatchError, UnknownInstanceError

from conftest import SEMIRING_KEYS, random_value, specs


class TestWeighted:
    def test_plus_is_min(self):
        w = lookup("wcsp")
        step1 = sr_plus(w, w.value("inf"), w.value(2))
        assert step1.payload == 2
        assert sr_plus(w, step1, w.value(3)).payload == 2

    def test_plus_unit(self):
        w = lookup("wcsp")
        for x in (0, 4, INF):
            assert sr_plus(w, w.value(x), w.value(INF)).payload == w.value(x).payload

    def test_times_absorbs_infinity(self):
        w = lookup("wcsp")
        assert sr_times(w, w.value(5), w.value("inf")).payload == INF

    def test_times_is_addition(self):
        w = lookup("wcsp")
        assert sr_times(w, w.value(2), w.value(3)).payload == 5

    def test_order(self):
        w = lookup("wcsp")
        assert sr_leq(w, w.value(5), w.value(3))
        assert not sr_leq(w, w.value(3), w.value(5))

    def test_rejects_negative_and_floats(self):
        w = lookup("wcsp")
        with pytest.raises(InstanceMismatchError):
            w.value(-1)
        with pytest.raises(InstanceMismatchError):
            w.value(2.5)
        with pytest.raises(InstanceMismatchError):
            w.value(True)


class TestFuzzy:
    def test_plus_is_max(self):
        f = lookup("fcsp")
        result = sr_plus(f, f.value("0.3"), f.value("0.7"))
        assert result.payload == Fraction(7, 10)

    def test_decimal_strings_are_exact(self):
        f = lookup("fcsp")
        assert f.value(0.3).payload == Fraction(3, 10)
        assert f.value("1/3").payload == Fraction(1, 3)

    def test_carrier_bounds(self):
        f = lookup("fcsp")
        with pytest.raises(InstanceMismatchError):
            f.value(Fraction(3, 2))
        with pytest.raises(InstanceMismatchError):
            f.value(-0.5)


class TestCostPair:
    def test_times_adds_componentwise(self):
        cp = lookup("costpair")
        product = sr_times(cp, cp.value((2, 4)), cp.value((2, 4)))
        assert product.payload == CostPair(4, 8)

    def test_order_and_incomparability(self):
        cp = lookup("costpair")
        assert sr_leq(cp, cp.value((7, 9)), cp.value((4, 8)))
        assert not sr_leq(cp, cp.value((3, 9)), cp.value((4, 8)))
        assert not sr_leq(cp, cp.value((4, 8)), cp.value((3, 9)))

    def test_saturating_addition(self):
        assert CostPair(INF, 2).add(CostPair(3, 4)) == CostPair(INF, 6)

    def test_component_validation(self):
        with pytest.raises(ValueError):
            CostPair(-1, 0)
        with pytest.raises(ValueError):
            CostPair(1.5, 0)


@pytest.mark.parametrize("key, raw", [
    ("csp", 1),
    ("fcsp", "3/2"),
    ("wcsp", -1),
    ("costpair", (-1, 0)),
])
def test_reader_rejects_values_outside_the_carrier(key, raw):
    with pytest.raises(InstanceMismatchError,
                       match=f"is not a value of the '{key}' carrier"):
        lookup(key).value(raw)


class TestCatalog:
    def test_instances_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            lookup("wcsp").key = "x"
        assert repr(lookup("wcsp")) == "SemiringSpec(wcsp)"

    def test_keys(self):
        catalog = instance_catalog()
        assert set(catalog) == set(SEMIRING_KEYS)

    def test_wcsp_units(self):
        w = lookup("wcsp")
        assert w.zero.payload == INF
        assert w.one.payload == 0

    def test_csp_units(self):
        c = lookup("csp")
        assert c.zero.payload is False
        assert c.one.payload is True

    def test_unknown_instance(self):
        with pytest.raises(UnknownInstanceError):
            lookup("nosuch")
        with pytest.raises(UnknownInstanceError):
            lookup(["wcsp"])

    def test_instance_mismatch_is_an_error(self):
        w, f = lookup("wcsp"), lookup("fcsp")
        with pytest.raises(InstanceMismatchError):
            sr_plus(w, w.value(1), f.value(1))
        with pytest.raises(InstanceMismatchError):
            sr_eq(w, w.value(1), f.value(1))
        with pytest.raises(InstanceMismatchError):
            f.value(w.value(1))


class TestRendering:
    def test_format(self):
        w, cp, f, c = (lookup(k) for k in ("wcsp", "costpair", "fcsp", "csp"))
        assert format_value(w.value("inf")) == "inf"
        assert format_value(w.value(4)) == "4"
        assert format_value(cp.value((3, 9))) == "<3,9>"
        assert format_value(f.value("1/2")) == "1/2"
        assert format_value(c.value(True)) == "true"

    def test_json_encoding(self):
        w, cp, f = lookup("wcsp"), lookup("costpair"), lookup("fcsp")
        assert w.to_json(w.value("inf")) == "inf"
        assert w.to_json(w.value(3)) == 3
        assert cp.to_json(cp.value(("inf", 2))) == ["inf", 2]
        assert f.to_json(f.value("1/2")) == "1/2"
        assert f.to_json(f.value(1)) == 1


def _eq(spec, a, b):
    return a.payload == b.payload


@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.key)
def test_axioms_random_sample(spec):
    # A quick per-instance sanity pass; the full 1000-case battery per
    # axiom runs in the acceptance suite.
    rng = random.Random(f"axioms-{spec.key}")
    for _ in range(200):
        a, b, c = (random_value(rng, spec) for _ in range(3))
        assert _eq(spec, sr_plus(spec, a, b), sr_plus(spec, b, a))
        assert _eq(spec, sr_plus(spec, a, sr_plus(spec, b, c)),
                   sr_plus(spec, sr_plus(spec, a, b), c))
        assert _eq(spec, sr_plus(spec, a, a), a)
        assert _eq(spec, sr_plus(spec, a, spec.zero), a)
        assert _eq(spec, sr_plus(spec, a, spec.one), spec.one)
        assert _eq(spec, sr_times(spec, a, b), sr_times(spec, b, a))
        assert _eq(spec, sr_times(spec, a, sr_times(spec, b, c)),
                   sr_times(spec, sr_times(spec, a, b), c))
        assert _eq(spec, sr_times(spec, a, spec.one), a)
        assert _eq(spec, sr_times(spec, a, spec.zero), spec.zero)
        assert _eq(spec, sr_times(spec, a, sr_plus(spec, b, c)),
                   sr_plus(spec, sr_times(spec, a, b), sr_times(spec, a, c)))


@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.key)
def test_order_properties(spec):
    rng = random.Random(f"order-{spec.key}")
    for _ in range(200):
        a, b, c = (random_value(rng, spec) for _ in range(3))
        assert sr_leq(spec, a, a)
        if sr_leq(spec, a, b) and sr_leq(spec, b, a):
            assert _eq(spec, a, b)
        if sr_leq(spec, a, b) and sr_leq(spec, b, c):
            assert sr_leq(spec, a, c)
        assert sr_leq(spec, spec.zero, a)
        assert sr_leq(spec, a, spec.one)
        if sr_leq(spec, a, b):
            assert sr_leq(spec, sr_plus(spec, a, c), sr_plus(spec, b, c))
            assert sr_leq(spec, sr_times(spec, a, c), sr_times(spec, b, c))


@pytest.mark.parametrize("key", ["csp", "fcsp"])
def test_idempotent_times_extras(key):
    # With idempotent times, plus distributes over times and times is the
    # greatest lower bound.
    spec = lookup(key)
    rng = random.Random(f"glb-{key}")
    for _ in range(200):
        a, b, c = (random_value(rng, spec) for _ in range(3))
        assert _eq(spec, sr_times(spec, a, a), a)
        assert _eq(spec, sr_plus(spec, a, sr_times(spec, b, c)),
                   sr_times(spec, sr_plus(spec, a, b), sr_plus(spec, a, c)))
        glb = sr_times(spec, a, b)
        assert sr_leq(spec, glb, a) and sr_leq(spec, glb, b)
        if sr_leq(spec, c, a) and sr_leq(spec, c, b):
            assert sr_leq(spec, c, glb)
