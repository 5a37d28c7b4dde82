import math
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
from softcsp.constraints import combine, csum, make_constraint
from softcsp.errors import InstanceMismatchError, UnknownInstanceError
from softcsp.sclp import Atom, Clause, Program, lfp, tp_step
from softcsp.scsp import SCSPProblem
from softcsp.semiring import SemiringSpec

from conftest import SEMIRING_KEYS, random_value, specs
from oracles import oracle_fuzzy_coerce


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

    def test_value_semantics(self):
        # A cost pair is the tuple (time, energy), with no instance dict.
        pair = CostPair(time=3, energy=4)
        assert pair == (3, 4) and hash(pair) == hash((3, 4))
        assert (pair.time, pair.energy) == tuple(pair) == (3, 4)
        assert repr(pair) == "CostPair(time=3, energy=4)" and str(pair) == "<3,4>"
        assert not hasattr(pair, "__dict__")
        with pytest.raises(AttributeError):
            pair.time = 5

    def test_every_way_of_building_checks(self):
        assert CostPair(1, 2)._replace(energy=INF) == CostPair(1, INF)
        assert CostPair._make((5, 6)) == CostPair(5, 6)
        with pytest.raises(ValueError, match="cost component -1"):
            CostPair(1, 2)._replace(time=-1)
        with pytest.raises(ValueError, match="cost component 1.5"):
            CostPair._make((1.5, 0))

    @pytest.mark.parametrize("component", [0, 10**30, math.inf])
    def test_carrier_accepts(self, component):
        assert CostPair(component, component).time == component

    @pytest.mark.parametrize("component", [
        -1, True, 1.0, math.nan, -math.inf, Fraction(1), "1"])
    def test_carrier_rejects(self, component):
        message = (f"cost component {component!r} must be a non-negative "
                   f"integer or infinity")
        for time, energy in ((component, 0), (0, component)):
            with pytest.raises(ValueError) as caught:
                CostPair(time, energy)
            assert str(caught.value) == message


@pytest.mark.parametrize("key, raw", [
    ("csp", 1),
    ("fcsp", "3/2"),
    ("wcsp", -1),
    ("costpair", (-1, 0)),
    ("fcsp", "1/0"),
])
def test_reader_rejects_values_outside_the_carrier(key, raw):
    with pytest.raises(InstanceMismatchError,
                       match=f"is not a value of the '{key}' carrier") as info:
        lookup(key).value(raw)
    if raw == "1/0":
        # Named, not shown as the Fraction that could not be built.
        assert str(info.value) == \
            "'1/0' is not a value of the 'fcsp' carrier: zero denominator"


def _fuzzy_spelling(rng):
    """A random spelling of a fuzzy value: mostly the canonical
    ``digits`` and ``digits/digits``, otherwise with blanks, signs,
    decimals, underscores, exponents, non-ASCII digits or huge numbers."""
    def digits():
        return str(rng.choice((0, 1, 2, 3, 7, 10, 12, 100, 10**20)))

    kind = rng.randrange(12)
    if kind < 4:
        return digits() + ("/" + digits() if kind else "")
    if kind == 4:
        return rng.choice((" ", "\t", "\n", "")) + digits() + "/" + digits() \
            + rng.choice((" ", "\n", ""))
    if kind == 5:
        return rng.choice(("+", "-", "−")) + digits() + rng.choice(("", "/3"))
    if kind == 6:
        return f"{rng.randint(0, 2)}.{rng.randint(0, 999)}"
    if kind == 7:
        return rng.choice(("1_0/20", "1_/2", "1__0/20", "_1/2", "0_5/1_0"))
    if kind == 8:
        return rng.choice(("1e-1", "5E-1", "0.5e1", "1e0", "3e", "e1"))
    if kind == 9:
        return rng.choice(("1/0", "0/0", "3/-10", "3 / 10", "/2", "1/",
                           "", "inf", "nan", "½", "٣/١٠", "1/2/3"))
    if kind == 10:
        return rng.choice(("1" * 5000 + "/2", "1/" + "1" * 5000,
                           "9" * 30 + "/1" + "0" * 30))
    return rng.choice((True, False, 0, 1, 2, -1, 0.5, 1.5, Fraction(1, 3),
                       None, [1, 2]))


def test_fuzzy_reader_matches_fraction():
    # The reader's integer route for canonical spellings gives the value
    # Fraction(str) gives, and every other spelling the same payload or
    # the same error as Fraction(str).
    fcsp = lookup("fcsp")
    reference = SemiringSpec(fcsp.key, fcsp._zero, fcsp._one, fcsp._plus,
                             fcsp._times, oracle_fuzzy_coerce, fcsp._to_json,
                             fcsp._render)
    rng = random.Random("fuzzy-reader")
    outcomes = {"ok": 0, "error": 0}
    for _ in range(3000):
        raw = _fuzzy_spelling(rng)
        try:
            want = reference.value(raw)
        except InstanceMismatchError as err:
            with pytest.raises(InstanceMismatchError) as caught:
                fcsp.value(raw)
            assert str(caught.value) == str(err), raw
            outcomes["error"] += 1
            continue
        got = fcsp.value(raw)
        assert got == want and type(got.payload) is Fraction, raw
        outcomes["ok"] += 1
    assert min(outcomes.values()) > 1000


class TestCatalog:
    def test_instances_are_frozen(self):
        with pytest.raises(AttributeError):
            lookup("wcsp").key = "x"
        assert lookup("wcsp").key == "wcsp"
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


def _mismatches():
    """(entry point, call mixing a wcsp place with an fcsp value, message)."""
    w, f = lookup("wcsp"), lookup("fcsp")
    foreign = "value of instance 'fcsp' used where 'wcsp' was expected"
    cw = make_constraint(w, ("a", "b"), ("x",), {("a",): 1, ("b",): 2})
    cf = make_constraint(f, ("a", "b"), ("x",), {("a",): 1, ("b",): 0})
    combined = "cannot combine constraints over 'wcsp' and 'fcsp'"
    return [
        ("sr_plus", lambda: sr_plus(w, w.one, f.one), foreign),
        ("sr_times", lambda: sr_times(w, w.one, f.one), foreign),
        ("sr_leq", lambda: sr_leq(w, w.one, f.one), foreign),
        ("sr_eq", lambda: sr_eq(w, w.one, f.one), foreign),
        ("value", lambda: w.value(f.one), foreign),
        ("to_json", lambda: w.to_json(f.one), foreign),
        ("make_constraint",
         lambda: make_constraint(w, ("a",), ("x",), {("a",): f.one}), foreign),
        ("combine", lambda: combine(cw, cf), combined),
        ("csum", lambda: csum(cw, cf), combined),
        ("__eq__", lambda: cw == cf,
         "cannot compare constraints over 'wcsp' and 'fcsp'"),
        ("SCSPProblem", lambda: SCSPProblem(spec=w, domain=("a", "b"),
                                            constraints=[cw, cf],
                                            interface=()),
         "constraint over 'fcsp' in a 'wcsp' problem"),
        ("lfp", lambda: lfp(Program(spec=w, constants=(), clauses=[
            Clause(Atom("p"), body_value=f.one)])), foreign),
        ("tp_step", lambda: tp_step(Program(spec=w, constants=(), clauses=[
            Clause(Atom("p"), body_atoms=(Atom("q"),))]),
            {Atom("q"): f.one}), foreign),
    ]


@pytest.mark.parametrize("call, message",
                         [case[1:] for case in _mismatches()],
                         ids=[case[0] for case in _mismatches()])
def test_every_entry_point_checks_instance_tags(call, message):
    # Tables and programs compute on bare payloads, so each place where a
    # value or a constraint enters must check its tag, with this message.
    with pytest.raises(InstanceMismatchError) as info:
        call()
    assert str(info.value) == message


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
