import itertools
import random

import pytest

from softcsp import (
    INF,
    Permutation,
    SoftConstraint,
    combine,
    csum,
    fusion,
    hide,
    lookup,
    make_constraint,
    permute,
    sr_eq,
    sr_plus,
    sr_times,
    support,
    unit_constraint,
    zero_constraint,
)
from softcsp.constraints import _substitute, constant_constraint
from softcsp.errors import (
    DegenerateFusionError,
    IncompleteTableError,
    InputError,
    InstanceMismatchError,
    InvalidPermutationError,
    UnboundNameError,
)

from conftest import random_constraint, specs

WCSP = lookup("wcsp")
COLORS = ("red", "blue", "green")


def q_value(v, w):
    if v == w:
        return INF
    if v == "red" or w == "red":
        return 1
    return 2


def q_constraint(first="v", second="w"):
    """All-different-with-red-discount over two names."""
    table = {(a, b): q_value(a, b)
             for a, b in itertools.product(COLORS, repeat=2)}
    return make_constraint(WCSP, COLORS, (first, second), table)


class TestPermutation:
    def test_identity(self):
        assert Permutation.identity().apply("x") == "x"
        assert Permutation.identity().kernel == frozenset()

    def test_from_pairs_completes_cycles(self):
        rho = Permutation.from_pairs({"v": "x", "w": "y"})
        assert rho.apply("v") == "x" and rho.apply("x") == "v"
        assert rho.apply("w") == "y" and rho.apply("y") == "w"

    def test_direct_mapping_must_be_bijective(self):
        with pytest.raises(InvalidPermutationError):
            Permutation({"v": "x"})
        with pytest.raises(InvalidPermutationError):
            Permutation({"v": "x", "w": "x"})

    def test_compose_applies_right_first(self):
        # (rho1 . rho2)(x) == rho1(rho2(x))
        rho1 = Permutation.from_pairs({"a": "b"})
        rho2 = Permutation.from_pairs({"b": "c"})
        for name in "abc":
            assert rho1.compose(rho2).apply(name) == rho1.apply(rho2.apply(name))

    def test_inverse(self):
        rho = Permutation.from_pairs({"v": "x", "w": "y"})
        for name in "vwxy":
            assert rho.inverse().apply(rho.apply(name)) == name


class TestMakeConstraint:
    def test_q_table(self):
        q = q_constraint()
        assert q.support == ("v", "w")
        assert q.evaluate({"v": "red", "w": "red"}).payload == INF
        assert q.evaluate({"v": "red", "w": "blue"}).payload == 1
        assert q.evaluate({"v": "blue", "w": "green"}).payload == 2

    def test_unit_constraint_has_empty_support(self):
        one = unit_constraint(WCSP, COLORS)
        assert one.support == ()
        assert one.evaluate({}).payload == 0

    def test_missing_row(self):
        table = {(a, b): q_value(a, b)
                 for a, b in itertools.product(COLORS, repeat=2)}
        del table[("green", "blue")]
        with pytest.raises(IncompleteTableError):
            make_constraint(WCSP, COLORS, ("v", "w"), table)

    def test_value_outside_carrier_names_its_row(self):
        table = {(a, b): q_value(a, b)
                 for a, b in itertools.product(COLORS, repeat=2)}
        table[("red", "blue")] = -2
        with pytest.raises(InstanceMismatchError) as info:
            make_constraint(WCSP, COLORS, ("v", "w"), table)
        assert str(info.value) == (
            "row ('red', 'blue'): -2 is not a value of the 'wcsp' carrier: "
            "-2 is not a natural number or infinity")

    def test_short_table_names_the_first_missing_row(self):
        # Rows are keyed in the given order (w, v); the first missing one in
        # product order over that order is ('blue', 'green'), though the
        # canonical (v, w) order would list ('green', 'red') first.
        table = {(a, b): q_value(a, b)
                 for a, b in itertools.product(COLORS, repeat=2)}
        del table[("green", "red")], table[("blue", "green")]
        with pytest.raises(IncompleteTableError) as info:
            make_constraint(WCSP, COLORS, ("w", "v"), table)
        assert str(info.value) == ("table has 7 rows, expected 9 (|D|^2); "
                                   "first missing ('blue', 'green')")

    def test_over_wide_support_is_counted_first(self):
        # The count is wrong before anything of 2**70 rows is built.
        names = [f"v{i:02d}" for i in range(70)]
        with pytest.raises(IncompleteTableError) as info:
            make_constraint(WCSP, ("a", "b"), names, {("b",) * 70: 1})
        assert str(info.value) == (
            f"table has 1 rows, expected {2 ** 70} (|D|^70); "
            f"first missing {('a',) * 70!r}")

    def test_bad_row_key(self):
        with pytest.raises(IncompleteTableError):
            make_constraint(WCSP, COLORS, ("v",), {("purple",): 1})

    def test_tables_are_read_only(self):
        table = {(c,): 1 for c in COLORS}
        c = make_constraint(WCSP, COLORS, ("v",), table)
        for built in (c, combine(c, q_constraint()), hide("v", c),
                      unit_constraint(WCSP, COLORS)):
            key = next(iter(built.table))
            with pytest.raises(TypeError):
                built.table[key] = WCSP.value(5)
            with pytest.raises(TypeError):
                del built.table[key]

    def test_value_outside_carrier(self):
        with pytest.raises(InstanceMismatchError):
            make_constraint(WCSP, COLORS, ("v",),
                            {(c,): -1 for c in COLORS})

    def test_constraint_owns_its_domain_and_support(self):
        # Lists given to the constructor are copied: changing them later
        # changes neither the constraint's names nor its table.
        domain, names = ["a", "b"], ["x"]
        c = SoftConstraint(WCSP, domain, names, (1, 2))
        domain.reverse()
        names[0] = "y"
        assert (c.domain, c.support) == (("a", "b"), ("x",))
        assert c.table[("a",)] == WCSP.value(1)
        assert c.evaluate({"x": "b"}) == WCSP.value(2)


class TestEvaluate:
    def test_extra_names_are_ignored(self):
        q = q_constraint()
        eta = {"v": "red", "w": "blue", "z": "green"}
        assert q.evaluate(eta).payload == 1

    def test_missing_support_name(self):
        with pytest.raises(UnboundNameError):
            q_constraint().evaluate({"v": "red"})

    def test_out_of_domain_value(self):
        with pytest.raises(InputError):
            q_constraint().evaluate({"v": "red", "w": "purple"})


def coloring_constraints():
    q = q_constraint()
    c_xy = permute(Permutation.from_pairs({"v": "x", "w": "y"}), q)
    c_yz = permute(Permutation.from_pairs({"v": "y", "w": "z"}), q)
    c_zx = permute(Permutation.from_pairs({"v": "z", "w": "x"}), q)
    return c_xy, c_yz, c_zx


class TestCombine:
    def test_coloring_row(self):
        c_xy, c_yz, c_zx = coloring_constraints()
        product = combine(combine(c_xy, c_yz), c_zx)
        eta = {"x": "red", "y": "blue", "z": "green"}
        assert product.evaluate(eta).payload == 1 + 2 + 1

    def test_unit_law(self):
        q = q_constraint()
        assert combine(q, unit_constraint(WCSP, COLORS)) == q

    def test_zero_absorbs(self):
        q = q_constraint()
        zero = zero_constraint(WCSP, COLORS)
        assert combine(q, zero) == zero

    def test_spec_mismatch(self):
        with pytest.raises(InstanceMismatchError):
            combine(q_constraint(), unit_constraint(lookup("fcsp"), COLORS))


class TestCsum:
    def test_idempotent(self):
        q = q_constraint()
        assert csum(q, q) == q

    def test_zero_is_unit(self):
        q = q_constraint()
        assert csum(q, zero_constraint(WCSP, COLORS)) == q

    def test_pointwise_min(self):
        three = constant_constraint(WCSP, COLORS, 3)
        two = constant_constraint(WCSP, COLORS, 2)
        assert csum(three, two).evaluate({}).payload == 2


class TestHide:
    def test_coloring_projection(self):
        c_xy, c_yz, c_zx = coloring_constraints()
        solution = hide("z", combine(combine(c_xy, c_yz), c_zx))
        assert solution.evaluate({"x": "red", "y": "blue"}).payload == 4

    def test_hide_outside_support_is_noop(self):
        q = q_constraint()
        assert hide("z", q) is q

    def test_hide_unit_is_unit(self):
        one = unit_constraint(WCSP, COLORS)
        q = q_constraint()
        assert hide("v", combine(one, q)) == hide("v", q)
        assert hide("x", one) == one

    def test_large_domain(self):
        # A domain far larger than those of the fixtures and workloads.
        domain = range(20000)
        c = make_constraint(WCSP, domain, ("x",), {(v,): v % 7 + 3 for v in domain})
        assert hide("x", c).table[()].payload == 3


class TestPermute:
    def test_relabels_support(self):
        q = q_constraint()
        c_xy = permute(Permutation.from_pairs({"v": "x", "w": "y"}), q)
        assert c_xy.support == ("x", "y")
        assert c_xy.evaluate({"x": "blue", "y": "green"}).payload == 2

    def test_identity(self):
        q = q_constraint()
        assert permute(Permutation.identity(), q) is q

    def test_composition(self):
        q = q_constraint()
        rho1 = Permutation.from_pairs({"x": "y"})
        rho2 = Permutation.from_pairs({"v": "x", "w": "z"})
        assert permute(rho1, permute(rho2, q)) == permute(rho1.compose(rho2), q)


class TestFusion:
    def test_diagonal_table(self):
        eq = fusion("x", "y", WCSP, ("a", "b"))
        assert eq.evaluate({"x": "a", "y": "a"}).payload == 0
        assert eq.evaluate({"x": "b", "y": "b"}).payload == 0
        assert eq.evaluate({"x": "a", "y": "b"}).payload == INF
        assert eq.evaluate({"x": "b", "y": "a"}).payload == INF

    def test_absorbs_on_disagreement(self):
        eq = fusion("v", "w", WCSP, COLORS)
        q = q_constraint()
        gated = combine(eq, q)
        assert gated.evaluate({"v": "red", "w": "blue"}).payload == INF

    def test_degenerate(self):
        with pytest.raises(DegenerateFusionError):
            fusion("x", "x", WCSP, COLORS)

    def test_fuse_law_instance(self):
        eq = fusion("v", "w", WCSP, COLORS)
        q = q_constraint()
        assert combine(eq, q) == combine(eq, _substitute(q, "w", "v"))


class TestEquality:
    def test_constant_axis_is_ignored(self):
        table = {(a, b): (1 if a == "red" else 2)
                 for a, b in itertools.product(COLORS, repeat=2)}
        wide = make_constraint(WCSP, COLORS, ("x", "y"), table)
        narrow = make_constraint(WCSP, COLORS, ("x",),
                                 {(a,): (1 if a == "red" else 2)
                                  for a in COLORS})
        assert wide == narrow and narrow == wide
        assert constant_constraint(WCSP, COLORS, 3) \
            == make_constraint(WCSP, COLORS, ("z",), {(a,): 3 for a in COLORS})

    def test_domain_order_is_ignored(self):
        table = {(a,): COLORS.index(a) for a in COLORS}
        assert make_constraint(WCSP, COLORS, ("x",), table) \
            == make_constraint(WCSP, COLORS[::-1], ("x",), table)

    def test_one_differing_assignment_is_unequal(self):
        q = q_constraint()
        table = {(a, b): q_value(a, b)
                 for a, b in itertools.product(COLORS, repeat=2)}
        table[("green", "blue")] = 7
        assert q != make_constraint(WCSP, COLORS, ("v", "w"), table)
        assert q != q_constraint("v", "u")

    def test_mixed_instances_raise(self):
        with pytest.raises(InstanceMismatchError):
            unit_constraint(WCSP, COLORS) == unit_constraint(lookup("csp"),
                                                             COLORS)

    def test_different_domain_sets_are_unequal(self):
        assert unit_constraint(WCSP, COLORS) \
            != unit_constraint(WCSP, COLORS[:2])


class TestSupport:
    def test_q_depends_on_both(self):
        assert support(q_constraint()) == {"v", "w"}

    def test_constant_axis_is_dropped(self):
        table = {(a, b): (1 if a == "red" else 2)
                 for a, b in itertools.product(COLORS, repeat=2)}
        c = make_constraint(WCSP, COLORS, ("x", "y"), table)
        assert support(c) == {"x"}

    def test_unit_has_empty_support(self):
        assert support(unit_constraint(WCSP, COLORS)) == frozenset()


NAMES = ("n1", "n2", "n3", "n4")


def _random_permutation(rng, names):
    shuffled = list(names)
    rng.shuffle(shuffled)
    return Permutation(dict(zip(names, shuffled)))


@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.key)
def test_hide_axioms_random(spec):
    rng = random.Random(f"hide-{spec.key}")
    domain = ("d0", "d1", "d2")
    for _ in range(60):
        c = random_constraint(rng, spec, domain, NAMES)
        d = random_constraint(rng, spec, domain, NAMES)
        x, y = rng.sample(NAMES, 2)
        assert hide(x, hide(y, c)) == hide(y, hide(x, c))
        if x not in support(c):
            assert hide(x, combine(c, d)) == combine(c, hide(x, d))
            assert hide(x, csum(c, d)) == csum(c, hide(x, d))
        if y not in support(c):
            assert hide(x, c) == hide(y, _substitute(c, x, y))
        assert hide(x, unit_constraint(spec, domain)) \
            == unit_constraint(spec, domain)


@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.key)
def test_perm_axioms_random(spec):
    rng = random.Random(f"perm-{spec.key}")
    domain = ("d0", "d1")
    for _ in range(60):
        c = random_constraint(rng, spec, domain, NAMES)
        d = random_constraint(rng, spec, domain, NAMES)
        rho = _random_permutation(rng, NAMES)
        assert permute(rho, zero_constraint(spec, domain)) \
            == zero_constraint(spec, domain)
        assert permute(rho, unit_constraint(spec, domain)) \
            == unit_constraint(spec, domain)
        assert permute(rho, combine(c, d)) == combine(permute(rho, c),
                                                      permute(rho, d))
        assert permute(rho, csum(c, d)) == csum(permute(rho, c),
                                                permute(rho, d))
        outside = [n for n in NAMES if n not in rho.kernel]
        for x in outside:
            assert permute(rho, hide(x, c)) == hide(x, permute(rho, c))
        assert support(permute(rho, c)) == {rho.apply(n) for n in support(c)}


@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.key)
def test_fuse_axiom_random(spec):
    rng = random.Random(f"fuse-{spec.key}")
    domain = ("d0", "d1", "d2")
    for _ in range(60):
        c = random_constraint(rng, spec, domain, NAMES)
        x, y = rng.sample(NAMES, 2)
        eq = fusion(x, y, spec, domain)
        assert combine(eq, c) == combine(eq, _substitute(c, y, x))


@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.key)
def test_eval_ignores_names_outside_support(spec):
    rng = random.Random(f"eval-{spec.key}")
    domain = ("d0", "d1", "d2")
    for _ in range(60):
        c = random_constraint(rng, spec, domain, NAMES)
        eta = {n: rng.choice(domain) for n in c.support}
        extended = dict(eta)
        extended["extra"] = rng.choice(domain)
        assert sr_eq(spec, c.evaluate(eta), c.evaluate(extended))


def _by_name(domain, support, value_at):
    """A reference table in product order over ``domain``: each row is
    ``value_at`` of the assignment it names, built from ``evaluate``."""
    return [(key, value_at(dict(zip(support, key))))
            for key in itertools.product(domain, repeat=len(support))]


@pytest.mark.parametrize("spec", specs(), ids=lambda s: s.key)
def test_operators_match_by_name_reference(spec):
    # Every constraint lists the same values in its own shuffled order; a
    # result follows its first operand's order, so an operator that read
    # rows by each input's own order would put values on the wrong keys.
    rng = random.Random(f"reader-{spec.key}")

    def shuffled():
        return tuple(rng.sample(("d0", "d1", "d2"), 3))

    for _ in range(80):
        c = random_constraint(rng, spec, shuffled(), NAMES, max_support=3)
        d = random_constraint(rng, spec, shuffled(), NAMES, max_support=3)
        dom = c.domain
        union = sorted(set(c.support) | set(d.support))
        for op, sr in ((combine, sr_times), (csum, sr_plus)):
            assert list(op(c, d).table.items()) == _by_name(
                dom, union, lambda eta: sr(spec, c.evaluate(eta),
                                           d.evaluate(eta)))

        x, y = rng.sample(NAMES, 2)

        def hidden(eta):
            rows = [c.evaluate({**eta, x: v}) for v in dom]
            acc = rows[0]
            for row in rows[1:]:
                acc = sr_plus(spec, acc, row)
            return acc

        rest = [n for n in c.support if n != x]
        assert list(hide(x, c).table.items()) == _by_name(dom, rest, hidden)

        rho = _random_permutation(rng, NAMES)
        image = sorted(rho.apply(n) for n in c.support)
        assert list(permute(rho, c).table.items()) == _by_name(
            dom, image,
            lambda eta: c.evaluate({n: eta[rho.apply(n)] for n in c.support}))

        merged = sorted({y if n == x else n for n in c.support})
        assert list(_substitute(c, x, y).table.items()) == _by_name(
            dom, merged,
            lambda eta: c.evaluate({n: eta[y if n == x else n]
                                    for n in c.support}))

        assert list(fusion(x, y, spec, dom).table.items()) == _by_name(
            dom, sorted((x, y)),
            lambda eta: spec.one if eta[x] == eta[y] else spec.zero)

        given = rng.sample(c.support, len(c.support))
        rows = {tuple(eta[n] for n in given): c.evaluate(eta) for eta in
                (dict(zip(c.support, key)) for key in
                 itertools.product(dom, repeat=len(c.support)))}
        order = shuffled()
        assert list(make_constraint(spec, order, given, rows).table.items()) \
            == _by_name(order, c.support,
                        lambda eta: rows[tuple(eta[n] for n in given)])


def test_combine_follows_the_first_operand_domain_order():
    first = make_constraint(WCSP, ("a", "b"), ("x",), {("a",): 1, ("b",): 5})
    second = make_constraint(WCSP, ("b", "a"), ("x",),
                             {("a",): 10, ("b",): 50})
    def payloads(c):
        return [(key, value.payload) for key, value in c.table.items()]

    assert payloads(combine(first, second)) == [(("a",), 11), (("b",), 55)]
    assert payloads(combine(second, first)) == [(("b",), 55), (("a",), 11)]
