import random

import pytest

from softcsp import (
    CostPair,
    frontier_filter,
    frontier_times,
    frontier_union,
    strictly_dominates,
    weakly_dominates,
)
from softcsp.errors import ModeMismatchError
from softcsp.frontier import STRICT, WEAK, empty_frontier, unit_frontier
from softcsp.semiring import INF

from oracles import oracle_filter


def bare(costs, mode=STRICT):
    return frontier_filter([(None, CostPair(*c)) for c in costs], mode)


class TestDominance:
    def test_strict_both_coordinates(self):
        assert strictly_dominates(CostPair(4, 8), CostPair(7, 9))

    def test_tie_is_not_strict(self):
        assert not strictly_dominates(CostPair(6, 10), CostPair(6, 11))
        assert weakly_dominates(CostPair(6, 10), CostPair(6, 11))

    def test_irreflexive(self):
        assert not strictly_dominates(CostPair(3, 9), CostPair(3, 9))
        assert not weakly_dominates(CostPair(3, 9), CostPair(3, 9))


class TestFilter:
    def test_route_alternatives(self):
        items = [(("p", "t"), CostPair(3, 9)),
                 (("p", "q", "t"), CostPair(4, 8)),
                 (("p", "q", "r", "s", "t"), CostPair(7, 9))]
        front = frontier_filter(items, STRICT)
        assert {(i.witness, i.cost) for i in front} == {
            (("p", "t"), CostPair(3, 9)),
            (("p", "q", "t"), CostPair(4, 8)),
        }

    def test_time_ties_survive_strict_mode(self):
        costs = [(6, 11), (5, 12), (7, 9), (6, 10)]
        front = bare(costs)
        assert front.cost_set() == {CostPair(*c) for c in costs}

    def test_weak_mode_drops_the_tied_loser(self):
        front = bare([(6, 11), (6, 10)], WEAK)
        assert front.cost_set() == {CostPair(6, 10)}

    def test_filter_is_idempotent(self):
        rng = random.Random("idem")
        for _ in range(100):
            costs = [(rng.randint(0, 5), rng.randint(0, 5))
                     for _ in range(rng.randint(0, 8))]
            for mode in (STRICT, WEAK):
                once = bare(costs, mode)
                again = frontier_filter(
                    [(i.witness, i.cost) for i in once], mode)
                assert once == again

    def test_output_is_sorted_by_witness(self):
        items = [(("b",), CostPair(1, 2)), (("a",), CostPair(2, 1))]
        front = frontier_filter(items, STRICT)
        assert [i.witness for i in front] == [("a",), ("b",)]

    def test_unknown_mode(self):
        with pytest.raises(ModeMismatchError):
            frontier_filter([], "loose")


class TestUnion:
    def test_incomparable(self):
        union = frontier_union(bare([(3, 9)]), bare([(4, 8)]))
        assert union.cost_set() == {CostPair(3, 9), CostPair(4, 8)}

    def test_dominated_entry_disappears(self):
        union = frontier_union(bare([(4, 8)]), bare([(7, 9)]))
        assert union.cost_set() == {CostPair(4, 8)}

    def test_empty_is_unit(self):
        a = bare([(1, 4), (4, 1)])
        assert frontier_union(a, empty_frontier()) == a

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            frontier_union(bare([(1, 1)]), bare([(1, 1)], WEAK))


class TestTimes:
    def test_singletons_add(self):
        product = frontier_times(bare([(2, 7)]), bare([(4, 4)]))
        assert product.cost_set() == {CostPair(6, 11)}

    def test_unit_frontier(self):
        a = frontier_filter([(("x",), CostPair(1, 4)),
                             (("y",), CostPair(4, 1))], STRICT)
        assert frontier_times(a, unit_frontier()) == a

    def test_pairwise_then_filter(self):
        product = frontier_times(bare([(1, 1), (2, 0)]), bare([(1, 1)]))
        assert product.cost_set() == {CostPair(2, 2), CostPair(3, 1)}

    def test_empty_absorbs(self):
        a = bare([(1, 4), (4, 1)])
        assert frontier_times(a, empty_frontier()) == empty_frontier()


def random_cost_sets(rng, count, size=6, span=6):
    for _ in range(count):
        yield [(rng.randint(0, span), rng.randint(0, span))
               for _ in range(rng.randint(0, size))]


@pytest.mark.parametrize("mode", [STRICT, WEAK])
def test_filter_matches_bruteforce(mode):
    rng = random.Random(f"filter-{mode}")
    for costs in random_cost_sets(rng, 300):
        assert {(c.time, c.energy) for c in bare(costs, mode).costs()} \
            == oracle_filter(costs, mode)


@pytest.mark.parametrize("mode", [STRICT, WEAK])
def test_semiring_laws(mode):
    rng = random.Random(f"laws-{mode}")
    for _ in range(200):
        a, b, c = (bare(costs, mode)
                   for costs in random_cost_sets(rng, 3, size=4, span=5))
        assert frontier_union(a, b) == frontier_union(b, a)
        assert frontier_union(frontier_union(a, b), c) \
            == frontier_union(a, frontier_union(b, c))
        assert frontier_union(a, a) == a
        assert frontier_union(a, empty_frontier(mode)) == a
        assert frontier_times(a, b) == frontier_times(b, a)
        assert frontier_times(frontier_times(a, b), c) \
            == frontier_times(a, frontier_times(b, c))
        assert frontier_times(a, unit_frontier(mode)) == a
        assert frontier_times(a, empty_frontier(mode)) == empty_frontier(mode)
        assert frontier_times(a, frontier_union(b, c)) \
            == frontier_union(frontier_times(a, b), frontier_times(a, c))


@pytest.mark.parametrize("mode", [STRICT, WEAK])
def test_sweep_matches_bruteforce_on_infinite_and_large_sets(mode):
    def check(costs):
        kept = [(c.time, c.energy) for c in bare(costs, mode).costs()]
        assert kept == sorted(oracle_filter(costs, mode))

    rng = random.Random(f"sweep-{mode}")
    # Infinite components, alone and tied: an infinite energy is never
    # below an infinite least energy, so "nothing seen yet" must differ.
    for _ in range(300):
        check([tuple(INF if rng.random() < 0.3 else rng.randint(0, 4)
                     for _ in range(2))
               for _ in range(rng.randint(0, 8))])
    # Anti-correlated, with ties in time: most items are near the line
    # time + energy = 1000, so the frontier is large.
    costs = [(time, 1000 - time + rng.randint(0, 3))
             for time in (rng.randint(0, 750) for _ in range(1500))]
    assert len(set(costs)) >= 1000
    check(costs)


def test_weak_is_subset_of_strict():
    rng = random.Random("subset")
    for costs in random_cost_sets(rng, 300):
        weak = bare(costs, WEAK).cost_set()
        strict = bare(costs, STRICT).cost_set()
        assert weak <= strict


def test_strict_removes_exactly_the_strictly_dominated():
    rng = random.Random("exact")
    for costs in random_cost_sets(rng, 300):
        unique = {CostPair(*c) for c in costs}
        kept = bare(costs, STRICT).cost_set()
        for u in unique:
            dominated = any(strictly_dominates(v, u) for v in unique)
            assert (u not in kept) == dominated
