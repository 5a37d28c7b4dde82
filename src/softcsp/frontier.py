"""Pareto frontiers of (time, energy) costs.

Cost *sets* form a semiring: union keeps alternatives side by side,
pairwise addition composes them, and after every operation the set is
reduced to its non-dominated elements (the compact representative of a
down-closed cost set).  The trip and journey optimizers do not use it,
only :func:`_undominated`.  Two dominance notions are supported:

* ``strict`` -- u beats v only when u is smaller in *both* coordinates.
  This is the default, and it keeps alternatives that tie on one criterion.
* ``weak`` -- u beats v when u is no worse in both coordinates and better
  in at least one.  The textbook Pareto filter; always a subset of the
  strict frontier for the same input.

Elements may carry a witness (e.g. the node sequence of a route).
Dominance compares costs only; witnesses merely ride along and fix a
deterministic output order.

:func:`_undominated` keeps the items of non-dominated ``(time, energy)``
cost by one sort and one sweep (Kung, Luccio and Preparata 1975).  Sorted
by time, then energy, every pair that could dominate a pair comes before
it, so a pair survives when its energy is below the least energy seen so
far (weak), or at most the least energy at strictly earlier times (strict).
"""

from __future__ import annotations

from operator import attrgetter
from typing import (Any, Callable, Collection, Iterable, NamedTuple, Optional,
                    Tuple)

from .errors import Frozen, ModeMismatchError
from .semiring import CostPair

STRICT = "strict"
WEAK = "weak"
MODES = (STRICT, WEAK)


def _strictly(u_time, u_energy, v_time, v_energy) -> bool:
    return u_time < v_time and u_energy < v_energy


def _weakly(u_time, u_energy, v_time, v_energy) -> bool:
    return (u_time <= v_time and u_energy <= v_energy
            and (u_time < v_time or u_energy < v_energy))


def strictly_dominates(u: CostPair, v: CostPair) -> bool:
    """u beats v in both coordinates at once.  Irreflexive."""
    return _strictly(u.time, u.energy, v.time, v.energy)


def weakly_dominates(u: CostPair, v: CostPair) -> bool:
    """u is nowhere worse than v and better somewhere.  Irreflexive."""
    return _weakly(u.time, u.energy, v.time, v.energy)


# The rules on (time, energy) components, for callers that keep costs as
# plain numbers.
_DOMINATES_COMPONENTS = {STRICT: _strictly, WEAK: _weakly}


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ModeMismatchError(f"unknown dominance mode {mode!r}")


def _undominated(items: Collection, cost: Callable[[Any], tuple],
                 mode: Optional[str]) -> list:
    """The items, in input order, whose ``(time, energy)`` ``cost(item)``
    no other item's dominates under ``mode``; all of them without one."""
    if mode is None:
        return list(items)
    strict = mode == STRICT
    kept = set()
    # None, not infinity, marks "nothing seen yet": an infinite energy is
    # not below an infinite least energy.
    least = before = last_time = None
    for pair in sorted(set(map(cost, items))):
        time, energy = pair
        if time != last_time:
            before, last_time = least, time
        if least is None or energy < least:
            least = energy
            kept.add(pair)
        elif strict and (before is None or energy <= before):
            kept.add(pair)
    return [item for item in items if cost(item) in kept]


class FrontierItem(NamedTuple):
    """A cost and its witness; a tuple."""

    cost: CostPair
    witness: Any = None


def _witness_key(w: Any):
    # Total, deterministic order over heterogeneous witnesses: tuples
    # recursively, leaves by their string form, None first.
    if w is None:
        return (-1, "")
    if isinstance(w, tuple):
        return (1, tuple(_witness_key(x) for x in w))
    return (0, str(w))


def _item_key(item: FrontierItem):
    return (_witness_key(item.witness), item.cost.time, item.cost.energy)


class CostFrontier(Frozen):
    """A dominance-free set of (optionally witnessed) cost pairs.

    The empty frontier is valid; it is the bottom of the cost-set semiring
    (unit of :func:`frontier_union`, absorbing for :func:`frontier_times`).
    """

    __slots__ = ("items", "mode")

    def __init__(self, items: Tuple[FrontierItem, ...], mode: str = STRICT):
        self._init(items, mode)

    def costs(self) -> Tuple[CostPair, ...]:
        return tuple(item.cost for item in self.items)

    def cost_set(self) -> frozenset:
        return frozenset(self.costs())

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def frontier_filter(items: Iterable[Tuple[Any, CostPair]],
                    mode: str = STRICT) -> CostFrontier:
    """Keep exactly the items not dominated by any item of the input.

    ``items`` are ``(witness, cost)`` pairs; duplicates are collapsed.
    Because dominance is irreflexive, equal costs never knock each other
    out.  Output order is lexicographic by witness, then by cost.
    """
    _check_mode(mode)
    unique = {FrontierItem(cost=cost, witness=witness) for witness, cost in items}
    kept = _undominated(unique, attrgetter("cost"), mode)
    kept.sort(key=_item_key)
    return CostFrontier(items=tuple(kept), mode=mode)


def empty_frontier(mode: str = STRICT) -> CostFrontier:
    _check_mode(mode)
    return CostFrontier(items=(), mode=mode)


def unit_frontier(mode: str = STRICT) -> CostFrontier:
    """The singleton {<0,0>}: unit of :func:`frontier_times`."""
    _check_mode(mode)
    return CostFrontier(items=(FrontierItem(cost=CostPair(0, 0)),), mode=mode)


def _require_same_mode(a: CostFrontier, b: CostFrontier) -> None:
    if a.mode != b.mode:
        raise ModeMismatchError(
            f"cannot combine a {a.mode!r} frontier with a {b.mode!r} one"
        )


def frontier_union(a: CostFrontier, b: CostFrontier) -> CostFrontier:
    """Set union, re-filtered: the additive operation of the cost-set semiring."""
    _require_same_mode(a, b)
    pairs = [(item.witness, item.cost) for item in a.items]
    pairs += [(item.witness, item.cost) for item in b.items]
    return frontier_filter(pairs, a.mode)


def _as_tuple(w: Any) -> tuple:
    if w is None:
        return ()
    if isinstance(w, tuple):
        return w
    return (w,)


def _combine_witness(w1: Any, w2: Any) -> Optional[tuple]:
    if w1 is None and w2 is None:
        return None
    return _as_tuple(w1) + _as_tuple(w2)


def frontier_times(a: CostFrontier, b: CostFrontier) -> CostFrontier:
    """Pairwise cost sums, re-filtered: the multiplicative operation.

    Witness labels concatenate, with the unlabelled witness acting as the
    neutral element so ``A x {<0,0>} == A`` holds labels included.
    """
    _require_same_mode(a, b)
    pairs = [(_combine_witness(ia.witness, ib.witness), ia.cost.add(ib.cost))
             for ia in a.items for ib in b.items]
    return frontier_filter(pairs, a.mode)
