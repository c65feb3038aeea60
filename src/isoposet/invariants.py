"""Isomorphism-invariant summaries of finite groups.

A Fingerprint is a cheap necessary condition for isomorphism: isomorphic
groups always share one, non-isomorphic groups usually do not.  Deciding
isomorphism proper lives in the groupiso module.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .perm import FiniteGroup


@dataclass(frozen=True, order=True)
class Fingerprint:
    order: int
    abelian: bool
    exponent: int
    order_histogram: tuple[tuple[int, int], ...]
    center_size: int
    derived_size: int
    class_sizes: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "abelian": self.abelian,
            "exponent": self.exponent,
            "order_histogram": [list(pair) for pair in self.order_histogram],
            "center_size": self.center_size,
            "derived_size": self.derived_size,
            "class_sizes": list(self.class_sizes),
        }


def is_abelian(group: FiniteGroup) -> bool:
    gens = group.generator_indices()
    return all(group.mult(a, b) == group.mult(b, a) for a in gens for b in gens)


def center_size(group: FiniteGroup) -> int:
    # commuting with every generator is commuting with everything
    gens = group.generator_indices()
    return sum(
        1
        for i in range(group.order)
        if all(group.mult(i, g) == group.mult(g, i) for g in gens)
    )


def conjugacy_classes(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Conjugacy classes as sorted index tuples, ordered by least member."""
    gens = group.generator_indices()
    seen = bytearray(group.order)
    classes = []
    for start in range(group.order):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = 1
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = group.conjugate_index(x, g)
                    if not seen[y]:
                        seen[y] = 1
                        orbit.append(y)
                        nxt.append(y)
            frontier = nxt
        classes.append(tuple(sorted(orbit)))
    return classes


def derived_subgroup_indices(group: FiniteGroup, gens: Sequence[int]) -> list[int]:
    """Sorted member indices of [H, H] for the subgroup H generated by ``gens``.

    Computed as the normal closure in H of the generator-pair commutators.
    """
    seeds = []
    for a in gens:
        for b in gens:
            ia, ib = group.inverse_index(a), group.inverse_index(b)
            seeds.append(group.mult(group.mult(group.mult(ia, ib), a), b))
    return group.normal_closure_indices(seeds, gens)


def fingerprint(group: FiniteGroup) -> Fingerprint:
    """Exhaustively computed invariant summary of a group."""
    orders = group.element_orders
    histogram = tuple(sorted(Counter(orders).items()))
    return Fingerprint(
        order=group.order,
        abelian=is_abelian(group),
        exponent=math.lcm(*orders),
        order_histogram=histogram,
        center_size=center_size(group),
        derived_size=len(derived_subgroup_indices(group, group.generator_indices())),
        class_sizes=tuple(sorted(len(c) for c in conjugacy_classes(group))),
    )
