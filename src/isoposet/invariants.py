"""Isomorphism-invariant summaries of finite groups.

A Fingerprint is a cheap necessary condition for isomorphism: isomorphic
groups always share one, non-isomorphic groups usually do not.  Deciding
isomorphism proper lives in the groupiso module.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _orbits(points: Iterable[int], maps: Sequence) -> list[tuple[int, ...]]:
    """Orbits of ``points`` under the index maps, as sorted index tuples
    ordered by least member; each map is read as ``map[x]``."""
    seen: set[int] = set()
    orbits = []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for x in orbit:  # grows as the walk finds new points
            for cmap in maps:
                y = cmap[x]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        orbits.append(tuple(sorted(orbit)))
    return orbits


def conjugacy_classes(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Conjugacy classes as sorted index tuples, ordered by least member."""
    return _orbits(range(group.order), group.conjugation_maps)


def _class_orbits(parent: FiniteGroup, members: Sequence[int],
                  gens: Sequence[int]) -> list[tuple[int, ...]]:
    """Conjugacy classes of the subgroup ``members`` generated by ``gens``,
    read in ``parent`` as the orbits of conjugation by ``gens``."""
    if len(members) == parent.order:  # conjugation by any generating set has the same orbits
        return _orbits(members, parent.conjugation_maps)
    return _orbits(members, [{x: parent.conjugate_index(x, g) for x in members}
                             for g in dict.fromkeys(gens)])


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


def invariants(parent: FiniteGroup, members: Sequence[int],
               gens: Sequence[int]) -> Fingerprint:
    """Fingerprint of the subgroup of ``parent`` with element indices
    ``members`` generated by ``gens``, read in the parent.

    It equals the fingerprint of the subgroup realized as a group of its
    own: an element's order is the same in both.  Conjugacy classes are
    the orbits of conjugation by ``gens``, and the centre is their
    singletons: a subgroup is abelian iff its centre is all of it.
    """
    return _invariants(parent, gens, _class_orbits(parent, members, gens))


def _invariants(parent: FiniteGroup, gens: Sequence[int],
                classes: list[tuple[int, ...]]) -> Fingerprint:
    """:func:`invariants` of the subgroup with these conjugacy ``classes``."""
    element_orders = parent.element_orders
    orders = [element_orders[x] for cls in classes for x in cls]
    class_sizes = sorted(map(len, classes))
    center = class_sizes.count(1)
    return Fingerprint(
        order=len(orders),
        abelian=center == len(orders),
        exponent=math.lcm(*orders),
        order_histogram=tuple(sorted(Counter(orders).items())),
        center_size=center,
        derived_size=len(derived_subgroup_indices(parent, gens)),
        class_sizes=tuple(class_sizes),
    )


def fingerprint(group: FiniteGroup) -> Fingerprint:
    """Exhaustively computed invariant summary of a group: the
    :func:`invariants` of the whole group in itself."""
    return invariants(group, range(group.order), group.generator_indices())
