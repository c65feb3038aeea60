"""Isomorphism-invariant summaries of finite groups.

A Fingerprint is a cheap necessary condition for isomorphism: isomorphic
groups always share one, non-isomorphic groups usually do not.  Deciding
isomorphism proper lives in the groupiso module.
"""

from __future__ import annotations

import itertools
import math
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
    read in ``parent``, ordered by least member.  A subgroup whose
    generators commute pairwise is abelian, so each member is a class of
    its own and no orbit is walked; this is the one place an abelian
    subgroup is told apart.  Otherwise the classes are the orbits of
    conjugation by ``gens``, g^-1 * x * g read as rows[rows[inv[g]][x]][g]."""
    rows = parent.rows
    if all(rows[a][b] == rows[b][a] for a, b in itertools.combinations(gens, 2)):
        return list(zip(members))  # each member a class of its own
    if len(members) == parent.order:  # conjugation by any generating set has the same orbits
        return _orbits(members, parent.conjugation_maps)
    inv = parent._powers[1]
    maps = []
    for g in dict.fromkeys(gens):
        left = rows[inv[g]]
        maps.append({x: rows[left[x]][g] for x in members})
    return _orbits(members, maps)


def derived_subgroup_indices(group: FiniteGroup, gens: Sequence[int]) -> list[int]:
    """Sorted member indices of [H, H] for the subgroup H generated by ``gens``.

    Computed as the normal closure in H of the generator-pair commutators,
    whose inverses are read from the group's one walk of its powers.
    """
    inv = group._powers[1]
    seeds = []
    for a in gens:
        for b in gens:
            seeds.append(group.mult(group.mult(group.mult(inv[a], inv[b]), a), b))
    return group.normal_closure_indices(seeds, gens)


def invariants(parent: FiniteGroup, members: Sequence[int],
               gens: Sequence[int]) -> Fingerprint:
    """Fingerprint of the subgroup of ``parent`` with element indices
    ``members`` generated by ``gens``, read in the parent.

    It equals the fingerprint of the subgroup realized as a group of its
    own: an element's order is the same in both.  Conjugacy classes are
    those of :func:`_class_orbits`, and the centre is their singletons.
    """
    return _invariants(parent, gens, _class_orbits(parent, members, gens))


def _invariants(parent: FiniteGroup, gens: Sequence[int],
                classes: list[tuple[int, ...]]) -> Fingerprint:
    """:func:`invariants` of the subgroup generated by ``gens`` with these
    conjugacy ``classes``.  When every class is a singleton the subgroup
    is abelian and [H, H] is trivial, so no closure is taken."""
    element_orders = parent._powers[0]
    counts: dict[int, int] = {}
    for cls in classes:
        for x in cls:
            k = element_orders[x]
            counts[k] = counts.get(k, 0) + 1
    class_sizes = tuple(sorted(map(len, classes)))
    order, center = sum(class_sizes), class_sizes.count(1)
    return Fingerprint(
        order=order,
        abelian=center == order,
        exponent=math.lcm(*counts),
        order_histogram=tuple(sorted(counts.items())),
        center_size=center,
        derived_size=1 if center == order else len(derived_subgroup_indices(parent, gens)),
        class_sizes=class_sizes,
    )


def fingerprint(group: FiniteGroup) -> Fingerprint:
    """Exhaustively computed invariant summary of a group: the
    :func:`invariants` of the whole group in itself."""
    return invariants(group, range(group.order), group.generator_indices())
