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
    read in ``parent`` as the orbits of conjugation by ``gens``.  In a
    subgroup, g^-1 * x * g is the member y with g * y = x * g, so no
    inverse is read."""
    if len(members) == parent.order:  # conjugation by any generating set has the same orbits
        return _orbits(members, parent.conjugation_maps)
    rows = parent.rows
    maps = []
    for g in dict.fromkeys(gens):
        row = rows[g]
        solve = {row[y]: y for y in members}  # g * y -> y
        maps.append({x: solve[rows[x][g]] for x in members})
    return _orbits(members, maps)


def derived_subgroup_indices(group: FiniteGroup, gens: Sequence[int]) -> list[int]:
    """Sorted member indices of [H, H] for the subgroup H generated by ``gens``.

    Computed as the normal closure in H of the generator-pair commutators,
    from one read of the generators' inverses.
    """
    inv = group._powers_of(gens)[1]
    seeds = []
    for a in gens:
        for b in gens:
            seeds.append(group.mult(group.mult(group.mult(inv[a], inv[b]), a), b))
    return group.normal_closure_indices(seeds, gens, inv)


def _commute(parent: FiniteGroup, gens: Sequence[int]) -> bool:
    """Whether the subgroup generated by ``gens`` is abelian: it is iff its
    generators commute pairwise."""
    rows = parent.rows
    return all(rows[a][b] == rows[b][a] for a, b in itertools.combinations(gens, 2))


def invariants(parent: FiniteGroup, members: Sequence[int],
               gens: Sequence[int]) -> Fingerprint:
    """Fingerprint of the subgroup of ``parent`` with element indices
    ``members`` generated by ``gens``, read in the parent.

    It equals the fingerprint of the subgroup realized as a group of its
    own: an element's order is the same in both.  An abelian subgroup's
    fingerprint is read off its element orders alone.  Otherwise
    conjugacy classes are the orbits of conjugation by ``gens``, and the
    centre is their singletons.
    """
    if _commute(parent, gens):
        return _abelian_invariants(parent, members)
    return _invariants(parent, gens, _class_orbits(parent, members, gens))


def _abelian_invariants(parent: FiniteGroup, members: Sequence[int]) -> Fingerprint:
    """:func:`invariants` of an abelian subgroup: every class is a
    singleton, so the centre is the whole subgroup, and [H, H] is trivial."""
    element_orders = parent._powers_of(members)[0]
    return _fingerprint([element_orders[x] for x in members], (1,) * len(members), 1)


def _invariants(parent: FiniteGroup, gens: Sequence[int],
                classes: list[tuple[int, ...]]) -> Fingerprint:
    """:func:`invariants` of the subgroup with these conjugacy ``classes``."""
    members = [x for cls in classes for x in cls]
    element_orders = parent._powers_of(members)[0]
    return _fingerprint([element_orders[x] for x in members], tuple(sorted(map(len, classes))),
                        len(derived_subgroup_indices(parent, gens)))


def _fingerprint(orders: list[int], class_sizes: tuple[int, ...],
                 derived_size: int) -> Fingerprint:
    """The fingerprint of a group with these element orders, sorted
    conjugacy class sizes and derived subgroup size."""
    counts: dict[int, int] = {}
    for k in orders:
        counts[k] = counts.get(k, 0) + 1
    center = class_sizes.count(1)
    return Fingerprint(
        order=len(orders),
        abelian=center == len(orders),
        exponent=math.lcm(*counts),
        order_histogram=tuple(sorted(counts.items())),
        center_size=center,
        derived_size=derived_size,
        class_sizes=class_sizes,
    )


def fingerprint(group: FiniteGroup) -> Fingerprint:
    """Exhaustively computed invariant summary of a group: the
    :func:`invariants` of the whole group in itself."""
    return invariants(group, range(group.order), group.generator_indices())
