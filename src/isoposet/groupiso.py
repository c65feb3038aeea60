"""Isomorphism testing between small finite groups.

The search maps a greedy minimal generating sequence of one group onto
order/class-size compatible elements of the other, extending each partial
assignment to the generated subgroup and rejecting on any collision.  A
successful assignment is re-verified as a bijective homomorphism on every
element pair before it is returned.  A subgroup is searched in its parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .invariants import Fingerprint, _class_orbits, _invariants, invariants
from .limits import DEFAULT_LIMITS, Limits, ResourceLimitError
from .perm import FiniteGroup
from .subgroups import Subgroup, SubgroupLattice


@dataclass(frozen=True)
class GroupIso:
    """A verified isomorphism: generator images plus the full element map.
    A subgroup's indices are its parent's, and ``mapping`` lists the images
    of its ``members`` in order."""

    generator_indices: tuple[int, ...]
    generator_images: tuple[int, ...]
    mapping: tuple[int, ...]


def _view(side: FiniteGroup | Subgroup) -> tuple[FiniteGroup, Sequence[int], Sequence[int]]:
    """(group, member indices, generator indices) of a whole group, or of a
    subgroup read in its parent."""
    if isinstance(side, Subgroup):
        return side.parent, side.members, side.gens
    return side, range(side.order), side.generator_indices()


def _element_keys(group: FiniteGroup, classes: list[tuple[int, ...]]) -> dict[int, tuple[int, int]]:
    # (element order, conjugacy class size): both preserved by isomorphisms
    orders = group.element_orders
    return {x: (orders[x], len(cls)) for cls in classes for x in cls}


def _pair_closure(g: FiniteGroup, h: FiniteGroup, sources: list[int],
                  images: list[int]) -> list[int] | None:
    """Extend source->image generator pairs over the generated subgroup.

    Returns the partial mapping array, or None when the pairs admit no
    well-defined injective homomorphism on that subgroup.
    """
    gmap = [-1] * g.order
    gmap[g.identity_index] = h.identity_index
    used = bytearray(h.order)
    used[h.identity_index] = 1
    frontier = [g.identity_index]
    pairs = list(zip(sources, images))
    while frontier:
        nxt = []
        for x in frontier:
            fx = gmap[x]
            for s, t in pairs:
                y = g.mult(x, s)
                w = h.mult(fx, t)
                fy = gmap[y]
                if fy < 0:
                    if used[w]:
                        return None
                    gmap[y] = w
                    used[w] = 1
                    nxt.append(y)
                elif fy != w:
                    return None
        frontier = nxt
    return gmap


def _is_isomorphism(g: FiniteGroup | Subgroup, h: FiniteGroup | Subgroup,
                    mapping: Sequence[int]) -> bool:
    """Full check of ``mapping``, the images of g's members in order: a
    bijection onto h's members that keeps the product of every pair."""
    (gp, gm, _), (hp, hm, _) = _view(g), _view(h)
    if len(mapping) != len(gm) or sorted(mapping) != list(hm):
        return False
    image = [-1] * gp.order
    for x, y in zip(gm, mapping):
        image[x] = y
    # row i of both sides at once: image[i*j] against image[i]*image[j]
    grows, hrows, whole = gp.rows, hp.rows, len(gm) == gp.order
    for i, fi in zip(gm, mapping):
        row, hrow = grows[i], hrows[fi]
        products = row if whole else [row[j] for j in gm]
        if [image[x] for x in products] != [hrow[y] for y in mapping]:
            return False
    return True


def find_isomorphism(g: FiniteGroup | Subgroup, h: FiniteGroup | Subgroup, *,
                     limits: Limits = DEFAULT_LIMITS,
                     fg: Fingerprint | None = None,
                     fh: Fingerprint | None = None) -> GroupIso | None:
    """An isomorphism from g onto h, or None when none exists."""
    (gp, gm, ggens), (hp, hm, hgens) = _view(g), _view(h)
    if max(len(gm), len(hm)) > limits.iso_cap:
        raise ResourceLimitError(
            f"group order {max(len(gm), len(hm))} exceeds isomorphism cap {limits.iso_cap}"
        )
    if len(gm) != len(hm):
        return None
    # each side's classes are walked once, for its fingerprint and its keys
    gclasses, hclasses = _class_orbits(gp, gm, ggens), _class_orbits(hp, hm, hgens)
    if (fg or _invariants(gp, ggens, gclasses)) != (fh or _invariants(hp, hgens, hclasses)):
        return None
    if len(gm) == 1:
        return GroupIso((), (), (hp.identity_index,))

    sources = list(gp.greedy_generator_indices(gm))
    keys_g = _element_keys(gp, gclasses)
    keys_h = _element_keys(hp, hclasses)
    candidates = [[j for j in hm if keys_h[j] == keys_g[s]] for s in sources]

    images: list[int] = []

    def search(depth: int) -> list[int] | None:
        for cand in candidates[depth]:
            images.append(cand)
            gmap = _pair_closure(gp, hp, sources[: depth + 1], images)
            if gmap is not None:
                if depth + 1 == len(sources):
                    return gmap  # images intact for the witness
                found = search(depth + 1)
                if found is not None:
                    return found
            images.pop()
        return None

    gmap = search(0)
    if gmap is None:
        return None
    mapping = [gmap[x] for x in gm]
    if not _is_isomorphism(g, h, mapping):
        raise RuntimeError("isomorphism search produced an invalid witness")
    return GroupIso(tuple(sources), tuple(images), tuple(mapping))


def are_isomorphic(g: FiniteGroup | Subgroup, h: FiniteGroup | Subgroup, *,
                   limits: Limits = DEFAULT_LIMITS) -> bool:
    return find_isomorphism(g, h, limits=limits) is not None


def classify_with_data(
    group: FiniteGroup,
    lattice: SubgroupLattice,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> list[tuple[tuple[int, ...], Fingerprint, int]]:
    """Isomorphism classes of lattice subgroups with fingerprints.

    Returns (member subgroup indices, fingerprint, representative index)
    triples sorted by (fingerprint, members); the representative is the
    lowest-index member.  Conjugate subgroups are isomorphic, so only the
    lowest-index member of each conjugacy class is fingerprinted, in the
    parent by :func:`invariants`, and its class inherits the result.
    Representatives that share a fingerprint are compared in the parent.
    """
    if lattice.parent is not group:
        raise ValueError("lattice does not belong to this group")
    conjugates: dict[int, list[int]] = {}
    for idx, cls in enumerate(lattice.class_of):
        conjugates.setdefault(cls, []).append(idx)
    buckets: dict[Fingerprint, list[list[int]]] = {}
    for orbit in conjugates.values():  # ordered by least member
        rep = lattice.subgroups[orbit[0]]
        buckets.setdefault(invariants(group, rep.members, rep.gens), []).append(orbit)
    out: list[tuple[tuple[int, ...], Fingerprint, int]] = []
    for fp, orbits in buckets.items():
        classes: list[list[int]] = []  # each led by its least subgroup index
        for orbit in orbits:
            sub = lattice.subgroups[orbit[0]]
            for cls in classes:
                if find_isomorphism(lattice.subgroups[cls[0]], sub, limits=limits, fg=fp, fh=fp):
                    cls += orbit
                    break
            else:
                classes.append(orbit)
        out += [(tuple(sorted(cls)), fp, cls[0]) for cls in classes]
    out.sort(key=lambda cls: (cls[1], cls[0]))
    return out


def classify(group: FiniteGroup, lattice: SubgroupLattice, *,
             limits: Limits = DEFAULT_LIMITS) -> list[tuple[int, ...]]:
    """Partition of subgroup indices into isomorphism classes."""
    return [cls[0] for cls in classify_with_data(group, lattice, limits=limits)]
