"""Isomorphism testing between small finite groups.

The search maps a greedy minimal generating sequence of one group onto
order/class-size compatible elements of the other, extending each partial
assignment to the generated subgroup and rejecting on any collision.  A
successful assignment is re-verified as a bijective homomorphism on every
element pair before it is returned.  A subgroup is searched in its parent.
Each side's conjugacy classes come from ``invariants._class_orbits``,
which gives an abelian side one class per member without walking an
orbit, so a search and a fingerprint here have no abelian branch of
their own.

Only classification here, and class labels in ``classposet``, answer
without a search, where a theorem gives the answer: finite abelian
groups are isomorphic iff they have equally many elements of each order,
so abelian subgroups with equal fingerprints are one class.
``find_isomorphism`` and ``are_isomorphic`` always search, since the
one returns a witness and the other stands for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .invariants import Fingerprint, _class_orbits, _invariants
from .limits import DEFAULT_LIMITS, Limits
from .perm import FiniteGroup
from .subgroups import Subgroup, SubgroupLattice, _view


@dataclass(frozen=True)
class GroupIso:
    """A verified isomorphism: generator images plus the full element map.
    A subgroup's indices are its parent's, and ``mapping`` lists the images
    of its ``members`` in order."""

    generator_indices: tuple[int, ...]
    generator_images: tuple[int, ...]
    mapping: tuple[int, ...]


def _element_keys(group: FiniteGroup, members: Sequence[int],
                  classes: list[tuple[int, ...]]) -> dict[int, tuple[int, int]]:
    # (element order, conjugacy class size): both preserved by isomorphisms
    orders = group._powers[0]
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
    """An isomorphism from g onto h, or None when none exists; sides of
    different orders answer None before ``iso_cap`` is checked."""
    (gp, gm, ggens), (hp, hm, hgens) = _view(g), _view(h)
    if len(gm) != len(hm):
        return None
    limits.check("group", iso_cap=len(gm))
    # each side's classes are walked once, for its fingerprint and its keys
    gclasses, hclasses = _class_orbits(gp, gm, ggens), _class_orbits(hp, hm, hgens)
    if (fg or _invariants(gp, ggens, gclasses)) != (fh or _invariants(hp, hgens, hclasses)):
        return None
    return _search_isomorphism(g, h, gclasses, hclasses)


def _search_isomorphism(g: FiniteGroup | Subgroup, h: FiniteGroup | Subgroup,
                        gclasses: list[tuple[int, ...]],
                        hclasses: list[tuple[int, ...]]) -> GroupIso | None:
    """:func:`find_isomorphism` between two sides of one order and one
    fingerprint, given each side's conjugacy classes."""
    (gp, gm, _), (hp, hm, _) = _view(g), _view(h)
    sources = list(gp.greedy_generator_indices(gm))
    keys_g = _element_keys(gp, gm, gclasses)
    keys_h = _element_keys(hp, hm, hclasses)
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

    # the trivial group has no generator, and the identity is its image
    gmap = search(0) if sources else _pair_closure(gp, hp, [], [])
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
    parent as :func:`invariants` does, and its class inherits the result.
    Finite abelian groups are isomorphic iff they have equally many
    elements of each order, so an abelian fingerprint is one class.
    Other representatives that share a fingerprint are compared in the
    parent.
    """
    if lattice.parent is not group:
        raise ValueError("lattice does not belong to this group")
    conjugates: dict[int, list[int]] = {}
    for idx, cls in enumerate(lattice.class_of):
        conjugates.setdefault(cls, []).append(idx)
    # each representative's classes are taken once, for its fingerprint
    # and for every comparison it takes part in
    walked: dict[int, list[tuple[int, ...]]] = {}
    buckets: dict[Fingerprint, list[list[int]]] = {}
    for orbit in conjugates.values():  # ordered by least member
        rep = lattice.subgroups[orbit[0]]
        walked[orbit[0]] = _class_orbits(group, rep.members, rep.gens)
        buckets.setdefault(_invariants(group, rep.gens, walked[orbit[0]]), []).append(orbit)
    out: list[tuple[tuple[int, ...], Fingerprint, int]] = []
    for fp, orbits in buckets.items():
        if fp.abelian:  # one class, by the theorem, under the same cap as a search
            if len(orbits) > 1:
                limits.check("subgroup", iso_cap=fp.order)
            merged = [idx for orbit in orbits for idx in orbit]
            out.append((tuple(sorted(merged)), fp, merged[0]))
            continue
        classes: list[list[int]] = []  # each led by its least subgroup index
        for orbit in orbits:
            sub = lattice.subgroups[orbit[0]]
            for cls in classes:
                limits.check("subgroup", iso_cap=fp.order)
                if _search_isomorphism(lattice.subgroups[cls[0]], sub,
                                       walked[cls[0]], walked[orbit[0]]):
                    cls += orbit
                    break
            else:
                classes.append(orbit)
        out += [(tuple(sorted(cls)), fp, cls[0]) for cls in classes]
    out.sort(key=lambda cls: (cls[1], cls[0]))
    return out


def classify(group: FiniteGroup, lattice: SubgroupLattice) -> list[tuple[int, ...]]:
    """Partition of subgroup indices into isomorphism classes."""
    return [cls[0] for cls in classify_with_data(group, lattice)]
