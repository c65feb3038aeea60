"""Isomorphism testing between small finite groups.

The search maps a greedy minimal generating sequence of one group onto
order/class-size compatible elements of the other, extending each partial
assignment to the generated subgroup and rejecting on any collision.  A
successful assignment is re-verified as a bijective homomorphism on every
element pair before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .invariants import Fingerprint, conjugacy_classes, fingerprint, invariants
from .limits import DEFAULT_LIMITS, Limits, ResourceLimitError
from .perm import FiniteGroup
from .subgroups import SubgroupLattice


@dataclass(frozen=True)
class GroupIso:
    """A verified isomorphism: generator images plus the full element map."""

    generator_indices: tuple[int, ...]
    generator_images: tuple[int, ...]
    mapping: tuple[int, ...]


def _element_keys(group: FiniteGroup) -> list[tuple[int, int]]:
    # (element order, conjugacy class size): both preserved by isomorphisms
    size = [0] * group.order
    for cls in conjugacy_classes(group):
        for i in cls:
            size[i] = len(cls)
    return list(zip(group.element_orders, size))


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


def _is_isomorphism(g: FiniteGroup, h: FiniteGroup, mapping: list[int]) -> bool:
    """Full check: bijection plus the homomorphism law on all pairs."""
    if sorted(mapping) != list(range(h.order)):
        return False
    if g.cayley_table is not None and h.cayley_table is not None:
        # row i of both sides at once: mapping[i*j] against mapping[i]*mapping[j]
        htable = h.cayley_table
        for i, row in enumerate(g.cayley_table):
            hrow = htable[mapping[i]]
            if [mapping[x] for x in row] != [hrow[m] for m in mapping]:
                return False
        return True
    for i in range(g.order):
        for j in range(g.order):
            if mapping[g.mult(i, j)] != h.mult(mapping[i], mapping[j]):
                return False
    return True


def find_isomorphism(g: FiniteGroup, h: FiniteGroup, *,
                     limits: Limits = DEFAULT_LIMITS,
                     fg: Fingerprint | None = None,
                     fh: Fingerprint | None = None) -> GroupIso | None:
    """An isomorphism from g onto h, or None when none exists."""
    if max(g.order, h.order) > limits.iso_cap:
        raise ResourceLimitError(
            f"group order {max(g.order, h.order)} exceeds isomorphism cap {limits.iso_cap}"
        )
    if g.order != h.order:
        return None
    if fg is None:
        fg = fingerprint(g)
    if fh is None:
        fh = fingerprint(h)
    if fg != fh:
        return None
    if g.order == 1:
        return GroupIso((), (), (h.identity_index,))

    sources = list(g.greedy_generator_indices())
    keys_g = _element_keys(g)
    keys_h = _element_keys(h)
    candidates = [
        [j for j in range(h.order) if keys_h[j] == keys_g[s]] for s in sources
    ]

    images: list[int] = []

    def search(depth: int) -> list[int] | None:
        for cand in candidates[depth]:
            images.append(cand)
            gmap = _pair_closure(g, h, sources[: depth + 1], images)
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
    if not _is_isomorphism(g, h, gmap):
        raise RuntimeError("isomorphism search produced an invalid witness")
    return GroupIso(tuple(sources), tuple(images), tuple(gmap))


def are_isomorphic(g: FiniteGroup, h: FiniteGroup, *,
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
    parent by :func:`invariants`, and its class inherits the result.  A
    representative is realized as a standalone group only when another
    conjugacy class shares its fingerprint, to be compared with it.
    """
    if lattice.parent is not group:
        raise ValueError("lattice does not belong to this group")
    conjugates: dict[int, list[int]] = {}
    for idx, cls in enumerate(lattice.class_of):
        conjugates.setdefault(cls, []).append(idx)
    orbits = list(conjugates.values())  # ordered by least member
    buckets: dict[Fingerprint, list[int]] = {}
    for k, orbit in enumerate(orbits):
        rep = lattice.subgroups[orbit[0]]
        buckets.setdefault(invariants(group, rep.members, rep.gens), []).append(k)
    out: list[tuple[tuple[int, ...], Fingerprint, int]] = []
    for fp, ks in buckets.items():
        reps: list[int] = []
        members: dict[int, list[int]] = {}
        realized = ({k: lattice.subgroups[orbits[k][0]].as_group(limits=limits) for k in ks}
                    if len(ks) > 1 else {})
        for k in ks:
            for rep in reps:
                if find_isomorphism(realized[rep], realized[k],
                                    limits=limits, fg=fp, fh=fp) is not None:
                    members[rep] += orbits[k]
                    break
            else:
                reps.append(k)
                members[k] = list(orbits[k])
        for rep in reps:
            out.append((tuple(sorted(members[rep])), fp, orbits[rep][0]))
    out.sort(key=lambda cls: (cls[1], cls[0]))
    return out


def classify(group: FiniteGroup, lattice: SubgroupLattice, *,
             limits: Limits = DEFAULT_LIMITS) -> list[tuple[int, ...]]:
    """Partition of subgroup indices into isomorphism classes."""
    return [cls[0] for cls in classify_with_data(group, lattice, limits=limits)]
