"""Exhaustive subgroup enumeration and structural queries.

Subgroups are index sets into the parent group's element table.  Complete
enumeration is cyclic extension up to conjugacy (Neubueser, 1960): it seeds
with every cyclic subgroup, keeps one representative per conjugacy class,
joins each representative with one cyclic subgroup from each orbit under
its own conjugation, and adds each new subgroup together with its orbit
under conjugation by the generators.  Joins are closed coset by coset
(Dimino's algorithm), and all joins of one representative H share one
labelling of H's left cosets.  Joins whose result is forced are skipped,
by Lagrange: a subgroup of prime index in K is maximal in K, so once a
join gives K with [K:H] prime, every cyclic subgroup of K outside H
would join H to K again; and when [G:H] is prime, H's first join gives
G and is its last.

Normal structure needs no lattice: every normal subgroup is a join of
normal closures of conjugacy classes, so ``normal_subgroups``,
``is_simple`` and ``composition_factors`` are built from the conjugacy
classes alone and work above ``enum_cap``.  ``normal_subgroups`` also
reads a subgroup in its parent, so composition factors rebuild none.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .invariants import Fingerprint, _class_orbits, _orbits, derived_subgroup_indices, invariants
from .limits import DEFAULT_LIMITS, Limits
from .perm import FiniteGroup, LeftCosets, Permutation, closure


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of ``parent`` as a sorted element-index set."""

    parent: FiniteGroup
    members: tuple[int, ...]
    gens: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def contains(self, other: "Subgroup") -> bool:
        if other.parent is not self.parent:
            raise ValueError("subgroups of different parent groups are incomparable")
        return set(self.members).issuperset(other.members)

    def as_group(self, *, limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
        """A standalone FiniteGroup on the parent's points: ``gens`` closed
        anew.  The library compares subgroups in their parent instead."""
        parent = self.parent
        return closure(parent.degree, [parent.elements[g] for g in self.gens], limits=limits)

    def __repr__(self) -> str:
        return f"<Subgroup of order {self.order} in {self.parent!r}>"


def _view(side: FiniteGroup | Subgroup) -> tuple[FiniteGroup, Sequence[int], Sequence[int]]:
    """(group, member indices, generator indices) of a whole group, or of a
    subgroup read in its parent."""
    if isinstance(side, Subgroup):
        return side.parent, side.members, side.gens
    return side, range(side.order), side.generator_indices()


def _indices(group: FiniteGroup, indices: Iterable[int]) -> list[int]:
    """``indices`` as a list, or ValueError if one is not an element index."""
    indices = list(indices)
    for i in indices:
        if not 0 <= i < group.order:
            raise ValueError(f"{i} is not an element index of {group!r}")
    return indices


def subgroup_generated_by(group: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """The subgroup generated by the given element indices."""
    seed = _indices(group, seed)
    members = group.closure_indices(seed)
    gens = tuple(dict.fromkeys(s for s in seed if s != group.identity_index))
    return Subgroup(group, tuple(members), gens)


def subgroup_from_members(group: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Wrap an element-index set as a Subgroup, checking it really is one."""
    members = tuple(sorted(set(_indices(group, members))))
    gens = group.greedy_generator_indices(members)
    closed = tuple(group.closure_indices(list(members)))
    if closed != members:
        raise ValueError("member set is not closed under multiplication")
    return Subgroup(group, members, gens)


def conjugate_subgroup(group: FiniteGroup, sub: Subgroup, g: int) -> Subgroup:
    """The conjugate subgroup {g^-1 h g : h in sub}."""
    if sub.parent is not group:
        raise ValueError("subgroup does not belong to this group")
    _indices(group, [g])
    members = tuple(sorted(group.conjugate_index(h, g) for h in sub.members))
    gens = tuple(group.conjugate_index(h, g) for h in sub.gens)
    return Subgroup(group, members, gens)


def is_normal(group: FiniteGroup, sub: Subgroup) -> bool:
    if sub.parent is not group:
        raise ValueError("subgroup does not belong to this group")
    # invariance under conjugation by generators suffices
    inside = set(sub.members)
    return all(cmap[h] in inside for cmap in group.conjugation_maps for h in sub.members)


def _right_cosets(group: FiniteGroup, sub: Subgroup) -> tuple[list[int], list[int]]:
    """Coset id of every element under right cosets H*g, and each coset's
    least member as its representative; ids follow the representatives.

    Whole cosets are moved: a generator's right-multiplication map sends
    coset H*x, member by member, onto coset H*x*s, so the cosets are
    labelled without a product and then renumbered by least member.
    """
    coset_of = [-1] * group.order
    for h in sub.members:
        coset_of[h] = 0
    count = 1
    todo = [sub.members]  # cosets not yet moved
    while todo:
        members = todo.pop()
        for move in group.moves:
            if coset_of[move[members[0]]] < 0:
                image = [move[x] for x in members]
                for x in image:
                    coset_of[x] = count
                count += 1
                todo.append(image)
    renumber = [-1] * count
    reps: list[int] = []
    for i, c in enumerate(coset_of):
        if renumber[c] < 0:
            renumber[c] = len(reps)
            reps.append(i)
        coset_of[i] = renumber[c]
    return coset_of, reps


def coset_action(group: FiniteGroup, normal: Subgroup, *,
                 limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
    """The quotient group realized by the action on cosets of ``normal``.

    The returned permutation group acts on the |G|/|N| cosets and is
    isomorphic to G/N; raises ValueError if N is not normal.  Each
    generator's action is read through its right-multiplication map.
    """
    if normal.parent is not group:
        raise ValueError("subgroup does not belong to this group")
    if not is_normal(group, normal):
        raise ValueError("coset_action requires a normal subgroup")
    coset_of, reps = _right_cosets(group, normal)
    gens = [Permutation(tuple([coset_of[move[r]] for r in reps]))
            for move in group.moves]
    qname = f"{group.name}/N{normal.order}" if group.name else None
    return closure(len(reps), gens, limits=limits, name=qname)


@dataclass(frozen=True, eq=False)
class SubgroupLattice:
    """Every subgroup of a group, with containment and maximality data.

    ``supersets[j]`` has bit i set iff subgroups[i] contains subgroups[j];
    ``maximal_flags[i]`` is True iff the only strict over-subgroup of i is
    the whole group; ``class_of[i]`` is the id of the conjugacy class of
    subgroups[i], numbered by least member index.
    """

    parent: FiniteGroup
    subgroups: tuple[Subgroup, ...]
    supersets: tuple[int, ...]
    maximal_flags: tuple[bool, ...]
    class_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.subgroups)


_Orbit = list[tuple[tuple[int, ...], tuple[int, ...]]]  # (members, generators), representative first


def _finish_lattice(group: FiniteGroup, orbits: list[_Orbit]) -> SubgroupLattice:
    """The lattice of the subgroups in ``orbits``, sorted by (order, members).

    Containment is read from generators: subgroup i contains j iff i holds
    every generator of j.  So the subgroups over j are the AND, over j's
    generators g, of the mask of subgroups that hold g, and building those
    masks walks each subgroup's members once instead of testing every pair.
    """
    raw = sorted(((members, gens, c) for c, orbit in enumerate(orbits) for members, gens in orbit),
                 key=lambda mgc: (len(mgc[0]), mgc[0]))
    subs = tuple(Subgroup(group, members, gens) for members, gens, _ in raw)
    renumber: dict[int, int] = {}
    class_of = tuple(renumber.setdefault(c, len(renumber)) for _, _, c in raw)
    k = len(subs)
    holding = [0] * group.order  # holding[x]: the subgroups that contain x
    for i, sub in enumerate(subs):
        bit = 1 << i
        for x in sub.members:
            holding[x] |= bit
    supersets = []  # supersets[j]: the subgroups that contain subgroups[j]
    for sub in subs:
        over = (1 << k) - 1
        for g in sub.gens:
            over &= holding[g]
        supersets.append(over)
    full = k - 1
    flags = tuple(i != full and supersets[i] == 1 << i | 1 << full for i in range(k))
    return SubgroupLattice(group, subs, tuple(supersets), flags, class_of)


def _mask(members: Iterable[int]) -> int:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def _orbit(members: Sequence[int], gens: tuple[int, ...],
           conj_maps: Sequence[Sequence[int]]) -> _Orbit:
    """Every conjugate of the subgroup ``members`` generated by ``gens``, itself
    first; a conjugate's generators are ``gens`` under the same conjugation."""
    if len(members) == 1:  # the trivial group, its own only conjugate
        return [(tuple(members), gens)]
    orbit: dict[tuple[int, ...], tuple[int, ...]] = {}
    todo = [(members, gens)]
    for current, current_gens in todo:  # grows as new conjugates appear
        key = tuple(sorted(current))
        if key not in orbit:
            orbit[key] = current_gens
            gather = itemgetter(*current)
            todo += [(gather(cmap), tuple([cmap[g] for g in current_gens])) for cmap in conj_maps]
    return list(orbit.items())


def _enumerate_subgroups(group: FiniteGroup) -> list[_Orbit]:
    """The conjugation orbit of every conjugacy class of subgroups."""
    # One representative per conjugacy class is joined with every cyclic
    # subgroup; each new subgroup enters with its whole conjugation orbit.
    # Complete, by induction on K = <C1..Ck>: if <C1..Ci> = R^g for a
    # representative R, then <C1..Ci+1> = <R, Ci+1^(g^-1)>^g, a join tried.
    # Only the first cyclic subgroup of each orbit under conjugation by R is
    # joined: for h in R, <R, C^h> = <R, C>^h = <R, C>, so a join skipped
    # would give a subgroup already known.  So would the joins that
    # Lagrange forces: when a join gives K with [K:R] prime, no subgroup
    # lies strictly between R and K, so every cyclic subgroup of K outside
    # R joins R to K, and all of them are marked done; when K is G, that
    # ends R's loop.  So discovery order, class representatives and their
    # generators do not change.  All joins of R share one labelling of
    # R's left cosets.
    n = group.order
    rows = group.rows
    ident = group.identity_index
    half = n // 2
    full = tuple(range(n))
    conj_maps = group.conjugation_maps
    primes = {p for p in range(2, n + 1) if n % p == 0 and order_shape(p) == (1,)}

    # cyclic_of[i] is first the mask of <i>; its generators i^e, gcd(e, k) = 1,
    # all share it, so only the least of them, met first, walks the powers
    cyclic_of = [0] * n
    cyclic_by_mask: dict[int, tuple[list[int], int]] = {}
    for i in range(n):
        if not cyclic_of[i]:
            members = [ident]
            j = i
            while j != ident:
                members.append(j)
                j = rows[j][i]
            mask = _mask(members)
            k = len(members)
            for e in range(k):  # e = 0 counts only for the identity, where k = 1
                if math.gcd(e, k) == 1:
                    cyclic_of[members[e]] = mask
            cyclic_by_mask[mask] = (members, i)
    masks = sorted(cyclic_by_mask, key=lambda mask: (mask.bit_count(), mask))
    cyclics = [cyclic_by_mask[mask] for mask in masks]  # (members, least generator)
    number = {mask: c for c, mask in enumerate(masks)}
    cyclic_of = [number[mask] for mask in cyclic_of]  # then the number of <i> in cyclics

    orbits: list[_Orbit] = []
    known: set[tuple[int, ...]] = set()

    def add_class(members: Sequence[int], gens: tuple[int, ...]) -> None:
        orbit = _orbit(members, gens, conj_maps)
        known.update(m for m, _ in orbit)
        orbits.append(orbit)

    add_class([ident], ())
    for members, gen in cyclics:
        if tuple(sorted(members)) not in known:
            add_class(members, (gen,))
    for orbit in orbits:  # grows as joins find new classes
        hmembers, hgens = orbit[0]
        if hmembers == full or not hgens:  # the trivial group's joins are the cyclics
            continue
        cosets = LeftCosets(hmembers)
        by = [(rows[group.inverse_index(h)], h) for h in hgens]  # h^-1 x h is rows[left[x]][h]
        done = set(itemgetter(*hmembers)(cyclic_of))  # R's own cyclic subgroups join to R
        for c, (_, cgen) in enumerate(cyclics):
            if c in done:
                continue
            done.add(c)
            conjugates = [cgen]
            for x in conjugates:  # grows along C's orbit under conjugation by R
                for left, h in by:
                    y = rows[left[x]][h]
                    if cyclic_of[y] not in done:
                        done.add(cyclic_of[y])
                        conjugates.append(y)
            result = group.join(cosets, hgens, cgen, half)
            if result is None:  # past half of G, so G itself
                result = full
                if full not in known:
                    add_class(full, group.generator_indices())
            elif tuple(result) not in known:
                add_class(result, group.greedy_generator_indices(result))
            if len(result) // len(hmembers) in primes:  # R is maximal in the join
                done.update(itemgetter(*result)(cyclic_of))
    if full not in known:
        add_class(full, group.generator_indices())
    return orbits


def _cache_path(group: FiniteGroup, cache_dir: str | os.PathLike) -> Path:
    payload = json.dumps(
        [group.degree, group.order, [list(p.images) for p in group.generators]]
    )
    key = hashlib.sha256(payload.encode()).hexdigest()[:32]
    return Path(cache_dir) / f"lattice-{key}.json"


def _resolve_cache_dir(cache_dir: str | os.PathLike | None) -> Path | None:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get("ISOPOSET_CACHE_DIR")
    return Path(env) if env else None


def _load_cached(group: FiniteGroup, path: Path) -> list[_Orbit] | None:
    """The orbits stored at ``path``, or None for a miss.

    The file holds one generator list per conjugacy class; members and
    conjugates are recomputed from it, so they cannot disagree with it.
    """
    try:
        payload = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("format_version") != 2
        or payload.get("degree") != group.degree
        or payload.get("order") != group.order
        or payload.get("generators") != [list(p.images) for p in group.generators]
    ):
        return None
    classes = payload.get("classes")
    if not (isinstance(classes, list) and all(
            isinstance(gens, list)
            and all(isinstance(g, int) and 0 <= g < group.order for g in gens)
            for gens in classes)):
        return None
    conj_maps = group.conjugation_maps
    orbits: list[_Orbit] = []
    known: set[tuple[int, ...]] = set()
    for gens in classes:
        orbit = _orbit(group.closure_indices(gens), tuple(gens), conj_maps)
        if orbit[0][0] in known:  # two representatives of one class
            return None
        known.update(m for m, _ in orbit)
        orbits.append(orbit)
    if (len(known) != payload.get("subgroups")
            or (group.identity_index,) not in known
            or tuple(range(group.order)) not in known):
        return None
    return orbits


def _save_cached(group: FiniteGroup, orbits: list[_Orbit], path: Path) -> None:
    payload = {
        "format_version": 2,
        "degree": group.degree,
        "order": group.order,
        "generators": [list(p.images) for p in group.generators],
        "classes": [list(orbit[0][1]) for orbit in orbits],
        "subgroups": sum(map(len, orbits)),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # write a private temp file beside the target, then rename it into
    # place: a reader sees the old file or the new one, never a torn one
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True), "utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def all_subgroups(group: FiniteGroup, *, limits: Limits = DEFAULT_LIMITS,
                  cache_dir: str | os.PathLike | None = None) -> SubgroupLattice:
    """The complete subgroup lattice of a group within the enumeration cap."""
    limits.check(group.name or "group", enum_cap=group.order)
    directory = _resolve_cache_dir(cache_dir)
    path = _cache_path(group, directory) if directory else None
    orbits = _load_cached(group, path) if path is not None and path.exists() else None
    if orbits is None:
        orbits = _enumerate_subgroups(group)
        if path is not None:
            _save_cached(group, orbits, path)
    return _finish_lattice(group, orbits)


def is_maximal(group: FiniteGroup, sub: Subgroup) -> bool:
    """True iff extending ``sub`` by any outside element generates the group.

    Works without enumerating the subgroup lattice, so it is usable above
    the enumeration cap.  <H, g> = <H, h*g*h'> for h, h' in H, so one
    candidate per double coset HgH other than H suffices, and |<H, g>| =
    |H| * (orbit of the trivial coset under <H, g>) in the right-coset
    action.  The right cosets in HgH are the orbit of H*g under H.
    """
    if sub.parent is not group:
        raise ValueError("subgroup does not belong to this group")
    if sub.order == group.order:
        raise ValueError("maximality is undefined for the whole group")
    coset_of, reps = _right_cosets(group, sub)

    def act(g: int) -> list[int]:  # each coset's image under right multiplication by g
        return [coset_of[group.mult(r, g)] for r in reps]

    hacts = [act(h) for h in sub.gens if h != group.identity_index]
    # H fixes its own coset, and its orbits on the others are the double cosets
    for double in _orbits(range(1, len(reps)), hacts):
        if len(_orbits([0], [*hacts, act(reps[double[0]])])[0]) < len(reps):
            return False
    return True


def _every_group_cyclic(n: int) -> bool:
    """Szele's criterion: every group of order n is cyclic iff gcd(n, phi(n)) = 1."""
    phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    return math.gcd(n, phi) == 1


def has_subgroup_of_order(group: FiniteGroup, m: int, *,
                          limits: Limits = DEFAULT_LIMITS,
                          lattice: SubgroupLattice | None = None) -> bool:
    """Whether the group has a subgroup of order m.

    A lattice of another group is refused.  At orders where every group
    is cyclic, a subgroup of order m exists iff an element of order m
    does, so the element orders decide, exactly and past the enumeration
    cap.  Other orders read the given lattice, or an enumerated one.
    """
    if lattice is not None and lattice.parent is not group:
        raise ValueError("lattice does not belong to this group")
    if m < 1:
        raise ValueError(f"subgroup order must be positive, got {m}")
    if m == 1 or m == group.order:
        return True
    if group.order % m:
        return False
    if _every_group_cyclic(m):
        return m in group.element_orders
    if lattice is None:
        lattice = all_subgroups(group, limits=limits)
    return any(s.order == m for s in lattice.subgroups)


def normal_subgroups(side: FiniteGroup | Subgroup) -> list[Subgroup]:
    """Every normal subgroup of a group, or of a subgroup read in its
    parent, sorted by (order, members); a subgroup's normal subgroups are
    subgroups of its parent.

    A normal subgroup is the join of the normal closures of the conjugacy
    classes it contains.  Each class's normal closure is computed once,
    and joining each distinct closure onto every normal subgroup found
    before it reaches them all, without enumerating the subgroup lattice.
    In a subgroup H, classes are the orbits of conjugation by H's
    generators, and closures are normalized by them; a closure inside a
    proper subgroup never passes half the parent, so the parent's
    Lagrange shortcut in ``normal_closure_indices`` never fires.
    """
    group, members, conjugators = _view(side)
    closures: dict[tuple[int, ...], tuple[int, ...]] = {}  # members -> class representatives
    for cls in _class_orbits(group, members, conjugators):
        closures.setdefault(tuple(group.normal_closure_indices([cls[0]], conjugators)), (cls[0],))
    found = {(group.identity_index,): ()}
    for closure_members, seed in closures.items():
        inside = set(closure_members)
        for members, reps in list(found.items()):
            if inside.issuperset(members):
                found.setdefault(closure_members, seed)
            elif not inside.issubset(members):
                joined = reps + seed
                found.setdefault(tuple(group.normal_closure_indices(joined, conjugators)), joined)
    return [
        Subgroup(group, members, group.greedy_generator_indices(members))
        for members in sorted(found, key=lambda m: (len(m), m))
    ]


def is_simple(group: FiniteGroup) -> bool:
    """True iff the group has exactly two normal subgroups."""
    return len(normal_subgroups(group)) == 2


def derived_series(group: FiniteGroup) -> list[Subgroup]:
    """Strictly descending derived series, ending at a perfect subgroup."""
    every = tuple(range(group.order))
    series = [Subgroup(group, every, group.generator_indices())]
    while True:
        current = series[-1]
        nxt = derived_subgroup_indices(group, current.gens)
        if len(nxt) == current.order:
            return series
        members = tuple(nxt)
        series.append(Subgroup(group, members, group.greedy_generator_indices(members)))
        if len(nxt) == 1:
            return series


def is_solvable(group: FiniteGroup) -> bool:
    return derived_series(group)[-1].order == 1


def composition_factors(group: FiniteGroup, *,
                        limits: Limits = DEFAULT_LIMITS) -> tuple[Fingerprint, ...]:
    """Fingerprints of the composition factors, as a sorted tuple.

    The smallest nontrivial normal subgroup N is minimal normal, so N is
    T^k for one simple group T (Robinson, A Course in the Theory of
    Groups, on characteristically simple groups).  T is N's own smallest nontrivial normal subgroup,
    fingerprinted in the parent, and is a factor k times; the loop goes on
    with G/N as a coset action.  By Jordan-Hoelder the multiset does not
    depend on which N is taken.  No subgroup is rebuilt as a group.
    """
    factors: list[Fingerprint] = []
    while group.order > 1:
        minimal = normal_subgroups(group)[1]
        whole = minimal.order == group.order  # G is simple: T = G, and the loop ends
        simple = minimal if whole else normal_subgroups(minimal)[1]
        k, rest = 0, minimal.order
        while rest % simple.order == 0:
            k, rest = k + 1, rest // simple.order
        if rest != 1:
            raise RuntimeError(f"minimal normal subgroup of order {minimal.order} "
                               f"is not a power of a group of order {simple.order}")
        factors += [invariants(group, simple.members, simple.gens)] * k
        if whole:
            break
        group = coset_action(group, minimal, limits=limits)
    return tuple(sorted(factors))


def order_shape(n: int) -> tuple[int, ...]:
    """Multiset of prime-factorization exponents, sorted descending."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    shape = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            shape.append(e)
        p += 1
    if n > 1:
        shape.append(1)
    return tuple(sorted(shape, reverse=True))
