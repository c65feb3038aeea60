"""Brute-force reference implementations the fast paths are checked against.

These stay deliberately independent of the library's search code: the
permutation oracles compose, invert and order one permutation at a time,
point by point and cycle by cycle, with no group; the group oracle
enumerates order-respecting bijections outright, the poset oracle
enumerates all node bijections, the subgroup oracle closes every small
element subset, the conjugacy oracles conjugate by every element, the
containment oracle tests every pair of member sets, the coset oracle
multiplies every subgroup member by every element, the product oracle
closes the padded generators as permutations, and the Eulerian oracle
sums Moebius values up the lattice's containment masks.
The fingerprint oracle orders every member by its cycles, conjugates by
every member and closes every commutator.  The classification oracle is
an exception: it runs the library's own isomorphism search on every pair
of conjugacy-class representatives, with no shortcut for abelian groups,
and labels each class with the fingerprint oracle.  So is the
canonical-labeling oracle: it is the individualization-refinement tree
without the twin shortcut or automorphism pruning, which tries every member
of every target cell, on the library's refinement.
And so is the composition-factor oracle: it recurses on the smallest
normal subgroup rebuilt as a group and on the quotient, with the library's
``normal_subgroups`` and ``coset_action``.
And so is the enumeration oracle: it is cyclic extension as the library
ran it before joins shared coset labels and skipped forced results, but
every join and every greedy generating set is closed by ``oracle_closure``,
so it shares no join code with the library.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter

from isoposet import (
    DEFAULT_LIMITS,
    FiniteGroup,
    Fingerprint,
    Limits,
    Permutation,
    Poset,
    closure,
    coset_action,
    find_isomorphism,
    fingerprint,
    normal_subgroups,
    refine,
)
from isoposet.poset import _individualize


def tableless(group: FiniteGroup) -> FiniteGroup:
    """The same group, with the same elements and moves, but no Cayley
    table: its ``rows`` reads every product off the permutations."""
    return dataclasses.replace(group, cayley_table=None)


def oracle_identity(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


def oracle_compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p first, then q: the result maps x to q(p(x))."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return Permutation(tuple([q.images[y] for y in p.images]))


def oracle_inverse(p: Permutation) -> Permutation:
    inv = [0] * p.degree
    for x, y in enumerate(p.images):
        inv[y] = x
    return Permutation(tuple(inv))


def oracle_order(p: Permutation) -> int:
    """The lcm of its cycle lengths."""
    return math.lcm(*(len(c) for c in p.cycles()))


def oracle_group_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Exhaustive search over bijections that respect element orders.

    Feasible only when the per-order class sizes are small; the tests pick
    their corpus accordingly.
    """
    if g.order != h.order:
        return False
    by_order_g: dict[int, list[int]] = {}
    for i in range(g.order):
        by_order_g.setdefault(g.element_orders[i], []).append(i)
    by_order_h: dict[int, list[int]] = {}
    for j in range(h.order):
        by_order_h.setdefault(h.element_orders[j], []).append(j)
    profile_g = sorted((k, len(v)) for k, v in by_order_g.items())
    profile_h = sorted((k, len(v)) for k, v in by_order_h.items())
    if profile_g != profile_h:
        return False
    keys = sorted(by_order_g, key=lambda k: (len(by_order_g[k]), k))
    for choice in itertools.product(
        *(itertools.permutations(by_order_h[k]) for k in keys)
    ):
        mapping = [0] * g.order
        for k, images in zip(keys, choice):
            for i, j in zip(by_order_g[k], images):
                mapping[i] = j
        if _is_homomorphism(g, h, mapping):
            return True
    return False


def _is_homomorphism(g: FiniteGroup, h: FiniteGroup, mapping: list[int]) -> bool:
    for a in range(g.order):
        for b in range(g.order):
            if mapping[g.mult(a, b)] != h.mult(mapping[a], mapping[b]):
                return False
    return True


def oracle_poset_isomorphic(p: Poset, q: Poset) -> bool:
    """All-bijections search; only for posets with at most ~8 nodes."""
    if p.n != q.n or len(p.hasse) != len(q.hasse):
        return False
    target = set(q.hasse)
    for perm in itertools.permutations(range(p.n)):
        if {(perm[a], perm[b]) for a, b in p.hasse} == target:
            return True
    return False


def oracle_canonical_labeling(p: Poset) -> tuple[tuple, tuple[int, ...]]:
    """``Poset._canonical_labeling`` as the whole individualization-refinement
    tree: every member of the target cell is split off in turn, twins
    included, and no automorphism prunes a branch.  The first leaf with the
    least form wins.  Factorial in twins, so only for posets with few."""
    n = p.n
    if n == 0:
        return (0, ()), ()
    ranks = refine(p)
    leaves: list[tuple[tuple, list[int]]] = []

    def search(color: list[int]) -> None:
        cells: dict[int, list[int]] = {}
        for x in range(n):
            cells.setdefault(color[x], []).append(x)
        if len(cells) == n:
            leaves.append((tuple(sorted((color[a], color[b]) for a, b in p.hasse)), color))
            return
        size = min(len(c) for c in cells.values() if len(c) > 1)
        start = min(s for s, c in cells.items() if len(c) == size)
        grid: list = [None] * n
        for s, members in cells.items():
            grid[s] = members
        for v in cells[start]:
            search(_individualize(p.up, p.down, color, grid, start, v)[0])

    # the root cells start at the count of nodes of lower rank
    search([sum(r < ranks[x] for r in ranks) for x in range(n)])
    form, color = min(leaves, key=lambda leaf: leaf[0])
    placement = [0] * n
    for x in range(n):
        placement[color[x]] = x
    return (n, form), tuple(placement)


def relabeled(p: Poset, perm: list[int]) -> Poset:
    return Poset(p.n, tuple(sorted((perm[a], perm[b]) for a, b in p.hasse)))


def oracle_closure(group: FiniteGroup, seed, stop_above=None) -> frozenset[int] | None:
    """Element indices of <seed>, by multiplying until nothing new appears,
    or None if there are more than ``stop_above`` of them."""
    members = {group.identity_index}
    frontier = list(members)
    while frontier:
        new = {group.mult(x, s) for x in frontier for s in seed} - members
        members |= new
        frontier = list(new)
    if stop_above is not None and len(members) > stop_above:
        return None
    return frozenset(members)


def oracle_subgroups(group: FiniteGroup) -> set[frozenset[int]]:
    """{<S> : S a subset of G with |S| <= floor(log2 |G|)}.

    That is every subgroup: each generator outside the subgroup generated
    so far at least doubles its order, so a subgroup of order m has a
    generating set of at most log2 m elements.  Only for orders up to ~24.
    """
    rest = [i for i in range(group.order) if i != group.identity_index]
    size = group.order.bit_length() - 1
    return {
        oracle_closure(group, seed)
        for k in range(size + 1)
        for seed in itertools.combinations(rest, k)
    }


def oracle_conjugacy_classes(group: FiniteGroup, subgroups) -> set[frozenset[int]]:
    """Partition of subgroup positions into conjugacy classes: two member
    sets are in one class iff some element g maps one onto the other by
    h -> g^-1 h g."""
    position = {frozenset(members): k for k, members in enumerate(subgroups)}
    classes = set()
    for members in subgroups:
        conjugates = set()
        for g in range(group.order):
            inv = group.inverse_index(g)
            image = frozenset(group.mult(group.mult(inv, h), g) for h in members)
            conjugates.add(position[image])
        classes.add(frozenset(conjugates))
    return classes


def oracle_element_classes(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Conjugacy classes of elements, each the set of g^-1 x g over every
    element g, as sorted tuples ordered by least member."""
    classes = {
        tuple(sorted({group.mult(group.mult(group.inverse_index(g), x), g)
                      for g in range(group.order)}))
        for x in range(group.order)
    }
    return sorted(classes)


def oracle_containment(lattice) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """``supersets`` and ``maximal_flags`` of a lattice, by testing every
    pair of member sets."""
    sets = [frozenset(s.members) for s in lattice.subgroups]
    whole = frozenset(range(lattice.parent.order))
    supersets = tuple(sum(1 << i for i, outer in enumerate(sets) if inner <= outer)
                      for inner in sets)
    maximal = tuple(s != whole and all(t in (s, whole) for t in sets if s <= t)
                    for s in sets)
    return supersets, maximal


def oracle_fingerprint(group: FiniteGroup, members) -> Fingerprint:
    """Fingerprint of the subgroup ``members`` of ``group``: element orders
    from cycle lengths, classes from conjugation by every member, the
    centre from every pair, and [H, H] closed from every commutator."""
    members = list(members)
    orders = [oracle_order(group.elements[x]) for x in members]

    def conjugate(x, g):
        return group.mult(group.mult(group.inverse_index(g), x), g)

    classes = {frozenset(conjugate(x, g) for g in members) for x in members}
    center = [x for x in members if all(group.mult(x, g) == group.mult(g, x) for g in members)]
    derived = oracle_closure(group, {group.mult(group.inverse_index(a), conjugate(a, b))
                                     for a in members for b in members})  # a^-1 b^-1 a b
    return Fingerprint(
        order=len(members),
        abelian=len(center) == len(members),
        exponent=math.lcm(*orders),
        order_histogram=tuple(sorted(Counter(orders).items())),
        center_size=len(center),
        derived_size=len(derived),
        class_sizes=tuple(sorted(map(len, classes))),
    )


def oracle_classify(group: FiniteGroup, lattice) -> list[tuple[tuple[int, ...], Fingerprint, int]]:
    """Isomorphism classes in the triple format of ``classify_with_data``:
    ``find_isomorphism`` on every pair of conjugacy-class representatives,
    abelian or not, each class labelled with :func:`oracle_fingerprint`."""
    conjugates: dict[int, list[int]] = {}
    for idx, cls in enumerate(lattice.class_of):
        conjugates.setdefault(cls, []).append(idx)
    reps = [orbit[0] for orbit in conjugates.values()]
    subs = lattice.subgroups
    same = {r: {r} for r in reps}
    for a, b in itertools.combinations(reps, 2):
        if find_isomorphism(subs[a], subs[b]) is not None:
            same[a].add(b)
            same[b].add(a)
    out = []
    for cls in {frozenset(found) for found in same.values()}:
        assert all(same[r] == cls for r in cls), "isomorphism is not transitive"
        fps = {oracle_fingerprint(group, subs[r].members) for r in cls}
        assert len(fps) == 1, "isomorphic subgroups with different fingerprints"
        members = sorted(idx for r in cls for idx in conjugates[lattice.class_of[r]])
        out.append((tuple(members), fps.pop(), members[0]))
    out.sort(key=lambda cls: (cls[1], cls[0]))
    return out


def oracle_right_cosets(group: FiniteGroup, members) -> tuple[list[int], list[int]]:
    """Coset id of every element under right cosets H*g, numbered in order
    of least member, and that least member of each coset: every h*g read
    through ``mult``."""
    coset_of = [-1] * group.order
    reps: list[int] = []
    for g in range(group.order):
        if coset_of[g] < 0:
            for h in members:
                coset_of[group.mult(h, g)] = len(reps)
            reps.append(g)
    return coset_of, reps


def oracle_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H as ``closure`` of each factor's generators padded with the
    other factor's identity, on the disjoint union of their points."""
    degree = g.degree + h.degree
    gens = [Permutation(p.images + tuple(range(g.degree, degree))) for p in g.generators]
    gens += [Permutation(tuple(range(g.degree)) + tuple(x + g.degree for x in p.images))
             for p in h.generators]
    name = f"{g.name}x{h.name}" if g.name and h.name else None
    return closure(degree, gens, name=name)


def oracle_moebius(lattice) -> list[int]:
    """mu(H, G) for each subgroup H of the lattice, by position: mu(G, G)
    is 1, and mu(H, G) is minus the sum of mu over the strict supersets of
    H, read bit by bit off ``supersets[H]``.  The subgroups are sorted by
    order, so each superset's value is known before H's."""
    top = len(lattice.subgroups) - 1
    mu = [0] * (top + 1)
    for i in reversed(range(top + 1)):
        above, total = lattice.supersets[i] & ~(1 << i), 0
        while above:
            bit = above & -above
            total += mu[bit.bit_length() - 1]
            above ^= bit
        mu[i] = 1 if i == top else -total
    return mu


def oracle_eulerian(lattice, k: int) -> int:
    """Hall's Eulerian function: the sum over subgroups H of
    mu(H, G) * |H|^k, which counts the k-tuples of elements that generate G."""
    return sum(m * s.order ** k for m, s in zip(oracle_moebius(lattice), lattice.subgroups))


def oracle_composition_factors(group: FiniteGroup, *,
                               limits: Limits = DEFAULT_LIMITS) -> tuple:
    """Composition factors by recursion: split along the smallest nontrivial
    normal subgroup N, rebuild N as a group of its own, and recurse on N
    and on G/N."""
    if group.order == 1:
        return ()
    normals = normal_subgroups(group)
    if len(normals) == 2:
        return (fingerprint(group),)
    smallest = normals[1]
    factors = oracle_composition_factors(smallest.as_group(limits=limits), limits=limits)
    factors += oracle_composition_factors(coset_action(group, smallest, limits=limits),
                                          limits=limits)
    return tuple(sorted(factors))


def oracle_enumeration(group: FiniteGroup) -> list[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The conjugation orbits of ``_enumerate_subgroups``, by cyclic
    extension with no join skipped: every orbit of cyclic subgroups under
    each class representative H is joined to H, each join a plain closure
    of H's generators and the cyclic generator, with no coset shared
    between joins and no stop at a prime index.  Orbits are walked under
    each distinct generator's conjugation, and generating sets are
    greedy: the least member not yet generated, closed anew each time."""
    n, ident = group.order, group.identity_index
    half, full = n // 2, tuple(range(n))
    conj = [[group.conjugate_index(x, g) for x in range(n)]
            for g in dict.fromkeys(group.generator_indices())]

    cyclic_of: dict[int, frozenset[int]] = {}  # <i>, by multiplying out its powers
    cyclics: dict[frozenset[int], int] = {}  # each cyclic subgroup's least generator
    for i in range(n):
        members, x = {ident}, i
        while x != ident:
            members.add(x)
            x = group.mult(x, i)
        cyclic_of[i] = frozenset(members)
        cyclics.setdefault(cyclic_of[i], i)
    ordered = sorted(cyclics.items(), key=lambda kv: (len(kv[0]), sum(1 << x for x in kv[0])))

    def orbit_of(members, gens):
        orbit: dict = {}
        todo = [(tuple(members), tuple(gens))]
        for current, current_gens in todo:
            key = tuple(sorted(current))
            if key not in orbit:
                orbit[key] = current_gens
                todo += [(tuple(m[x] for x in current), tuple(m[g] for g in current_gens))
                         for m in conj]
        return list(orbit.items())

    def greedy(members):
        gens: list[int] = []
        covered = {ident}
        for m in members:
            if m not in covered:
                gens.append(m)
                covered = oracle_closure(group, gens)
        return tuple(gens)

    orbits: list = []
    known: set = set()

    def add(members, gens):
        orbit = orbit_of(members, gens)
        known.update(key for key, _ in orbit)
        orbits.append(orbit)

    add([ident], ())
    for members, gen in ordered:
        if tuple(sorted(members)) not in known:
            add(sorted(members), (gen,))
    for orbit in orbits:
        hmembers, hgens = orbit[0]
        if hmembers == full or not hgens:
            continue
        done: set = set()
        for members, gen in ordered:
            if members in done or members <= set(hmembers):
                continue
            done.add(members)
            conjugates = [gen]
            for x in conjugates:
                for h in hgens:
                    y = group.conjugate_index(x, h)
                    if cyclic_of[y] not in done:
                        done.add(cyclic_of[y])
                        conjugates.append(y)
            result = oracle_closure(group, [*hgens, gen], stop_above=half)
            if result is None:
                if full not in known:
                    add(full, group.generator_indices())
            elif (joined := tuple(sorted(result))) not in known:
                add(joined, greedy(joined))
    if full not in known:
        add(full, group.generator_indices())
    return orbits
