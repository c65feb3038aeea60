"""Permutations on finite point sets and closure-enumerated finite groups.

Multiplication convention, fixed project-wide: ``rows[i][j]`` of a group is
the index of elements[i] * elements[j], which applies elements[i] first,
then elements[j], so it maps x to elements[j](elements[i](x)).  Cayley
tables, generator moves and the BFS element order all follow this
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, ClassVar, Hashable, Iterable, Sequence

from .limits import DEFAULT_LIMITS, Limits

TABLE_ORDER = 512  # the largest order whose Cayley table a closure keeps


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection on {0, ..., n-1} stored as its image table."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("a permutation needs at least one point")
        seen = [False] * n
        for x in self.images:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError(f"images {self.images!r} are not a bijection on 0..{n - 1}")
            seen[x] = True

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> "Permutation":
        """Build a permutation from disjoint cycles; unmentioned points are fixed."""
        images = list(range(degree))
        touched = set()
        for cycle in cycles:
            if not cycle:
                raise ValueError("a cycle needs at least one point")
            for x in cycle:
                if not 0 <= x < degree:
                    raise ValueError(f"point {x} is outside 0..{degree - 1}")
                if x in touched:
                    raise ValueError(f"cycles are not disjoint at point {x}")
                touched.add(x)
            for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
                images[a] = b
        return cls(tuple(images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length above 1, each led by its least point."""
        out = []
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cycle.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


def _unchecked(images: tuple[int, ...]) -> Permutation:
    """A Permutation on images already known to form a bijection, such as a
    product of permutations; it skips the check that construction makes."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def _product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Images of a applied first, then b."""
    if len(a) == 1:
        return b  # itemgetter of one index returns the item, not a tuple
    return itemgetter(*a)(b)


class _ProductRows:
    """Rows read like a Cayley table: ``self[i][j]`` is the index in ``index``
    of the permutation product elements[i] * elements[j], taken on every
    read, so nothing is kept.  Row i is this view with ``left`` elements[i]."""

    __slots__ = ("elements", "index", "left")

    def __init__(self, elements: Sequence[Permutation], index: dict, left=None) -> None:
        self.elements, self.index, self.left = elements, index, left

    def __getitem__(self, i: int):
        if self.left is None:
            return _ProductRows(self.elements, self.index, self.elements[i].images)
        return self.index[_product(self.left, self.elements[i].images)]


def _power_walk(rows: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """(orders, inverses) by index in a group of n elements with these
    ``rows``: each element not yet reached walks its powers up to the
    identity once, and if i has order k, then i^e has order k / gcd(e, k),
    inverse i^(k-e)."""
    orders, inverses = [0] * n, [0] * n
    for i in range(n):
        if not orders[i]:
            row = rows[i]
            powers = [i]  # powers[m] is i^(m+1), ending at the identity, index 0
            while powers[-1]:
                powers.append(row[powers[-1]])
            k = len(powers)
            for e, x in enumerate(powers, 1):
                orders[x] = k // math.gcd(e, k)
                inverses[x] = powers[k - e - 1]  # i^(k-e); at e = k, the identity
    return tuple(orders), tuple(inverses)


class LeftCosets:
    """The left cosets e*H of one subgroup H, labelled as joins meet them.

    ``label[x]`` is the number of the coset that holds x, once that coset
    has been gathered; ``cosets[k]`` is coset k's members, and coset 0 is
    H.  ``gather(row)`` reads a row at H's members in one ``itemgetter``
    call.  A labelling belongs to one group and one caller: joins fill it
    in place.
    """

    __slots__ = ("label", "cosets", "gather")

    def __init__(self, members: Sequence[int]) -> None:
        self.label = dict.fromkeys(members, 0)
        self.cosets = [tuple(members)]
        if len(members) == 1:  # itemgetter of one index returns the item, not a tuple
            h, = members
            self.gather = lambda row: (row[h],)
        else:
            self.gather = itemgetter(*members)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite permutation group with every element enumerated.

    Elements sit in deterministic BFS discovery order: the identity at
    index 0, then the generators applied in input order.  Every group
    keeps ``moves``, right multiplication by each generator as an index
    map (``moves[k][a]`` is the index of elements[a] * generators[k]),
    which its closure walk computes anyway; unless its order is past
    ``TABLE_ORDER`` it also keeps the Cayley table, whose generator
    columns are the same maps; every product is read through :attr:`rows`,
    which tells the two kinds apart.  Instances are immutable and all
    operations on them are pure, so groups can be shared freely across
    threads.  Construct through :func:`closure` or the catalog module.
    """

    identity_index: ClassVar[int] = 0

    degree: int
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]
    cayley_table: tuple[tuple[int, ...], ...] | None
    moves: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self) -> None:
        index = {p.images: i for i, p in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise ValueError("duplicate elements")
        object.__setattr__(self, "_index", index)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, p: Permutation) -> int:
        """Element index of p, or ValueError if p is not in the group."""
        try:
            return self._index[p.images]
        except KeyError:
            raise ValueError(f"{p} is not an element of this group") from None

    def __contains__(self, p: Permutation) -> bool:
        return isinstance(p, Permutation) and p.images in self._index

    @cached_property
    def rows(self) -> Sequence[Sequence[int]]:
        """``rows[i][j]`` is the index of elements[i] * elements[j]
        (elements[i] applied first): the Cayley table, or past
        ``TABLE_ORDER`` a read-only view of the permutation products."""
        if self.cayley_table is not None:
            return self.cayley_table
        return _ProductRows(self.elements, self._index)

    def mult(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (elements[i] applied first)."""
        return self.rows[i][j]

    @cached_property
    def _powers(self) -> tuple[tuple[int, ...], ...]:
        """(element orders, inverse indices), from one walk of the powers."""
        return _power_walk(self.rows, self.order)

    def inverse_index(self, i: int) -> int:
        return self._powers[1][i]

    def conjugate_index(self, i: int, g: int) -> int:
        """Index of g^-1 * elements[i] * g."""
        rows = self.rows
        return rows[rows[self._powers[1][g]][i]][g]

    @cached_property
    def conjugation_maps(self) -> tuple[tuple[int, ...], ...]:
        """The conjugation map of each distinct generator, read through its
        right-multiplication map m and the inverses: g^-1 * x * g is
        m[inv[m[inv[x]]]], as inv[m[inv[x]]] = (x^-1 * g)^-1 = g^-1 * x."""
        inv = self._powers[1]
        maps: dict[int, tuple[int, ...]] = {}
        for g, move in zip(self.generator_indices(), self.moves):
            if g not in maps:
                maps[g] = tuple([move[inv[move[y]]] for y in inv])
        return tuple(maps.values())

    def generator_indices(self) -> tuple[int, ...]:
        """Index of each generator: the identity times it, read off its move."""
        return tuple([move[self.identity_index] for move in self.moves])

    def _generate(self, seed: Iterable[int], stop_above: int | None = None,
                  conjugators: Sequence[int] = ()) -> tuple[list[int] | None, list[int]]:
        """(sorted element indices, generators) of the least subgroup that
        contains ``seed`` and is normalized by every element of
        ``conjugators``; the members are None once they exceed
        ``stop_above``.

        One fold: the seed, then the conjugates of each new generator, are
        taken in turn, and each one not yet inside becomes a generator.
        The first generator's powers are walked, as there is no coset of
        the trivial group worth labelling; each later one is joined on
        through :meth:`join`, at least doubling the subgroup.  The
        subgroup is normalized once each generator's conjugates lie in it.
        """
        ident, rows = self.identity_index, self.rows
        by = [(rows[self._powers[1][c]], c) for c in conjugators]  # c^-1 x c is rows[left[x]][c]
        gens: list[int] = []
        members, inside = [ident], {ident}
        queue = list(seed)
        for x in queue:  # grows with the conjugates of each new generator
            if x in inside:
                continue
            if gens:
                members = self.join(LeftCosets(members), gens, x, stop_above)
                if members is None:
                    return None, gens
            else:
                row, y = rows[x], x
                while y != ident:
                    members.append(y)
                    y = row[y]
                members.sort()
                if stop_above is not None and len(members) > stop_above:
                    return None, gens
            gens.append(x)
            inside = set(members)
            queue += [rows[left[x]][c] for left, c in by]
        return members, gens

    def closure_indices(self, seed: Iterable[int]) -> list[int]:
        """Sorted element indices of the subgroup generated by ``seed``."""
        return self._generate(seed)[0]

    def join(self, cosets: LeftCosets, gens: Sequence[int], c: int,
             stop_above: int | None = None) -> list[int] | None:
        """Sorted element indices of <H, c> for the subgroup H whose left
        cosets are ``cosets``, generated by ``gens``, or None once it
        exceeds ``stop_above`` members.

        Dimino's closure: the join is grown as a union of whole left
        cosets e*H, walked by their labels.  The union is closed under
        left multiplication by every generator s once s*r lies in it for
        each coset representative r, since then s*r*H is one of its
        cosets.  A coset not yet labelled is gathered once, as row e of
        :attr:`rows` read at H's members, and every later join of H
        reads it by label.
        """
        rows = self.rows
        gens = [*gens, c]
        label, found = cosets.label, cosets.cosets
        most = None if stop_above is None else stop_above // len(found[0])  # cosets allowed
        taken = [0]
        inside = {0}
        for k in taken:  # grows with each new coset, so every growth is checked
            if most is not None and len(taken) > most:
                return None
            r = found[k][0]
            for s in gens:
                e = rows[s][r]
                j = label.get(e)
                if j is None:
                    j = len(found)
                    coset = cosets.gather(rows[e])
                    found.append(coset)
                    label.update(dict.fromkeys(coset, j))
                if j not in inside:
                    inside.add(j)
                    taken.append(j)
        out: list[int] = []
        for k in taken:
            out += found[k]
        out.sort()
        return out

    def normal_closure_indices(self, seed: Iterable[int], conjugators: Sequence[int]) -> list[int]:
        """Sorted element indices of the least subgroup that contains
        ``seed`` and is normalized by every element of ``conjugators``.  A
        closure past half the group is the whole group, by Lagrange."""
        return (self._generate(seed, self.order // 2, conjugators)[0]
                or list(range(self.order)))

    def greedy_generator_indices(self, members: Sequence[int]) -> tuple[int, ...]:
        """Small generating set of ``members``: repeatedly take the lowest
        member not yet generated, joining it onto the subgroup so far."""
        return tuple(self._generate(members)[1])

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """Order of every element, by index."""
        return self._powers[0]

    def __repr__(self) -> str:
        label = self.name or "FiniteGroup"
        return f"<{label}: order {self.order}, degree {self.degree}>"


def closure_walk(identity: Hashable, gens: Iterable[Hashable],
                 mul: Callable[[Hashable, Hashable], Hashable], *,
                 limits: Limits = DEFAULT_LIMITS, subject: str = "closure",
                 ) -> tuple[list, tuple[tuple[int, ...], ...] | None, tuple[tuple[int, ...], ...]]:
    """Breadth-first closure of ``gens`` under ``mul``: its keys in
    discovery order, its Cayley table, and its generator moves.

    Elements are any hashable keys: ``mul(a, b)`` is the key of a times
    the generator b.  Discovery order starts at ``identity`` and applies
    the generators in input order, so equal inputs give equal orderings,
    and keys that stand one-to-one for permutations give the order that
    :func:`closure` gives those permutations.  ``gens`` may be an
    iterator, so that the walk holds the only reference to each generator
    and drops it on return.  Past ``element_cap`` it raises, naming
    ``subject``.

    The Cayley table is built from columns already built: each element c
    other than the identity was first reached as c = a*g from an earlier
    element a and a generator g, so x*c = (x*a)*g and column c is column a
    read through g's right-multiplication map.  The walk already took
    those products, so the table takes no ``mul`` call of its own.  The
    maps themselves are returned as the moves; past ``TABLE_ORDER`` the
    table is None.
    """
    gens = list(gens)
    cap = limits.element_cap
    index = {identity: 0}
    elems = [identity]
    right: list[list[int]] = [[] for _ in gens]  # right[k][a]: index of a * gens[k]
    steps = list(zip(gens, [move.append for move in right]))
    for a in elems:  # grows as the walk reaches new elements, in BFS order
        for b, record in steps:
            c = mul(a, b)
            ci = index.get(c)
            if ci is None:
                ci = index[c] = len(elems)
                if ci == cap:
                    limits.check(subject, element_cap=ci + 1)
                elems.append(c)
            record(ci)
    for k, move in enumerate(right):  # one list at a time, so no two copies
        right[k] = tuple(move)
    moves = tuple(right)
    n = len(elems)
    if n > TABLE_ORDER:
        return elems, None, moves
    columns: list[tuple[int, ...] | None] = [None] * n
    columns[0] = tuple(range(n))
    for a, column in enumerate(columns):  # column a is built before a is read
        for move in moves:
            c = move[a]
            if columns[c] is None:
                columns[c] = itemgetter(*column)(move)
    return elems, tuple(zip(*columns)), moves


def closure(
    degree: int,
    generators: Sequence[Permutation],
    *,
    limits: Limits = DEFAULT_LIMITS,
    name: str | None = None,
) -> FiniteGroup:
    """Enumerate the group generated by ``generators`` on ``degree`` points.

    Discovery order is breadth-first from the identity with generators
    applied in input order, so two runs with identical inputs produce
    identical element orderings.  A degree past ``degree_cap`` is refused
    before the walk.  No Cayley table is kept past ``TABLE_ORDER``.
    Every element is a product of the checked generators, so its image
    tuple is taken as a bijection without a second check.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    for g in generators:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} does not match {degree}")
    subject = name or "closure"
    limits.check(subject, degree_cap=degree)
    elems, table, moves = closure_walk(tuple(range(degree)), [g.images for g in generators],
                                       _product, limits=limits, subject=subject)
    return FiniteGroup(
        degree=degree,
        generators=tuple(generators),
        elements=tuple(map(_unchecked, elems)),
        cayley_table=table,
        moves=moves,
        name=name,
    )
