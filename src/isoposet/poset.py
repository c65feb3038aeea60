"""Finite posets: refinement coloring, isomorphism, canonical hashing.

Posets are stored as Hasse diagrams (cover relations); for finite posets
cover-digraph isomorphism and order isomorphism coincide, so all searches
run on the reduction.  Refinement gives the root of the canonical search and
runs again after each node the search splits off; completeness comes from
the search's leaves, whose least form decides isomorphism as well as the
digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .limits import DEFAULT_LIMITS, Limits


@dataclass(frozen=True)
class Poset:
    """A finite poset given by its Hasse edges (lo, hi), lo covered by hi."""

    n: int
    hasse: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"node count must be non-negative, got {self.n}")
        seen = set()
        for lo, hi in self.hasse:
            if not (0 <= lo < self.n and 0 <= hi < self.n) or lo == hi:
                raise ValueError(f"bad cover edge ({lo}, {hi})")
            if (lo, hi) in seen:
                raise ValueError(f"duplicate cover edge ({lo}, {hi})")
            seen.add((lo, hi))
        if len(self._topo_from_top) != self.n:
            raise ValueError("cover edges contain a cycle")
        # transitive reduction: no edge may follow from two others
        for lo, hi in self.hasse:
            for mid in self.up[lo]:
                if mid != hi and self.above[mid] >> hi & 1:
                    raise ValueError(f"edge ({lo}, {hi}) is implied by ({lo}, {mid})")

    @classmethod
    def from_relation(cls, n: int, leq_pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Build from the full order relation, reducing to covers."""
        strict = [0] * n
        for a, b in leq_pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a}, {b}) is out of range for {n} elements")
            if a != b:
                strict[a] |= 1 << b
        for a in range(n):
            for b in range(n):
                if strict[a] >> b & 1:
                    if strict[b] >> a & 1:
                        raise ValueError("relation is not antisymmetric")
                    if strict[b] & ~strict[a]:
                        raise ValueError("relation is not transitive")
        covers = []
        for a in range(n):
            implied = 0
            for c in range(n):
                if strict[a] >> c & 1:
                    implied |= strict[c]
            cover = strict[a] & ~implied
            covers += [(a, b) for b in range(n) if cover >> b & 1]
        return cls(n, tuple(covers))

    @cached_property
    def up(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for lo, hi in self.hasse:
            adj[lo].append(hi)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def down(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for lo, hi in self.hasse:
            adj[hi].append(lo)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def above(self) -> tuple[int, ...]:
        """above[x] = bitmask of nodes strictly greater than x."""
        masks = [0] * self.n
        for x in self._topo_from_top:
            acc = 0
            for y in self.up[x]:
                acc |= 1 << y
                acc |= masks[y]
            masks[x] = acc
        return tuple(masks)

    @cached_property
    def _topo_from_top(self) -> tuple[int, ...]:
        """Maximal elements first, every node after all its up-neighbors;
        shorter than n exactly when the cover edges contain a cycle."""
        outdeg = [len(self.up[x]) for x in range(self.n)]
        ready = [x for x in range(self.n) if outdeg[x] == 0]
        order = []
        while ready:
            x = ready.pop()
            order.append(x)
            for y in self.down[x]:
                outdeg[y] -= 1
                if outdeg[y] == 0:
                    ready.append(y)
        return tuple(order)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        h = [0] * self.n
        up = self.up
        for x in reversed(self._topo_from_top):
            above = h[x] + 1
            for y in up[x]:
                if h[y] < above:
                    h[y] = above
        return tuple(h)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        d = [0] * self.n
        down = self.down
        for x in self._topo_from_top:
            below = d[x] + 1
            for y in down[x]:
                if d[y] < below:
                    d[y] = below
        return tuple(d)

    def leq(self, a: int, b: int) -> bool:
        return a == b or bool(self.above[a] >> b & 1)

    @cached_property
    def _canonical_labeling(self) -> tuple[tuple, tuple[int, ...]]:
        """The canonical form and the node placement that reaches it.

        The form is read off the leaves of an individualization-refinement
        tree, as in McKay and Piperno, "Practical graph isomorphism, II"
        (2014).  Its root is the equitable partition of ``refine``; a node
        whose partition has a cell of two or more nodes has one child for
        each member of the first smallest such cell, that member split off
        the front of the cell and the partition refined again.  A leaf's
        partition places every node at its own position, and its form is
        ``(n, sorted((position[lo], position[hi]) for each cover))``.  The
        least form over the leaves is the canonical form: cells are chosen
        and split by positions and counts, never by node indices, so a
        relabeled poset grows the same tree up to the order of siblings, and
        equal forms hold exactly for isomorphic posets.

        Two kinds of subtree are skipped, each the image of a subtree already
        searched under an automorphism, so it holds the same forms.  A cell
        of twins (nodes with the same up and down covers) is split into
        single nodes in one step, in index order, since any order of twins
        is an automorphism's image of any other.  Two leaves with one form
        give an automorphism, re-checked edge by edge; the search then goes
        back to where the two leaves' paths part, and a member is skipped
        when the automorphisms that fix the nodes split off above it map an
        earlier member onto it.  The search keeps an explicit stack, so no
        recursion limit bounds n.
        """
        n = self.n
        if n == 0:
            return (0, ()), ()
        ranks = refine(self)
        members: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
        for x, r in enumerate(ranks):
            members[r].append(x)
        color, cells, start = [0] * n, [None] * n, 0
        for cell in members:
            cells[start] = cell
            for x in cell:
                color[x] = start
            start += len(cell)
        position = _least_leaf(self.up, self.down, self.hasse, color, cells)
        placement = [0] * n
        for x in range(n):
            placement[position[x]] = x
        form = tuple(sorted((position[lo], position[hi]) for lo, hi in self.hasse))
        return (n, form), tuple(placement)


class _Branch:
    """A node of the search tree: its partition, the start of its target
    cell and the members of that cell, in index order, tried one by one."""

    __slots__ = ("color", "cells", "start", "fixed", "members", "index", "orbit", "known")

    def __init__(self, color: list[int], cells: list, start: int, fixed: int) -> None:
        self.color, self.cells, self.start = color, cells, start
        self.fixed = fixed  # mask of the nodes split off on the path here
        self.members = sorted(cells[start])
        self.index = 0
        # union-find of the members' orbits, each kept at its least member
        self.orbit = {x: x for x in self.members}
        self.known = 0  # automorphisms already merged into the orbits

    def child(self, up, down) -> tuple[list[int], list]:
        return _individualize(up, down, self.color, self.cells, self.start,
                              self.members[self.index])

    def advance(self, automorphisms: list[tuple[int, list[int]]]) -> bool:
        """Move to the next member that is the least of its orbit under the
        automorphisms fixing every node split off on the path here."""
        orbit = self.orbit
        for moved, image in automorphisms[self.known:]:
            if not moved & self.fixed:
                for a in self.members:
                    b = image[a]
                    while orbit[a] != a:
                        a = orbit[a]
                    while orbit[b] != b:
                        b = orbit[b]
                    if a != b:
                        orbit[max(a, b)] = min(a, b)
        self.known = len(automorphisms)
        index = self.index + 1
        while index < len(self.members) and orbit[self.members[index]] != self.members[index]:
            index += 1
        self.index = index
        return index < len(self.members)


def _least_leaf(up, down, hasse, color: list[int], cells: list) -> list[int]:
    """The positions of the first leaf with the least form below the
    equitable partition (color, cells); see ``Poset._canonical_labeling``."""
    n = len(color)
    best: tuple[int, ...] | None = None  # a leaf's cover pairs, each as one int
    best_color: list[int] = []
    best_path: list[int] = []
    automorphisms: list[tuple[int, list[int]]] = []  # (mask of moved nodes, map)
    stack: list[_Branch] = []
    fixed = 0
    while True:
        # descend by first members to a leaf
        while True:
            start, size, s = -1, n + 1, 0
            while s < n:
                if 1 < len(cells[s]) < size:
                    start, size = s, len(cells[s])
                s += len(cells[s])
            if start < 0:
                break
            cell = cells[start]
            # a cell of twins splits into single nodes in one step
            if all(up[x] == up[cell[0]] and down[x] == down[cell[0]] for x in cell):
                color, cells = color[:], cells[:]
                for k, x in enumerate(sorted(cell), start):
                    cells[k] = [x]
                    color[x] = k
                    fixed |= 1 << x
                continue
            branch = _Branch(color, cells, start, fixed)
            stack.append(branch)
            color, cells = branch.child(up, down)
            fixed |= 1 << branch.members[0]
        if not stack:
            return color  # no branch above: the only leaf
        code = tuple(sorted([color[lo] * n + color[hi] for lo, hi in hasse]))
        if best is None or code < best:
            best, best_color = code, color
            best_path = [b.members[b.index] for b in stack]
        elif code == best:
            node_at = [0] * n
            for x in range(n):
                node_at[color[x]] = x
            image = [node_at[best_color[x]] for x in range(n)]
            if {(image[a], image[b]) for a, b in hasse} != set(hasse):
                raise RuntimeError("equal canonical forms gave a non-automorphism")
            automorphisms.append((sum(1 << x for x in range(n) if image[x] != x), image))
            # below the branch where this leaf's path parts from the best
            # leaf's, the automorphism maps the searched subtree onto this one
            level = 0
            while stack[level].members[stack[level].index] == best_path[level]:
                level += 1
            del stack[level + 1:]
        while stack and not stack[-1].advance(automorphisms):
            stack.pop()
        if not stack:
            return best_color
        branch = stack[-1]
        color, cells = branch.child(up, down)
        fixed = branch.fixed | 1 << branch.members[branch.index]


def _refine(up, down, color: list[int], cells: list, queue: list[int]) -> None:
    """Split cells in place until the ordered partition is equitable.

    ``color[x]`` is the first position of x's cell and ``cells[s]`` lists the
    members of the cell at position s.  Each cell in ``queue`` splits every
    cell by the number of covers its members have in it, the pieces in order
    of that number.  Cells hold nodes of one height, so a cell's members all
    lie above the splitter, all below it or all beside it, and one count
    serves both directions.
    """
    n = len(color)
    queued = [False] * n
    for s in queue:
        queued[s] = True
    open_cells, s = 0, 0  # cells of two or more nodes, which a splitter can split
    while s < n:
        open_cells += len(cells[s]) > 1
        s += len(cells[s])
    for w in queue:
        if not open_cells:
            return
        queued[w] = False
        count: dict[int, int] = {}
        get = count.get
        for x in cells[w]:
            for y in down[x]:
                count[y] = get(y, 0) + 1
            for y in up[x]:
                count[y] = get(y, 0) + 1
        for s in sorted(set(map(color.__getitem__, count))):
            members = cells[s]
            if len(members) == 1:
                continue
            keys = [get(x, 0) for x in members]
            distinct = set(keys)
            if len(distinct) == 1:
                continue
            pieces = [[x for x, k in zip(members, keys) if k == key] for key in sorted(distinct)]
            sizes = [len(piece) for piece in pieces]
            largest = sizes.index(max(sizes))
            open_cells += len(sizes) - sizes.count(1) - 1
            was_queued, start = queued[s], s
            for i, piece in enumerate(pieces):
                cells[start] = piece
                for x in piece:
                    color[x] = start
                # a queued cell's first piece keeps its place and the others
                # join it; otherwise every piece but the largest joins, as
                # counts into the largest follow from counts into the rest
                if start != s if was_queued else i != largest:
                    queued[start] = True
                    queue.append(start)
                start += len(piece)


def _individualize(up, down, color: list[int], cells: list, s: int, v: int) -> tuple[list[int], list]:
    """A copy of the partition with v split off the front of the cell at s, refined."""
    color, cells = color[:], cells[:]
    rest = [x for x in cells[s] if x != v]
    cells[s], cells[s + 1] = [v], rest
    for x in rest:
        color[x] = s + 1
    _refine(up, down, color, cells, [s])
    return color, cells


def refine(poset: Poset) -> tuple[int, ...]:
    """The equitable partition the canonical search starts from, as the rank
    0..k-1 of each node's cell.

    Cells start from (height, depth, up-degree, down-degree) and split until
    every member of a cell has the same number of covers in each cell; an
    isomorphism maps every node to a node of the same rank."""
    n = poset.n
    keys = list(zip(poset.heights, poset.depths, map(len, poset.up), map(len, poset.down)))
    color = [0] * n
    cells: list = [None] * n
    queue = []
    start, last = 0, None
    for position, x in enumerate(sorted(range(n), key=keys.__getitem__)):
        if keys[x] != last:
            start, last = position, keys[x]
            cells[start] = []
            queue.append(start)
        cells[start].append(x)
        color[x] = start
    # the seed's degrees already make counts into all nodes equal in each
    # cell, so the largest cell need not split the others
    if queue:
        queue.remove(max(queue, key=lambda s: len(cells[s])))
    _refine(poset.up, poset.down, color, cells, queue)
    rank = {s: r for r, s in enumerate(sorted(set(color)))}
    return tuple(rank[s] for s in color)


def find_poset_isomorphism(
    p: Poset,
    q: Poset,
    *,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[int, ...] | None:
    """An order isomorphism p -> q as a node mapping, or None.

    The posets are isomorphic exactly when their canonical forms agree, and
    then the k-th node of p's canonical placement maps to the k-th of q's.
    Posets of different sizes answer None before ``poset_cap`` is checked.
    """
    if p.n != q.n or len(p.hasse) != len(q.hasse):
        return None
    if canonical_form(p, limits=limits) != canonical_form(q, limits=limits):
        return None
    mapping = [0] * p.n
    for x, y in zip(p._canonical_labeling[1], q._canonical_labeling[1]):
        mapping[x] = y
    # re-verify the witness edge-by-edge in both directions
    image = {(mapping[a], mapping[b]) for a, b in p.hasse}
    if image != set(q.hasse):
        raise RuntimeError("poset isomorphism search produced an invalid witness")
    return tuple(mapping)


# the canonical form that digests hash: 2 is read off individualization-refinement
DIGEST_VERSION = 2


def canonical_form(poset: Poset, *, limits: Limits = DEFAULT_LIMITS) -> tuple:
    """A relabeling-invariant form that determines the poset up to isomorphism."""
    limits.check("poset", poset_cap=poset.n)
    return poset._canonical_labeling[0]


def canonical_hash(poset: Poset, *, limits: Limits = DEFAULT_LIMITS) -> str:
    """Hex digest equal exactly for isomorphic posets; stable across runs."""
    form = canonical_form(poset, limits=limits)
    return hashlib.sha256(repr(form).encode("ascii")).hexdigest()
