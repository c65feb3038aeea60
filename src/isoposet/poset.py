"""Finite posets: refinement coloring, isomorphism, canonical hashing.

Posets are stored as Hasse diagrams (cover relations); for finite posets
cover-digraph isomorphism and order isomorphism coincide, so all searches
run on the reduction.  Refinement is a pruning heuristic only; completeness
always comes from the canonical search below it, which decides isomorphism
as well as the digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

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
        for x in reversed(self._topo_from_top):
            h[x] = max((h[y] + 1 for y in self.down[x]), default=0)
        return tuple(h)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        d = [0] * self.n
        for x in self._topo_from_top:
            d[x] = max((d[y] + 1 for y in self.up[x]), default=0)
        return tuple(d)

    def leq(self, a: int, b: int) -> bool:
        return a == b or bool(self.above[a] >> b & 1)

    @cached_property
    def _canonical_labeling(self) -> tuple[tuple, tuple[int, ...]]:
        """The canonical form and the node placement that reaches it.

        Nodes are placed one position at a time; each position records
        (refinement color, cover bits down to the placed prefix, 0), and the
        lexicographically least full placement wins.  Equal forms hold
        exactly for isomorphic posets.  The search keeps an explicit stack, one
        iterator of candidate nodes per position, so no recursion limit bounds n.

        Candidates that an automorphism already covers are skipped, as in
        McKay and Piperno, "Practical graph isomorphism, II" (2014).  Twins,
        nodes with the same up and down covers, are swapped by an automorphism,
        and two full placements with one form give the automorphism that maps
        the first onto the second, re-checked edge by edge.  A candidate is
        skipped when the automorphisms known to fix the placed prefix map a
        sibling tried before it onto it.  The skipped subtree is the image of
        that sibling's subtree, so it holds the same forms, and the first
        placement that reaches the least form is never skipped: the form, the
        placement and every digest are those of the search without skips.
        """
        n = self.n
        if n == 0:
            return (0, ()), ()
        colors = refine(self)
        up, down = self.up, self.down
        # colors keep the order of heights and the least color is placed
        # first, so position k holds a node of color slots[k], and every node
        # below a placed node was placed before it
        slots = sorted(colors)
        members: list[list[int]] = [[] for _ in range(slots[-1] + 1)]
        for c in range(n):
            members[colors[c]].append(c)
        edges = set(self.hasse)
        placed: list[int] = []
        placed_mask = 0
        lo = [0] * n  # bit k of lo[c] is set when c covers the node at position k
        form: list[tuple[int, int, int]] = []
        best: tuple | None = None
        best_placed: tuple[int, ...] = ()
        automorphisms: list[tuple[int, list[int]]] = []  # (mask of moved nodes, map)

        def level() -> Iterator[tuple[tuple[int, int, int], int]]:
            # the nodes of least signature may take the next position,
            # unless that signature already makes the form exceed the best
            color = slots[len(placed)]
            free = [c for c in members[color] if not placed_mask >> c & 1]
            least = min(lo[c] for c in free)
            # cover bits up from a node to the placed prefix are always 0, as
            # every node below a placed node was placed before it.  The 0
            # stays so that forms, and the digests hashed from them, do not change.
            sig = (color, least, 0)
            if best is not None and tuple(form) + (sig,) > best[: len(form) + 1]:
                return
            ties = [c for c in free if lo[c] == least]
            # orbits of the ties, each kept at its least member: twins (equal
            # up and down covers) start joined, and each automorphism that
            # fixes the prefix joins more, as it maps ties onto ties
            first: dict[tuple, int] = {}
            orbit = {c: first.setdefault((up[c], down[c]), c) for c in ties}

            def root(c: int) -> int:
                while orbit[c] != c:
                    c = orbit[c]
                return c

            known = 0
            for c in ties:
                for moved, image in automorphisms[known:]:
                    if not moved & placed_mask:
                        for x in ties:
                            a, b = root(x), root(image[x])
                            if a != b:
                                orbit[max(a, b)] = min(a, b)
                known = len(automorphisms)
                if root(c) == c:
                    yield sig, c

        stack = [level()]
        while stack:
            if len(placed) == len(stack):
                x = placed.pop()
                placed_mask ^= 1 << x
                for y in up[x]:
                    lo[y] ^= 1 << len(placed)
                form.pop()
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                continue
            sig, c = step
            for y in up[c]:
                lo[y] |= 1 << len(placed)
            placed.append(c)
            placed_mask |= 1 << c
            form.append(sig)
            if len(placed) < n:
                stack.append(level())
            elif best is None or tuple(form) < best:
                best, best_placed = tuple(form), tuple(placed)
            elif tuple(form) == best:
                image = [0] * n
                for a, b in zip(best_placed, placed):
                    image[a] = b
                if {(image[a], image[b]) for a, b in edges} != edges:
                    raise RuntimeError("equal canonical forms gave a non-automorphism")
                moved = sum(1 << x for x in range(n) if image[x] != x)
                automorphisms.append((moved, image))
        return (n, best), best_placed


def _rank(keys: list) -> list[int]:
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def refine(poset: Poset) -> tuple[int, ...]:
    """Stable node coloring; isomorphic posets get identical color multisets."""
    colors = _rank([
        (poset.heights[x], poset.depths[x], len(poset.up[x]), len(poset.down[x]))
        for x in range(poset.n)
    ])
    while True:
        new_colors = _rank([
            (
                colors[x],
                tuple(sorted(colors[y] for y in poset.up[x])),
                tuple(sorted(colors[y] for y in poset.down[x])),
            )
            for x in range(poset.n)
        ])
        if new_colors == colors:
            return tuple(colors)
        colors = new_colors


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


def canonical_form(poset: Poset, *, limits: Limits = DEFAULT_LIMITS) -> tuple:
    """A relabeling-invariant form that determines the poset up to isomorphism."""
    limits.check("poset", poset_cap=poset.n)
    return poset._canonical_labeling[0]


def canonical_hash(poset: Poset, *, limits: Limits = DEFAULT_LIMITS) -> str:
    """Hex digest equal exactly for isomorphic posets; stable across runs."""
    form = canonical_form(poset, limits=limits)
    return hashlib.sha256(repr(form).encode("ascii")).hexdigest()
