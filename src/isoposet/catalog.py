"""Constructors for named finite groups and the curated order catalog.

Every named construction is deterministic: rebuilding a group from its name
yields bit-identical generators, hence an identical element enumeration.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from math import gcd
from typing import Iterator

from .limits import DEFAULT_LIMITS, Limits, ResourceLimitError
from .perm import FiniteGroup, Permutation, _unchecked, closure, closure_walk


def cyclic(n: int, *, limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
    """Cyclic group of order n as the n-cycle on n points."""
    if n < 1:
        raise ValueError(f"cyclic order must be positive, got {n}")
    if n == 1:
        return closure(1, [], limits=limits, name="Z1")
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    return closure(n, [rot], limits=limits, name=f"Z{n}")


def dihedral(order: int, *, limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
    """Dihedral group of the given order (order = 2n, n >= 3) on n points."""
    if order < 6 or order % 2:
        raise ValueError(f"dihedral order must be an even number >= 6, got {order}")
    n = order // 2
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    flip = Permutation(tuple((-i) % n for i in range(n)))
    return closure(n, [rot, flip], limits=limits, name=f"D{order}")


def symmetric(n: int, *, limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
    """Symmetric group on n points."""
    if n < 1:
        raise ValueError(f"symmetric degree must be positive, got {n}")
    if n == 1:
        return closure(1, [], limits=limits, name="S1")
    gens = [Permutation.from_cycles(n, (0, 1))]
    if n > 2:
        gens.append(Permutation(tuple((i + 1) % n for i in range(n))))
    return closure(n, gens, limits=limits, name=f"S{n}")


def alternating(n: int, *, limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
    """Alternating group on n points, n >= 3."""
    if n < 3:
        raise ValueError(f"alternating degree must be at least 3, got {n}")
    gens = [Permutation.from_cycles(n, (0, 1, 2))]
    if n > 3:
        if n % 2:
            gens.append(Permutation(tuple((i + 1) % n for i in range(n))))
        else:
            # the full cycle is odd for even n; rotate the last n-1 points
            gens.append(Permutation.from_cycles(n, tuple(range(1, n))))
    return closure(n, gens, limits=limits, name=f"A{n}")


def psl2(q: int, *, limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
    """PSL(2,q) for q in {5, 7}, acting on the q+1 points of the projective line.

    Points 0..q-1 are the field elements, point q is infinity.  Generators
    are the Moebius maps x -> x+1 and x -> -1/x.
    """
    if q not in (5, 7):
        raise ValueError(f"unsupported field size {q}; expected 5 or 7")
    inf = q
    shift = Permutation(tuple((x + 1) % q for x in range(q)) + (inf,))
    neg_inv = [0] * (q + 1)
    neg_inv[0] = inf
    neg_inv[inf] = 0
    for x in range(1, q):
        neg_inv[x] = (-pow(x, q - 2, q)) % q
    return closure(q + 1, [shift, Permutation(tuple(neg_inv))], limits=limits, name=f"PSL(2,{q})")


def sl2_5(*, limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
    """SL(2,5) acting on the 24 nonzero vectors of F5^2."""
    vecs = [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}
    # column action of [[1,1],[0,1]] and [[0,-1],[1,0]]
    t = Permutation(tuple(index[((a + b) % 5, b)] for a, b in vecs))
    s = Permutation(tuple(index[((-b) % 5, a)] for a, b in vecs))
    return closure(24, [t, s], limits=limits, name="SL(2,5)")


def _multiplicative_order(k: int, n: int) -> int:
    """Order of k in the units mod n; k must be invertible mod n."""
    order, acc = 1, k % n
    while acc != 1:
        acc = acc * k % n
        order += 1
    return order


def _least_multiplier(n: int, m: int) -> int:
    """The least k with multiplicative order exactly m mod n."""
    for k in range(1, n):
        if gcd(k, n) == 1 and _multiplicative_order(k, n) == m:
            return k
    raise ValueError(f"no multiplier has order {m} mod {n}")


def semidirect_cyclic(n: int, m: int, k: int, *, limits: Limits = DEFAULT_LIMITS,
                      name: str | None = None) -> FiniteGroup:
    """Zn semidirect Zm on n points, generated by x -> x+1 and x -> k*x mod n.

    Requires k to have multiplicative order exactly m mod n, which makes the
    action faithful and the group order n*m.
    """
    if n < 2 or m < 1:
        raise ValueError(f"invalid semidirect parameters n={n}, m={m}")
    if gcd(k, n) != 1:
        raise ValueError(f"multiplier {k} is not invertible mod {n}")
    ord_k = _multiplicative_order(k, n)
    if ord_k != m:
        raise ValueError(f"multiplier {k} has order {ord_k} mod {n}, expected {m}")
    shift = Permutation(tuple((i + 1) % n for i in range(n)))
    mul = Permutation(tuple(i * k % n for i in range(n)))
    return closure(n, [shift, mul], limits=limits, name=name or f"Z{n}:Z{m}")


def dicyclic(n: int, *, limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
    """Dicyclic group of order 4n (Q8 for n=2) in its regular action.

    Presentation x^(2n) = 1, y^2 = x^n, y^-1 x y = x^-1; points encode the
    elements x^a (a < 2n) and x^a y (as 2n + a).
    """
    if n < 2:
        raise ValueError(f"dicyclic parameter must be at least 2, got {n}")
    m = 2 * n
    x_images = [(a + 1) % m for a in range(m)] + [m + (a - 1) % m for a in range(m)]
    y_images = [m + a for a in range(m)] + [(a + n) % m for a in range(m)]
    gens = [Permutation(tuple(x_images)), Permutation(tuple(y_images))]
    return closure(4 * n, gens, limits=limits, name=f"Dic{n}")


def _step(key: int, step: list[int]) -> int:
    """The key of ``key`` times the generator whose step list is ``step``."""
    return step[key]


def _product_steps(g: FiniteGroup, h: FiniteGroup) -> Iterator[list[int]]:
    """The step list of each generator of g x h, g's first: entry key is
    the key of key * generator, over the keys x*|h| + y.  The lists share
    one int object per key."""
    n = h.order
    blocks = [list(range(x, x + n)) for x in range(0, g.order * n, n)]  # keys of each x
    for move in g.generator_moves():
        yield [key for x in move for key in blocks[x]]
    for move in h.generator_moves():
        yield [block[y] for block in blocks for y in move]


def direct_product(g: FiniteGroup, h: FiniteGroup, *, limits: Limits = DEFAULT_LIMITS,
                   name: str | None = None) -> FiniteGroup:
    """Direct product acting on the disjoint union of the two point sets.

    Equal to ``closure`` of each factor's generators padded with the other
    factor's identity, element for element and in its Cayley table, but
    walked over the integer keys x*|h| + y of the pairs (g's element x,
    h's element y): a generator's step is one list read, built from its
    factor's generator moves, and an element is its factors' images
    joined, so the walk makes no permutation product.
    """
    degree = g.degree + h.degree
    if degree > limits.degree_cap:
        raise ResourceLimitError(
            f"combined degree {degree} exceeds degree cap {limits.degree_cap}"
        )
    if g.order * h.order > limits.element_cap:
        raise ResourceLimitError(
            f"product order {g.order * h.order} exceeds element cap {limits.element_cap}"
        )
    id_h = tuple(range(g.degree, degree))
    id_g = tuple(range(g.degree))
    gens = [Permutation(p.images + id_h) for p in g.generators]
    gens += [Permutation(id_g + tuple(x + g.degree for x in p.images)) for p in h.generators]
    if name is None and g.name and h.name:
        name = f"{g.name}x{h.name}"
    keys, table, moves = closure_walk(0, _product_steps(g, h), _step, limits=limits)
    left = [p.images for p in g.elements]
    right = [tuple([x + g.degree for x in p.images]) for p in h.elements]
    n = h.order
    elements = tuple([_unchecked(left[key // n] + right[key % n]) for key in keys])
    del keys  # drops the key ints before the group builds its index
    return FiniteGroup(
        degree=degree,
        generators=tuple(gens),
        elements=elements,
        cayley_table=table,
        name=name,
        moves=moves,
    )


@dataclass(frozen=True)
class GroupSpec:
    """A named, reproducible group construction, parsed by ``spec_from_name``.

    ``kind`` is a key of ``_KINDS`` with its integer ``params``, or
    ``"product"`` with the names of the two factors.
    """

    name: str
    kind: str
    params: tuple = ()

    def build(self, *, limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
        if self.kind == "product":
            left, right = (group_from_name(p, limits=limits) for p in self.params)
            return direct_product(left, right, limits=limits, name=self.name)
        group = _KINDS[self.kind][1](*self.params, limits=limits)
        return group if group.name == self.name else replace(group, name=self.name)


@dataclass(frozen=True)
class OrderCatalog:
    """Curated groups of one order, with curation metadata."""

    order: int
    specs: tuple[GroupSpec, ...]
    curated: bool
    complete: bool


# each atomic kind: the full-name pattern, whose groups are its integer
# parameters, and the constructor that takes them
_KINDS = {
    "cyclic": (re.compile(r"Z(\d+)"), cyclic),
    "symmetric": (re.compile(r"S(\d+)"), symmetric),
    "alternating": (re.compile(r"A(\d+)"), alternating),
    "dihedral": (re.compile(r"D(\d+)"), dihedral),
    "dicyclic": (re.compile(r"Dic(\d+)"), dicyclic),
    "psl2": (re.compile(r"PSL\(2,(\d+)\)"), psl2),
    "sl2_5": (re.compile(r"SL\(2,5\)"), sl2_5),
    "semidirect_cyclic": (
        re.compile(r"Z(\d+):Z(\d+)"),
        lambda n, m, *, limits: semidirect_cyclic(n, m, _least_multiplier(n, m), limits=limits),
    ),
}

# names outside the grammar, each standing for a grammar name
_ALIASES = {"1": "Z1", "V4": "Z2xZ2", "Q8": "Dic2", "F20": "Z5:Z4", "F21": "Z7:Z3"}


def spec_from_name(name: str) -> GroupSpec:
    """Parse a group name: an alias, a product AxB, or one of the ``_KINDS``.

    Names like Z12, S4, A5, D10, Dic3, PSL(2,7), SL(2,5), Z15:Z4, A4xZ5,
    and the aliases 1, V4, Q8, F20 and F21.  Only the syntax is checked
    here; parameters a constructor rejects raise when the spec is built.
    """
    name = name.strip()
    if name in _ALIASES:
        spec = spec_from_name(_ALIASES[name])
        return spec if name == "1" else replace(spec, name=name)  # 1 is named Z1
    if "x" in name:
        left, _, right = name.partition("x")
        spec_from_name(left)
        spec_from_name(right)  # validate both halves
        return GroupSpec(name, "product", (left, right))
    for kind, (pattern, _) in _KINDS.items():
        match = pattern.fullmatch(name)
        if match:
            return GroupSpec(name, kind, tuple(int(g) for g in match.groups()))
    raise ValueError(f"unrecognized group name {name!r}")


def group_from_name(name: str, *, limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
    return spec_from_name(name).build(limits=limits)


@lru_cache(maxsize=1)
def _catalog_table() -> dict[int, OrderCatalog]:
    raw = resources.files("isoposet.data").joinpath("catalog.json").read_text("utf-8")
    data = json.loads(raw)
    table = {}
    for order_str, entry in data["orders"].items():
        order = int(order_str)
        specs = tuple(spec_from_name(name) for name in entry["groups"])
        table[order] = OrderCatalog(order, specs, True, bool(entry["complete"]))
    return table


def catalog_for_order(n: int) -> OrderCatalog:
    """Curated list of pairwise non-isomorphic groups of order n.

    Uncurated orders come back with curated=False and no entries; curated
    orders carry an explicit completeness flag.
    """
    entry = _catalog_table().get(n)
    if entry is None:
        return OrderCatalog(n, (), False, False)
    return entry


def catalog_specs(max_order: int | None = None) -> list[GroupSpec]:
    """All curated specs, ordered by (order, position), optionally capped."""
    out = []
    for order in sorted(_catalog_table()):
        if max_order is not None and order > max_order:
            continue
        out.extend(_catalog_table()[order].specs)
    return out
