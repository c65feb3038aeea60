"""Executable checks behind the PSL(2,5) / PSL(2,7) recognition argument.

Each registered claim is a standalone mathematical statement about the
groups involved, decided by direct computation.  A claim that cannot run
because a resource cap was hit is reported as skipped with the reason,
never as a silent pass; refuted claims make the harness exit nonzero.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from .catalog import alternating, catalog_for_order, direct_product, group_from_name, psl2
from .classposet import IsoPoset, build_iso_poset, downset, maximal_nontop_classes
from .groupiso import are_isomorphic, find_isomorphism
from .invariants import fingerprint
from .limits import DEFAULT_LIMITS, Limits, ResourceLimitError
from .perm import FiniteGroup, Permutation
from .poset import canonical_hash, find_poset_isomorphism
from .subgroups import (
    all_subgroups,
    composition_factors,
    derived_series,
    has_subgroup_of_order,
    is_maximal,
    is_simple,
    is_solvable,
    order_shape,
    subgroup_generated_by,
)

VERIFIED = "verified"
REFUTED = "refuted"
SKIPPED = "skipped"


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    statement: str
    status: str
    evidence: dict
    reason: str | None = None
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "statement": self.statement,
            "status": self.status,
            "reason": self.reason,
            "evidence": self.evidence,
            "wall_time_s": self.wall_time_s,
        }


REGISTRY: dict[str, str] = {
    "psl25.order-shape": "|PSL(2,5)| = 60 has prime-exponent shape {2,1,1}",
    "psl25.maximal-classes": (
        "the maximal non-top classes of the subgroup-class poset of PSL(2,5) "
        "are exactly the classes of A4, D10 and S3, of orders 12, 10 and 6"
    ),
    "psl25.copies-maximal": (
        "every subgroup of PSL(2,5) isomorphic to A4, D10 or S3 is maximal"
    ),
    "psl25.no-order-15": "PSL(2,5) has no subgroup of order 15",
    "psl25.not-solvable": "PSL(2,5) is not solvable",
    "psl25.catalog-60-unique": (
        "within the curated order-60 catalog, A5 is the unique non-solvable "
        "entry and the unique entry whose subgroup-class poset matches PSL(2,5)'s"
    ),
    "psl27.order-shape": "|PSL(2,7)| = 168 has prime-exponent shape {3,1,1}",
    "psl27.maximal-classes": (
        "the maximal non-top classes of the subgroup-class poset of PSL(2,7) "
        "are exactly the classes of S4 (order 24) and the Frobenius group of order 21"
    ),
    "psl27.divisible-by-4": "4 divides both |PSL(2,7)| = 168 and |PSL(2,5)| = 60",
    "psl27.no-maximal-order-15": (
        "none of S5, A5xZ2, SL(2,5) has a maximal subgroup of order 15"
    ),
    "psl27.composition-factors": (
        "S5, A5xZ2 and SL(2,5) each have A5 among their composition factors, "
        "and PSL(2,7) is simple"
    ),
    "psl27.hall-order-gap": (
        "PSL(2,7) misses the Hall order 56 = 2^3*7; the missing order is not "
        "21 = 3*7, since the Frobenius group of order 21 is a subgroup"
    ),
    "remark.diagonal-maximal": "the diagonal copy of A5 is maximal in A5xA5",
    "remark.copy-isomorphic": "A5x1 is isomorphic to the diagonal subgroup of A5xA5",
    "remark.copy-not-maximal": (
        "A5x1 is not maximal in A5xA5: an explicit order-120 subgroup sits "
        "strictly between them"
    ),
    "lemma.hypothesis": "the subgroup-class posets of the two groups are isomorphic",
    "lemma.downsets": (
        "every matched pair of classes has isomorphic downsets on both sides"
    ),
    "lemma.order-shapes": (
        "matched classes have equal prime-exponent shapes of their subgroup orders"
    ),
    "lemma.maximality": (
        "a class whose members are all maximal maps to a class whose members "
        "are all maximal"
    ),
}


def _run(claim_id: str, fn: Callable[[], tuple[str, dict, str | None]]) -> ClaimResult:
    start = time.perf_counter()
    try:
        status, evidence, reason = fn()
    except ResourceLimitError as exc:
        status, evidence, reason = SKIPPED, {}, str(exc)
    elapsed = round(time.perf_counter() - start, 6)
    return ClaimResult(claim_id, REGISTRY[claim_id], status, evidence, reason, elapsed)


def _decide(ok: bool, evidence: dict) -> tuple[str, dict, str | None]:
    return (VERIFIED if ok else REFUTED), evidence, None


def _max_class_summary(poset: IsoPoset) -> list[dict]:
    return [
        {"label": node.label, "order": node.order, "copies": node.class_size}
        for node in sorted(maximal_nontop_classes(poset), key=lambda n: n.order)
    ]


def _psl_common(q: int, shape: tuple[int, ...], maximal: list[str], *,
                limits: Limits, cache_dir: str | os.PathLike | None):
    """PSL(2,q), the groups of its maximal classes, its lattice and its
    class poset, each built on first use, and the results of its
    order-shape and maximal-classes claims.

    ``maximal`` names the groups of the maximal non-top classes, in
    increasing order; ``references()`` builds them in the same order.
    """

    @cache
    def group():
        return psl2(q, limits=limits)

    @cache
    def references():
        return [group_from_name(name, limits=limits) for name in maximal]

    @cache
    def lattice():
        return all_subgroups(group(), limits=limits, cache_dir=cache_dir)

    @cache
    def poset():
        return build_iso_poset(group(), lattice=lattice(), limits=limits)

    def claim_order_shape():
        found = order_shape(group().order)
        return _decide(found == shape, {"order": group().order, "shape": list(found)})

    def claim_maximal_classes():
        tops = sorted(maximal_nontop_classes(poset()), key=lambda n: n.order)
        refs = references()
        ok = ([n.order for n in tops] == [r.order for r in refs]
              and all(are_isomorphic(n.rep, r, limits=limits) for n, r in zip(tops, refs)))
        return _decide(ok, {"classes": _max_class_summary(poset())})

    results = [
        _run(f"psl2{q}.order-shape", claim_order_shape),
        _run(f"psl2{q}.maximal-classes", claim_maximal_classes),
    ]
    return group, references, lattice, poset, results


def verify_psl25(*, limits: Limits = DEFAULT_LIMITS,
                 cache_dir: str | os.PathLike | None = None) -> list[ClaimResult]:
    group, references, lattice, poset, results = _psl_common(
        5, (2, 1, 1), ["S3", "D10", "A4"], limits=limits, cache_dir=cache_dir
    )

    def claim_copies_maximal():
        # every member of a class is isomorphic to its representative
        checked = {}
        ok = True
        for reference in references():
            fp = fingerprint(reference)
            copies = 0
            for node in poset().nodes:
                if node.fp == fp and find_isomorphism(reference, node.rep, limits=limits,
                                                      fg=fp, fh=fp) is not None:
                    copies += len(node.members)
                    ok &= all(is_maximal(group(), lattice().subgroups[i]) for i in node.members)
            checked[str(reference.order)] = copies
        return _decide(ok, {"copies_checked": checked})

    def claim_no_order_15():
        try:
            lat = lattice()
        except ResourceLimitError:
            lat = None  # order 15 still decidable through the element-order shortcut
        present = has_subgroup_of_order(group(), 15, limits=limits, lattice=lat)
        return _decide(not present, {"order": 15, "present": present})

    def claim_not_solvable():
        series = [s.order for s in derived_series(group())]
        return _decide(series[-1] != 1, {"derived_series_orders": series})

    def claim_catalog_unique():
        cat = catalog_for_order(60)
        target = canonical_hash(poset().to_poset(), limits=limits)
        nonsolvable, matching = [], []
        for spec in cat.specs:
            candidate = spec.build(limits=limits)
            if not is_solvable(candidate):
                nonsolvable.append(spec.name)
            iso_poset = build_iso_poset(
                candidate, limits=limits, cache_dir=cache_dir, recognize=False
            )
            if canonical_hash(iso_poset.to_poset(), limits=limits) == target:
                matching.append(spec.name)
        ok = nonsolvable == ["A5"] and matching == ["A5"]
        evidence = {
            "catalog_complete": cat.complete,
            "entries": [spec.name for spec in cat.specs],
            "nonsolvable": nonsolvable,
            "poset_matches": matching,
        }
        return _decide(ok, evidence)

    return results + [
        _run("psl25.copies-maximal", claim_copies_maximal),
        _run("psl25.no-order-15", claim_no_order_15),
        _run("psl25.not-solvable", claim_not_solvable),
        _run("psl25.catalog-60-unique", claim_catalog_unique),
    ]


def verify_psl27(*, limits: Limits = DEFAULT_LIMITS,
                 cache_dir: str | os.PathLike | None = None) -> list[ClaimResult]:
    group, _, lattice, poset, results = _psl_common(
        7, (3, 1, 1), ["F21", "S4"], limits=limits, cache_dir=cache_dir
    )
    trio = ["S5", "A5xZ2", "SL(2,5)"]

    @cache
    def candidate(name):
        built = group_from_name(name, limits=limits)
        return built, all_subgroups(built, limits=limits, cache_dir=cache_dir)

    def claim_divisible_by_4():
        orders = [group().order, psl2(5, limits=limits).order]
        return _decide(all(n % 4 == 0 for n in orders), {"orders": orders})

    def claim_no_maximal_15():
        evidence = {}
        ok = True
        for name in trio:
            lat = candidate(name)[1]
            maximal_orders = sorted(
                {s.order for i, s in enumerate(lat.subgroups) if lat.maximal_flags[i]}
            )
            any_15 = any(s.order == 15 for s in lat.subgroups)
            evidence[name] = {
                "maximal_orders": maximal_orders,
                "has_order_15_subgroup": any_15,
            }
            if 15 in maximal_orders:
                ok = False
        # stronger for SL(2,5): no subgroup of order 15 at all, by element orders
        sl = candidate("SL(2,5)")[0]
        evidence["SL(2,5)"]["element_order_15"] = 15 in sl.element_orders
        return _decide(ok, evidence)

    def claim_composition_factors():
        a5_fp = fingerprint(alternating(5, limits=limits))
        evidence = {}
        ok = True
        for name in trio:
            factors = composition_factors(candidate(name)[0], limits=limits)
            evidence[name] = {"factor_orders": sorted(fp.order for fp in factors)}
            if a5_fp not in factors:
                ok = False
        simple = is_simple(group())
        evidence["PSL(2,7)"] = {"simple": simple}
        return _decide(ok and simple, evidence)

    def claim_hall_gap():
        has_21 = has_subgroup_of_order(group(), 21, limits=limits, lattice=lattice())
        has_56 = has_subgroup_of_order(group(), 56, limits=limits, lattice=lattice())
        evidence = {"order_21_subgroup": has_21, "order_56_subgroup": has_56}
        reason = (
            "the Hall-order step of the recognition argument names the missing "
            "order as q*r, yet PSL(2,7) contains the Frobenius group of order "
            "21 = 3*7; the order actually absent is 56 = 2^3*7, so the check "
            "records both facts instead of asserting the step verbatim"
        )
        return SKIPPED, evidence, reason

    return results + [
        _run("psl27.divisible-by-4", claim_divisible_by_4),
        _run("psl27.no-maximal-order-15", claim_no_maximal_15),
        _run("psl27.composition-factors", claim_composition_factors),
        _run("psl27.hall-order-gap", claim_hall_gap),
    ]


def verify_remark(*, limits: Limits = DEFAULT_LIMITS,
                  cache_dir: str | os.PathLike | None = None) -> list[ClaimResult]:
    @cache
    def groups():
        """A5, A5xA5, its diagonal and left copies of A5, and ``embed``,
        the index in A5xA5 of a pair of A5's image tuples."""
        a5 = alternating(5, limits=limits)
        product = direct_product(a5, a5, limits=limits)

        def embed(first: tuple[int, ...], second: tuple[int, ...]) -> int:
            return product.index_of(Permutation(first + tuple(a5.degree + x for x in second)))

        ident = tuple(range(a5.degree))
        diagonal = subgroup_generated_by(product, [embed(g.images, g.images) for g in a5.generators])
        left_copy = subgroup_generated_by(product, [embed(g.images, ident) for g in a5.generators])
        return a5, product, diagonal, left_copy, embed

    def claim_diagonal_maximal():
        a5, product, diagonal, _, _ = groups()
        ok = diagonal.order == a5.order and is_maximal(product, diagonal)
        return _decide(ok, {"diagonal_order": diagonal.order, "index": product.order // diagonal.order})

    def claim_copy_isomorphic():
        a5, _, diagonal, left_copy, _ = groups()
        standalone = left_copy.as_group(limits=limits)
        ok = are_isomorphic(
            standalone, diagonal.as_group(limits=limits), limits=limits,
        ) and are_isomorphic(standalone, a5, limits=limits)
        return _decide(ok, {"orders": [left_copy.order, diagonal.order]})

    def claim_copy_not_maximal():
        a5, product, _, left_copy, embed = groups()
        ident = tuple(range(a5.degree))
        not_maximal = not is_maximal(product, left_copy)
        involution = a5.element_orders.index(2)
        witness = subgroup_generated_by(
            product,
            list(left_copy.gens) + [embed(ident, a5.elements[involution].images)],
        )
        strict = left_copy.order < witness.order < product.order
        contains = witness.contains(left_copy)
        ok = not_maximal and strict and contains and witness.order == 120
        evidence = {
            "copy_maximal": not not_maximal,
            "intermediate_order": witness.order,
            "strictly_between": strict and contains,
        }
        return _decide(ok, evidence)

    return [
        _run("remark.diagonal-maximal", claim_diagonal_maximal),
        _run("remark.copy-isomorphic", claim_copy_isomorphic),
        _run("remark.copy-not-maximal", claim_copy_not_maximal),
    ]


def verify_lemma(group_a: FiniteGroup | str, group_b: FiniteGroup | str, *,
                 limits: Limits = DEFAULT_LIMITS,
                 cache_dir: str | os.PathLike | None = None) -> list[ClaimResult]:
    """Check the order-isomorphism consequences on a concrete pair of
    groups; a group given by name is built under ``limits`` on first use."""

    @cache
    def posets():
        return tuple(
            build_iso_poset(group_from_name(group, limits=limits) if isinstance(group, str)
                            else group, limits=limits, cache_dir=cache_dir, recognize=False)
            for group in (group_a, group_b)
        )

    @cache
    def mapping():
        pa, pb = posets()
        return find_poset_isomorphism(pa.to_poset(), pb.to_poset(), limits=limits)

    def claim_hypothesis():
        pa, pb = posets()
        found = mapping()
        evidence = {
            "digests": [
                canonical_hash(pa.to_poset(), limits=limits),
                canonical_hash(pb.to_poset(), limits=limits),
            ],
            "node_counts": [len(pa), len(pb)],
        }
        if found is None:
            return SKIPPED, evidence, (
                "the subgroup-class posets are not isomorphic, so the "
                "consequence checks do not apply"
            )
        evidence["witness"] = list(found)
        return VERIFIED, evidence, None

    def _requires_hypothesis(fn):
        def wrapped():
            if mapping() is None:
                return SKIPPED, {}, "the poset-isomorphism hypothesis does not hold for this pair"
            return fn()
        return wrapped

    def claim_downsets():
        pa, pb = posets()
        found = mapping()
        ok = True
        for i in range(len(pa)):
            da = downset(pa, i).to_poset()
            db = downset(pb, found[i]).to_poset()
            if find_poset_isomorphism(da, db, limits=limits) is None:
                ok = False
        return _decide(ok, {"nodes_checked": len(pa)})

    def claim_order_shapes():
        pa, pb = posets()
        found = mapping()
        pairs = [
            [list(pa.nodes[i].shape), list(pb.nodes[found[i]].shape)]
            for i in range(len(pa))
        ]
        ok = all(a == b for a, b in pairs)
        return _decide(ok, {"shape_pairs": pairs})

    def claim_maximality():
        pa, pb = posets()
        found = mapping()
        flagged = [i for i in range(len(pa)) if pa.nodes[i].all_members_maximal]
        ok = all(pb.nodes[found[i]].all_members_maximal for i in flagged)
        return _decide(ok, {"classes_with_all_copies_maximal": flagged})

    return [
        _run("lemma.hypothesis", claim_hypothesis),
        _run("lemma.downsets", _requires_hypothesis(claim_downsets)),
        _run("lemma.order-shapes", _requires_hypothesis(claim_order_shapes)),
        _run("lemma.maximality", _requires_hypothesis(claim_maximality)),
    ]


@dataclass(frozen=True)
class ScanEntry:
    name: str
    order: int
    digest: str | None = None
    nodes: int | None = None
    error: str | None = None


@dataclass(frozen=True)
class ScanReport:
    orders: tuple[int, ...]
    entries: tuple[ScanEntry, ...]
    collisions: tuple[dict, ...] = field(default_factory=tuple)


def scan(orders: list[int], *, limits: Limits = DEFAULT_LIMITS,
         cache_dir: str | os.PathLike | None = None) -> ScanReport:
    """Digest the class poset of every catalog group of the given orders.

    Groups entries by canonical digest and reports the collision classes;
    every colliding pair is labeled with whether the node order shapes
    match and whether the groups themselves are isomorphic.  A repeated
    order is scanned once, at its first position.
    """
    orders = list(dict.fromkeys(orders))
    entries: list[ScanEntry] = []
    built: dict[str, tuple[FiniteGroup, IsoPoset]] = {}
    for order in orders:
        cat = catalog_for_order(order)
        if not cat.curated:
            entries.append(ScanEntry(name=f"order-{order}", order=order,
                                     error="order not curated"))
            continue
        for spec in cat.specs:
            try:
                candidate = spec.build(limits=limits)
                iso_poset = build_iso_poset(
                    candidate, limits=limits, cache_dir=cache_dir, recognize=False
                )
                digest = canonical_hash(iso_poset.to_poset(), limits=limits)
            except ResourceLimitError as exc:
                entries.append(ScanEntry(name=spec.name, order=order, error=str(exc)))
                continue
            built[spec.name] = (candidate, iso_poset)
            entries.append(
                ScanEntry(name=spec.name, order=order, digest=digest,
                          nodes=len(iso_poset))
            )

    by_digest: dict[str, list[str]] = {}
    for entry in entries:
        if entry.digest is not None:
            by_digest.setdefault(entry.digest, []).append(entry.name)
    collisions = []
    for digest in sorted(d for d, names in by_digest.items() if len(names) > 1):
        names = by_digest[digest]
        pairs = []
        for name_a, name_b in itertools.combinations(names, 2):
            group_a, poset_a = built[name_a]
            group_b, poset_b = built[name_b]
            shapes_match = sorted(poset_a.shapes()) == sorted(poset_b.shapes())
            try:
                isomorphic = are_isomorphic(group_a, group_b, limits=limits)
            except ResourceLimitError:
                isomorphic = None
            pairs.append({
                "groups": [name_a, name_b],
                "order_shapes_match": shapes_match,
                "isomorphic": isomorphic,
            })
        collisions.append({"digest": digest, "groups": names, "pairs": pairs})
    return ScanReport(tuple(orders), tuple(entries), tuple(collisions))


def verify_all(*, limits: Limits = DEFAULT_LIMITS,
               cache_dir: str | os.PathLike | None = None) -> list[ClaimResult]:
    """Run every registered claim once: both PSL cases, the maximality
    remark on A5xA5, and the consequence checks on the Z6/Z15 pair."""
    results = verify_psl25(limits=limits, cache_dir=cache_dir)
    results += verify_psl27(limits=limits, cache_dir=cache_dir)
    results += verify_remark(limits=limits, cache_dir=cache_dir)
    results += verify_lemma("Z6", "Z15", limits=limits, cache_dir=cache_dir)
    return results
