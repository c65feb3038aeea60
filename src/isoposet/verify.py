"""Executable checks behind the PSL(2,5) / PSL(2,7) recognition argument.

Each claim is a standalone mathematical statement about the groups
involved, decided by direct computation.  A claim is declared once, by
``_claim``: its id, its statement and its check, a function of one run.
``REGISTRY`` lists the declared claims in report order, and a suite is the
claims whose ids share its prefix.

A run (``_Run``) builds each group, lattice and class poset on first use
and keeps it for every later claim.  A cap error is kept the same way, so
a group past a cap is built at most once, and every claim that needs it
is reported as skipped with the same reason, never as a silent pass.
Each suite and ``verify_all`` make one run, and ``scan`` reads its groups
and posets through one too.  Refuted claims make the harness exit nonzero.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from .catalog import catalog_for_order, group_from_name
from .classposet import IsoPoset, build_iso_poset, downset, maximal_nontop_classes
from .groupiso import are_isomorphic, find_isomorphism
from .invariants import fingerprint
from .limits import DEFAULT_LIMITS, Limits, ResourceLimitError
from .perm import FiniteGroup, Permutation
from .poset import canonical_hash, find_poset_isomorphism
from .subgroups import (
    SubgroupLattice,
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


class _Run:
    """What the claims of one run share, each built on first use under
    the run's limits and kept for the rest of the run.

    A group is given by name, or as a ``FiniteGroup`` that is used as it
    is.  A ``ResourceLimitError`` is kept like a result, and the same
    instance is raised again to every later caller, with a fresh
    traceback.  ``pair`` names the two groups of the lemma's claims.
    """

    def __init__(self, limits: Limits, cache_dir: str | os.PathLike | None,
                 pair: tuple[FiniteGroup | str, FiniteGroup | str] = ("Z6", "Z15")):
        self.limits = limits
        self.cache_dir = cache_dir
        self.pair = pair
        self._kept: dict = {}

    def keep(self, key, build: Callable):
        """``build()``, called the first time ``key`` is asked for."""
        if key not in self._kept:
            try:
                self._kept[key] = build()
            except ResourceLimitError as exc:
                self._kept[key] = exc
        found = self._kept[key]
        if isinstance(found, ResourceLimitError):
            raise found.with_traceback(None)  # else every raise adds frames the run keeps alive
        return found

    def group(self, group: FiniteGroup | str) -> FiniteGroup:
        if isinstance(group, FiniteGroup):
            return group
        return self.keep(("group", group), lambda: group_from_name(group, limits=self.limits))

    def lattice(self, group: FiniteGroup | str) -> SubgroupLattice:
        return self.keep(("lattice", group), lambda: all_subgroups(
            self.group(group), limits=self.limits, cache_dir=self.cache_dir))

    def poset(self, group: FiniteGroup | str, *, recognize: bool = True) -> IsoPoset:
        return self.keep(("poset", group, recognize), lambda: build_iso_poset(
            self.group(group), lattice=self.lattice(group), limits=self.limits,
            recognize=recognize))


_Check = Callable[[_Run], tuple[str, dict, str | None]]

# claim id -> (statement, check), in report order
_CLAIMS: dict[str, tuple[str, _Check]] = {}


def _claim(claim_id: str, statement: str) -> Callable[[_Check], _Check]:
    """Declare ``check`` as the claim ``claim_id``, reported after every
    claim declared before it."""
    def declare(check: _Check) -> _Check:
        _CLAIMS[claim_id] = (statement, check)
        return check
    return declare


def _decide(ok: bool, evidence: dict) -> tuple[str, dict, str | None]:
    return (VERIFIED if ok else REFUTED), evidence, None


def _order_shape(name: str, shape: tuple[int, ...]) -> _Check:
    def check(run: _Run):
        order = run.group(name).order
        found = order_shape(order)
        return _decide(found == shape, {"order": order, "shape": list(found)})
    return check


def _maximal_classes(name: str, maximal: list[str]) -> _Check:
    # ``maximal`` names the groups of the maximal non-top classes, by order
    def check(run: _Run):
        poset = run.poset(name)
        tops = sorted(maximal_nontop_classes(poset), key=lambda n: n.order)
        refs = [run.group(ref) for ref in maximal]
        ok = ([n.order for n in tops] == [r.order for r in refs]
              and all(are_isomorphic(n.rep, r, limits=run.limits) for n, r in zip(tops, refs)))
        summary = [{"label": n.label, "order": n.order, "copies": n.class_size} for n in tops]
        return _decide(ok, {"classes": summary})
    return check


_claim("psl25.order-shape", "|PSL(2,5)| = 60 has prime-exponent shape {2,1,1}")(
    _order_shape("PSL(2,5)", (2, 1, 1)))
_claim("psl25.maximal-classes", (
    "the maximal non-top classes of the subgroup-class poset of PSL(2,5) "
    "are exactly the classes of A4, D10 and S3, of orders 12, 10 and 6"
))(_maximal_classes("PSL(2,5)", ["S3", "D10", "A4"]))


@_claim("psl25.copies-maximal",
        "every subgroup of PSL(2,5) isomorphic to A4, D10 or S3 is maximal")
def _copies_maximal(run: _Run):
    # every member of a class is isomorphic to its representative
    checked = {}
    ok = True
    for reference in [run.group(name) for name in ["S3", "D10", "A4"]]:
        fp = fingerprint(reference)
        copies = 0
        for node in run.poset("PSL(2,5)").nodes:
            if node.fp == fp and find_isomorphism(reference, node.rep, limits=run.limits,
                                                  fg=fp, fh=fp) is not None:
                copies += len(node.members)
                lattice = run.lattice("PSL(2,5)")
                ok &= all(is_maximal(run.group("PSL(2,5)"), lattice.subgroups[i])
                          for i in node.members)
        checked[str(reference.order)] = copies
    return _decide(ok, {"copies_checked": checked})


@_claim("psl25.no-order-15", "PSL(2,5) has no subgroup of order 15")
def _no_order_15(run: _Run):
    # every group of order 15 is cyclic, so element orders decide: no lattice
    present = has_subgroup_of_order(run.group("PSL(2,5)"), 15, limits=run.limits)
    return _decide(not present, {"order": 15, "present": present})


@_claim("psl25.not-solvable", "PSL(2,5) is not solvable")
def _not_solvable(run: _Run):
    series = [s.order for s in derived_series(run.group("PSL(2,5)"))]
    return _decide(series[-1] != 1, {"derived_series_orders": series})


@_claim("psl25.catalog-60-unique", (
    "within the curated order-60 catalog, A5 is the unique non-solvable "
    "entry and the unique entry whose subgroup-class poset matches PSL(2,5)'s"
))
def _catalog_60_unique(run: _Run):
    cat = catalog_for_order(60)
    target = canonical_hash(run.poset("PSL(2,5)").to_poset(), limits=run.limits)
    nonsolvable, matching = [], []
    for spec in cat.specs:
        if not is_solvable(run.group(spec.name)):
            nonsolvable.append(spec.name)
        poset = run.poset(spec.name, recognize=False)
        if canonical_hash(poset.to_poset(), limits=run.limits) == target:
            matching.append(spec.name)
    return _decide(nonsolvable == ["A5"] and matching == ["A5"], {
        "catalog_complete": cat.complete,
        "entries": [spec.name for spec in cat.specs],
        "nonsolvable": nonsolvable,
        "poset_matches": matching,
    })


_claim("psl27.order-shape", "|PSL(2,7)| = 168 has prime-exponent shape {3,1,1}")(
    _order_shape("PSL(2,7)", (3, 1, 1)))
_claim("psl27.maximal-classes", (
    "the maximal non-top classes of the subgroup-class poset of PSL(2,7) "
    "are exactly the classes of S4 (order 24) and the Frobenius group of order 21"
))(_maximal_classes("PSL(2,7)", ["F21", "S4"]))


@_claim("psl27.divisible-by-4", "4 divides both |PSL(2,7)| = 168 and |PSL(2,5)| = 60")
def _divisible_by_4(run: _Run):
    orders = [run.group("PSL(2,7)").order, run.group("PSL(2,5)").order]
    return _decide(all(n % 4 == 0 for n in orders), {"orders": orders})


_TRIO = ["S5", "A5xZ2", "SL(2,5)"]


@_claim("psl27.no-maximal-order-15",
        "none of S5, A5xZ2, SL(2,5) has a maximal subgroup of order 15")
def _no_maximal_15(run: _Run):
    evidence = {}
    for name in _TRIO:
        lattice = run.lattice(name)
        evidence[name] = {
            "maximal_orders": sorted({s.order for s, flag in zip(lattice.subgroups,
                                                                lattice.maximal_flags) if flag}),
            "has_order_15_subgroup": any(s.order == 15 for s in lattice.subgroups),
        }
    ok = all(15 not in found["maximal_orders"] for found in evidence.values())
    # stronger for SL(2,5): no subgroup of order 15 at all, by element orders
    evidence["SL(2,5)"]["element_order_15"] = 15 in run.group("SL(2,5)").element_orders
    return _decide(ok, evidence)


@_claim("psl27.composition-factors", (
    "S5, A5xZ2 and SL(2,5) each have A5 among their composition factors, "
    "and PSL(2,7) is simple"
))
def _composition_factors(run: _Run):
    # normal structure only: no lattice is enumerated
    a5_fp = fingerprint(run.group("A5"))
    factors = {name: composition_factors(run.group(name), limits=run.limits) for name in _TRIO}
    evidence = {name: {"factor_orders": sorted(fp.order for fp in found)}
                for name, found in factors.items()}
    simple = is_simple(run.group("PSL(2,7)"))
    evidence["PSL(2,7)"] = {"simple": simple}
    return _decide(simple and all(a5_fp in found for found in factors.values()), evidence)


@_claim("psl27.hall-order-gap", (
    "PSL(2,7) misses the Hall order 56 = 2^3*7; the missing order is not "
    "21 = 3*7, since the Frobenius group of order 21 is a subgroup"
))
def _hall_gap(run: _Run):
    group, lattice = run.group("PSL(2,7)"), run.lattice("PSL(2,7)")
    has_21 = has_subgroup_of_order(group, 21, limits=run.limits, lattice=lattice)
    has_56 = has_subgroup_of_order(group, 56, limits=run.limits, lattice=lattice)
    evidence = {"order_21_subgroup": has_21, "order_56_subgroup": has_56}
    reason = (
        "the Hall-order step of the recognition argument names the missing "
        "order as q*r, yet PSL(2,7) contains the Frobenius group of order "
        "21 = 3*7; the order actually absent is 56 = 2^3*7, so the check "
        "records both facts instead of asserting the step verbatim"
    )
    return SKIPPED, evidence, reason


def _remark_groups(run: _Run):
    """A5, A5xA5, its diagonal and left copies of A5, and ``embed``, the
    index in A5xA5 of a pair of A5's image tuples."""
    def build():
        a5, product = run.group("A5"), run.group("A5xA5")

        def embed(first: tuple[int, ...], second: tuple[int, ...]) -> int:
            return product.index_of(Permutation(first + tuple(a5.degree + x for x in second)))

        ident = tuple(range(a5.degree))
        diagonal = subgroup_generated_by(product, [embed(g.images, g.images) for g in a5.generators])
        left_copy = subgroup_generated_by(product, [embed(g.images, ident) for g in a5.generators])
        return a5, product, diagonal, left_copy, embed
    return run.keep("remark", build)


@_claim("remark.diagonal-maximal", "the diagonal copy of A5 is maximal in A5xA5")
def _diagonal_maximal(run: _Run):
    a5, product, diagonal, _, _ = _remark_groups(run)
    ok = diagonal.order == a5.order and is_maximal(product, diagonal)
    return _decide(ok, {"diagonal_order": diagonal.order, "index": product.order // diagonal.order})


@_claim("remark.copy-isomorphic", "A5x1 is isomorphic to the diagonal subgroup of A5xA5")
def _copy_isomorphic(run: _Run):
    a5, _, diagonal, left_copy, _ = _remark_groups(run)
    standalone = left_copy.as_group(limits=run.limits)
    ok = are_isomorphic(
        standalone, diagonal.as_group(limits=run.limits), limits=run.limits,
    ) and are_isomorphic(standalone, a5, limits=run.limits)
    return _decide(ok, {"orders": [left_copy.order, diagonal.order]})


@_claim("remark.copy-not-maximal", (
    "A5x1 is not maximal in A5xA5: an explicit order-120 subgroup sits "
    "strictly between them"
))
def _copy_not_maximal(run: _Run):
    a5, product, _, left_copy, embed = _remark_groups(run)
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


def _matched(run: _Run):
    """The class posets of the lemma's pair, and a poset isomorphism from
    the first to the second, or None when there is none."""
    pa, pb = (run.poset(group, recognize=False) for group in run.pair)
    found = run.keep("lemma", lambda: find_poset_isomorphism(
        pa.to_poset(), pb.to_poset(), limits=run.limits))
    return pa, pb, found


_NO_HYPOTHESIS = (SKIPPED, {}, "the poset-isomorphism hypothesis does not hold for this pair")


@_claim("lemma.hypothesis", "the subgroup-class posets of the two groups are isomorphic")
def _hypothesis(run: _Run):
    pa, pb, found = _matched(run)
    evidence = {
        "digests": [canonical_hash(p.to_poset(), limits=run.limits) for p in (pa, pb)],
        "node_counts": [len(pa), len(pb)],
    }
    if found is None:
        return SKIPPED, evidence, (
            "the subgroup-class posets are not isomorphic, so the "
            "consequence checks do not apply"
        )
    evidence["witness"] = list(found)
    return VERIFIED, evidence, None


@_claim("lemma.downsets", "every matched pair of classes has isomorphic downsets on both sides")
def _downsets(run: _Run):
    pa, pb, found = _matched(run)
    if found is None:
        return _NO_HYPOTHESIS
    ok = True
    for i in range(len(pa)):
        da = downset(pa, i).to_poset()
        db = downset(pb, found[i]).to_poset()
        if find_poset_isomorphism(da, db, limits=run.limits) is None:
            ok = False
    return _decide(ok, {"nodes_checked": len(pa)})


@_claim("lemma.order-shapes",
        "matched classes have equal prime-exponent shapes of their subgroup orders")
def _order_shapes(run: _Run):
    pa, pb, found = _matched(run)
    if found is None:
        return _NO_HYPOTHESIS
    pairs = [[list(pa.nodes[i].shape), list(pb.nodes[found[i]].shape)] for i in range(len(pa))]
    return _decide(all(a == b for a, b in pairs), {"shape_pairs": pairs})


@_claim("lemma.maximality", (
    "a class whose members are all maximal maps to a class whose members "
    "are all maximal"
))
def _maximality(run: _Run):
    pa, pb, found = _matched(run)
    if found is None:
        return _NO_HYPOTHESIS
    flagged = [i for i in range(len(pa)) if pa.nodes[i].all_members_maximal]
    ok = all(pb.nodes[found[i]].all_members_maximal for i in flagged)
    return _decide(ok, {"classes_with_all_copies_maximal": flagged})


REGISTRY: dict[str, str] = {claim_id: statement for claim_id, (statement, _) in _CLAIMS.items()}


def _verify(prefix: str, run: _Run) -> list[ClaimResult]:
    """Every claim whose id starts with ``prefix``, in report order, on ``run``."""
    results = []
    for claim_id, (statement, check) in _CLAIMS.items():
        if not claim_id.startswith(prefix):
            continue
        start = time.perf_counter()
        try:
            status, evidence, reason = check(run)
        except ResourceLimitError as exc:
            status, evidence, reason = SKIPPED, {}, str(exc)
        elapsed = round(time.perf_counter() - start, 6)
        results.append(ClaimResult(claim_id, statement, status, evidence, reason, elapsed))
    return results


def verify_psl25(*, limits: Limits = DEFAULT_LIMITS,
                 cache_dir: str | os.PathLike | None = None) -> list[ClaimResult]:
    return _verify("psl25.", _Run(limits, cache_dir))


def verify_psl27(*, limits: Limits = DEFAULT_LIMITS,
                 cache_dir: str | os.PathLike | None = None) -> list[ClaimResult]:
    return _verify("psl27.", _Run(limits, cache_dir))


def verify_remark(*, limits: Limits = DEFAULT_LIMITS,
                  cache_dir: str | os.PathLike | None = None) -> list[ClaimResult]:
    return _verify("remark.", _Run(limits, cache_dir))


def verify_lemma(group_a: FiniteGroup | str, group_b: FiniteGroup | str, *,
                 limits: Limits = DEFAULT_LIMITS,
                 cache_dir: str | os.PathLike | None = None) -> list[ClaimResult]:
    """Check the order-isomorphism consequences on a concrete pair of
    groups; a group given by name is built under ``limits`` on first use."""
    return _verify("lemma.", _Run(limits, cache_dir, (group_a, group_b)))


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
    run = _Run(limits, cache_dir)
    entries: list[ScanEntry] = []
    for order in orders:
        cat = catalog_for_order(order)
        if not cat.curated:
            entries.append(ScanEntry(name=f"order-{order}", order=order,
                                     error="order not curated"))
            continue
        for spec in cat.specs:
            try:
                iso_poset = run.poset(spec.name, recognize=False)
                digest = canonical_hash(iso_poset.to_poset(), limits=limits)
            except ResourceLimitError as exc:
                entries.append(ScanEntry(name=spec.name, order=order, error=str(exc)))
                continue
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
            poset_a = run.poset(name_a, recognize=False)
            poset_b = run.poset(name_b, recognize=False)
            shapes_match = sorted(poset_a.shapes()) == sorted(poset_b.shapes())
            try:  # each whole group's fingerprint is its top class's
                isomorphic = find_isomorphism(
                    run.group(name_a), run.group(name_b), limits=limits,
                    fg=poset_a.nodes[poset_a.top].fp, fh=poset_b.nodes[poset_b.top].fp,
                ) is not None
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
    """Run every registered claim once, on one run: both PSL cases, the
    maximality remark on A5xA5, and the consequence checks on the Z6/Z15
    pair."""
    return _verify("", _Run(limits, cache_dir))
