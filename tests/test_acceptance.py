"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Criteria with stated wall-clock bounds time a fresh
computation (no cache) and assert the bound."""

import itertools
import time

from isoposet import (
    all_subgroups,
    alternating,
    are_isomorphic,
    build_iso_poset,
    canonical_hash,
    catalog_for_order,
    classify,
    composition_factors,
    cyclic,
    dihedral,
    downset,
    find_poset_isomorphism,
    fingerprint,
    group_from_name,
    has_subgroup_of_order,
    is_maximal,
    is_simple,
    maximal_nontop_classes,
    psl2,
    sl2_5,
    symmetric,
)
from isoposet.verify import VERIFIED, verify_remark

from oracles import oracle_group_isomorphic, oracle_poset_isomorphic, relabeled

_shared = {}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _cached_poset(group, cache_dir, *, recognize=True):
    """The class poset of ``group``, over its lattice read through ``cache_dir``."""
    return build_iso_poset(group, lattice=all_subgroups(group, cache_dir=cache_dir),
                           recognize=recognize)


def test_criterion_01_orders_and_closure_time():
    times = {}
    t0 = time.perf_counter()
    p5 = psl2(5)
    times["PSL(2,5)"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    p7 = psl2(7)
    times["PSL(2,7)"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    sl = sl2_5()
    times["SL(2,5)"] = time.perf_counter() - t0
    ok = (
        p5.order == 60 and p7.order == 168 and sl.order == 120
        and all(t < 1.0 for t in times.values())
    )
    _shared.update(p5=p5, p7=p7, sl=sl)
    _report(1, ok, f"orders 60/168/120, closures "
                   f"{', '.join(f'{k}={v:.3f}s' for k, v in times.items())}")


def test_criterion_02_psl25_lattice_and_classes():
    p5 = _shared.get("p5") or psl2(5)
    t0 = time.perf_counter()
    lattice = all_subgroups(p5)
    classes = classify(p5, lattice)
    poset = build_iso_poset(p5, lattice=lattice)
    elapsed = time.perf_counter() - t0
    tops = sorted(maximal_nontop_classes(poset), key=lambda n: n.order)
    targets = [symmetric(3), dihedral(10), alternating(4)]
    expected = [(6, 10), (10, 6), (12, 5)]
    ok = (
        len(lattice) == 59
        and len(classes) == 9
        and [(n.order, n.class_size) for n in tops] == expected
        and all(are_isomorphic(n.rep.as_group(), t) for n, t in zip(tops, targets))
        and elapsed < 10.0
    )
    _shared.update(p5_lattice=lattice, p5_poset=poset)
    _report(2, ok, f"59 subgroups, 9 classes, maximal classes "
                   f"S3x10/D10x6/A4x5 in {elapsed:.2f}s")


def test_criterion_03_named_copies_are_maximal():
    p5 = _shared["p5"]
    lattice = _shared["p5_lattice"]
    references = {6: symmetric(3), 10: dihedral(10), 12: alternating(4)}
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for sub in lattice.subgroups:
        ref = references.get(sub.order)
        if ref is None or not are_isomorphic(sub.as_group(), ref):
            continue
        checked += 1
        if not is_maximal(p5, sub):
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 21 and elapsed < 10.0  # 10 + 6 + 5 copies
    _report(3, ok, f"{checked} copies of S3/D10/A4 all maximal in {elapsed:.2f}s")


def test_criterion_04_no_order_15_subgroup():
    p5 = _shared["p5"]
    present = has_subgroup_of_order(p5, 15, lattice=_shared["p5_lattice"])
    _report(4, present is False, "PSL(2,5) has no subgroup of order 15")


def test_criterion_05_psl27_maximal_classes():
    p7 = _shared.get("p7") or psl2(7)
    t0 = time.perf_counter()
    lattice = all_subgroups(p7)
    poset = build_iso_poset(p7, lattice=lattice)
    elapsed = time.perf_counter() - t0
    tops = sorted(maximal_nontop_classes(poset), key=lambda n: n.order)
    ok = (
        [n.order for n in tops] == [21, 24]
        and are_isomorphic(tops[0].rep.as_group(), group_from_name("F21"))
        and are_isomorphic(tops[1].rep.as_group(), symmetric(4))
        and elapsed < 120.0
    )
    _shared["p7_poset"] = poset
    _report(5, ok, f"two maximal classes of orders 21 and 24 in {elapsed:.2f}s")


def test_criterion_06_order120_trio_no_maximal_15():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name in ("S5", "A5xZ2", "SL(2,5)"):
        group = group_from_name(name)
        lattice = all_subgroups(group)
        max_orders = {
            s.order for i, s in enumerate(lattice.subgroups) if lattice.maximal_flags[i]
        }
        details.append(f"{name}:{sorted(max_orders)}")
        if 15 in max_orders:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(6, ok, f"no maximal subgroup of order 15 in {elapsed:.2f}s")


def test_criterion_07_remark_on_a5xa5():
    t0 = time.perf_counter()
    claims = verify_remark()
    elapsed = time.perf_counter() - t0
    by_id = {c.claim_id: c for c in claims}
    ok = (
        all(c.status == VERIFIED for c in claims)
        and by_id["remark.copy-not-maximal"].evidence["intermediate_order"] == 120
        and elapsed < 300.0
    )
    _report(7, ok, f"diagonal maximal, A5x1 isomorphic but not maximal, "
                   f"order-120 witness, in {elapsed:.2f}s")


def test_criterion_08_downset_law_up_to_100(cache_dir):
    failures = []
    groups = 0
    nodes = 0
    for spec in [spec for order in range(1, 101) for spec in catalog_for_order(order).specs]:
        group = spec.build()
        poset = _cached_poset(group, cache_dir, recognize=False)
        groups += 1
        for node in poset.nodes:
            nodes += 1
            side = downset(poset, node.node_id).to_poset()
            standalone = _cached_poset(node.rep.as_group(), cache_dir,
                                       recognize=False).to_poset()
            if find_poset_isomorphism(side, standalone) is None:
                failures.append((spec.name, node.node_id))
    _report(8, not failures,
            f"downset law on {nodes} classes across {groups} groups, "
            f"failures={failures}")


def test_criterion_09_scan_results(cache_dir):
    p5_poset = _shared.get("p5_poset") or build_iso_poset(psl2(5))
    target = canonical_hash(p5_poset.to_poset())
    matches = []
    for spec in catalog_for_order(60).specs:
        poset = _cached_poset(spec.build(), cache_dir, recognize=False)
        if canonical_hash(poset.to_poset()) == target:
            matches.append(spec.name)
    z6 = _cached_poset(cyclic(6), cache_dir).to_poset()
    z15 = _cached_poset(cyclic(15), cache_dir).to_poset()
    collide = canonical_hash(z6) == canonical_hash(z15)
    shapes_match = sorted(
        n.shape for n in build_iso_poset(cyclic(6)).nodes
    ) == sorted(n.shape for n in build_iso_poset(cyclic(15)).nodes)
    noniso = not are_isomorphic(cyclic(6), cyclic(15))
    ok = matches == ["A5"] and collide and shapes_match and noniso
    _report(9, ok, f"order-60 digest matches={matches}; Z6/Z15 collide with "
                   f"matching shapes and non-isomorphic groups")


def test_criterion_10_property_suites(cache_dir):
    failures = []

    # poset axioms on every class poset built here
    for name in ("Z12", "S4", "D10", "Dic3", "A5", "F21"):
        iso = _cached_poset(group_from_name(name), cache_dir)
        k = len(iso)
        for i in range(k):
            if not iso.leq(i, i):
                failures.append((name, "reflexive", i))
            for j in range(k):
                if i != j and iso.leq(i, j) and iso.leq(j, i):
                    failures.append((name, "antisymmetric", (i, j)))
                for m in range(k):
                    if iso.leq(i, j) and iso.leq(j, m) and not iso.leq(i, m):
                        failures.append((name, "transitive", (i, j, m)))

    # poset-isomorphism agrees with the all-bijections oracle (<= 8 nodes)
    from isoposet import Poset
    small = [
        Poset(3, ((0, 1), (1, 2))),
        Poset(3, ()),
        Poset(4, ((0, 1), (0, 2), (1, 3), (2, 3))),
        Poset(5, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))),
        Poset(6, ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5))),
    ]
    for p, q in itertools.combinations(small, 2):
        if (find_poset_isomorphism(p, q) is not None) is not oracle_poset_isomorphic(p, q):
            failures.append(("poset-oracle", p.hasse, q.hasse))
    for idx, p in enumerate(small):
        q = relabeled(p, list(reversed(range(p.n))))
        if not (find_poset_isomorphism(p, q) is not None and oracle_poset_isomorphic(p, q)):
            failures.append(("poset-oracle-relabel", idx))

    # group-isomorphism agrees with the bijection oracle (orders <= 24)
    pairs = [
        ("Z6", "Z3xZ2", True), ("S3", "Z6", False), ("D8", "Q8", False),
        ("Z12", "Z4xZ3", True), ("A4", "D12", False), ("Dic3", "Z12", False),
        ("S4", "Z24", False), ("S4", "A4xZ2", False), ("Z15", "Z5xZ3", True),
    ]
    for name_a, name_b, expected in pairs:
        g, h = group_from_name(name_a), group_from_name(name_b)
        if oracle_group_isomorphic(g, h) is not expected:
            failures.append(("group-oracle", name_a, name_b))
        if are_isomorphic(g, h) is not expected:
            failures.append(("group-iso", name_a, name_b))

    # prime-order subgroup counts against element counts
    for name in ("S3", "A4", "S4", "D12", "Z12", "A5"):
        group = group_from_name(name)
        lattice = all_subgroups(group, cache_dir=cache_dir)
        for p in (2, 3, 5, 7):
            if group.order % p:
                continue
            elements = group.element_orders.count(p)
            subs = sum(1 for s in lattice.subgroups if s.order == p)
            if subs != elements // (p - 1):
                failures.append(("prime-count", name, p))

    _report(10, not failures, f"property suites clean, failures={failures}")


def test_criterion_11_composition_factors():
    sl = _shared.get("sl") or sl2_5()
    factors = composition_factors(sl)
    expected = tuple(sorted([fingerprint(cyclic(2)), fingerprint(alternating(5))]))
    p7 = _shared.get("p7") or psl2(7)
    simple = is_simple(p7)
    ok = factors == expected and simple
    _report(11, ok, "SL(2,5) factors are {Z2, A5}; PSL(2,7) is simple")
