import pytest

from isoposet import (
    all_subgroups,
    alternating,
    are_isomorphic,
    build_iso_poset,
    classposet,
    closure,
    cyclic,
    dicyclic,
    dihedral,
    downset,
    find_poset_isomorphism,
    group_from_name,
    maximal_nontop_classes,
    order_shape,
    psl2,
    symmetric,
)


def assert_poset_axioms(iso):
    k = len(iso)
    for i in range(k):
        assert iso.leq(i, i)
        for j in range(k):
            if i != j and iso.leq(i, j) and iso.leq(j, i):
                pytest.fail("relation not antisymmetric")
            for m in range(k):
                if iso.leq(i, j) and iso.leq(j, m):
                    assert iso.leq(i, m)
    assert all(iso.leq(iso.bottom, i) for i in range(k))
    assert all(iso.leq(i, iso.top) for i in range(k))


def test_prime_cyclic_gives_two_node_chain():
    iso = build_iso_poset(cyclic(5))
    assert len(iso) == 2
    assert iso.hasse == ((0, 1),)


def test_cyclic6_gives_diamond():
    iso = build_iso_poset(cyclic(6))
    assert len(iso) == 4
    assert iso.hasse == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert [n.order for n in iso.nodes] == [1, 2, 3, 6]


def test_a5_class_poset(a5, a5_lattice):
    iso = build_iso_poset(a5, lattice=a5_lattice)
    assert len(iso) == 9
    by_label = {n.label: n for n in iso.nodes}
    assert by_label["A4"].class_size == 5
    assert by_label["D10"].class_size == 6
    assert by_label["S3"].class_size == 10
    assert iso.nodes[iso.top].order == 60
    assert iso.nodes[iso.bottom].order == 1
    flagged = {n.label for n in iso.nodes if n.all_members_maximal}
    assert flagged == {"A4", "D10", "S3"}


def test_a5_maximal_nontop_classes(a5, a5_lattice):
    iso = build_iso_poset(a5, lattice=a5_lattice)
    tops = sorted(maximal_nontop_classes(iso), key=lambda n: n.order)
    assert [(n.order, n.class_size) for n in tops] == [(6, 10), (10, 6), (12, 5)]
    targets = [symmetric(3), dihedral(10), alternating(4)]
    for node, target in zip(tops, targets):
        assert are_isomorphic(node.rep.as_group(), target)


def test_two_node_chain_maximal_nontop():
    iso = build_iso_poset(cyclic(7))
    tops = maximal_nontop_classes(iso)
    assert [n.node_id for n in tops] == [iso.bottom]


def test_psl27_labels(psl27, psl27_lattice):
    iso = build_iso_poset(psl27, lattice=psl27_lattice)
    labels = {n.label for n in iso.nodes}
    assert {"F21", "S4", "D8", "A4", "PSL(2,7)"} <= labels
    tops = sorted(maximal_nontop_classes(iso), key=lambda n: n.order)
    assert [(n.order, n.class_size) for n in tops] == [(21, 8), (24, 14)]


def test_named_group_labels_its_top_class_without_recognition(call_counter):
    # the whole group's class takes the group's name; only an unnamed
    # group is recognized among the catalog groups of its order
    calls = call_counter(classposet, "_recognition_candidates",
                         key=lambda order, limits: order)
    group = psl2(5)
    assert build_iso_poset(group).nodes[-1].label == "PSL(2,5)"
    assert calls[60] == 0
    unnamed = closure(group.degree, group.generators)
    assert unnamed.name is None
    assert build_iso_poset(unnamed).nodes[-1].label == "A5"
    assert calls[60] == 1


def test_downset_of_top_is_whole_poset(a5, a5_lattice):
    iso = build_iso_poset(a5, lattice=a5_lattice)
    sub = downset(iso, iso.top)
    assert len(sub) == len(iso)
    assert find_poset_isomorphism(sub.to_poset(), iso.to_poset()) is not None


def test_downset_of_bottom_is_single_node():
    iso = build_iso_poset(symmetric(4))
    sub = downset(iso, iso.bottom)
    assert len(sub) == 1
    assert sub.top == sub.bottom == 0


def test_downset_a4_node_matches_standalone(a5, a5_lattice):
    iso = build_iso_poset(a5, lattice=a5_lattice)
    a4_node = next(n for n in iso.nodes if n.label == "A4")
    sub = downset(iso, a4_node.node_id)
    standalone = build_iso_poset(alternating(4))
    assert find_poset_isomorphism(sub.to_poset(), standalone.to_poset()) is not None


@pytest.mark.parametrize("build", [
    lambda: cyclic(12),
    lambda: symmetric(4),
    lambda: dicyclic(3),
    lambda: dihedral(20),
    lambda: group_from_name("F21"),
    lambda: group_from_name("A4xZ5"),
])
def test_poset_axioms_and_divisibility(build):
    group = build()
    iso = build_iso_poset(group)
    assert_poset_axioms(iso)
    for lo, hi in iso.hasse:
        assert iso.nodes[hi].order % iso.nodes[lo].order == 0
    for node in iso.nodes:
        assert node.shape == order_shape(node.order)
    # brute force over the lattice: class i <= class j iff some member of j
    # contains some member of i
    subs = all_subgroups(group).subgroups
    k = len(iso)
    rel = {
        (i, j)
        for i in range(k)
        for j in range(k)
        if any(
            subs[b].contains(subs[a])
            for a in iso.nodes[i].members
            for b in iso.nodes[j].members
        )
    }
    assert all(iso.leq(i, j) == ((i, j) in rel) for i in range(k) for j in range(k))
    covers = {
        (i, j)
        for i, j in rel
        if i != j and not any((i, m) in rel and (m, j) in rel for m in set(range(k)) - {i, j})
    }
    assert set(iso.hasse) == covers
    assert iso.to_poset() is iso.to_poset()


@pytest.mark.parametrize("build", [
    lambda: symmetric(4),
    lambda: dihedral(12),
    lambda: group_from_name("Z15:Z4"),
])
def test_all_members_maximal_implies_maximal_class(build):
    group = build()
    iso = build_iso_poset(group)
    top_ids = {n.node_id for n in maximal_nontop_classes(iso)}
    for node in iso.nodes:
        if node.all_members_maximal:
            assert node.node_id in top_ids


@pytest.mark.parametrize("name", ["S4", "Z12", "D10", "Dic3", "F21"])
def test_downset_law_spot_checks(name):
    group = group_from_name(name)
    iso = build_iso_poset(group)
    for node in iso.nodes:
        sub = downset(iso, node.node_id)
        standalone = build_iso_poset(node.rep.as_group(), recognize=False)
        witness = find_poset_isomorphism(sub.to_poset(), standalone.to_poset())
        assert witness is not None, (name, node.label)


def test_refine_separates_a5_maximal_classes(a5, a5_lattice):
    from isoposet import refine

    iso = build_iso_poset(a5, lattice=a5_lattice)
    colors = refine(iso.to_poset())
    top_ids = {n.node_id for n in maximal_nontop_classes(iso)}
    top_colors = {colors[i] for i in top_ids}
    lower_colors = {
        colors[n.node_id]
        for n in iso.nodes
        if n.node_id not in top_ids and n.node_id != iso.top
    }
    assert not top_colors & lower_colors


def test_downset_of_downset(a5, a5_lattice):
    iso = build_iso_poset(a5, lattice=a5_lattice)
    a4_node = next(n for n in iso.nodes if n.label == "A4")
    inner = downset(iso, a4_node.node_id)
    v4_node = next(n for n in inner.nodes if n.label == "V4")
    nested = downset(inner, v4_node.node_id)
    assert [n.order for n in nested.nodes] == [1, 2, 4]
    assert nested.top == 2 and nested.bottom == 0
    standalone = build_iso_poset(v4_node.rep.as_group(), recognize=False)
    assert find_poset_isomorphism(nested.to_poset(), standalone.to_poset()) is not None


def test_downset_rejects_bad_node(a5, a5_lattice):
    iso = build_iso_poset(a5, lattice=a5_lattice)
    with pytest.raises(ValueError):
        downset(iso, 99)


def test_build_uses_supplied_lattice(a5, a5_lattice):
    iso = build_iso_poset(a5, lattice=a5_lattice)
    assert iso.parent is a5
    assert len(all_subgroups(a5)) == sum(n.class_size for n in iso.nodes)
