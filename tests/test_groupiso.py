from collections import Counter

import pytest

from isoposet import (
    FiniteGroup,
    Limits,
    Permutation,
    ResourceLimitError,
    all_subgroups,
    alternating,
    are_isomorphic,
    classify,
    closure,
    cyclic,
    psl2,
    dicyclic,
    dihedral,
    direct_product,
    find_isomorphism,
    fingerprint,
    group_from_name,
    subgroup_generated_by,
    symmetric,
)
from isoposet import perm
from isoposet.catalog import catalog_specs
from isoposet.groupiso import _is_isomorphism, classify_with_data
from isoposet.invariants import conjugacy_classes, invariants
from isoposet.subgroups import Subgroup

from oracles import oracle_classify, oracle_element_classes, oracle_group_isomorphic


def shuffled_copy(group):
    """Same group regenerated from reversed generators: a relabeled twin."""
    return closure(group.degree, list(reversed(group.generators)))


def test_fingerprint_fields():
    fp = fingerprint(cyclic(6))
    assert fp.abelian
    assert fp.order == 6
    assert fp.exponent == 6
    assert fp.center_size == 6
    assert fp.derived_size == 1

    fp3 = fingerprint(symmetric(3))
    assert not fp3.abelian
    assert fp3.class_sizes == (1, 2, 3)
    assert fp3.center_size == 1
    assert fp3.derived_size == 3


def test_fingerprint_psl25_histogram(psl25):
    fp = fingerprint(psl25)
    assert dict(fp.order_histogram) == {1: 1, 2: 15, 3: 20, 5: 24}


def test_fingerprint_components_bounded_by_order():
    for name in ("Z12", "S4", "D10", "Dic3", "F21", "A5"):
        g = group_from_name(name)
        fp = fingerprint(g)
        assert g.order % fp.exponent == 0
        assert g.order % fp.center_size == 0
        assert g.order % fp.derived_size == 0
        assert sum(count for _, count in fp.order_histogram) == g.order
        assert sum(fp.class_sizes) == g.order
        assert all(g.order % size == 0 for size in fp.class_sizes)


def test_fingerprint_as_dict_is_json_ready():
    import json

    payload = fingerprint(symmetric(3)).as_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["class_sizes"] == [1, 2, 3]


def test_element_orders_computed_once(call_counter):
    # every group, with a Cayley table or without one, takes its element
    # orders and inverses from one walk of the powers through its rows,
    # and never orders a permutation on its own
    walks = call_counter(perm, "_power_walk", key=lambda rows, n: id(rows))
    orders = call_counter(Permutation, "order")
    for limits in (Limits(), Limits(cayley_cap=8)):
        g = symmetric(4, limits=limits)
        assert (g.cayley_table is None) == (limits.cayley_cap == 8)
        fingerprint(g)
        assert find_isomorphism(g, g) is not None
        assert [g.inverse_index(i) for i in range(g.order)] == [
            g.index_of(p.inverse()) for p in g.elements]
        assert walks[id(g.rows)] == 1
    assert sum(walks.values()) == 2
    assert orders["order"] == 0


def _class_representatives(lattice):
    first: dict[int, int] = {}
    for idx, cls in enumerate(lattice.class_of):
        first.setdefault(cls, idx)
    return [lattice.subgroups[idx] for idx in first.values()]


def test_invariants_in_the_parent_equal_the_realized_fingerprint(cache_dir):
    for spec in catalog_specs(max_order=168):
        group = spec.build()
        for sub in _class_representatives(all_subgroups(group, cache_dir=cache_dir)):
            assert invariants(group, sub.members, sub.gens) == fingerprint(sub.as_group()), \
                (spec.name, sub.members)


def test_conjugacy_classes_match_bruteforce_oracle():
    groups = [spec.build() for spec in catalog_specs(max_order=168)]
    groups.append(symmetric(4, limits=Limits(cayley_cap=8)))
    for group in groups:
        assert conjugacy_classes(group) == oracle_element_classes(group), group.name


def test_parent_without_a_table_reads_like_one_with(call_counter):
    # the mult paths of a parent with no Cayley table agree with the table
    # reads, and they order only a subgroup's members, never the parent's
    tabled = symmetric(4)
    untabled = symmetric(4, limits=Limits(cayley_cap=8))
    assert untabled.cayley_table is None
    assert untabled.elements == tabled.elements
    assert untabled.conjugation_maps == tabled.conjugation_maps
    for g in range(tabled.order):
        assert ([untabled.conjugate_index(i, g) for i in range(tabled.order)]
                == [tabled.conjugate_index(i, g) for i in range(tabled.order)])
    orders = call_counter(Permutation, "order")
    for sub in _class_representatives(all_subgroups(tabled)):
        before = orders["order"]
        fp = invariants(untabled, sub.members, sub.gens)
        assert fp == invariants(tabled, sub.members, sub.gens), sub.members
        assert orders["order"] - before <= sub.order


def test_conjugacy_classes_read_the_table(call_counter):
    group = psl2(7)  # a fresh group, whose conjugation maps are not yet built
    mults = call_counter(FiniteGroup, "mult")
    classes = conjugacy_classes(group)
    assert sorted(map(len, classes)) == [1, 21, 24, 24, 42, 56]
    assert mults["mult"] == 0


def test_conjugation_maps_match_per_generator_maps():
    # the maps read through the generator moves and inverses equal each
    # distinct generator's conjugates, read off the table or by mult
    groups = [spec.build() for spec in catalog_specs()]
    groups.append(direct_product(alternating(5), alternating(5)))
    assert groups[-1].cayley_table is None
    for group in groups:
        expected = tuple(tuple(group.conjugate_index(i, g) for i in range(group.order))
                         for g in dict.fromkeys(group.generator_indices()))
        assert group.conjugation_maps == expected, group.name


def test_fingerprint_without_a_table_work_count(call_counter):
    # A5xA5's conjugation maps take no mult; what is left is its derived
    # subgroup: commutators of its generators and their normal closure
    product = direct_product(alternating(5), alternating(5))
    assert product.cayley_table is None
    mults = call_counter(FiniteGroup, "mult")
    assert fingerprint(product).class_sizes[-1] == 20 * 20
    assert mults["mult"] <= 4000  # 45,224 when each map took two products an element


@pytest.mark.parametrize("cayley_cap", [512, 1], ids=["table", "no-table"])
def test_witness_check_rejects_a_non_homomorphism(cayley_cap):
    # inversion is a bijection that keeps element orders; it is a
    # homomorphism exactly on abelian groups
    limits = Limits(cayley_cap=cayley_cap)
    for group, abelian in ((symmetric(3, limits=limits), False), (cyclic(6, limits=limits), True)):
        assert (group.cayley_table is None) == (cayley_cap == 1)
        inversion = [group.inverse_index(i) for i in range(group.order)]
        assert _is_isomorphism(group, group, list(range(group.order)))
        assert _is_isomorphism(group, group, inversion) == abelian
    # and on subgroups read in their parent: V4 and S3 in S4
    s4 = symmetric(4, limits=limits)
    for cycles, abelian in (([((0, 1), (2, 3)), ((0, 2), (1, 3))], True),
                            ([((0, 1),), ((0, 1, 2),)], False)):
        sub = subgroup_generated_by(s4, [s4.index_of(Permutation.from_cycles(4, *c))
                                         for c in cycles])
        assert sub.order == (4 if abelian else 6)
        inversion = [s4.inverse_index(x) for x in sub.members]
        assert _is_isomorphism(sub, sub, list(sub.members))
        assert _is_isomorphism(sub, sub, inversion) == abelian


def test_are_isomorphic_basics():
    assert are_isomorphic(cyclic(6), direct_product(cyclic(2), cyclic(3)))
    assert not are_isomorphic(symmetric(3), cyclic(6))
    assert not are_isomorphic(dihedral(8), dicyclic(2))


def test_psl25_isomorphic_to_a5(psl25, a5):
    assert are_isomorphic(psl25, a5)


def test_witness_is_a_bijective_homomorphism(psl25, a5):
    iso = find_isomorphism(psl25, a5)
    assert iso is not None
    mapping = iso.mapping
    assert sorted(mapping) == list(range(a5.order))
    for i in range(psl25.order):
        for j in range(psl25.order):
            assert mapping[psl25.mult(i, j)] == a5.mult(mapping[i], mapping[j])
    for src, img in zip(iso.generator_indices, iso.generator_images):
        assert mapping[src] == img


def test_isomorphism_reflexive_and_symmetric():
    groups = [cyclic(8), dihedral(10), alternating(4), dicyclic(3)]
    for g in groups:
        assert are_isomorphic(g, g)
    for g in groups:
        for h in groups:
            assert are_isomorphic(g, h) == are_isomorphic(h, g)


def test_isomorphism_cap(a5):
    big = direct_product(a5, a5)
    with pytest.raises(ResourceLimitError, match="400"):
        are_isomorphic(big, big)
    assert are_isomorphic(cyclic(4), cyclic(4), limits=Limits(iso_cap=4))


ORACLE_PAIRS = [
    # order-class profiles small enough for the exhaustive bijection search
    ("Z6", "Z3xZ2", True),
    ("S3", None, True),
    ("D8", None, True),
    ("Q8", None, True),
    ("D10", None, True),
    ("Dic3", None, True),
    ("A4", None, True),
    ("Z12", "Z4xZ3", True),
    ("Z15", "Z5xZ3", True),
    ("Z8", "Z4xZ2", False),
    ("S3", "Z6", False),
    ("D8", "Q8", False),
    ("A4", "D12", False),
    ("Dic3", "Z12", False),
    ("D10", "Z10", False),
    ("V4", "Z4", False),
    ("S4", "Z24", False),
    ("S4", "A4xZ2", False),
]


@pytest.mark.parametrize("name_a,name_b,expected", ORACLE_PAIRS)
def test_matches_bruteforce_oracle(name_a, name_b, expected):
    g = group_from_name(name_a)
    h = shuffled_copy(g) if name_b is None else group_from_name(name_b)
    assert oracle_group_isomorphic(g, h) is expected
    assert are_isomorphic(g, h) is expected


def test_isomorphic_groups_share_fingerprints():
    for name_a, name_b, expected in ORACLE_PAIRS:
        if not expected:
            continue
        g = group_from_name(name_a)
        h = shuffled_copy(g) if name_b is None else group_from_name(name_b)
        assert fingerprint(g) == fingerprint(h)


def test_search_exhausts_without_fingerprint_screen():
    # feeding equal fingerprints bypasses the screen; the backtracking
    # itself must still reject the pair
    d8, q8 = dihedral(8), dicyclic(2)
    fp = fingerprint(d8)
    assert find_isomorphism(d8, q8, fg=fp, fh=fp) is None


def test_classify_cyclic6():
    g = cyclic(6)
    classes = classify(g, all_subgroups(g))
    assert sorted(len(c) for c in classes) == [1, 1, 1, 1]


def test_classify_s3():
    g = symmetric(3)
    classes = classify(g, all_subgroups(g))
    assert sorted(len(c) for c in classes) == [1, 1, 1, 3]


def test_classify_a5(a5, a5_lattice):
    classes = classify(a5, a5_lattice)
    assert len(classes) == 9
    assert sorted(len(c) for c in classes) == [1, 1, 5, 5, 6, 6, 10, 10, 15]


def test_classify_refines_order(a5, a5_lattice):
    for members, fp, rep in classify_with_data(a5, a5_lattice):
        orders = {a5_lattice.subgroups[i].order for i in members}
        assert orders == {fp.order}
        assert rep == members[0]


def test_classify_members_share_fingerprints(a5, a5_lattice):
    for members, fp, _ in classify_with_data(a5, a5_lattice):
        for idx in members:
            assert fingerprint(a5_lattice.subgroups[idx].as_group()) == fp


def test_classify_partition_covers_lattice(a5, a5_lattice):
    classes = classify(a5, a5_lattice)
    seen = Counter(idx for cls in classes for idx in cls)
    assert set(seen) == set(range(len(a5_lattice)))
    assert all(count == 1 for count in seen.values())


def test_classify_rejects_foreign_lattice(a5):
    other = symmetric(3)
    with pytest.raises(ValueError):
        classify(a5, all_subgroups(other))


def test_classify_matches_per_subgroup_oracle(cache_dir):
    for spec in catalog_specs(max_order=168):
        group = spec.build()
        lattice = all_subgroups(group, cache_dir=cache_dir)
        assert classify_with_data(group, lattice) == oracle_classify(group, lattice), spec.name


def test_classify_realizes_one_subgroup_per_conjugacy_class(psl27, psl27_lattice, call_counter):
    # one representative per conjugacy class (15 of 179 subgroups) is
    # compared, and in the parent: PSL(2,7)'s two classes each of V4, A4
    # and S4 are told apart without realizing a subgroup
    calls = call_counter(Subgroup, "as_group")
    classify_with_data(psl27, psl27_lattice)
    assert calls["as_group"] == 0
    assert len(set(psl27_lattice.class_of)) == 15


def test_classify_reads_element_data_from_the_parent(call_counter):
    # a fresh PSL(2,7), so its own 168 orders are counted too; realizing
    # the 15 class representatives rebuilds no permutation and orders none
    group = psl2(7)
    lattice = all_subgroups(group)
    orders = call_counter(Permutation, "order")
    built = call_counter(Permutation, "__post_init__")
    classify_with_data(group, lattice)
    assert built["__post_init__"] == 0
    assert orders["order"] <= group.order
