from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoposet import (
    FiniteGroup,
    Fingerprint,
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
from isoposet import groupiso, perm
import isoposet.invariants as invariants_module
from isoposet.catalog import catalog_specs
from isoposet.groupiso import _is_isomorphism, classify_with_data
from isoposet.invariants import (
    _class_orbits,
    _invariants,
    conjugacy_classes,
    invariants,
)
from isoposet.subgroups import Subgroup

from oracles import (
    oracle_classify,
    oracle_element_classes,
    oracle_fingerprint,
    oracle_group_isomorphic,
    oracle_inverse,
    oracle_order,
    tableless,
)


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
    import dataclasses
    import json

    payload = json.loads(json.dumps(dataclasses.asdict(fingerprint(symmetric(3)))))
    assert payload["class_sizes"] == [1, 2, 3]
    assert payload["order_histogram"] == [[1, 1], [2, 3], [3, 2]]


def test_element_orders_computed_once(call_counter):
    # every group, with a Cayley table or without one, takes its element
    # orders and inverses from one walk of the powers through its rows
    walks = call_counter(perm, "_power_walk", key=lambda rows, n: id(rows))
    tabled = symmetric(4)
    for g in (tabled, tableless(tabled)):
        fingerprint(g)
        assert find_isomorphism(g, g) is not None
        assert [g.inverse_index(i) for i in range(g.order)] == [
            g.index_of(oracle_inverse(p)) for p in g.elements]
        assert g.element_orders == tuple(map(oracle_order, g.elements))
        assert walks[id(g.rows)] == 1
    assert sum(walks.values()) == 2


def _class_representatives(lattice):
    first: dict[int, int] = {}
    for idx, cls in enumerate(lattice.class_of):
        first.setdefault(cls, idx)
    return [lattice.subgroups[idx] for idx in first.values()]


def test_invariants_in_the_parent_equal_the_realized_fingerprint(cache_dir):
    for spec in catalog_specs():
        group = spec.build()
        for sub in _class_representatives(all_subgroups(group, cache_dir=cache_dir)):
            assert invariants(group, sub.members, sub.gens) == fingerprint(sub.as_group()), \
                (spec.name, sub.members)


def test_conjugacy_classes_match_bruteforce_oracle():
    groups = [spec.build() for spec in catalog_specs()]
    groups.append(tableless(symmetric(4)))
    for group in groups:
        assert conjugacy_classes(group) == oracle_element_classes(group), group.name


def test_parent_without_a_table_reads_like_one_with(call_counter):
    # the mult paths of a parent with no Cayley table agree with the table
    # reads, and each parent's element orders come from one walk of its
    # rows, however many subgroups read them
    walks = call_counter(perm, "_power_walk", key=lambda rows, n: id(rows))
    tabled = symmetric(4)
    untabled = tableless(tabled)
    assert untabled.conjugation_maps == tabled.conjugation_maps
    for g in range(tabled.order):
        assert ([untabled.conjugate_index(i, g) for i in range(tabled.order)]
                == [tabled.conjugate_index(i, g) for i in range(tabled.order)])
    for sub in _class_representatives(all_subgroups(tabled)):
        fp = invariants(untabled, sub.members, sub.gens)
        assert fp == invariants(tabled, sub.members, sub.gens), sub.members
    assert walks == {id(tabled.rows): 1, id(untabled.rows): 1}


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
    assert not isinstance(groups[-1].rows, tuple)
    for group in groups:
        expected = tuple(tuple(group.conjugate_index(i, g) for i in range(group.order))
                         for g in dict.fromkeys(group.generator_indices()))
        assert group.conjugation_maps == expected, group.name


def test_fingerprint_without_a_table_work_count(call_counter):
    # A5xA5's conjugation maps take no mult; what is left is its derived
    # subgroup: commutators of its generators and their normal closure
    product = direct_product(alternating(5), alternating(5))
    assert not isinstance(product.rows, tuple)
    mults = call_counter(FiniteGroup, "mult")
    assert fingerprint(product).class_sizes[-1] == 20 * 20
    assert mults["mult"] <= 4000  # 45,224 when each map took two products an element


@pytest.mark.parametrize("table", [True, False], ids=["table", "no-table"])
def test_witness_check_rejects_a_non_homomorphism(table):
    # inversion is a bijection that keeps element orders; it is a
    # homomorphism exactly on abelian groups
    def build(group):
        return group if table else tableless(group)

    for group, abelian in ((build(symmetric(3)), False), (build(cyclic(6)), True)):
        inversion = [group.inverse_index(i) for i in range(group.order)]
        assert _is_isomorphism(group, group, list(range(group.order)))
        assert _is_isomorphism(group, group, inversion) == abelian
    # and on subgroups read in their parent: V4 and S3 in S4
    s4 = build(symmetric(4))
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


def test_different_orders_answer_before_the_isomorphism_cap():
    # groups of different orders are not isomorphic, whatever the cap
    assert find_isomorphism(cyclic(2), cyclic(500)) is None
    assert find_isomorphism(cyclic(500), cyclic(2), limits=Limits(iso_cap=1)) is None


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


def test_classify_matches_the_pairwise_oracle(cache_dir):
    # the 53 catalog lattices, each representative pair searched
    specs = catalog_specs()
    assert len(specs) == 53
    for spec in specs:
        group = spec.build()
        lattice = all_subgroups(group, cache_dir=cache_dir)
        assert classify_with_data(group, lattice) == oracle_classify(group, lattice), spec.name


@pytest.mark.parametrize("name", ["PSL(2,5)", "PSL(2,7)", "SL(2,5)", "S5", "A5xZ2"])
def test_classify_matches_the_pairwise_oracle_on_the_papers_groups(name, cache_dir, request):
    group = {"PSL(2,5)": "psl25", "PSL(2,7)": "psl27", "SL(2,5)": "sl25"}.get(name)
    group = request.getfixturevalue(group) if group else group_from_name(name)
    lattice = all_subgroups(group, cache_dir=cache_dir)
    assert classify_with_data(group, lattice) == oracle_classify(group, lattice)


@pytest.mark.parametrize("build", [alternating, symmetric], ids=["A5", "S4"])
def test_classify_matches_the_pairwise_oracle_without_a_table(build):
    group = tableless(build(5 if build is alternating else 4))
    lattice = all_subgroups(group)
    assert classify_with_data(group, lattice) == oracle_classify(group, lattice)


def _classes_by_order_alone(monkeypatch, group, lattice):
    """The partition classify gives when every abelian representative's
    fingerprint keeps only its order: a mutant of the one fingerprint
    dispatch, which sees an abelian representative as classes that are
    all singletons, and merges abelian buckets by order alone."""
    walked_fingerprint = groupiso._invariants

    def order_only(parent, gens, classes):
        if any(len(cls) > 1 for cls in classes):
            return walked_fingerprint(parent, gens, classes)
        return Fingerprint(len(classes), True, 0, (), len(classes), 1, ())

    with monkeypatch.context() as patch:
        patch.setattr(groupiso, "_invariants", order_only)
        classes = classify_with_data(group, lattice)
    return sorted(members for members, _, _ in classes)


def test_the_pairwise_oracle_refuses_abelian_classes_merged_by_order(monkeypatch, cache_dir):
    # Z4 and V4 (in S4, D8, Z4xZ2) share an order but not their element
    # orders; a classification that merged them would fail the oracle
    for name in ("S4", "D8", "Z4xZ2", "Z2xZ2xZ2xZ2"):
        group = group_from_name(name)
        lattice = all_subgroups(group, cache_dir=cache_dir)
        oracle = sorted(members for members, _, _ in oracle_classify(group, lattice))
        assert sorted(members for members, _, _ in classify_with_data(group, lattice)) == oracle
        if name != "Z2xZ2xZ2xZ2":  # elementary abelian: one class per order either way
            assert _classes_by_order_alone(monkeypatch, group, lattice) != oracle, name


def test_abelian_fingerprints_by_formula_equal_the_walked_ones(psl25, psl27, sl25, cache_dir):
    # every abelian subgroup of the 53 catalog lattices and of the paper's
    # five groups, told apart here by every pair of members commuting: the
    # formula gives each member a class of its own and takes no closure;
    # the oracle conjugates by every member and closes every commutator
    groups = [spec.build() for spec in catalog_specs()]
    groups += [psl25, psl27, sl25, group_from_name("S5"), group_from_name("A5xZ2")]
    checked = 0
    for group in groups:
        for sub in all_subgroups(group, cache_dir=cache_dir).subgroups:
            if not all(group.mult(x, y) == group.mult(y, x)
                       for x in sub.members for y in sub.members):
                continue
            assert _class_orbits(group, sub.members, sub.gens) == [(x,) for x in sub.members]
            assert invariants(group, sub.members, sub.gens) == \
                oracle_fingerprint(group, sub.members), (group.name, sub.members)
            checked += 1
    assert checked == 1360


def test_find_isomorphism_between_abelian_sides_walks_no_orbit(call_counter):
    # an abelian side's classes are its members, one each, so neither the
    # fingerprints nor the search keys walk an orbit; the search still
    # runs, and its witness passes the full check.  Z6 against Z2xZ3, and
    # S4's normal V4 against a V4 of the other class, read in their parent
    s4 = symmetric(4)
    v4s = [subgroup_generated_by(s4, [s4.index_of(Permutation.from_cycles(4, *c)) for c in gens])
           for gens in ([[(0, 1), (2, 3)], [(0, 2), (1, 3)]], [[(0, 1)], [(2, 3)]])]
    assert [v4.order for v4 in v4s] == [4, 4]
    pairs = [(cyclic(6), _cyclic_product([2, 3])), tuple(v4s)]
    walks = call_counter(invariants_module, "_orbits")
    for g, h in pairs:
        iso = find_isomorphism(g, h)
        assert iso is not None
        assert _is_isomorphism(g, h, iso.mapping)
    assert walks["_orbits"] == 0


def _elementary_divisors(factors):
    """The prime powers of a product of cyclic groups of these orders, as
    a sorted list: two such products are isomorphic iff these agree."""
    out = []
    for m in factors:
        p = 2
        while m > 1:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def _factorizations(n, least=2):
    """Every nondecreasing list of factors above 1 with product n."""
    if n == 1:
        return [[]]
    return [[f, *rest] for f in range(least, n + 1) if n % f == 0
            for rest in _factorizations(n // f, f)]


def _cyclic_product(factors):
    group = cyclic(factors[0])
    for m in factors[1:]:
        group = direct_product(group, cyclic(m))
    return group


@st.composite
def cyclic_product_pairs(draw):
    n = draw(st.sampled_from([4, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48]))
    shapes = _factorizations(n)
    return [draw(st.permutations(draw(st.sampled_from(shapes)))) for _ in range(2)]


@given(cyclic_product_pairs())
@settings(max_examples=60, deadline=None)
def test_cyclic_products_are_isomorphic_iff_their_fingerprints_agree(pair):
    # the theorem classify and class labels rest on, against elementary
    # divisors and the search: equal element-order counts, isomorphic
    g, h = map(_cyclic_product, pair)
    same = _elementary_divisors(pair[0]) == _elementary_divisors(pair[1])
    for group in (g, h):
        walked = _invariants(group, group.generator_indices(), conjugacy_classes(group))
        assert fingerprint(group) == walked
    assert (fingerprint(g) == fingerprint(h)) == same
    assert (find_isomorphism(g, h) is not None) == same


def test_cyclic_products_with_unequal_and_equal_histograms():
    # fixed cases both ways, so that neither depends on a draw
    assert fingerprint(_cyclic_product([4, 2])) != fingerprint(_cyclic_product([2, 2, 2]))
    assert fingerprint(_cyclic_product([4, 4])) != fingerprint(_cyclic_product([8, 2]))
    assert fingerprint(_cyclic_product([6, 2])) == fingerprint(_cyclic_product([2, 3, 2]))
    assert find_isomorphism(_cyclic_product([6, 2]), _cyclic_product([2, 3, 2])) is not None


def test_the_trivial_group_is_checked_like_any_other(call_counter):
    # its one mapping, identity to identity, goes through the same check
    # as every other witness
    checks = call_counter(groupiso, "_is_isomorphism")
    s3 = symmetric(3)
    iso = find_isomorphism(cyclic(1), subgroup_generated_by(s3, []))
    assert iso == groupiso.GroupIso((), (), (s3.identity_index,))
    assert checks["_is_isomorphism"] == 1


def test_classify_work_over_the_catalog(cache_dir, call_counter):
    # 383 of the 497 class representatives of the 53 catalog lattices are
    # abelian: no class walk, and no search in their buckets.  The other
    # 114 are walked once each, and 19 pairs of them share a fingerprint
    # bucket and are searched (497 walks and 100 searches without the
    # theorem)
    lattices = [(group, all_subgroups(group, cache_dir=cache_dir))
                for group in (spec.build() for spec in catalog_specs())]
    walks = call_counter(invariants_module, "_orbits")
    searches = call_counter(groupiso, "_search_isomorphism")
    for group, lattice in lattices:
        classify_with_data(group, lattice)
    assert sum(len(set(lattice.class_of)) for _, lattice in lattices) == 497
    assert walks["_orbits"] == 114
    assert searches["_search_isomorphism"] == 19


def test_an_abelian_bucket_past_the_iso_cap_is_refused():
    # S4's two classes of V4 share one abelian bucket: merging them is a
    # comparison of order 4, refused under an iso cap of 3 as a search
    # would be; a bucket of one class, such as each of Z8's, compares
    # nothing and is never refused
    s4 = symmetric(4)
    lattice = all_subgroups(s4)
    with pytest.raises(ResourceLimitError, match="subgroup has more than 3 elements"):
        classify_with_data(s4, lattice, limits=Limits(iso_cap=3))
    assert classify_with_data(s4, lattice, limits=Limits(iso_cap=4)) == \
        classify_with_data(s4, lattice)
    z8 = cyclic(8)
    assert len(classify_with_data(z8, all_subgroups(z8), limits=Limits(iso_cap=1))) == 4


def test_classify_realizes_one_subgroup_per_conjugacy_class(psl27, psl27_lattice, call_counter):
    # one representative per conjugacy class (15 of 179 subgroups) is
    # compared, and in the parent: PSL(2,7)'s two classes each of V4, A4
    # and S4 are told apart without realizing a subgroup
    calls = call_counter(Subgroup, "as_group")
    classify_with_data(psl27, psl27_lattice)
    assert calls["as_group"] == 0
    assert len(set(psl27_lattice.class_of)) == 15


def test_classify_walks_each_representatives_classes_once(psl27, psl27_lattice, call_counter):
    # the classes walked for a representative's fingerprint also key its
    # isomorphism searches.  7 of PSL(2,7)'s 15 representatives are abelian
    # (orders 1, 2, 3, 7 and the cyclic 4 and two classes of V4), whose
    # classes are their members, one each, with no orbit walked, so 8
    # walks for the other 8
    walks = call_counter(invariants_module, "_orbits", key=lambda points, maps: tuple(points))
    classify_with_data(psl27, psl27_lattice)
    assert sum(walks.values()) == 8
    assert len(walks) == 8


def test_classify_reads_element_data_from_the_parent(call_counter):
    # a fresh PSL(2,7), whose lattice walks its powers once; reading the
    # 15 class representatives in it builds no permutation and walks no
    # powers of a group of their own
    group = psl2(7)
    lattice = all_subgroups(group)
    walks = call_counter(perm, "_power_walk")
    built = call_counter(Permutation, "__post_init__")
    classify_with_data(group, lattice)
    assert built["__post_init__"] == 0
    assert walks["_power_walk"] == 0
