import json
import os
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoposet import (
    FiniteGroup,
    Limits,
    Permutation,
    ResourceLimitError,
    all_subgroups,
    alternating,
    closure,
    are_isomorphic,
    composition_factors,
    conjugate_subgroup,
    coset_action,
    cyclic,
    derived_series,
    dicyclic,
    dihedral,
    direct_product,
    find_isomorphism,
    fingerprint,
    has_subgroup_of_order,
    is_maximal,
    is_normal,
    is_simple,
    is_solvable,
    normal_subgroups,
    order_shape,
    perm,
    psl2,
    subgroup_from_members,
    subgroup_generated_by,
    subgroups,
    symmetric,
)
from isoposet.catalog import catalog_for_order, catalog_specs, group_from_name
from isoposet.invariants import conjugacy_classes, invariants
from isoposet.perm import LeftCosets
from isoposet.subgroups import _every_group_cyclic

import oracles
from oracles import (
    oracle_closure,
    oracle_composition_factors,
    oracle_conjugacy_classes,
    oracle_containment,
    oracle_enumeration,
    oracle_eulerian,
    oracle_moebius,
    oracle_right_cosets,
    oracle_subgroups,
    tableless,
)


def _named(name, table):
    """The named catalog group, with its Cayley table or without one."""
    group = group_from_name(name)
    return group if table else tableless(group)


def test_subgroup_counts_cyclic6():
    # one subgroup per divisor of 6
    assert len(all_subgroups(cyclic(6))) == 4


def test_subgroup_counts_s3():
    # trivial, three <transposition>, <3-cycle>, S3
    assert len(all_subgroups(symmetric(3))) == 6


def test_subgroup_counts_a5(a5_lattice):
    # 1 + 15 Z2 + 10 Z3 + 5 V4 + 6 Z5 + 10 S3 + 6 D10 + 5 A4 + 1 = 59
    assert len(a5_lattice) == 59
    sizes = Counter(s.order for s in a5_lattice.subgroups)
    assert sizes == Counter({1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6, 12: 5, 60: 1})


def _z2_power(k):
    group = cyclic(2)
    for _ in range(k - 1):
        group = direct_product(group, cyclic(2))
    return group


@pytest.mark.parametrize("build", [
    lambda: symmetric(4),
    lambda: alternating(4),
    lambda: dihedral(12),
    lambda: dicyclic(2),
    lambda: dicyclic(3),
    lambda: _z2_power(3),
    lambda: _z2_power(4),
], ids=["S4", "A4", "D12", "Q8", "Dic3", "Z2^3", "Z2^4"])
def test_enumeration_matches_bruteforce_oracle(build):
    group = build()
    lattice = all_subgroups(group)
    found = [frozenset(s.members) for s in lattice.subgroups]
    assert len(set(found)) == len(found)
    assert set(found) == oracle_subgroups(group)


def test_subgroup_gens_generate_members():
    for spec in catalog_specs():
        group = spec.build()
        for sub in all_subgroups(group).subgroups:
            assert oracle_closure(group, sub.gens) == frozenset(sub.members), spec.name


def _a5_squared_copies():
    """A5xA5 (no Cayley table) with its diagonal and left copy of A5."""
    a5 = alternating(5)
    product = direct_product(a5, a5)
    ident = tuple(range(a5.degree))

    def embed(first, second):
        return product.index_of(Permutation(first + tuple(a5.degree + x for x in second)))

    diagonal = subgroup_generated_by(product, [embed(g.images, g.images) for g in a5.generators])
    left = subgroup_generated_by(product, [embed(g.images, ident) for g in a5.generators])
    return product, diagonal, left


def _assert_same_group(realized, closed):
    assert realized.elements == closed.elements
    assert realized.generators == closed.generators
    assert realized.cayley_table == closed.cayley_table
    assert realized.element_orders == closed.element_orders
    assert ([realized.inverse_index(i) for i in range(realized.order)]
            == [closed.inverse_index(i) for i in range(closed.order)])


def test_as_group_equals_closure(cache_dir):
    # a subgroup read off its parent's table is the group closure() builds
    for spec in catalog_specs():
        group = spec.build()
        for sub in all_subgroups(group, cache_dir=cache_dir).subgroups:
            closed = closure(group.degree, [group.elements[g] for g in sub.gens])
            _assert_same_group(sub.as_group(), closed)
    product, diagonal, left = _a5_squared_copies()
    assert product.cayley_table is None
    for sub in (diagonal, left):
        _assert_same_group(sub.as_group(),
                           closure(product.degree, [product.elements[g] for g in sub.gens]))


def test_as_group_keeps_closure_caps():
    group = symmetric(4)
    whole = subgroup_generated_by(group, group.generator_indices())
    gens = list(group.generators)
    small = Limits(element_cap=10)
    with pytest.raises(ResourceLimitError) as realized:
        whole.as_group(limits=small)
    with pytest.raises(ResourceLimitError) as closed:
        closure(group.degree, gens, limits=small)
    assert str(realized.value) == str(closed.value)


def test_as_group_without_parent_table_orders_only_its_elements(call_counter):
    # A5xA5 has no table: its 3600 element orders must not be computed
    # to realize a 60-element subgroup, and no permutation is rebuilt
    _, _, left = _a5_squared_copies()
    expected = sorted(alternating(5).element_orders)
    walks = call_counter(perm, "_power_walk", key=lambda rows, n: n)
    built = call_counter(Permutation, "__post_init__")
    realized = left.as_group()
    assert sorted(realized.element_orders) == expected
    assert walks == {60: 1}
    assert built["__post_init__"] == 0


def test_invariants_without_parent_table_walk_the_parent_powers_once(call_counter):
    # the left A5 and the diagonal of A5xA5 fingerprinted in their
    # tableless parent, which has not walked its 3600 elements: the first
    # view walks the parent's powers once, one product a step, and keeps
    # them; the second view's orders, commutators and normal closure read
    # the same walk
    product, diagonal, left = _a5_squared_copies()
    expected = fingerprint(alternating(5))
    walks = call_counter(perm, "_power_walk", key=lambda rows, n: n)
    assert invariants(product, left.members, left.gens) == expected
    assert invariants(product, diagonal.members, diagonal.gens) == expected
    assert walks == {3600: 1}
    assert "_powers" in vars(product)


def test_enumeration_work_count_psl27(call_counter):
    # a deterministic count, so it guards the cost without a timing bound.
    # One join per conjugacy-class representative R and orbit of cyclic
    # subgroups under R is 229, less the joins that Lagrange forces: both
    # classes of S4 have prime index 7, so each stops after its first join
    # (10 fewer), and where a join gives K with [K:R] prime, the cyclic
    # subgroups of K are not joined with R again (23 fewer), so the
    # enumeration makes 196 joins, each stopping above half of G (84).  The
    # greedy generating set of each of the 9 classes found by a join has 2
    # generators: the first one's powers are walked, and the second adds
    # one join with no stop (9).
    group = psl2(7)
    closures = call_counter(FiniteGroup, "closure_indices")
    joins = call_counter(FiniteGroup, "join",
                         key=lambda self, cosets, gens, c, stop_above=None: stop_above)
    orbits = subgroups._enumerate_subgroups(group)
    assert len(orbits) == 15
    assert sum(map(len, orbits)) == 179
    assert joins == {84: 196, None: 9}
    assert closures["closure_indices"] == 0


@pytest.mark.parametrize("name, table", [
    *[(name, True) for name in ["A4", "S4", "D12", "Z2xZ2xZ2xZ2", "PSL(2,7)"]],
    *[(spec.name, True) for spec in catalog_for_order(60).specs],
    ("A5", False), ("S4", False),
], ids=lambda v: {True: "table", False: "no-table"}.get(v, v))
def test_enumeration_matches_the_unpruned_loop(call_counter, name, table):
    # shared coset labels and the joins skipped at a prime index change
    # no orbit: members, generators and discovery order all match the loop
    # that joins every orbit of cyclic subgroups with a plain closure
    group = _named(name, table)
    half = group.order // 2
    joins = call_counter(FiniteGroup, "join",
                         key=lambda self, cosets, gens, c, stop_above=None: (tuple(gens), stop_above))
    orbits = subgroups._enumerate_subgroups(group)
    plain = call_counter(oracles, "oracle_closure",
                         key=lambda group, seed, stop_above=None: (tuple(seed[:-1]), stop_above))
    assert orbits == oracle_enumeration(group)
    stopped = 0
    for (hmembers, hgens), *_ in orbits:
        if not hgens or len(hmembers) == group.order:
            continue
        made, unpruned = joins[hgens, half], plain[hgens, half]
        assert made <= unpruned
        if group.order // len(hmembers) in {2, 3, 5, 7}:  # [G:H] prime: one join
            assert made == 1
            stopped += unpruned > 1
    assert sum(joins[key] for key in joins if key[1] == half) \
        < sum(plain[key] for key in plain if key[1] == half)
    assert stopped or name == "A4"  # A4's V4 meets its Z3s in one orbit, so one join anyway


@pytest.mark.parametrize("name, table", [
    ("A5", True), ("S4", True), ("A5", False), ("S4", False),
], ids=["A5", "S4", "A5-no-table", "S4-no-table"])
def test_coset_join_matches_closure(name, table):
    group = _named(name, table)
    half = group.order // 2
    results = set()
    for orbit in subgroups._enumerate_subgroups(group):
        hmembers, hgens = orbit[0]
        cosets = LeftCosets(hmembers)  # shared by H's joins, as the enumeration shares it
        for c in range(group.order):  # every cyclic subgroup, several times
            joined = group.join(cosets, hgens, c, stop_above=half)
            expected = sorted(oracle_closure(group, [*hgens, c]))
            if len(expected) > half:
                assert joined is None
            else:
                assert joined == expected
            assert group.join(LeftCosets(hmembers), hgens, c) == expected
            results.add(None if joined is None else len(joined))
        # each labelled coset is the left coset of its first member
        for k, coset in enumerate(cosets.cosets):
            assert sorted(coset) == sorted(group.mult(coset[0], h) for h in hmembers)
            assert {cosets.label[x] for x in coset} == {k}
        assert len(cosets.label) == len(cosets.cosets) * len(hmembers)
    assert None in results and len(results) > 2


@pytest.mark.parametrize("table", [True, False], ids=["table", "no-table"])
@pytest.mark.parametrize("name", ["S4", "A5", "D12"])
def test_generators_and_normal_closures_match_oracles(name, table):
    # greedy generators and normal closures are grown by joins; the oracles
    # close every candidate generator list and conjugate every member anew
    group = _named(name, table)
    conjugators = group.generator_indices()

    def greedy_oracle(members):
        gens, covered = [], {group.identity_index}
        for m in members:
            if m not in covered:
                gens.append(m)
                covered = oracle_closure(group, gens)
        return tuple(gens)

    def normal_closure_oracle(seed):
        members = oracle_closure(group, seed)
        while True:
            conjugates = {group.conjugate_index(x, c) for x in members for c in conjugators}
            if conjugates <= members:
                return sorted(members)
            members = oracle_closure(group, members | conjugates)

    everything = range(group.order)
    assert group.greedy_generator_indices(everything) == greedy_oracle(everything)
    for sub in all_subgroups(group).subgroups:
        assert group.greedy_generator_indices(sub.members) == greedy_oracle(sub.members)
        assert (group.normal_closure_indices(sub.gens, conjugators)
                == normal_closure_oracle(sub.gens)), sub.members


_GROWN = [_named(name, table) for name, table in
          [("A4", True), ("S4", True), ("PSL(2,7)", True), ("A5", False), ("S4", False)]]


@st.composite
def growth_cases(draw):
    """A group, a seed and conjugators of up to four of its elements, and
    a stop that is None or some subgroup size."""
    group = draw(st.sampled_from(_GROWN))
    element = st.integers(min_value=0, max_value=group.order - 1)
    return (group, draw(st.lists(element, max_size=4)), draw(st.lists(element, max_size=4)),
            draw(st.none() | st.integers(min_value=1, max_value=group.order)))


@given(growth_cases())
@settings(max_examples=150, deadline=None)
def test_growth_by_joins_matches_the_closure_oracle(case):
    # closures, normal closures and greedy generators are one fold of
    # joins; the oracle multiplies until nothing new appears
    group, seed, conjugators, stop = case
    closed = oracle_closure(group, seed)
    expected = None if stop is not None and len(closed) > stop else sorted(closed)
    assert group._generate(seed, stop)[0] == expected
    normal = closed
    while not (conjugates := {group.conjugate_index(x, c)
                              for x in normal for c in conjugators}) <= normal:
        normal = oracle_closure(group, normal | conjugates)
    assert group.normal_closure_indices(seed, conjugators) == sorted(normal)
    gens = group.greedy_generator_indices(sorted(closed))
    for k, g in enumerate(gens):  # the least member outside the span so far
        assert g == min(closed - oracle_closure(group, gens[:k]))
    assert oracle_closure(group, gens) == closed


def test_lattice_contains_trivial_and_full(a5_lattice):
    assert a5_lattice.subgroups[0].order == 1
    assert a5_lattice.subgroups[-1].order == a5_lattice.parent.order


@pytest.mark.parametrize("name", ["S4", "A4", "D12", "Q8", "A5", "PSL(2,7)"])
def test_class_of_matches_bruteforce_oracle(name, cache_dir):
    group = group_from_name(name)
    lattice = all_subgroups(group, cache_dir=cache_dir)
    classes: dict[int, set[int]] = {}
    for i, cls in enumerate(lattice.class_of):
        classes.setdefault(cls, set()).add(i)
    expected = oracle_conjugacy_classes(group, [s.members for s in lattice.subgroups])
    assert set(map(frozenset, classes.values())) == expected
    # ids are numbered by least member
    assert list(dict.fromkeys(lattice.class_of)) == list(range(len(classes)))


def test_class_of_survives_cache_load(tmp_path):
    for spec in catalog_specs():
        group = spec.build()
        fresh = all_subgroups(group, cache_dir=tmp_path)
        orbits = subgroups._load_cached(group, subgroups._cache_path(group, tmp_path))
        assert orbits is not None, spec.name
        loaded = subgroups._finish_lattice(group, orbits)
        assert loaded.class_of == fresh.class_of, spec.name
        assert [(s.members, s.gens) for s in loaded.subgroups] == \
            [(s.members, s.gens) for s in fresh.subgroups], spec.name


def test_lagrange_for_every_subgroup():
    for group in (symmetric(4), dihedral(12), dicyclic(3), alternating(5)):
        lattice = all_subgroups(group)
        for sub in lattice.subgroups:
            assert group.order % sub.order == 0


def test_containment_is_a_partial_order(a5_lattice):
    lat = a5_lattice
    k = len(lat)

    def contains(i, j):
        return bool(lat.supersets[j] >> i & 1)

    for i in range(k):
        assert contains(i, i)
        for j in range(k):
            if i != j and contains(i, j) and contains(j, i):
                pytest.fail("containment not antisymmetric")
            for m in range(k):
                if contains(i, j) and contains(j, m):
                    assert contains(i, m)


def test_containment_matches_pairwise_oracle(tmp_path, call_counter):
    # containment read from generators equals every pairwise mask test, on
    # lattices enumerated and on the same lattices loaded from the cache
    specs = catalog_specs()
    assert {"PSL(2,7)", "S5", "SL(2,5)", "A5xZ2"} <= {spec.name for spec in specs}
    enumerations = call_counter(subgroups, "_enumerate_subgroups")
    for spec in specs:
        group = spec.build()
        for lattice in (all_subgroups(group, cache_dir=tmp_path),
                        all_subgroups(group, cache_dir=tmp_path)):
            supersets, maximal = oracle_containment(lattice)
            assert lattice.supersets == supersets, spec.name
            assert lattice.maximal_flags == maximal, spec.name
    assert enumerations["_enumerate_subgroups"] == len(specs)  # each loaded once


def test_lattice_closed_under_conjugation():
    for group in (symmetric(4), alternating(5)):
        lattice = all_subgroups(group)
        member_sets = {s.members for s in lattice.subgroups}
        for sub in lattice.subgroups:
            for g in group.generator_indices():
                assert conjugate_subgroup(group, sub, g).members in member_sets


def test_prime_order_subgroup_count_crosscheck():
    # subgroups of prime order p are counted by elements of order p over p-1
    for group in (symmetric(3), symmetric(4), alternating(4), dihedral(12),
                  cyclic(12), alternating(5)):
        lattice = all_subgroups(group)
        orders = Counter(group.element_orders)
        for p in (2, 3, 5, 7):
            if group.order % p:
                continue
            expected = orders.get(p, 0) // (p - 1)
            actual = sum(1 for s in lattice.subgroups if s.order == p)
            assert actual == expected, (group.name, p)


def _table_and_no_table_groups():
    """Eight groups with their Cayley tables, and the same eight without."""
    groups = [cyclic(12), symmetric(4), alternating(4), dihedral(12), dicyclic(3),
              alternating(5), group_from_name("A5xZ2"), group_from_name("D10xS3")]
    assert all(group.cayley_table is not None for group in groups)
    return groups, [tableless(group) for group in groups]


def test_is_maximal_matches_lattice_flags():
    # each group with its Cayley table and again without one, where cosets
    # are labelled through the generator moves and candidates act by mult
    for groups in _table_and_no_table_groups():
        for group in groups:
            lattice = all_subgroups(group)
            for i, sub in enumerate(lattice.subgroups):
                if sub.order == group.order:
                    continue
                assert is_maximal(group, sub) == lattice.maximal_flags[i], (group.name, i)


def test_groups_with_and_without_a_table_agree():
    # the product view reads every product as the Cayley table does, so
    # the two kinds give the same orders, inverses, lattices, normal
    # subgroups and invariants
    for with_table, without in zip(*_table_and_no_table_groups()):
        n = with_table.order
        assert ([[without.rows[i][j] for j in range(n)] for i in range(n)]
                == [list(row) for row in with_table.rows]), with_table.name
        assert ([without.inverse_index(i) for i in range(n)]
                == [with_table.inverse_index(i) for i in range(n)]), with_table.name
        assert without.element_orders == with_table.element_orders, with_table.name
        lattices = [all_subgroups(with_table), all_subgroups(without)]
        subs = [lat.subgroups for lat in lattices]
        assert ([(s.members, s.gens) for s in subs[0]]
                == [(s.members, s.gens) for s in subs[1]]), with_table.name
        assert lattices[0].class_of == lattices[1].class_of, with_table.name
        assert lattices[0].maximal_flags == lattices[1].maximal_flags, with_table.name
        assert ([(n.members, n.gens) for n in normal_subgroups(with_table)]
                == [(n.members, n.gens) for n in normal_subgroups(without)]), with_table.name
        for a, b in zip(*subs):
            assert is_normal(with_table, a) == is_normal(without, b), (with_table.name, a.members)
        seen = set()
        for i, cls in enumerate(lattices[0].class_of):
            if cls not in seen:
                seen.add(cls)
                a, b = subs[0][i], subs[1][i]
                assert (invariants(with_table, a.members, a.gens)
                        == invariants(without, b.members, b.gens)), (with_table.name, a.members)


def _assert_witness(group, members, other, other_members, iso):
    # the element map, checked pair by pair apart from the search's re-check
    image = dict(zip(members, iso.mapping))
    assert sorted(iso.mapping) == list(other_members)
    for x in members:
        for y in members:
            assert image[group.mult(x, y)] == other.mult(image[x], image[y])


def test_subgroups_compared_in_their_parent_match_realized_groups():
    # two class representatives of one order, read in a parent with a
    # table and in one without, are isomorphic exactly when their
    # realizations are, also when the fingerprint screen is bypassed; so
    # are a catalog group and a subgroup, which is how classes are named
    named: dict[int, list] = {}
    for groups in _table_and_no_table_groups():
        for group in groups:
            lattice = all_subgroups(group)
            first: dict[int, int] = {}
            for i, cls in enumerate(lattice.class_of):
                first.setdefault(cls, i)
            reps = [lattice.subgroups[i] for i in first.values()]
            fps = [invariants(group, s.members, s.gens) for s in reps]
            for a, fa in zip(reps, fps):
                for b in (b for b in reps if b.order == a.order):
                    iso = find_isomorphism(a, b, fg=fa, fh=fa)
                    realized = are_isomorphic(a.as_group(), b.as_group())
                    assert (iso is not None) == realized, (group.name, a.members, b.members)
                    if iso is not None:
                        _assert_witness(group, a.members, group, b.members, iso)
                if a.order not in named:
                    named[a.order] = [spec.build() for spec in catalog_for_order(a.order).specs]
                for other in named[a.order]:
                    if fingerprint(other) != fa:
                        continue
                    iso = find_isomorphism(other, a)
                    realized = are_isomorphic(other, a.as_group())
                    assert (iso is not None) == realized, (group.name, other.name, a.members)
                    if iso is not None:
                        _assert_witness(other, range(other.order), group, a.members, iso)


@pytest.mark.parametrize("name", ["S4", "A5"])
@pytest.mark.parametrize("table", [True, False], ids=["table", "no-table"])
def test_right_cosets_match_oracle(name, table):
    group = _named(name, table)
    for sub in all_subgroups(group).subgroups:
        assert subgroups._right_cosets(group, sub) == oracle_right_cosets(group, sub.members)


def test_a5_squared_diagonal_maximal_and_copy_not():
    product, diagonal, left = _a5_squared_copies()
    assert product.cayley_table is None
    assert is_maximal(product, diagonal)
    assert not is_maximal(product, left)


def test_direct_product_makes_no_permutation_product(a5, call_counter):
    products = call_counter(perm, "_product")
    product = direct_product(a5, a5)
    assert product.order == 3600
    assert products["_product"] == 0  # 14,400 when closed as permutations


def test_is_maximal_work_count_a5_squared(call_counter):
    # right cosets are labelled through the generator moves, with no
    # product; then each of H's two generators and one candidate per double
    # coset act on the 60 cosets: 4 candidates for the diagonal, whose
    # double cosets are A5's conjugacy classes, and 1 for the left copy,
    # whose first candidate already fails
    product, diagonal, left = _a5_squared_copies()
    mults = call_counter(FiniteGroup, "mult")
    assert is_maximal(product, diagonal)
    assert mults["mult"] <= 360  # 7,260 when each coset took 60 products
    mults.clear()
    assert not is_maximal(product, left)
    assert mults["mult"] <= 180  # 3,780


def test_coset_action_with_table_makes_no_mult(sl25, call_counter):
    center = next(n for n in normal_subgroups(sl25) if n.order == 2)
    mults = call_counter(FiniteGroup, "mult")
    quotient = coset_action(sl25, center)
    assert quotient.order == 60
    assert mults["mult"] == 0


def test_is_maximal_rejects_full_group():
    group = cyclic(6)
    lattice = all_subgroups(group)
    with pytest.raises(ValueError, match="undefined"):
        is_maximal(group, lattice.subgroups[-1])


def test_a4_copies_are_maximal_in_a5(a5, a5_lattice):
    a4 = alternating(4)
    for sub in a5_lattice.subgroups:
        if sub.order == 12 and are_isomorphic(sub.as_group(), a4):
            assert is_maximal(a5, sub)


def test_has_subgroup_of_order_basic(a5, a5_lattice, psl25):
    assert not has_subgroup_of_order(a5, 15, lattice=a5_lattice)
    assert has_subgroup_of_order(a5, 10, lattice=a5_lattice)
    assert has_subgroup_of_order(a5, a5.order, lattice=a5_lattice)
    assert not has_subgroup_of_order(a5, 7, lattice=a5_lattice)
    # a lattice of another group is refused, also at orders that element
    # orders decide
    for m in (15, 12):
        with pytest.raises(ValueError, match="does not belong"):
            has_subgroup_of_order(psl25, m, lattice=a5_lattice)


def test_has_subgroup_of_order_shortcut_above_cap(a5):
    big = direct_product(a5, a5)  # order 3600, far above the enumeration cap
    assert has_subgroup_of_order(big, 15)  # lcm of a 3-cycle and a 5-cycle
    assert not has_subgroup_of_order(big, 7)
    with pytest.raises(ResourceLimitError, match="cap"):
        has_subgroup_of_order(big, 8)
    # order 505 is above the cap too, and 101 lies beyond the old table's range
    assert has_subgroup_of_order(direct_product(cyclic(101), cyclic(5)), 101)


def _generating_tuples(group, k):
    """The elements (k = 1) or pairs (k = 2) that generate the group,
    counted directly; a pair's first entry runs over class representatives,
    weighted by class size, as conjugation keeps generation."""
    n, half = group.order, group.order // 2

    def generates(seed):
        members = group._generate(seed, half)[0]
        return members is None or len(members) == n

    if k == 1:
        return sum(generates([x]) for x in range(n))
    return sum(len(cls) * sum(generates([cls[0], y]) for y in range(n))
               for cls in conjugacy_classes(group))


def test_eulerian_function_counts_generating_tuples(cache_dir):
    # Hall's Eulerian function against a direct count on every catalog
    # group; it counts generating elements, so only cyclic groups have any
    for spec in catalog_specs():
        group = spec.build()
        lattice = all_subgroups(group, cache_dir=cache_dir)
        phi1 = oracle_eulerian(lattice, 1)
        assert phi1 == _generating_tuples(group, 1), spec.name
        assert (phi1 != 0) == (spec.kind == "cyclic"), spec.name
        assert oracle_eulerian(lattice, 2) == _generating_tuples(group, 2), spec.name


def test_eulerian_values_of_a5(a5_lattice):
    # Hall (1936): mu(1, A5) = -60, and A5 has 2280 = 19 * |Aut A5|
    # generating pairs, so 19 generating pairs up to automorphism
    assert oracle_moebius(a5_lattice)[0] == -60
    assert oracle_eulerian(a5_lattice, 2) == 2280 == 19 * 120
    assert oracle_eulerian(a5_lattice, 1) == 0


def test_every_group_cyclic_matches_table():
    # the hand-kept table the criterion replaced: orders m <= 100 at which
    # every group of order m is cyclic
    table = {
        1, 2, 3, 5, 7, 11, 13, 15, 17, 19, 23, 29, 31, 33, 35, 37, 41, 43, 47,
        51, 53, 59, 61, 65, 67, 69, 71, 73, 77, 79, 83, 85, 87, 89, 91, 95, 97,
    }
    assert len(table) == 37
    assert {n for n in range(1, 101) if _every_group_cyclic(n)} == table


def test_all_subgroups_cap_error(a5):
    big = direct_product(a5, a5)
    with pytest.raises(ResourceLimitError, match="400"):
        all_subgroups(big)
    assert len(all_subgroups(cyclic(6), limits=Limits(enum_cap=6))) == 4


def test_normal_subgroups_cyclic6():
    assert len(normal_subgroups(cyclic(6))) == 4  # abelian: everything normal


def test_is_simple():
    assert not is_simple(cyclic(6))
    assert is_simple(cyclic(7))  # abelian simple
    assert not is_simple(symmetric(4))


def test_sl2_5_center_is_unique_order_2_normal(sl25):
    normals = normal_subgroups(sl25)
    order_two = [n for n in normals if n.order == 2]
    assert len(order_two) == 1
    assert sorted(n.order for n in normals) == [1, 2, 120]


def test_derived_series_s4():
    # S4 > A4 > V4 > 1
    assert [s.order for s in derived_series(symmetric(4))] == [24, 12, 4, 1]


def test_derived_series_frobenius21():
    assert [s.order for s in derived_series(group_from_name("F21"))] == [21, 7, 1]


def test_solvability():
    assert is_solvable(symmetric(4))
    assert is_solvable(group_from_name("F21"))
    assert not is_solvable(alternating(5))
    assert not is_solvable(psl2(5))


def test_composition_factors_sl2_5(sl25):
    factors = composition_factors(sl25)
    expected = tuple(sorted([fingerprint(cyclic(2)), fingerprint(alternating(5))]))
    assert factors == expected


def test_composition_factors_cyclic12():
    factors = composition_factors(cyclic(12))
    assert sorted(fp.order for fp in factors) == [2, 2, 3]
    assert all(fp.abelian for fp in factors)


def test_composition_factors_simple_group(psl27):
    factors = composition_factors(psl27)
    assert factors == (fingerprint(psl27),)


# composition factor orders of the catalog groups sympy cannot decompose
NONSOLVABLE_FACTOR_ORDERS = {
    "A5": [60], "S5": [2, 60], "A5xZ2": [2, 60], "SL(2,5)": [2, 60], "PSL(2,7)": [168],
}


def test_composition_factors_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    solvable = 0
    for spec in catalog_specs():
        group = spec.build()
        mine = sorted(fp.order for fp in composition_factors(group))
        other = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p.images)) for p in group.generators]
        )
        if not other.is_solvable:
            assert mine == NONSOLVABLE_FACTOR_ORDERS[spec.name], spec.name
            continue
        solvable += 1
        series = other.composition_series()
        ratios = sorted(a.order() // b.order() for a, b in zip(series, series[1:]))
        assert mine == ratios, spec.name
    assert solvable == 48


def test_group_invariants_match_sympy(a5):
    # an independent implementation: order, solvability, centre size,
    # derived-subgroup order and conjugacy-class sizes of every catalog
    # group and of A5xA5, which has no Cayley table
    combinatorics = pytest.importorskip("sympy.combinatorics")
    groups = [spec.build() for spec in catalog_specs()] + [direct_product(a5, a5)]
    assert len(groups) == 54
    for group in groups:
        other = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p.images)) for p in group.generators]
        )
        fp = fingerprint(group)
        mine = (group.order, is_solvable(group), fp.center_size, fp.derived_size,
                list(fp.class_sizes))
        theirs = (other.order(), other.is_solvable, other.center().order(),
                  other.derived_subgroup().order(),
                  sorted(len(c) for c in other.conjugacy_classes()))
        assert mine == theirs, group.name


def test_normal_subgroups_match_lattice(cache_dir):
    for spec in catalog_specs():
        group = spec.build()
        if group.order > Limits().enum_cap:
            continue
        expected = {
            s.members for s in all_subgroups(group, cache_dir=cache_dir).subgroups
            if is_normal(group, s)
        }
        normals = normal_subgroups(group)
        assert {n.members for n in normals} == expected, spec.name
        assert len(normals) == len(expected), spec.name
        for n in normals:
            assert tuple(group.closure_indices(n.gens)) == n.members, spec.name


def test_composition_factors_ignore_enum_cap():
    factors = composition_factors(symmetric(4), limits=Limits(enum_cap=10))
    assert sorted(fp.order for fp in factors) == [2, 2, 2, 3]


def test_normal_structure_above_enum_cap(a5):
    product = direct_product(a5, a5)
    assert product.order > Limits().enum_cap
    assert [n.order for n in normal_subgroups(product)] == [1, 60, 60, 3600]
    assert composition_factors(product) == (fingerprint(a5), fingerprint(a5))


def _a5_wreath_z2() -> FiniteGroup:
    """A5 wr Z2 on 10 points: A5 on 0..4 and the swap of the two blocks.
    Its minimal normal subgroup is A5xA5, T^k with k = 2 and T simple."""
    a5 = alternating(5)
    gens = [Permutation(p.images + tuple(range(5, 10))) for p in a5.generators]
    gens.append(Permutation(tuple(range(5, 10)) + tuple(range(5))))
    return closure(10, gens)


def test_composition_factors_match_recursive_oracle(a5):
    # the T^k split in the parent against recursion on rebuilt subgroups
    groups = [spec.build() for spec in catalog_specs()]
    groups += [direct_product(a5, a5), _a5_wreath_z2()]
    for group in groups:
        assert composition_factors(group) == oracle_composition_factors(group), group.name
    assert [fp.order for fp in composition_factors(groups[-1])] == [2, 60, 60]


def test_normal_subgroups_of_a_subgroup_match_its_rebuilt_group():
    # read in the parent, with or without its table, or rebuilt on its own
    for name in ("S4", "SL(2,5)", "A5xZ2", "PSL(2,7)", "S5"):
        for table in (True, False):
            group = _named(name, table)
            lattice = all_subgroups(group)
            for i in sorted({lattice.class_of.index(c) for c in lattice.class_of}):
                sub = lattice.subgroups[i]
                rebuilt = sub.as_group()
                expected = sorted(
                    (tuple(sorted(group.index_of(rebuilt.elements[x]) for x in n.members))
                     for n in normal_subgroups(rebuilt)),
                    key=lambda m: (len(m), m))
                normals = normal_subgroups(sub)
                assert [n.members for n in normals] == expected, (name, sub.members)
                for n in normals:
                    assert n.parent is group
                    assert tuple(group.closure_indices(n.gens)) == n.members


def test_normal_subgroups_close_each_class_once(a5, call_counter):
    product = direct_product(a5, a5)
    classes = len(conjugacy_classes(product))
    calls = call_counter(FiniteGroup, "normal_closure_indices")
    normals = normal_subgroups(product)
    # one closure per conjugacy class, plus at most one per join
    assert calls["normal_closure_indices"] <= classes + len(normals)


def test_normal_closure_indices():
    g = symmetric(4)
    swap = g.index_of(Permutation.from_cycles(4, (0, 1)))
    double = g.index_of(Permutation.from_cycles(4, (0, 1), (2, 3)))
    gens = g.generator_indices()
    assert len(g.normal_closure_indices([swap], gens)) == 24
    assert len(g.normal_closure_indices([double], gens)) == 4
    assert g.normal_closure_indices([double], [double]) == sorted([g.identity_index, double])
    assert g.normal_closure_indices([], gens) == [g.identity_index]


def test_order_shape():
    assert order_shape(60) == (2, 1, 1)
    assert order_shape(168) == (3, 1, 1)
    assert order_shape(1) == ()
    assert order_shape(7) == (1,)
    assert order_shape(8) == (3,)
    with pytest.raises(ValueError):
        order_shape(0)


def test_coset_action_by_whole_group():
    g = symmetric(3)
    lattice = all_subgroups(g)
    quotient = coset_action(g, lattice.subgroups[-1])
    assert quotient.order == 1


def test_coset_action_by_trivial_subgroup():
    g = symmetric(3)
    lattice = all_subgroups(g)
    quotient = coset_action(g, lattice.subgroups[0])
    assert are_isomorphic(quotient, g)  # regular action


def test_coset_action_s4_mod_v4():
    g = symmetric(4)
    lattice = all_subgroups(g)
    v4 = next(
        s for s in lattice.subgroups
        if s.order == 4 and is_normal(g, s)
    )
    assert are_isomorphic(coset_action(g, v4), symmetric(3))


def test_coset_action_sl2_5_center_gives_a5(sl25):
    center = next(n for n in normal_subgroups(sl25) if n.order == 2)
    quotient = coset_action(sl25, center)
    assert quotient.order == 60
    assert are_isomorphic(quotient, alternating(5))


def test_nonabelian_simple_catalog_orders_divisible_by_4():
    from isoposet import fingerprint

    simple_names = []
    for spec in catalog_specs():
        group = spec.build()
        if group.order > 400 or fingerprint(group).abelian:
            continue
        if is_simple(group):
            simple_names.append(spec.name)
            assert group.order % 4 == 0, spec.name
    assert "A5" in simple_names and "PSL(2,7)" in simple_names


def test_coset_action_requires_normal():
    g = symmetric(3)
    t = g.index_of(Permutation.from_cycles(3, (0, 1)))
    sub = subgroup_generated_by(g, [t])
    with pytest.raises(ValueError, match="normal"):
        coset_action(g, sub)


def test_conjugate_by_identity(a5, a5_lattice):
    for sub in a5_lattice.subgroups[:10]:
        assert conjugate_subgroup(a5, sub, a5.identity_index).members == sub.members


def test_conjugate_transposition_subgroup_in_s3():
    # conjugating <(0 1)> by the 3-cycle (0 1 2) gives <(1 2)>
    g = symmetric(3)
    sub = subgroup_generated_by(g, [g.index_of(Permutation.from_cycles(3, (0, 1)))])
    rotated = conjugate_subgroup(g, sub, g.index_of(Permutation.from_cycles(3, (0, 1, 2))))
    expected = subgroup_generated_by(g, [g.index_of(Permutation.from_cycles(3, (1, 2)))])
    assert rotated.members == expected.members


def test_conjugate_cyclic_by_own_generator():
    g = symmetric(4)
    four_cycle = g.index_of(Permutation.from_cycles(4, (0, 1, 2, 3)))
    sub = subgroup_generated_by(g, [four_cycle])
    assert conjugate_subgroup(g, sub, four_cycle).members == sub.members


_S4 = symmetric(4)


@pytest.mark.parametrize("call", [
    lambda: subgroup_generated_by(_S4, [-1]),
    lambda: subgroup_generated_by(_S4, [24]),
    lambda: subgroup_from_members(_S4, [0, 99]),
    lambda: conjugate_subgroup(_S4, subgroup_generated_by(_S4, [1]), -1),
    lambda: conjugate_subgroup(_S4, subgroup_generated_by(_S4, [1]), 24),
    lambda: Permutation.from_cycles(3, (0, 5)),
    lambda: Permutation.from_cycles(3, (0, -1)),
], ids=["generated-negative", "generated-past-end", "members-past-end",
        "conjugator-negative", "conjugator-past-end", "cycle-past-degree",
        "cycle-negative"])
def test_indices_outside_the_group_are_refused(call):
    # a negative index would wrap to the last element, and one past the
    # end would fail deep inside; both are refused at the entry point
    with pytest.raises(ValueError, match="outside|not an element index"):
        call()


def test_subgroup_from_members_validates():
    g = symmetric(3)
    three_cycle = g.index_of(Permutation.from_cycles(3, (0, 1, 2)))
    with pytest.raises(ValueError, match="closed"):
        subgroup_from_members(g, [g.identity_index, three_cycle])
    full = subgroup_from_members(g, range(g.order))
    assert full.order == g.order


def test_lattice_cache_roundtrip(tmp_path):
    g = symmetric(4)
    first = all_subgroups(g, cache_dir=tmp_path)
    files = list(tmp_path.glob("lattice-*.json"))
    assert len(files) == 1
    second = all_subgroups(g, cache_dir=tmp_path)
    assert [s.members for s in first.subgroups] == [s.members for s in second.subgroups]
    assert first.maximal_flags == second.maximal_flags


def test_lattice_cache_ignores_corrupt_file(tmp_path):
    g = symmetric(3)
    path = all_subgroups(g, cache_dir=tmp_path)  # populate
    cache_file = next(tmp_path.glob("lattice-*.json"))
    cache_file.write_text("{not json")
    again = all_subgroups(g, cache_dir=tmp_path)
    assert len(again) == len(path)


def test_lattice_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ISOPOSET_CACHE_DIR", str(tmp_path))
    all_subgroups(symmetric(3))
    assert list(tmp_path.glob("lattice-*.json"))


def test_lattice_cache_leaves_only_lattice_files(tmp_path):
    for group in (symmetric(3), symmetric(4), cyclic(6)):
        all_subgroups(group, cache_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 3
    assert all(name.startswith("lattice-") and name.endswith(".json") for name in names)


def _drop_classes(payload):
    del payload["classes"]
    return payload


def _cut_classes(payload):
    payload["classes"] = payload["classes"][:5]
    return payload


def _drop_class(payload):
    # S4's class 1 is a class of order-2 subgroups; only the count can tell it is gone
    del payload["classes"][1]
    return payload


def _conjugate_representatives(payload):
    # a second representative for class 1, conjugate to the first
    group = symmetric(4)
    g = payload["classes"][1][0]
    payload["classes"].append([next(h for h in (group.conjugate_index(g, c) for c in range(24))
                                    if h != g)])
    return payload


def _drop_class_generating(order):
    # the trivial subgroup and the whole group are classes of one subgroup
    # each, so lowering the count keeps it consistent
    def corrupt(payload):
        group = symmetric(4)
        payload["classes"] = [gens for gens in payload["classes"]
                              if len(group.closure_indices(gens)) != order]
        payload["subgroups"] -= 1
        return payload
    return corrupt


def _member_out_of_range(payload):
    payload["classes"][1] = [0, 24]
    return payload


def _member_not_int(payload):
    payload["classes"][1] = [0, "1"]
    return payload


@pytest.mark.parametrize("corrupt",
                         [lambda payload: [payload], _drop_classes, _cut_classes, _drop_class,
                          _conjugate_representatives, _drop_class_generating(1),
                          _drop_class_generating(24), _member_out_of_range, _member_not_int],
                         ids=["list-payload", "no-members", "cut-gens", "dropped-class",
                              "conjugate-representatives", "no-trivial", "no-whole-group",
                              "member-out-of-range", "member-not-int"])
def test_lattice_cache_rejects_malformed_file(tmp_path, corrupt):
    group = symmetric(4)
    fresh = all_subgroups(group)
    path = subgroups._cache_path(group, tmp_path)
    all_subgroups(group, cache_dir=tmp_path)
    good = path.read_bytes()
    path.write_text(json.dumps(corrupt(json.loads(good))), "utf-8")
    assert subgroups._load_cached(group, path) is None
    lattice = all_subgroups(group, cache_dir=tmp_path)
    assert [(s.members, s.gens) for s in lattice.subgroups] == \
        [(s.members, s.gens) for s in fresh.subgroups]
    assert lattice.maximal_flags == fresh.maximal_flags
    assert lattice.class_of == fresh.class_of
    assert path.read_bytes() == good


def test_lattice_cache_rewrites_version_1_file(tmp_path):
    # the earlier format stored every subgroup's members and generators
    group = symmetric(4)
    fresh = all_subgroups(group)
    path = subgroups._cache_path(group, tmp_path)
    path.write_text(json.dumps({
        "format_version": 1,
        "degree": group.degree,
        "order": group.order,
        "generators": [list(p.images) for p in group.generators],
        "members": [list(s.members) for s in fresh.subgroups],
        "gens": [list(s.gens) for s in fresh.subgroups],
    }), "utf-8")
    assert subgroups._load_cached(group, path) is None
    lattice = all_subgroups(group, cache_dir=tmp_path)
    assert [(s.members, s.gens) for s in lattice.subgroups] == \
        [(s.members, s.gens) for s in fresh.subgroups]
    assert json.loads(path.read_text("utf-8"))["format_version"] == 2


def test_lattice_cache_stores_one_generator_list_per_class(tmp_path, psl27):
    all_subgroups(psl27, cache_dir=tmp_path)
    payload = json.loads(subgroups._cache_path(psl27, tmp_path).read_text("utf-8"))
    assert len(payload["classes"]) == 15
    assert payload["subgroups"] == 179
    assert "members" not in payload


@pytest.mark.parametrize("failure", ["torn-write", "failed-rename"])
def test_lattice_cache_write_is_atomic(tmp_path, monkeypatch, failure):
    group = symmetric(3)
    all_subgroups(group, cache_dir=tmp_path)
    orbits = subgroups._enumerate_subgroups(group)
    path = subgroups._cache_path(group, tmp_path)
    before = path.read_bytes()

    def torn_write(self, data, *args, **kwargs):
        with open(self, "w", encoding="utf-8") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def failed_rename(src, dst):
        raise OSError("rename failed")

    if failure == "torn-write":
        monkeypatch.setattr(Path, "write_text", torn_write)
    else:
        monkeypatch.setattr(os, "replace", failed_rename)
    with pytest.raises(OSError):
        subgroups._save_cached(group, orbits, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
