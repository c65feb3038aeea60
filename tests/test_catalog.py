import itertools
import math

import pytest

import isoposet
from isoposet import (
    Limits,
    Permutation,
    ResourceLimitError,
    all_subgroups,
    alternating,
    are_isomorphic,
    build_iso_poset,
    catalog,
    catalog_for_order,
    closure,
    composition_factors,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    group_from_name,
    is_simple,
    is_solvable,
    psl2,
    semidirect_cyclic,
    sl2_5,
    spec_from_name,
    subgroup_generated_by,
    symmetric,
)
from isoposet.catalog import catalog_specs
from isoposet.perm import TABLE_ORDER

from oracles import oracle_direct_product, oracle_identity, tableless


@pytest.mark.parametrize("builder,arg,expected", [
    (cyclic, 1, 1),
    (cyclic, 7, 7),
    (dihedral, 10, 10),
    (dihedral, 6, 6),
    (symmetric, 1, 1),
    (symmetric, 2, 2),
    (symmetric, 4, 24),
    (alternating, 3, 3),
    (alternating, 4, 12),
    (alternating, 6, 360),
    (dicyclic, 2, 8),
    (dicyclic, 3, 12),
])
def test_constructor_orders(builder, arg, expected):
    assert builder(arg).order == expected


def test_alternating_order_formula():
    for n in (3, 4, 5, 6):
        assert alternating(n).order == math.factorial(n) // 2


@pytest.mark.parametrize("builder,arg", [
    (cyclic, 0),
    (dihedral, 5),
    (dihedral, 4),
    (symmetric, 0),
    (alternating, 2),
    (dicyclic, 1),
])
def test_constructor_parameter_errors(builder, arg):
    with pytest.raises(ValueError):
        builder(arg)


def test_psl2_orders():
    # q(q^2 - 1)/2
    assert psl2(5).order == 60
    assert psl2(7).order == 168
    with pytest.raises(ValueError):
        psl2(11)


def test_psl25_is_alternating5():
    assert are_isomorphic(psl2(5), alternating(5))


def test_psl2_simple(psl25, psl27):
    assert is_simple(psl25)
    assert is_simple(psl27)


def test_sl2_5_order_and_center(sl25):
    assert sl25.order == 120
    # independent center count: elements commuting with every element
    center = [
        i for i in range(sl25.order)
        if all(sl25.mult(i, j) == sl25.mult(j, i) for j in range(sl25.order))
    ]
    assert len(center) == 2


def test_sl2_5_has_no_order_15_element(sl25):
    assert 15 not in sl25.element_orders


def test_frobenius21():
    f = group_from_name("F21")
    assert f.order == 21
    assert spec_from_name("F21") in catalog_for_order(21).specs  # parser and catalog agree
    a, b = (f.index_of(g) for g in f.generators)
    commutator = f.mult(f.mult(f.inverse_index(a), f.inverse_index(b)), f.mult(a, b))
    assert commutator != f.identity_index  # nonabelian


def test_frobenius21_sits_inside_psl27(psl27_lattice):
    f = group_from_name("F21")
    copies = [s for s in psl27_lattice.subgroups if s.order == 21]
    assert copies
    assert all(are_isomorphic(s.as_group(), f) for s in copies)


def test_semidirect_cyclic_rejects_wrong_order():
    # no unit mod 7 has order 4 (they form a cyclic group of order 6), and
    # every unit mod 8 has order at most 2
    with pytest.raises(ValueError, match="no multiplier has order 4 mod 7"):
        semidirect_cyclic(7, 4)
    with pytest.raises(ValueError, match="no multiplier has order 4 mod 8"):
        semidirect_cyclic(8, 4)


def test_direct_product_order_and_degree():
    g = direct_product(alternating(5), cyclic(2))
    assert g.order == 120
    assert g.degree == 7


def test_direct_product_with_trivial():
    g = direct_product(symmetric(3), cyclic(1))
    assert are_isomorphic(g, symmetric(3))


def _assert_same_product(product, expected):
    assert product.generators == expected.generators
    assert product.elements == expected.elements
    assert type(product.rows) is type(expected.rows)
    if isinstance(product.rows, tuple):  # else both are the permutation view
        assert product.rows == expected.rows
    assert product.moves == expected.moves
    assert product.name == expected.name


@pytest.mark.parametrize("spec", [spec for spec in catalog_specs() if spec.kind == "product"],
                         ids=lambda spec: spec.name)
def test_catalog_product_equals_closure(spec):
    left, right = (group_from_name(name) for name in spec.params)
    _assert_same_product(direct_product(left, right), oracle_direct_product(left, right))
    built = spec.build()
    assert built.name == spec.name
    assert built.elements == direct_product(left, right).elements


def test_product_factors_build_no_table(monkeypatch):
    # a product walks its factors' moves and joins their elements' images,
    # so no factor builds a Cayley table
    factors = []
    original = catalog.direct_product

    def recording(g, h, **kwargs):
        factors.extend([g, h])
        return original(g, h, **kwargs)

    monkeypatch.setattr(catalog, "direct_product", recording)
    for name in ("A5xZ2", "A5xA5"):
        group_from_name(name)
    assert [factor.name for factor in factors] == ["A5", "Z2", "A5", "A5"]
    assert not any("rows" in factor.__dict__ for factor in factors)


def _repeated_identity_z3():
    c = Permutation.from_cycles(3, (0, 1, 2))
    ident = oracle_identity(3)
    return closure(3, [ident, c, ident, c], name="Z3")


_PRODUCT_CASES = {  # the factors of each product; A5xA5 is past TABLE_ORDER
    "A5xA5": lambda: (alternating(5), alternating(5)),
    "Z1xZ1": lambda: (cyclic(1), cyclic(1)),
    "tableless-S4xZ2": lambda: (tableless(symmetric(4)), cyclic(2)),
    "tableless-S4xZ2-no-table": lambda: (tableless(symmetric(4)), tableless(cyclic(2))),
    "repeated-identity": lambda: (_repeated_identity_z3(), cyclic(2)),
    "repeated-identity-right": lambda: (cyclic(2), _repeated_identity_z3()),
}


@pytest.mark.parametrize("build", _PRODUCT_CASES.values(), ids=_PRODUCT_CASES.keys())
def test_direct_product_equals_closure(build):
    left, right = build()
    product = direct_product(left, right)
    _assert_same_product(product, oracle_direct_product(left, right))
    assert (not isinstance(product.rows, tuple)) == (product.order > TABLE_ORDER)


def test_moves_are_the_table_columns():
    # every group keeps its generators' moves: a table's generator columns,
    # and the generators' indices at the identity's entry
    groups = [spec.build() for spec in catalog_specs()]
    groups += [direct_product(*build()) for build in _PRODUCT_CASES.values()]
    groups.append(_repeated_identity_z3())
    s4 = symmetric(4)
    for gens in ([], [0, 0], [0, 5, 5, 0, 7]):
        groups.append(closure(4, [s4.elements[g] for g in gens]))
    groups += [sub.as_group() for sub in all_subgroups(s4).subgroups]
    for group in groups:
        gens = group.generator_indices()
        assert gens == tuple(group.index_of(p) for p in group.generators)
        assert len(group.moves) == len(group.generators)
        if isinstance(group.rows, tuple):
            assert group.moves == tuple(tuple(row[g] for row in group.rows)
                                        for g in gens)
        else:  # A5xA5
            for move, g in zip(group.moves, gens):
                assert move == tuple(group.mult(a, g) for a in range(group.order))


def test_named_groups_respect_the_degree_cap(call_counter, psl27, psl27_lattice):
    # each refused before a permutation of it is built: Z11, D22 and Z11:Z5
    # act on 11 points, Dic3 on 12, SL(2,5) on 24 and PSL(2,7) on 8; past
    # both caps, the order is named first
    closures = call_counter(isoposet.catalog, "closure")
    small = Limits(degree_cap=10)
    for build, refusal in (
            (lambda: cyclic(11, limits=small), "degree cap 10"),
            (lambda: dihedral(22, limits=small), "degree cap 10"),
            (lambda: dicyclic(3, limits=small), "degree cap 10"),
            (lambda: semidirect_cyclic(11, 5, limits=small), "degree cap 10"),
            (lambda: sl2_5(limits=Limits(degree_cap=23)), "degree cap 23"),
            (lambda: psl2(7, limits=Limits(degree_cap=7)), "degree cap 7"),
            (lambda: psl2(5, limits=Limits(element_cap=59)), "element cap 59"),
            (lambda: psl2(7, limits=Limits(element_cap=167, degree_cap=7)), "element cap 167"),
            (lambda: sl2_5(limits=Limits(element_cap=119, degree_cap=23)), "element cap 119")):
        with pytest.raises(ResourceLimitError, match=rf"\({refusal}\)$"):
            build()
    assert closures["closure"] == 0
    assert cyclic(10, limits=small).degree == 10
    # closure checks the degree itself, so no group is built past the cap:
    # a copy of A5 in A5xA5 acts on 10 points, A5xA5 over that copy on its
    # 60 cosets, and recognizing PSL(2,7)'s classes builds Z12 on 12
    product = direct_product(alternating(5), alternating(5))
    left = subgroup_generated_by(product, product.generator_indices()[:2])
    for build, cap in ((lambda limits: left.as_group(limits=limits), 5),
                       (lambda limits: composition_factors(product, limits=limits), 50),
                       (lambda limits: build_iso_poset(psl27, lattice=psl27_lattice,
                                                       limits=limits), 8)):
        with pytest.raises(ResourceLimitError, match=rf"\(degree cap {cap}\)$"):
            build(Limits(degree_cap=cap))
    assert psl2(7, limits=Limits(degree_cap=8)).degree == 8


def test_direct_product_respects_caps():
    with pytest.raises(ResourceLimitError):
        direct_product(cyclic(4), cyclic(4), limits=Limits(degree_cap=6))
    with pytest.raises(ResourceLimitError):
        direct_product(symmetric(4), symmetric(4), limits=Limits(element_cap=100))


def test_catalog_order_4():
    cat = catalog_for_order(4)
    assert [s.name for s in cat.specs] == ["Z4", "V4"]
    assert cat.complete and cat.curated
    assert all(is_solvable(s.build()) for s in cat.specs)


def test_catalog_order_60_unique_nonsolvable():
    cat = catalog_for_order(60)
    nonsolvable = [s.name for s in cat.specs if not is_solvable(s.build())]
    assert nonsolvable == ["A5"]
    assert not cat.complete  # curated but not known-complete


def test_catalog_order_120_contains_trio():
    names = {s.name for s in catalog_for_order(120).specs}
    assert {"S5", "A5xZ2", "SL(2,5)"} <= names


def test_catalog_uncurated_order():
    cat = catalog_for_order(37)
    assert not cat.curated
    assert cat.specs == ()


def test_catalog_declared_orders_match_built_orders():
    for order in range(1, 200):
        cat = catalog_for_order(order)
        for spec in cat.specs:
            group = spec.build()
            assert group.order == order, spec.name
            assert group.name == spec.name


def test_catalog_entries_pairwise_nonisomorphic():
    for order in (4, 6, 8, 9, 10, 12, 20, 21, 24, 60, 120):
        groups = [(s.name, s.build()) for s in catalog_for_order(order).specs]
        for (name_a, ga), (name_b, gb) in itertools.combinations(groups, 2):
            assert not are_isomorphic(ga, gb), (name_a, name_b)


def test_group_from_name_roundtrip():
    for name in ("Z12", "S4", "A5", "D10", "Dic3", "Q8", "V4", "F21",
                 "PSL(2,5)", "SL(2,5)", "A4xZ5", "Z15:Z4", "1"):
        first = group_from_name(name)
        second = group_from_name(name)
        assert first.elements == second.elements  # bit-identical rebuild
        assert first.name == ("Z1" if name == "1" else name)
    assert group_from_name("F20").generators == group_from_name("Z5:Z4").generators


def test_group_from_name_rejects_unknown():
    with pytest.raises(ValueError):
        group_from_name("E8")
    with pytest.raises(ValueError):
        spec_from_name("Zx")
    for name in ("Z5:Z3", "PSL(2,11)", "S3xE8"):
        with pytest.raises(ValueError):
            group_from_name(name)


def test_every_export_resolves():
    assert [name for name in isoposet.__all__ if not hasattr(isoposet, name)] == []
