from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoposet import (
    FiniteGroup,
    Limits,
    Permutation,
    ResourceLimitError,
    alternating,
    closure,
    cyclic,
    dihedral,
    psl2,
    sl2_5,
    symmetric,
)
from isoposet.catalog import catalog_specs
from isoposet.perm import TABLE_ORDER

from oracles import oracle_compose, oracle_identity, oracle_inverse, oracle_order, tableless


def perm(*cycles, degree):
    return Permutation.from_cycles(degree, *cycles)


def test_compose_identity():
    for g in (symmetric(4), tableless(symmetric(4))):
        e, everything = g.identity_index, list(range(g.order))
        assert g.elements[e] == oracle_identity(4)
        assert [g.rows[e][j] for j in everything] == everything
        assert [g.rows[i][e] for i in everything] == everything


def test_compose_involution():
    t = perm((0, 1), degree=2)
    g = closure(2, [t])
    i = g.index_of(t)
    assert g.rows[i][i] == g.identity_index


def test_compose_inverse_cancels():
    c = perm((0, 1, 2), degree=3)
    g = closure(3, [c])
    i = g.index_of(c)
    j = g.inverse_index(i)
    assert g.elements[j] == perm((0, 2, 1), degree=3)
    assert g.rows[i][j] == g.rows[j][i] == g.identity_index


def test_compose_applies_left_argument_first():
    p = perm((0, 1), degree=3)
    q = perm((1, 2), degree=3)
    for g in (closure(3, [p, q]), tableless(closure(3, [p, q]))):
        r = g.elements[g.rows[g.index_of(p)][g.index_of(q)]]
        for x in range(3):
            assert r(x) == q(p(x))
        assert r != g.elements[g.rows[g.index_of(q)][g.index_of(p)]]


def test_compose_degree_mismatch():
    with pytest.raises(ValueError, match="generator degree 2 does not match 3"):
        closure(3, [perm((0, 1), degree=3), perm((0, 1), degree=2)])


@pytest.mark.parametrize("images", [(0, 0), (1, 2), (2, 1, 0, 0)])
def test_permutation_rejects_non_bijections(images):
    with pytest.raises(ValueError):
        Permutation(images)


def test_from_cycles_and_order():
    p = perm((0, 1), (2, 3, 4), degree=5)
    assert closure(5, [p]).order == 6  # the lcm of its cycle lengths
    assert p.cycles() == [(0, 1), (2, 3, 4)]
    with pytest.raises(ValueError, match="disjoint"):
        perm((0, 1), (1, 2), degree=3)
    with pytest.raises(ValueError, match="at least one point"):
        Permutation.from_cycles(3, ())


def test_closure_cyclic_generator():
    g = closure(3, [perm((0, 1, 2), degree=3)])
    assert g.order == 3


def test_closure_empty_generators():
    g = closure(1, [])
    assert g.order == 1
    assert g.elements[g.identity_index] == oracle_identity(1)


def test_products_on_one_point():
    one = oracle_identity(1)
    g = closure(1, [one, one])
    assert g.elements == (one,)
    assert g.rows == ((0,),)


def test_closure_a5_order():
    # |A5| = 5!/2 = 60
    g = closure(5, [perm((0, 1, 2, 3, 4), degree=5), perm((0, 1, 2), degree=5)])
    assert g.order == 60


def test_closure_element_cap():
    gens = symmetric(6).generators
    with pytest.raises(ResourceLimitError, match="100"):
        closure(6, gens, limits=Limits(element_cap=100))


def test_closure_is_deterministic():
    gens = [perm((0, 1, 2, 3, 4), degree=5), perm((0, 1, 2), degree=5)]
    first = closure(5, gens)
    second = closure(5, gens)
    assert first.elements == second.elements


def test_closure_idempotent_on_closed_set():
    g = symmetric(3)
    reclosed = closure(3, list(g.elements))
    assert set(reclosed.elements) == set(g.elements)
    assert reclosed.order == g.order


def test_cayley_table_cap():
    g = tableless(closure(3, [perm((0, 1, 2), degree=3)]))
    assert not isinstance(g.rows, tuple)
    assert g.mult(1, 2) == g.identity_index  # falls back to composing images
    with_table = cyclic(3)
    assert isinstance(with_table.rows, tuple)
    assert [with_table.mult(i, j) for i in range(3) for j in range(3)] == [
        g.mult(i, j) for i in range(3) for j in range(3)
    ]


def _assert_table_matches_compose(group):
    els = group.elements
    assert isinstance(group.rows, tuple)
    for i, row in enumerate(group.rows):
        expected = [group.index_of(oracle_compose(els[i], b)) for b in els]
        assert list(row) == expected, (group.name, i)


def test_cayley_table_matches_compose_on_catalog():
    # every catalog group up to TABLE_ORDER keeps a table
    for spec in catalog_specs():
        _assert_table_matches_compose(spec.build())


def test_no_table_past_table_order():
    # a group keeps its table up to TABLE_ORDER and no further; past it,
    # rows reads each product off the permutations
    assert isinstance(cyclic(TABLE_ORDER).rows, tuple)
    assert not isinstance(cyclic(TABLE_ORDER + 1).rows, tuple)
    s6 = symmetric(6)
    assert s6.order == 720 > TABLE_ORDER and not isinstance(s6.rows, tuple)
    els = s6.elements
    for i in range(0, 720, 7):
        for j in range(i % 11, 720, 61):
            assert els[s6.rows[i][j]] == oracle_compose(els[i], els[j])


@pytest.mark.parametrize("gens", [
    [],
    [oracle_identity(4)],
    [oracle_identity(4), perm((0, 1, 2, 3), degree=4), oracle_identity(4)],
    [perm((0, 1), degree=4), perm((0, 1), degree=4), perm((1, 2, 3), degree=4)],
], ids=["no-generators", "identity-only", "identity-generator", "repeated-generator"])
def test_cayley_table_matches_compose_on_odd_inputs(gens):
    _assert_table_matches_compose(closure(4, gens))


def test_element_order_identity():
    g = dihedral(10)
    assert g.element_orders[g.identity_index] == 1


def test_element_order_cyclic_generator():
    g = cyclic(6)
    gen = g.index_of(g.generators[0])
    assert g.element_orders[gen] == 6


def test_a5_element_order_histogram():
    # by hand: 24 five-cycles, 20 three-cycles, 15 double transpositions
    g = alternating(5)
    hist = Counter(g.element_orders)
    assert dict(hist) == {1: 1, 2: 15, 3: 20, 5: 24}


def test_element_orders_from_table_match_permutation_orders():
    groups = [spec.build() for spec in catalog_specs()]
    for g in groups + [psl2(7), sl2_5()]:
        assert isinstance(g.rows, tuple)
        assert g.element_orders == tuple(map(oracle_order, g.elements)), g.name


def test_element_orders_divide_group_order():
    for g in (symmetric(4), dihedral(12), alternating(5)):
        assert all(g.order % k == 0 for k in g.element_orders)


@st.composite
def permutations(draw, degree=None):
    n = degree if degree is not None else draw(st.integers(min_value=1, max_value=7))
    images = draw(st.permutations(list(range(n))))
    return Permutation(tuple(images))


@st.composite
def closures(draw):
    """The group of one to three random permutations of one degree, built
    with its Cayley table and without one, and three random element
    indices."""
    n = draw(st.integers(min_value=1, max_value=5))
    gens = draw(st.lists(permutations(degree=n), min_size=1, max_size=3))
    tabled = closure(n, gens)
    assert isinstance(tabled.rows, tuple)
    index = st.integers(min_value=0, max_value=tabled.order - 1)
    return (tabled, tableless(tabled)), [draw(index) for _ in range(3)]


@given(closures())
@settings(max_examples=150, deadline=None)
def test_compose_is_associative(case):
    groups, (a, b, c) = case
    for g in groups:
        rows = g.rows
        assert rows[rows[a][b]][c] == rows[a][rows[b][c]]


@given(closures())
@settings(max_examples=150, deadline=None)
def test_inverse_cancels(case):
    groups, (a, _, _) = case
    for g in groups:
        inv = g.inverse_index(a)
        assert g.rows[a][inv] == g.rows[inv][a] == g.identity_index
        assert g.elements[inv] == oracle_inverse(g.elements[a])


def test_inverse_correct_on_whole_groups(psl27_lattice):
    untabled = tableless(symmetric(4))
    realized = next(s for s in psl27_lattice.subgroups if s.order == 24).as_group()
    assert isinstance(realized.rows, tuple)
    for g in (symmetric(4), dihedral(10), cyclic(12), untabled, realized):
        for i in range(g.order):
            j = g.inverse_index(i)
            assert g.mult(i, j) == g.identity_index
            assert g.mult(j, i) == g.identity_index


def test_finite_group_rejects_repeated_elements():
    c = perm((0, 1, 2), degree=3)
    with pytest.raises(ValueError, match="duplicate elements"):
        FiniteGroup(elements=(oracle_identity(3), c, c), moves=((1, 2, 0),))


def test_closure_tolerates_duplicate_generators():
    c = perm((0, 1, 2), degree=3)
    g = closure(3, [c, c, oracle_inverse(c)])
    assert g.order == 3
    assert all(gen in g for gen in g.generators)


def test_index_of_rejects_outside_elements():
    g = alternating(4)
    odd = perm((0, 1), degree=4)
    assert odd not in g
    with pytest.raises(ValueError):
        g.index_of(odd)
