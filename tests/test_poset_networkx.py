"""networkx as an independent oracle for the poset layer.

Digest equality must agree with ``nx.is_isomorphic`` on the cover digraphs,
every witness must map covers onto covers, and ``Poset.from_relation`` must
reduce an order to the same covers as ``nx.transitive_reduction``.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoposet import Poset, all_subgroups, build_iso_poset, canonical_hash, find_poset_isomorphism
from isoposet.catalog import catalog_specs

from oracles import relabeled

nx = pytest.importorskip("networkx")


def cover_digraph(p: Poset):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(p.n))
    graph.add_edges_from(p.hasse)
    return graph


@st.composite
def orders(draw, n):
    """The order relation of a random DAG on n nodes, as an nx.DiGraph."""
    dag = nx.DiGraph()
    dag.add_nodes_from(range(n))
    if n > 1:
        dag.add_edges_from(draw(st.sets(
            st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(lambda e: e[0] < e[1]))))
    return nx.transitive_closure_dag(dag)


def poset_of(order) -> Poset:
    return Poset.from_relation(order.number_of_nodes(), order.edges)


def check_pair(p: Poset, q: Poset) -> bool:
    """Digest equality agrees with networkx; a witness maps covers onto covers."""
    same = nx.is_isomorphic(cover_digraph(p), cover_digraph(q))
    assert (canonical_hash(p) == canonical_hash(q)) == same
    witness = find_poset_isomorphism(p, q)
    assert (witness is not None) == same
    if witness is not None:
        assert sorted(witness) == list(range(q.n))
        assert {(witness[a], witness[b]) for a, b in p.hasse} == set(q.hasse)
    return same


# eight nodes at most, so networkx's matcher stays quick; the canonical
# search splits a cell of twins in one step, so an 8-node antichain costs
# it one leaf, not 8!
@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(orders(n), orders(n), st.permutations(range(n)))))
@settings(max_examples=150, deadline=None)
def test_digest_matches_networkx_on_random_posets(drawn):
    order_p, order_q, perm = drawn
    p, q = poset_of(order_p), poset_of(order_q)
    assert set(p.hasse) == set(nx.transitive_reduction(order_p).edges)
    check_pair(p, q)
    assert check_pair(p, relabeled(p, list(perm)))


def crowns(*sizes: int) -> Poset:
    """Disjoint crowns: in crown(m), minimal node i is covered by maximal
    nodes i and (i + 1) % m, one cycle through its 2m nodes; crown(2) is the
    2x2 block."""
    hasse, base = [], 0
    for m in sizes:
        hasse += [(base + i, base + m + j) for i in range(m) for j in {i, (i + 1) % m}]
        base += 2 * m
    return Poset(base, tuple(hasse))


@pytest.mark.parametrize("m", range(3, 13))
def test_digest_matches_networkx_on_crowns(m):
    # every lookalike has the crown's degrees and heights at every node, so
    # refinement alone cannot tell them apart
    p = crowns(m)
    perm = list(range(p.n))
    random.Random(m).shuffle(perm)
    assert check_pair(p, relabeled(p, perm))
    for k in range(2, m // 2 + 1):
        assert not check_pair(p, crowns(k, m - k))


def test_digest_matches_networkx_on_catalog_class_posets(cache_dir):
    groups = [spec.build() for spec in catalog_specs()]
    posets = [build_iso_poset(g, lattice=all_subgroups(g, cache_dir=cache_dir)).to_poset()
              for g in groups]
    assert len(posets) == 53
    isomorphic_pairs = 0
    for p, q in itertools.combinations(posets, 2):
        if p.n == q.n:
            isomorphic_pairs += check_pair(p, q)
    # the catalog has digest collisions, e.g. D12 and D20
    assert isomorphic_pairs > 0
