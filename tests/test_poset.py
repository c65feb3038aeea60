import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoposet
from isoposet import (
    Limits,
    Poset,
    ResourceLimitError,
    canonical_form,
    canonical_hash,
    find_poset_isomorphism,
    refine,
)

from oracles import oracle_canonical_labeling, oracle_poset_isomorphic, relabeled

CHAIN3 = Poset(3, ((0, 1), (1, 2)))
ANTICHAIN3 = Poset(3, ())
DIAMOND = Poset(4, ((0, 1), (0, 2), (1, 3), (2, 3)))


def antichain(m: int) -> Poset:
    return Poset(m, ())


def boolean(k: int) -> Poset:
    """Subsets of k elements under inclusion, node s the subset with bitmask s."""
    return Poset(1 << k, tuple((s, s | 1 << b) for s in range(1 << k)
                               for b in range(k) if not s >> b & 1))


def divisor_lattice(n: int) -> Poset:
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    index = {d: i for i, d in enumerate(divisors)}
    return Poset(len(divisors), tuple(
        (index[d], index[e]) for d in divisors for e in divisors
        if e > d and e % d == 0 and all((e // d) % q for q in range(2, e // d))
    ))


def crown(m: int) -> Poset:
    """m minimal nodes, each covered by maximal nodes m + i and m + (i + 1) % m:
    one cycle through all 2m nodes."""
    return Poset(2 * m, tuple(sorted(
        [(i, m + i) for i in range(m)] + [(i, m + (i + 1) % m) for i in range(m)]
    )))


def disjoint(copies: int, p: Poset) -> Poset:
    return Poset(copies * p.n, tuple((a + k * p.n, b + k * p.n)
                                     for k in range(copies) for a, b in p.hasse))


def beside(p: Poset, q: Poset) -> Poset:
    """p and q side by side, q's nodes numbered after p's."""
    return Poset(p.n + q.n, p.hasse + tuple((a + p.n, b + p.n) for a, b in q.hasse))


# a 4-crown wired as two disjoint 2x2 blocks: degree and height data match crown(4)
CROWN_BLOCKS = Poset(8, ((0, 4), (0, 5), (1, 4), (1, 5), (2, 6), (2, 7), (3, 6), (3, 7)))


def random_poset(seed: int, max_nodes: int = 8) -> Poset:
    rng = random.Random(seed)
    n = rng.randint(1, max_nodes)
    leq = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                leq.append((a, b))
    # transitive closure over the index order keeps it a valid partial order
    closed = set(leq)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(closed), repeat=2):
            if b == c and (a, d) not in closed:
                closed.add((a, d))
                changed = True
    return Poset.from_relation(n, closed)


def test_poset_rejects_cycles():
    with pytest.raises(ValueError, match="cycle"):
        Poset(2, ((0, 1), (1, 0)))


def test_poset_rejects_implied_edges():
    with pytest.raises(ValueError, match="implied"):
        Poset(3, ((0, 1), (1, 2), (0, 2)))


def test_poset_rejects_bad_edges():
    with pytest.raises(ValueError):
        Poset(2, ((0, 2),))
    with pytest.raises(ValueError):
        Poset(2, ((0, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        Poset(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="node count must be non-negative, got -1"):
        Poset(-1, ())
    with pytest.raises(ValueError, match="node count must be non-negative, got -2"):
        Poset.from_relation(-2, [])


def test_from_relation_reduces():
    p = Poset.from_relation(3, [(0, 1), (1, 2), (0, 2)])
    assert p.hasse == ((0, 1), (1, 2))


def test_from_relation_rejects_bad_orders():
    with pytest.raises(ValueError, match="antisymmetric"):
        Poset.from_relation(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="transitive"):
        Poset.from_relation(3, [(0, 1), (1, 2)])


def test_from_relation_rejects_out_of_range_pairs():
    with pytest.raises(ValueError, match="out of range"):
        Poset.from_relation(3, [(0, 5)])
    with pytest.raises(ValueError, match="out of range"):
        Poset.from_relation(3, [(-1, 0)])


def test_refine_antichain_single_color():
    assert len(set(refine(ANTICHAIN3))) == 1


def test_refine_chain_all_distinct():
    assert len(set(refine(CHAIN3))) == 3


def test_refine_diamond_middles_share_color():
    colors = refine(DIAMOND)
    assert colors[1] == colors[2]
    assert len({colors[0], colors[1], colors[3]}) == 3


def test_iso_reflexive():
    for p in (CHAIN3, ANTICHAIN3, DIAMOND):
        assert find_poset_isomorphism(p, p) is not None


def test_iso_rejects_different_sizes():
    assert find_poset_isomorphism(CHAIN3, DIAMOND) is None


def test_iso_on_relabeled_poset():
    perm = [2, 0, 3, 1]
    q = relabeled(DIAMOND, perm)
    mapping = find_poset_isomorphism(DIAMOND, q)
    assert mapping is not None
    # witness preserves covers in both directions
    assert {(mapping[a], mapping[b]) for a, b in DIAMOND.hasse} == set(q.hasse)
    inverse = {y: x for x, y in enumerate(mapping)}
    assert {(inverse[a], inverse[b]) for a, b in q.hasse} == set(DIAMOND.hasse)


def test_searches_leave_recursion_limit_alone(monkeypatch):
    # the searches must not mutate interpreter state, which is shared by threads
    def refuse(limit):
        raise AssertionError(f"sys.setrecursionlimit({limit}) called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    for p in (CHAIN3, ANTICHAIN3, DIAMOND, random_poset(7)):
        fresh = Poset(p.n, p.hasse)
        copy = relabeled(p, list(reversed(range(p.n))))
        assert canonical_hash(fresh) == canonical_hash(copy)
        assert find_poset_isomorphism(fresh, copy) is not None


def test_poset_cap():
    with pytest.raises(ResourceLimitError):
        find_poset_isomorphism(DIAMOND, DIAMOND, limits=Limits(poset_cap=3))
    with pytest.raises(ResourceLimitError):
        canonical_hash(DIAMOND, limits=Limits(poset_cap=3))


def test_different_sizes_answer_before_the_poset_cap():
    # posets of different sizes are not isomorphic, whatever the cap
    assert find_poset_isomorphism(Poset(1, ()), CHAIN3, limits=Limits(poset_cap=2)) is None
    assert find_poset_isomorphism(CHAIN3, Poset(1, ()), limits=Limits(poset_cap=0)) is None


@pytest.mark.parametrize("seed_a,seed_b", [(s, s + 50) for s in range(12)])
def test_matches_bruteforce_oracle_random_pairs(seed_a, seed_b):
    p, q = random_poset(seed_a), random_poset(seed_b)
    expected = oracle_poset_isomorphic(p, q)
    assert (find_poset_isomorphism(p, q) is not None) is expected
    assert (canonical_hash(p) == canonical_hash(q)) is expected


@pytest.mark.parametrize("seed", range(12))
def test_matches_bruteforce_oracle_relabeled(seed):
    p = random_poset(seed)
    rng = random.Random(seed + 1000)
    perm = list(range(p.n))
    rng.shuffle(perm)
    q = relabeled(p, perm)
    assert oracle_poset_isomorphic(p, q)
    assert find_poset_isomorphism(p, q) is not None
    assert canonical_hash(p) == canonical_hash(q)


def test_named_poset_pairs_against_oracle():
    corpus = [CHAIN3, ANTICHAIN3, DIAMOND, Poset(1, ()),
              Poset(5, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))),
              Poset(5, ((0, 1), (1, 2), (2, 3), (3, 4)))]
    for p, q in itertools.combinations(corpus, 2):
        assert (find_poset_isomorphism(p, q) is not None) is oracle_poset_isomorphic(p, q)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_canonical_hash_is_relabeling_invariant(seed):
    p = random_poset(seed)
    rng = random.Random(seed ^ 0xC0FFEE)
    perm = list(range(p.n))
    rng.shuffle(perm)
    q = relabeled(p, perm)
    assert canonical_hash(p) == canonical_hash(q)
    mapping = find_poset_isomorphism(p, q)
    assert {(mapping[a], mapping[b]) for a, b in p.hasse} == set(q.hasse)


def test_backtracking_separates_refinement_equivalent_crowns():
    # two 4-crowns with identical degree/height data everywhere: one wired
    # as a single 8-cycle, one as two disjoint 2x2 blocks; refinement alone
    # cannot tell them apart, completeness must come from the search
    cycle, blocks = crown(4), CROWN_BLOCKS
    assert sorted(refine(cycle)) == sorted(refine(blocks))
    assert not oracle_poset_isomorphic(cycle, blocks)
    assert find_poset_isomorphism(cycle, blocks) is None
    assert canonical_hash(cycle) != canonical_hash(blocks)


@st.composite
def small_posets(draw, max_nodes: int = 7) -> Poset:
    """The order closing a random set of pairs a < b on at most max_nodes nodes."""
    n = draw(st.integers(0, max_nodes))
    above = [0] * n
    for a, b in draw(st.sets(st.tuples(st.integers(0, max(n - 1, 0)),
                                       st.integers(0, max(n - 1, 0))))):
        if a < b:
            above[a] |= 1 << b
    for a in reversed(range(n)):
        for b in range(a + 1, n):
            if above[a] >> b & 1:
                above[a] |= above[b]
    return Poset.from_relation(n, [(a, b) for a in range(n) for b in range(n)
                                   if above[a] >> b & 1])


def assert_search_matches_oracle(p: Poset) -> None:
    """The pruned search finds the unpruned tree's least form, and its
    placement realizes that form."""
    form, placement = Poset(p.n, p.hasse)._canonical_labeling
    assert form == oracle_canonical_labeling(p)[0]
    assert sorted(placement) == list(range(p.n))
    position = {x: k for k, x in enumerate(placement)}
    assert form == (p.n, tuple(sorted((position[a], position[b]) for a, b in p.hasse)))


@given(small_posets())
@settings(max_examples=150, deadline=None)
def test_canonical_labeling_matches_unpruned_search(p):
    assert_search_matches_oracle(p)


SYMMETRIC_POSETS = {
    **{f"antichain{m}": antichain(m) for m in range(1, 8)},
    **{f"B{k}": boolean(k) for k in range(1, 5)},
    "crown4": crown(4), "crown5": crown(5), "crown10": crown(10), "crown-blocks": CROWN_BLOCKS,
    # one cell holds the minimal nodes of both parts, whose subtrees differ,
    # so an automorphism found in one part must not end the search
    "crown4+blocks": beside(crown(4), CROWN_BLOCKS), "blocks+crown4": beside(CROWN_BLOCKS, crown(4)),
    "3xB2": disjoint(3, boolean(2)),
    **{f"divisors{n}": divisor_lattice(n) for n in (60, 360, 2520)},
}


@pytest.mark.parametrize("name", SYMMETRIC_POSETS)
def test_canonical_labeling_matches_unpruned_search_on_symmetric_posets(name):
    assert_search_matches_oracle(SYMMETRIC_POSETS[name])


def test_symmetric_posets_past_the_unpruned_reach():
    # the unpruned tree tries every order of twins and of symmetric
    # blocks: 60! leaves for antichain(60), 8! block orders for 8 x B2
    rng = random.Random(60)
    start = time.perf_counter()
    for p in (antichain(60), boolean(7), disjoint(8, boolean(2)), disjoint(5, boolean(3))):
        perm = list(range(p.n))
        rng.shuffle(perm)
        q = relabeled(p, perm)
        assert canonical_hash(p) == canonical_hash(q)
        mapping = find_poset_isomorphism(p, q)
        assert sorted(mapping) == list(range(p.n))
        assert {(mapping[a], mapping[b]) for a, b in p.hasse} == set(q.hasse)
    # about 0.05 s in all
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("name,poset", [
    ("crown10", crown(10)), ("crown30", crown(30)), ("antichain30", antichain(30)),
    ("B7", boolean(7)),
])
def test_symmetric_posets_label_fast(name, poset):
    # a few milliseconds each; no automorphism prunes a search that places
    # a crown's minimal nodes before refinement tells them apart, and such
    # a search grows about 9x per crown step
    fresh = Poset(poset.n, poset.hasse)
    start = time.perf_counter()
    fresh._canonical_labeling
    assert time.perf_counter() - start < 0.1


def test_canonical_hash_separates_chain_and_antichain():
    assert canonical_hash(CHAIN3) != canonical_hash(ANTICHAIN3)


def test_canonical_form_roundtrip_identity():
    form = canonical_form(DIAMOND)
    assert form[0] == 4
    assert len(form[1]) == 4


def test_canonical_hash_stable_across_processes():
    # guards against accidental use of salted hashing anywhere in the digest
    code = (
        "import isoposet;"
        "from isoposet import Poset, canonical_hash;"
        "print(canonical_hash(Poset(4, ((0, 1), (0, 2), (1, 3), (2, 3)))));"
        "print(isoposet.__file__)"
    )
    # the children inherit the environment and import the package under test
    # from the same source root, ahead of any other copy on PYTHONPATH
    package_file = Path(isoposet.__file__).resolve()
    source_root = str(package_file.parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = source_root + (os.pathsep + inherited if inherited else "")
    runs = set()
    for seed in (1, 2):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": pythonpath}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        digest, child_file = proc.stdout.splitlines()
        assert Path(child_file).resolve() == package_file
        runs.add(digest)
    assert len(runs) == 1
    assert runs == {canonical_hash(DIAMOND)}
