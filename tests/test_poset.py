import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoposet
from isoposet import (
    Limits,
    Poset,
    ResourceLimitError,
    are_posets_isomorphic,
    canonical_form,
    canonical_hash,
    find_poset_isomorphism,
    refine,
)

from oracles import oracle_poset_isomorphic, relabeled

CHAIN3 = Poset(3, ((0, 1), (1, 2)))
ANTICHAIN3 = Poset(3, ())
DIAMOND = Poset(4, ((0, 1), (0, 2), (1, 3), (2, 3)))


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
        assert are_posets_isomorphic(p, p)


def test_iso_rejects_different_sizes():
    assert not are_posets_isomorphic(CHAIN3, DIAMOND)


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
        are_posets_isomorphic(DIAMOND, DIAMOND, limits=Limits(poset_cap=3))
    with pytest.raises(ResourceLimitError):
        canonical_hash(DIAMOND, limits=Limits(poset_cap=3))


@pytest.mark.parametrize("seed_a,seed_b", [(s, s + 50) for s in range(12)])
def test_matches_bruteforce_oracle_random_pairs(seed_a, seed_b):
    p, q = random_poset(seed_a), random_poset(seed_b)
    expected = oracle_poset_isomorphic(p, q)
    assert are_posets_isomorphic(p, q) is expected
    assert (canonical_hash(p) == canonical_hash(q)) is expected


@pytest.mark.parametrize("seed", range(12))
def test_matches_bruteforce_oracle_relabeled(seed):
    p = random_poset(seed)
    rng = random.Random(seed + 1000)
    perm = list(range(p.n))
    rng.shuffle(perm)
    q = relabeled(p, perm)
    assert oracle_poset_isomorphic(p, q)
    assert are_posets_isomorphic(p, q)
    assert canonical_hash(p) == canonical_hash(q)


def test_named_poset_pairs_against_oracle():
    corpus = [CHAIN3, ANTICHAIN3, DIAMOND, Poset(1, ()),
              Poset(5, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))),
              Poset(5, ((0, 1), (1, 2), (2, 3), (3, 4)))]
    for p, q in itertools.combinations(corpus, 2):
        assert are_posets_isomorphic(p, q) is oracle_poset_isomorphic(p, q)


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
    cycle = Poset(8, tuple(sorted(
        [(i, 4 + i) for i in range(4)] + [(i, 4 + (i + 1) % 4) for i in range(4)]
    )))
    blocks = Poset(8, ((0, 4), (0, 5), (1, 4), (1, 5), (2, 6), (2, 7), (3, 6), (3, 7)))
    assert sorted(refine(cycle)) == sorted(refine(blocks))
    assert not oracle_poset_isomorphic(cycle, blocks)
    assert not are_posets_isomorphic(cycle, blocks)
    assert canonical_hash(cycle) != canonical_hash(blocks)


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
