"""Workload definitions: seeded inputs, expected outputs and output checks.

This module runs in the benchmark's own process and never imports
isoposet.  It makes each workload's inputs from the seed, and it checks the
summaries that child interpreters send back against pinned answers and,
for posets, against networkx as an independent oracle.
"""

from __future__ import annotations

import random
from itertools import combinations

WHY = {
    "verify-all-cold": (
        "the paper's reproduction (isoposet verify all) in a fresh process with "
        "no cache dir; cost is subgroup enumeration and as_group re-closure"
    ),
    "scan-warm-cache": (
        "catalog digest scan reading a warm lattice cache; enumeration becomes "
        "a read, so catalog build, as_group, fingerprint and isomorphism dominate"
    ),
    "poset-canon": (
        "canonical_hash and find_poset_isomorphism on symmetric, lattice and "
        "random posets; only the poset layer works and no group is touched"
    ),
}

# Collision groupings of `isoposet scan --orders N` for every curated order.
# Groupings are pinned rather than digest literals, so a new canonical form
# that keeps equality exactly where it was still passes.
SCAN_GROUPINGS: dict[int, list[list[str]]] = {
    1: [], 2: [], 3: [], 4: [["Z4", "V4"]], 5: [], 6: [["Z6", "S3"]], 7: [],
    8: [["Z4xZ2", "D8"], ["Z8", "Z2xZ2xZ2", "Q8"]],
    9: [["Z9", "Z3xZ3"]], 10: [["Z10", "D10"]], 12: [["Z12", "Z6xZ2", "Dic3"]],
    15: [], 20: [["Z20", "Z10xZ2", "F20", "Dic5"]], 21: [["Z21", "F21"]], 24: [],
    60: [["S3xZ10", "D10xZ6"], ["Z60", "Z30xZ2", "F20xZ3", "Dic15", "Z15:Z4"]],
    120: [], 168: [],
}
SCAN_ENTRIES = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 12: 5, 15: 1,
    20: 5, 21: 2, 24: 6, 60: 11, 120: 4, 168: 1,
}
TINY_SCAN_ORDERS = [1, 2, 3, 4, 6, 8, 12]

# (subgroups, isomorphism classes) of groups the layer replay touches;
# None where only the subgroup count is pinned.
REPLAY_PINS = {
    "PSL(2,5)": (59, 9), "A5": (59, 9), "S5": (156, None),
    "PSL(2,7)": (179, None), "SL(2,5)": (76, None), "A5xZ2": (164, None),
}


def make_inputs(workload: str, seed: int, tiny: bool) -> dict:
    """What every child of the run gets; the child never sees the seed.

    The scan's request order is drawn per pass, by ``shuffled_orders``.
    """
    rng = random.Random(seed)
    if workload == "verify-all-cold":
        return {"suites": ["lemma"] if tiny else ["psl25", "psl27", "remark", "lemma"]}
    if workload == "scan-warm-cache":
        return {"orders": list(TINY_SCAN_ORDERS if tiny else SCAN_GROUPINGS)}
    return {"items": poset_items(rng, tiny)}


def shuffled_orders(rng: random.Random, orders: list[int]) -> list[int]:
    """The scan's orders in a new seeded order for each pass.

    The first request of a fresh interpreter pays one-off costs; a new order
    per pass spreads them over all orders, instead of letting the seed pick
    one order to carry them in every pass of a run.
    """
    return rng.sample(orders, len(orders))


# ---------------------------------------------------------------- posets

def _antichain(m: int) -> tuple[int, list[tuple[int, int]]]:
    """bottom + antichain(m) + top: node 0, nodes 1..m, node m+1."""
    return m + 2, [(0, i) for i in range(1, m + 1)] + [(i, m + 1) for i in range(1, m + 1)]


def _boolean(k: int) -> tuple[int, list[tuple[int, int]]]:
    return 1 << k, [(s, s | 1 << b) for s in range(1 << k) for b in range(k) if not s >> b & 1]


def _divisors(n: int) -> tuple[int, list[tuple[int, int]]]:
    divs = [d for d in range(1, n + 1) if n % d == 0]
    index = {d: i for i, d in enumerate(divs)}
    primes = [p for p in divs if p > 1 and all(p % q for q in range(2, p))]
    return len(divs), [(index[d], index[d * p]) for d in divs for p in primes if n % (d * p) == 0]


def _random_poset(rng: random.Random, n: int) -> tuple[int, list[tuple[int, int]]]:
    """Transitive closure of a random DAG with edge probability 4/n, as covers."""
    order = list(range(n))
    rng.shuffle(order)
    above = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 4 / n:
                above[order[a]] |= 1 << order[b]
    for a in reversed(range(n)):  # close transitively, last-in-order first
        x = order[a]
        acc = above[x]
        for b in range(n):
            if above[x] >> b & 1:
                acc |= above[b]
        above[x] = acc
    return n, _covers(n, above)


def _covers(n: int, above: list[int]) -> list[tuple[int, int]]:
    covers = []
    for a in range(n):
        for b in range(n):
            if above[a] >> b & 1 and not any(
                above[a] >> c & 1 and above[c] >> b & 1 for c in range(n)
            ):
                covers.append((a, b))
    return covers


def poset_items(rng: random.Random, tiny: bool) -> list[dict]:
    """Fixed families plus seeded random posets, each with a seeded relabelling."""
    shapes = []
    for m in (range(3, 6) if tiny else range(3, 9)):
        shapes.append((f"antichain{m}", *_antichain(m)))
    for k in (range(1, 4) if tiny else range(1, 5)):
        shapes.append((f"boolean{k}", *_boolean(k)))
    for n in ((60,) if tiny else (60, 120, 168, 360, 720, 840, 2520)):
        shapes.append((f"divisors{n}", *_divisors(n)))
    # two random posets per size, 14..23 nodes (8..9 when tiny)
    for i in range(4 if tiny else 20):
        n = (8 if tiny else 14) + i // 2
        shapes.append((f"random{i}-n{n}", *_random_poset(rng, n)))
    items = []
    for name, n, hasse in shapes:
        perm = list(range(n))
        rng.shuffle(perm)
        copy = sorted((perm[a], perm[b]) for a, b in hasse)
        items.append({"name": name, "n": n, "hasse": sorted(hasse), "copy": copy})
    return items


# ---------------------------------------------------------------- checks

def check_verify(claims: list[list[str]], suites: list[str]) -> str | None:
    """None when the claim statuses are the known answer, else the mismatch."""
    skipped = [cid for cid, status in claims if status == "skipped"]
    verified = sum(1 for _, status in claims if status == "verified")
    refuted = [cid for cid, status in claims if status == "refuted"]
    expected = (18, ["psl27.hall-order-gap"]) if "psl25" in suites else (4, [])
    if refuted or (verified, skipped) != expected:
        return f"verified={verified} skipped={skipped} refuted={refuted}"
    return None


def check_scan(order: int, summary: dict) -> str | None:
    """Entry count, no entry errors, pinned groupings, no isomorphic pair."""
    if summary["errors"]:
        return f"order {order}: entry errors {summary['errors']}"
    if summary["entries"] != SCAN_ENTRIES[order]:
        return f"order {order}: {summary['entries']} entries, expected {SCAN_ENTRIES[order]}"
    got = sorted(sorted(g) for g in summary["groupings"])
    want = sorted(sorted(g) for g in SCAN_GROUPINGS[order])
    if got != want:
        return f"order {order}: groupings {got}, expected {want}"
    if summary["isomorphic_pairs"]:
        return f"order {order}: catalog entries reported isomorphic {summary['isomorphic_pairs']}"
    return None


def check_poset_item(item: dict, out: dict) -> str | None:
    """Equal digests for a relabelled copy and a witness that maps covers onto covers."""
    if out["digest"] != out["copy_digest"]:
        return f"{item['name']}: relabelled copy got another digest"
    witness = out["witness"]
    if witness is None:
        return f"{item['name']}: no isomorphism to its relabelled copy"
    image = sorted((witness[a], witness[b]) for a, b in item["hasse"])
    if image != [tuple(e) for e in item["copy"]]:
        return f"{item['name']}: witness does not map covers onto covers"
    return None


def check_poset_oracle(items: list[dict], digests: list[str]) -> str | None:
    """networkx agrees with digest equality on every pair of equal-size items."""
    import networkx as nx

    graphs = []
    for item in items:
        g = nx.DiGraph()
        g.add_nodes_from(range(item["n"]))
        g.add_edges_from(tuple(e) for e in item["hasse"])
        graphs.append(g)
    for i, j in combinations(range(len(items)), 2):
        if items[i]["n"] != items[j]["n"]:
            continue
        same = digests[i] == digests[j]
        if same != nx.is_isomorphic(graphs[i], graphs[j]):
            return (f"{items[i]['name']} vs {items[j]['name']}: digests "
                    f"{'agree' if same else 'differ'}, networkx disagrees")
    return None


def check_replay_pins(pins: dict[str, list[int]]) -> str | None:
    for name, (subs, classes) in REPLAY_PINS.items():
        if name not in pins:
            continue
        got_subs, got_classes = pins[name]
        if got_subs != subs or (classes is not None and got_classes != classes):
            return f"{name}: {got_subs} subgroups / {got_classes} classes"
    return None
