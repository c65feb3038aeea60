"""One benchmark sample: a fresh interpreter that runs one job and exits.

Reads a job as JSON on stdin and writes one JSON line on stdout.  Jobs:

setup   cold ``scan`` of the given orders into an empty cache dir (the
        write path of scan-warm-cache); reports when it finished
pass    one pass of the workload, untraced
traced  the same pass with spans around each public call, then a replay
        of the layers one by one on the groups the workload touches

``ready`` is stamped on the monotonic clock once the interpreter has
started, imported isoposet and built its inputs, so the parent can time
start-up from its own spawn stamp on the same clock.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from spans import Tracer

from isoposet import (
    Permutation,
    Poset,
    all_subgroups,
    build_iso_poset,
    canonical_hash,
    catalog_for_order,
    classify,
    composition_factors,
    direct_product,
    find_isomorphism,
    find_poset_isomorphism,
    fingerprint,
    group_from_name,
    is_maximal,
    psl2,
    subgroup_generated_by,
)
from isoposet.verify import scan, verify_lemma, verify_psl25, verify_psl27, verify_remark


def _lemma():
    return verify_lemma(group_from_name("Z6"), group_from_name("Z15"))


SUITES = {"psl25": verify_psl25, "psl27": verify_psl27, "remark": verify_remark, "lemma": _lemma}


def verify_pass(job: dict, tracer: Tracer) -> tuple[list, list]:
    """One request: the suites of ``verify all`` in its order."""
    claims = []
    start = time.perf_counter()
    with tracer.span("request"):
        for suite in job["suites"]:
            with tracer.span(f"verify.{suite}"):
                claims += SUITES[suite]()
    latency = time.perf_counter() - start
    return [["verify all", latency]], [[[c.claim_id, c.status] for c in claims]]


def scan_summary(report) -> dict:
    return {
        "entries": len(report.entries),
        "errors": [e.name for e in report.entries if e.error is not None],
        "groupings": [c["groups"] for c in report.collisions],
        "isomorphic_pairs": [p["groups"] for c in report.collisions
                             for p in c["pairs"] if p["isomorphic"] is not False],
    }


def scan_pass(job: dict, tracer: Tracer) -> tuple[list, list]:
    """One request per order: ``isoposet scan --orders N`` on a warm cache."""
    items, reports = [], []
    for order in job["orders"]:
        start = time.perf_counter()
        with tracer.span("verify.scan"):
            report = scan([order], cache_dir=job["cache_dir"])
        items.append([str(order), time.perf_counter() - start])
        reports.append(report)
    return items, [scan_summary(r) for r in reports]


def poset_pass(job: dict, tracer: Tracer) -> tuple[list, list]:
    """One request per item: digest both labellings, then match them."""
    items, outputs = [], []
    for item, p, q in job["posets"]:
        start = time.perf_counter()
        with tracer.span("request"):
            with tracer.span("poset.canonical_hash"):
                digest = canonical_hash(p)
            with tracer.span("poset.canonical_hash"):
                copy_digest = canonical_hash(q)
            with tracer.span("poset.find_iso"):
                witness = find_poset_isomorphism(p, q)
        items.append([item["name"], time.perf_counter() - start])
        outputs.append({"digest": digest, "copy_digest": copy_digest,
                        "witness": None if witness is None else list(witness)})
    return items, outputs


# ---------------------------------------------------------------- replay

def replay_group(tracer: Tracer, counts: dict, pins: dict, label: str, build,
                 *, recognize: bool, cache_dir: str | None = None):
    """Run each layer on one group in turn, one span per public call."""
    with tracer.span("replay"):
        with tracer.span("catalog.build"):
            group = build()
        with tracer.span("subgroups.enumerate"):
            lattice = all_subgroups(group)
        if cache_dir is not None:
            with tracer.span("subgroups.cache_load"):
                cached = all_subgroups(group, cache_dir=cache_dir)
            if len(cached) != len(lattice):
                raise RuntimeError(f"{label}: cached lattice has {len(cached)} subgroups")
        realized = []
        for sub in lattice.subgroups:
            with tracer.span("perm.as_group"):
                realized.append(sub.as_group())
        fps = []
        for standalone in realized:
            with tracer.span("invariants.fingerprint"):
                fps.append(fingerprint(standalone))
        with tracer.span("groupiso.classify"):
            classes = classify(group, lattice)
        # the pairwise tests classify makes: each subgroup against the
        # class representatives found so far in its fingerprint bucket
        buckets: dict = {}
        for idx, fp in enumerate(fps):
            buckets.setdefault(fp, []).append(idx)
        for fp, members in buckets.items():
            reps: list[int] = []
            for idx in members:
                for rep in reps:
                    with tracer.span("groupiso.pair_iso"):
                        iso = find_isomorphism(realized[rep], realized[idx], fg=fp, fh=fp)
                    if iso is not None:
                        counts["groupiso.pairs_isomorphic"] += 1
                        break
                else:
                    reps.append(idx)
        with tracer.span("classposet.build"):
            iso_poset = build_iso_poset(group, lattice=lattice, recognize=recognize)
        poset = iso_poset.to_poset()
        with tracer.span("poset.canonical_hash"):
            canonical_hash(poset)
    counts["subgroups.subgroups_total"] += len(lattice)
    counts["groupiso.classes_total"] += len(classes)
    counts["classposet.nodes_total"] += len(iso_poset)
    counts["classposet.hasse_edges_total"] += len(iso_poset.hasse)
    pins[label] = [len(lattice), len(classes)]
    return group, lattice, poset


def _catalog_builders(order: int):
    return [(spec.name, spec.build) for spec in catalog_for_order(order).specs]


def replay_verify(tracer: Tracer, counts: dict, pins: dict, suites: list[str]) -> None:
    """Layers of the groups the claim registry touches, one group at a time."""
    plan = [("Z6", lambda: group_from_name("Z6"), True),
            ("Z15", lambda: group_from_name("Z15"), True)]
    if "psl25" in suites:
        plan += [("PSL(2,5)", lambda: psl2(5), True), ("PSL(2,7)", lambda: psl2(7), True)]
        plan += [(name, lambda name=name: group_from_name(name), False)
                 for name in ("S5", "A5xZ2", "SL(2,5)")]
        plan += [(name, build, False) for name, build in _catalog_builders(60)]
    posets = {}
    for label, build, recognize in plan:
        group, lattice, poset = replay_group(tracer, counts, pins, label, build,
                                             recognize=recognize)
        posets[label] = poset
        if label == "PSL(2,5)":
            for sub in lattice.subgroups:  # the A4, D10 and S3 copies
                if sub.order in (6, 10, 12):
                    with tracer.span("subgroups.is_maximal"):
                        is_maximal(group, sub)
        if label in ("S5", "A5xZ2", "SL(2,5)"):
            with tracer.span("subgroups.composition_factors"):
                composition_factors(group)
    with tracer.span("poset.find_iso"):
        if find_poset_isomorphism(posets["Z6"], posets["Z15"]) is None:
            raise RuntimeError("Z6 and Z15 class posets are not isomorphic")
    if "remark" in suites:
        with tracer.span("catalog.build"):
            a5 = group_from_name("A5")
            product = direct_product(a5, a5)
        ident = tuple(range(a5.degree))

        def embed(first, second):
            return product.index_of(
                Permutation(first + tuple(a5.degree + x for x in second)))

        diagonal = [embed(g.images, g.images) for g in a5.generators]
        left_copy = [embed(g.images, ident) for g in a5.generators]
        for seed in (diagonal, left_copy):
            sub = subgroup_generated_by(product, seed)
            with tracer.span("subgroups.is_maximal"):
                is_maximal(product, sub)


def replay_scan(tracer: Tracer, counts: dict, pins: dict, orders: list[int],
                cache_dir: str) -> None:
    for order in sorted(orders):
        for name, build in _catalog_builders(order):
            replay_group(tracer, counts, pins, name, build, recognize=False,
                         cache_dir=cache_dir)


# ---------------------------------------------------------------- main

COUNTERS = ("subgroups.subgroups_total", "groupiso.classes_total",
            "groupiso.pairs_isomorphic", "classposet.nodes_total",
            "classposet.hasse_edges_total")


def main() -> None:
    job = json.load(sys.stdin)
    workload, mode = job["workload"], job["mode"]
    if workload == "poset-canon":
        job["posets"] = [
            (item, Poset(item["n"], tuple(map(tuple, item["hasse"]))),
             Poset(item["n"], tuple(map(tuple, item["copy"]))))
            for item in job["items"]
        ]
    out: dict = {"ready": time.monotonic()}
    if mode == "setup":
        report = scan(sorted(job["orders"]), cache_dir=job["cache_dir"])
        out["done"] = time.monotonic()
        out["summary"] = scan_summary(report)
        print(json.dumps(out))
        return

    tracer = Tracer(mode == "traced")
    run = {"verify-all-cold": verify_pass, "scan-warm-cache": scan_pass,
           "poset-canon": poset_pass}[workload]
    start = time.perf_counter()
    items, outputs = run(job, tracer)
    out["pass_s"] = time.perf_counter() - start
    out["items"] = items
    out["outputs"] = outputs
    if mode == "traced":
        counts = dict.fromkeys(COUNTERS, 0)
        pins: dict = {}
        replay_start = time.perf_counter()
        if workload == "verify-all-cold":
            replay_verify(tracer, counts, pins, job["suites"])
        elif workload == "scan-warm-cache":
            replay_scan(tracer, counts, pins, job["orders"], job["cache_dir"])
        out["replay_s"] = time.perf_counter() - replay_start
        out["counts"] = counts
        out["pins"] = pins
        out["spans"] = tracer.spans
    out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main()
