"""End-to-end and per-layer benchmark of isoposet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/isoposet`` must exist).
Every sample is a fresh child interpreter (perfbench/child.py) started one
after another: one closed-loop client, no threads.  The child imports
isoposet from ``src`` with a fixed PYTHONHASHSEED, gets only the inputs made
here from ``--seed``, runs one pass and sends back timings and output
summaries, which are checked here.  Samples are taken until ``--seconds``
have passed; timings are medians over them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced passes with traced ones (spans around each public call, then a
layer-by-layer replay) and reports the per-layer metrics.  A human-readable
report goes to stdout first; the last stdout line is one JSON object.  A
full record, and the spans of a traced run, are written under perfbench/out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import self_times
from workloads import (
    SCAN_ENTRIES,
    WHY,
    check_poset_item,
    check_poset_oracle,
    check_replay_pins,
    check_scan,
    check_verify,
    make_inputs,
    shuffled_orders,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HASH_SEED = "0"  # identical for every commit measured
SETUP_REPEATS = 3  # scan-warm-cache set-ups per run; others set up once per sample
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "subgroups.enumerate_s": "s",
    "subgroups.subgroups_total": "count",
    "subgroups.is_maximal_s": "s",
    "subgroups.composition_factors_s": "s",
    "subgroups.cache_load_s": "s",
    "subgroups.cache_bytes_written": "bytes",
    "catalog.build_s": "s",
    "catalog.groups_built": "count",
    "perm.as_group_s": "s",
    "perm.as_group_calls": "count",
    "invariants.fingerprint_s": "s",
    "invariants.fingerprint_calls": "count",
    "groupiso.classify_s": "s",
    "groupiso.self_s": "s",
    "groupiso.classes_total": "count",
    "groupiso.pair_iso_s": "s",
    "groupiso.pair_iso_calls": "count",
    "groupiso.pairs_isomorphic_ratio": "ratio",
    "classposet.build_s": "s",
    "classposet.self_s": "s",
    "classposet.nodes_total": "count",
    "classposet.hasse_edges_total": "count",
    "poset.canonical_hash_s": "s",
    "poset.canonical_hash_calls": "count",
    "poset.max_item_s": "s",
    "poset.find_iso_s": "s",
    "poset.find_iso_calls": "count",
    "verify.psl25_s": "s",
    "verify.psl27_s": "s",
    "verify.remark_s": "s",
    "verify.lemma_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Run:
    """Samples, failures and output checks of one benchmark run."""

    def __init__(self, workload: str, seed: int, tiny: bool, deadline: float) -> None:
        self.workload = workload
        self.job = {"workload": workload, **make_inputs(workload, seed, tiny)}
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("ISOPOSET_CACHE_DIR", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = HASH_SEED
        # every set-up compiles isoposet from source, whatever the caller's setting
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.samples: dict[str, list[dict]] = {"pass": [], "traced": []}
        self.durations: dict[str, list[float]] = {"pass": [], "traced": []}
        self.setup_s: list[float] = []
        self.cache_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.work = OUT / f"work-{os.getpid()}"
        self.digests: list[str] | None = None

    @property
    def requests_per_pass(self) -> int:
        if self.workload == "scan-warm-cache":
            return len(self.job["orders"])
        if self.workload == "poset-canon":
            return len(self.job["items"])
        return 1

    def setup_samples(self) -> list[float]:
        """Set-up times: the cache set-ups, or else the start-up of each pass child."""
        return self.setup_s or [s["ready"] - s["spawned"] for s in self.samples["pass"]]

    def spawn(self, job: dict) -> dict | None:
        """Run one child to completion; None (and a problem noted) if it failed."""
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py")], input=json.dumps(job),
                capture_output=True, text=True, env=self.env, cwd=ROOT,
                timeout=max(1.0, self.deadline - spawned),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{job['mode']} child timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.problems.append(f"{job['mode']} child exited {proc.returncode}: {tail[0]}")
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["spawned"] = spawned
        return out

    def set_up_cache(self) -> None:
        """Cold scans into fresh cache dirs; the last one serves the timed passes."""
        expected = sum(SCAN_ENTRIES[o] for o in self.job["orders"])
        for k in range(SETUP_REPEATS):
            cache = self.work / f"cache{k}"
            out = self.spawn({**self.job, "mode": "setup", "cache_dir": str(cache)})
            if out is None:
                raise SystemExit(f"set-up failed: {self.problems[-1]}")
            self.setup_s.append(out["done"] - out["spawned"])
            files = sorted(cache.glob("*.json"))
            self.cache_bytes = sum(f.stat().st_size for f in files)
            summary = out["summary"]
            if len(files) != expected or summary["entries"] != expected or summary["errors"]:
                self.problems.append(
                    f"set-up wrote {len(files)} lattice files for {summary['entries']} "
                    f"entries, expected {expected}; errors {summary['errors']}")
            if k + 1 < SETUP_REPEATS:
                shutil.rmtree(cache)
        self.job["cache_dir"] = str(cache)

    def sample(self, mode: str) -> None:
        """One pass in a fresh child, its outputs checked against the pins."""
        self.attempted += self.requests_per_pass
        job = {**self.job, "mode": mode}
        if self.workload == "scan-warm-cache":
            job["orders"] = shuffled_orders(self.rng, self.job["orders"])
        started = time.monotonic()
        out = self.spawn(job)
        self.durations[mode].append(time.monotonic() - started)
        if out is None:
            self.failed += self.requests_per_pass
            return
        bad = [p for p in self.check(job, out) if p is not None]
        self.failed += len(bad)
        self.problems += bad
        if mode == "traced":
            pin_problem = check_replay_pins(out["pins"])
            if pin_problem is not None:
                self.problems.append(f"replay: {pin_problem}")
        self.samples[mode].append(out)

    def check(self, job: dict, out: dict) -> list[str | None]:
        if self.workload == "verify-all-cold":
            return [check_verify(claims, job["suites"]) for claims in out["outputs"]]
        if self.workload == "scan-warm-cache":
            return [check_scan(o, summary) for o, summary in zip(job["orders"], out["outputs"])]
        items = self.job["items"]
        results = [check_poset_item(item, o) for item, o in zip(items, out["outputs"])]
        digests = [o["digest"] for o in out["outputs"]]
        if self.digests is None:
            self.digests = digests
            oracle = check_poset_oracle(items, digests)
            if oracle is not None:
                self.problems.append(f"networkx oracle: {oracle}")
        elif digests != self.digests:
            self.problems.append("digests differ between two passes of the same input")
        return results


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Metric values and the number of samples behind each.

    Request percentiles are taken within each pass, and the median over the
    passes is reported: the machine's speed shifts between passes, and a
    percentile pooled over passes that lands at the edge of a cluster of
    requests (the scan's p90 sits at the fastest order-60 requests) follows
    those shifts.  When a pass is one request they are taken over the passes.
    """
    passes = run.samples["pass"]
    per_pass = [[lat for _, lat in s["items"]] for s in passes]
    latencies = [lat for lats in per_pass for lat in lats]
    if all(len(lats) == 1 for lats in per_pass):
        per_pass = [latencies]
    setup = run.setup_samples()
    values = {
        "wall_s": _median([s["pass_s"] for s in passes]),
        "setup_s": _median(setup),
        "item_p50_ms": 1000 * statistics.median(statistics.median(lats) for lats in per_pass),
        "item_p90_ms": 1000 * statistics.median(_p90(lats) for lats in per_pass),
        "peak_rss_mib": _median([s["rss_kib"] for s in passes]) / 1024,
    }
    counts = {"wall_s": len(passes), "setup_s": len(setup), "item_p50_ms": len(latencies),
              "item_p90_ms": len(latencies), "peak_rss_mib": len(passes)}
    return values, counts


def layer_metrics(sample: dict, cache_bytes: int) -> dict:
    """Per-layer metrics of one traced sample, from its spans and counters."""
    spans = sample["spans"]
    own = self_times(spans)
    calls = Counter(name for _, _, name, _, _ in spans)
    counts = sample["counts"]

    def busy(name: str) -> float:
        return own.get(name, 0.0)

    poset_calls = [end - start for _, _, name, start, end in spans
                   if name in ("poset.canonical_hash", "poset.find_iso")]
    pair_calls = calls["groupiso.pair_iso"]
    return {
        "subgroups.enumerate_s": busy("subgroups.enumerate"),
        "subgroups.subgroups_total": counts.get("subgroups.subgroups_total", 0),
        "subgroups.is_maximal_s": busy("subgroups.is_maximal"),
        "subgroups.composition_factors_s": busy("subgroups.composition_factors"),
        "subgroups.cache_load_s": busy("subgroups.cache_load"),
        "subgroups.cache_bytes_written": cache_bytes,
        "catalog.build_s": busy("catalog.build"),
        "catalog.groups_built": calls["catalog.build"],
        "perm.as_group_s": busy("perm.as_group"),
        "perm.as_group_calls": calls["perm.as_group"],
        "invariants.fingerprint_s": busy("invariants.fingerprint"),
        "invariants.fingerprint_calls": calls["invariants.fingerprint"],
        "groupiso.classify_s": busy("groupiso.classify"),
        # classify re-does the as_group and fingerprint work timed above
        "groupiso.self_s": (busy("groupiso.classify") - busy("perm.as_group")
                            - busy("invariants.fingerprint")),
        "groupiso.classes_total": counts.get("groupiso.classes_total", 0),
        "groupiso.pair_iso_s": busy("groupiso.pair_iso"),
        "groupiso.pair_iso_calls": pair_calls,
        "groupiso.pairs_isomorphic_ratio": (
            counts.get("groupiso.pairs_isomorphic", 0) / pair_calls if pair_calls else 0.0),
        "classposet.build_s": busy("classposet.build"),
        # build_iso_poset classifies the same lattice first
        "classposet.self_s": busy("classposet.build") - busy("groupiso.classify"),
        "classposet.nodes_total": counts.get("classposet.nodes_total", 0),
        "classposet.hasse_edges_total": counts.get("classposet.hasse_edges_total", 0),
        "poset.canonical_hash_s": busy("poset.canonical_hash"),
        "poset.canonical_hash_calls": calls["poset.canonical_hash"],
        "poset.max_item_s": max(poset_calls, default=0.0),
        "poset.find_iso_s": busy("poset.find_iso"),
        "poset.find_iso_calls": calls["poset.find_iso"],
        "verify.psl25_s": busy("verify.psl25"),
        "verify.psl27_s": busy("verify.psl27"),
        "verify.remark_s": busy("verify.remark"),
        "verify.lemma_s": busy("verify.lemma"),
    }


def per_layer(run: Run) -> tuple[dict, dict, dict]:
    """Medians over traced samples, sample counts, and the shares of traced time."""
    traced = run.samples["traced"]
    per_sample = [layer_metrics(s, run.cache_bytes) for s in traced]
    # median_low keeps each value one that was measured, and counts whole
    values = {name: statistics.median_low([m[name] for m in per_sample])
              for name in per_sample[0]}
    traced_wall = _median([s["pass_s"] for s in traced])
    values["trace.overhead_ratio"] = traced_wall / _median(
        [s["pass_s"] for s in run.samples["pass"]])
    counts = {name: len(traced) for name in values}
    counts["trace.overhead_ratio"] = len(traced) + len(run.samples["pass"])
    traced_total = _median([s["pass_s"] + s.get("replay_s", 0.0) for s in traced])
    shares = {"poset.canonical_hash_share_of_traced_time":
              values["poset.canonical_hash_s"] / traced_total}
    return values, counts, shares


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "isoposet").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "PYTHONHASHSEED": HASH_SEED,
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness's own smoke test")
    args = parser.parse_args()
    if not (SRC / "isoposet" / "__init__.py").is_file():
        print(f"run.py: no isoposet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    prov = provenance(args.seed)
    run = Run(args.workload, args.seed, args.tiny, started + RUN_LIMIT_S)
    modes = ["pass", "traced"] if args.trace else ["pass"]
    try:
        if args.workload == "scan-warm-cache":
            run.set_up_cache()
        measure_from = time.monotonic()
        k = 0
        while time.monotonic() < run.deadline - 5:
            mode = modes[k % len(modes)]
            elapsed = time.monotonic() - measure_from
            have_all = all(run.samples[m] for m in modes)
            # start a sample only if it should end within --seconds
            if have_all and elapsed + _median(run.durations[mode]) > args.seconds:
                break
            if elapsed >= args.seconds and k >= 2 * len(modes):
                break
            run.sample(mode)
            k += 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if not all(run.samples[m] for m in modes):
        print("run.py: no pass completed: " + "; ".join(run.problems[-3:]), file=sys.stderr)
        return 1

    if args.trace:
        values, counts, shares = per_layer(run)
        units = PER_LAYER
    else:
        values, counts = end_to_end(run)
        shares = {}
        units = END_TO_END
    fail_ratio = run.failed / run.attempted
    correct = run.failed == 0 and not run.problems
    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "load": "closed loop, 1 client, one fresh interpreter per pass",
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": prov,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": fail_ratio,
        "problems": run.problems,
        "metrics": {name: {"value": values[name], "unit": units[name], "samples": counts[name]}
                    for name in units},
        "shares": shares,
        "raw": {
            "setup_s": run.setup_samples(),
            "pass_s": {m: [s["pass_s"] for s in run.samples[m]] for m in modes},
            "items": {m: [s["items"] for s in run.samples[m]] for m in modes},
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            [{"sample": i, "spans": s["spans"]} for i, s in enumerate(run.samples["traced"])]))

    print(f"workload {args.workload}: {WHY[args.workload]}")
    print(f"  {record['load']}; seed {args.seed}; PYTHONHASHSEED {HASH_SEED}; "
          f"python {prov['python']}; nproc {prov['nproc']}; "
          f"load {prov['loadavg_start'][0]:.2f}")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:14.6f} {unit:6s} (n={counts[name]})")
    print(f"  {'fail_ratio':34s} {fail_ratio:14.6f} {'ratio':6s} "
          f"({run.failed}/{run.attempted} requests)")
    for name, share in shares.items():
        print(f"  {name:34s} {share:14.6f} ratio")
    for problem in run.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
