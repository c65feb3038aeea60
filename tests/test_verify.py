import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from isoposet import (
    Limits,
    build_iso_poset,
    catalog_for_order,
    classposet,
    composition_factors,
    cyclic,
    group_from_name,
    is_simple,
    normal_subgroups,
    perm,
    psl2,
    subgroups,
    verify,
)
from isoposet.cli import main
from isoposet.export import poset_dict, poset_dot, report_dict, to_json
from isoposet.verify import (
    REGISTRY,
    SKIPPED,
    VERIFIED,
    scan,
    verify_all,
    verify_lemma,
    verify_psl25,
    verify_psl27,
    verify_remark,
)


def test_verify_psl25_all_verified(cache_dir):
    claims = verify_psl25(cache_dir=cache_dir)
    assert [c.status for c in claims] == [VERIFIED] * 6
    by_id = {c.claim_id: c for c in claims}
    summary = by_id["psl25.maximal-classes"].evidence["classes"]
    assert [(c["order"], c["copies"]) for c in summary] == [(6, 10), (10, 6), (12, 5)]
    assert by_id["psl25.no-order-15"].evidence == {"order": 15, "present": False}
    assert by_id["psl25.catalog-60-unique"].evidence["poset_matches"] == ["A5"]
    assert by_id["psl25.catalog-60-unique"].evidence["catalog_complete"] is False


def test_copies_maximal_realizes_one_subgroup_per_class(cache_dir, call_counter):
    # 21 copies of A4, D10 and S3 in three isomorphism classes
    calls = call_counter(verify, "find_isomorphism")
    by_id = {c.claim_id: c for c in verify_psl25(cache_dir=cache_dir)}
    assert by_id["psl25.copies-maximal"].evidence == {
        "copies_checked": {"12": 5, "10": 6, "6": 10}
    }
    assert calls["find_isomorphism"] == 3


def test_labels_and_claims_agree_across_threads():
    # the recognition memo starts empty, so four threads race to fill it;
    # every label and claim status must match a run made alone
    def run(_=None):
        labels = [node.label for node in build_iso_poset(psl2(7)).nodes]
        return labels, [(c.claim_id, c.status) for c in verify_psl25()]

    serial = run()
    classposet._candidate.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so more interleavings are tried
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, range(4), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * 4


def test_verify_psl27_statuses(cache_dir):
    claims = verify_psl27(cache_dir=cache_dir)
    by_id = {c.claim_id: c for c in claims}
    for claim_id, claim in by_id.items():
        expected = SKIPPED if claim_id == "psl27.hall-order-gap" else VERIFIED
        assert claim.status == expected, claim_id
    gap = by_id["psl27.hall-order-gap"]
    assert gap.evidence == {"order_21_subgroup": True, "order_56_subgroup": False}
    assert gap.reason
    summary = by_id["psl27.maximal-classes"].evidence["classes"]
    assert [(c["order"], c["copies"]) for c in summary] == [(21, 8), (24, 14)]
    assert by_id["psl27.no-maximal-order-15"].evidence["SL(2,5)"]["has_order_15_subgroup"] is False


def test_verify_psl27_enumerates_each_group_once(monkeypatch, call_counter):
    # with no cache dir, the trio's lattices are enumerated for the
    # no-maximal-order-15 claim alone; composition factors read none
    monkeypatch.delenv("ISOPOSET_CACHE_DIR", raising=False)
    calls = call_counter(subgroups, "_enumerate_subgroups", key=lambda group: group.name)
    verify_psl27()
    for name in ("S5", "A5xZ2", "SL(2,5)"):
        assert calls[name] == 1, (name, calls)


def test_normal_structure_enumerates_no_lattice(monkeypatch, sl25, call_counter):
    # normal subgroups come from conjugacy classes; only the claims that
    # read a lattice enumerate one
    monkeypatch.delenv("ISOPOSET_CACHE_DIR", raising=False)
    calls = call_counter(subgroups, "_enumerate_subgroups", key=lambda group: group.name)
    composition_factors(sl25)
    is_simple(sl25)
    normal_subgroups(sl25)
    assert sum(calls.values()) == 0
    verify_all()
    assert sum(calls.values()) == 18, calls


def test_verify_all_realizes_few_subgroups(cache_dir, call_counter):
    # classification, recognition, composition factors and the PSL claims
    # read subgroups in their parents; only the remark rebuilds its two
    # copies of A5 in A5xA5, which has no table to read them in
    calls = call_counter(subgroups.Subgroup, "as_group")
    verify_all(cache_dir=cache_dir)
    assert calls["as_group"] == 2


def test_composition_factors_realize_no_subgroup(call_counter):
    calls = call_counter(subgroups.Subgroup, "as_group")
    for name in ("S5", "A5xZ2", "SL(2,5)"):
        assert sorted(fp.order for fp in composition_factors(group_from_name(name))) == [2, 60]
    assert calls["as_group"] == 0


def test_lemma_and_poset_iso_recognize_no_class(cache_dir, call_counter, capsys):
    # no lemma evidence and no poset-iso output holds a class label, so
    # neither searches the catalog for one
    calls = call_counter(classposet, "find_isomorphism")
    claims = verify_lemma(group_from_name("S4"), group_from_name("Z24"), cache_dir=cache_dir)
    assert [c.status for c in claims] == [SKIPPED] * 4
    assert main(["poset-iso", "S4", "Z24", "--cache-dir", cache_dir]) == 0
    assert "posets not isomorphic" in capsys.readouterr().out
    assert calls["find_isomorphism"] == 0


def test_not_solvable_reads_the_series_it_reports(cache_dir, call_counter):
    # one series on PSL(2,5), whether read through verify or subgroups
    counters = [call_counter(module, "derived_series", key=lambda group: group.name)
                for module in (verify, subgroups)]
    by_id = {c.claim_id: c for c in verify_psl25(cache_dir=cache_dir)}
    assert by_id["psl25.not-solvable"].evidence == {"derived_series_orders": [60]}
    assert sum(calls["PSL(2,5)"] for calls in counters) == 1


def test_scan_realizes_no_subgroup(cache_dir, call_counter):
    # a warm scan of every curated order classifies each lattice in its
    # parent and labels no class by recognition
    orders = [n for n in range(1, 169) if catalog_for_order(n).curated]
    assert len(orders) == 18
    scan(orders, cache_dir=cache_dir)
    calls = call_counter(subgroups.Subgroup, "as_group")
    scan(orders, cache_dir=cache_dir)
    assert calls["as_group"] == 0


def test_verify_remark(cache_dir):
    claims = verify_remark(cache_dir=cache_dir)
    assert [c.status for c in claims] == [VERIFIED] * 3
    by_id = {c.claim_id: c for c in claims}
    assert by_id["remark.copy-not-maximal"].evidence["intermediate_order"] == 120
    assert by_id["remark.copy-not-maximal"].evidence["strictly_between"] is True
    assert by_id["remark.diagonal-maximal"].evidence["index"] == 60


def test_verify_lemma_z6_z15(cache_dir):
    claims = verify_lemma(group_from_name("Z6"), group_from_name("Z15"),
                          cache_dir=cache_dir)
    assert [c.status for c in claims] == [VERIFIED] * 4
    by_id = {c.claim_id: c for c in claims}
    assert by_id["lemma.hypothesis"].evidence["node_counts"] == [4, 4]
    pairs = by_id["lemma.order-shapes"].evidence["shape_pairs"]
    assert all(a == b for a, b in pairs)


def test_verify_lemma_nonisomorphic_pair(cache_dir):
    claims = verify_lemma(group_from_name("Z4"), group_from_name("Z6"),
                          cache_dir=cache_dir)
    assert [c.status for c in claims] == [SKIPPED] * 4
    assert "not isomorphic" in claims[0].reason
    digests = claims[0].evidence["digests"]
    assert digests[0] != digests[1]


def test_verify_lemma_z4_v4(cache_dir):
    # both class posets are 3-chains (the three Z2's of V4 form one class),
    # so the hypothesis holds and every consequence check runs
    claims = verify_lemma(group_from_name("Z4"), group_from_name("V4"),
                          cache_dir=cache_dir)
    assert [c.status for c in claims] == [VERIFIED] * 4


def test_verify_lemma_psl25_a5(cache_dir, psl25, a5):
    claims = verify_lemma(psl25, a5, cache_dir=cache_dir)
    assert [c.status for c in claims] == [VERIFIED] * 4


def test_verify_claims_skip_on_resource_errors():
    claims = verify_psl25(limits=Limits(enum_cap=30, iso_cap=30))
    by_id = {c.claim_id: c for c in claims}
    assert by_id["psl25.order-shape"].status == VERIFIED  # no lattice needed
    assert by_id["psl25.no-order-15"].status == VERIFIED  # element-order shortcut
    for needs_lattice in ("psl25.maximal-classes", "psl25.copies-maximal",
                          "psl25.catalog-60-unique"):
        assert by_id[needs_lattice].status == SKIPPED
        assert "cap" in by_id[needs_lattice].reason
    assert not any(c.status == "refuted" for c in claims)


def test_verify_all_skips_claims_whose_groups_pass_the_element_cap(cache_dir):
    # PSL(2,7) (168), S5 (120) and A5xA5 (3600) pass the cap, and each claim
    # that needs one of them is skipped; PSL(2,5), its catalog and Z6/Z15 do not
    def outcome(claim):
        return {key: value for key, value in claim.as_dict().items() if key != "wall_time_s"}

    capped = verify_all(limits=Limits(element_cap=100), cache_dir=cache_dir)
    default = verify_all(cache_dir=cache_dir)
    assert [c.claim_id for c in capped] == list(REGISTRY)
    for claim, reference in zip(capped, default):
        if claim.claim_id.startswith(("psl27.", "remark.")):
            assert claim.status == SKIPPED and claim.evidence == {}
            assert claim.reason.endswith("has more than 100 elements (element cap 100)")
        else:
            assert outcome(claim) == outcome(reference)


def test_composition_factors_read_no_lattice():
    # normal structure is cap-free: the claim holds under an enumeration
    # cap below every group it reads
    by_id = {c.claim_id: c for c in verify_psl27(limits=Limits(enum_cap=30, iso_cap=30))}
    claim = by_id["psl27.composition-factors"]
    assert claim.status == VERIFIED and claim.reason is None
    assert claim.evidence == {
        "S5": {"factor_orders": [2, 60]},
        "A5xZ2": {"factor_orders": [2, 60]},
        "SL(2,5)": {"factor_orders": [2, 60]},
        "PSL(2,7)": {"simple": True},
    }


def test_a_group_past_the_element_cap_is_walked_once(call_counter):
    # the run keeps the cap error of PSL(2,7) and hands it to each claim
    walks = call_counter(perm, "closure_walk", key=lambda *args, **kwargs: kwargs["subject"])
    claims = verify_psl27(limits=Limits(element_cap=100))
    assert walks["PSL(2,7)"] == 1
    assert [c.status for c in claims] == [SKIPPED] * 6
    trio = ("psl27.no-maximal-order-15", "psl27.composition-factors")
    for claim in claims:
        name = "S5" if claim.claim_id in trio else "PSL(2,7)"
        assert claim.reason == f"{name} has more than 100 elements (element cap 100)"


def test_verify_all_is_the_four_suites_in_order(cache_dir):
    def outcomes(claims):
        return [{key: value for key, value in claim.as_dict().items() if key != "wall_time_s"}
                for claim in claims]

    suites = (verify_psl25(cache_dir=cache_dir) + verify_psl27(cache_dir=cache_dir)
              + verify_remark(cache_dir=cache_dir)
              + verify_lemma("Z6", "Z15", cache_dir=cache_dir))
    assert outcomes(suites) == outcomes(verify_all(cache_dir=cache_dir))


def test_verify_all_covers_registry_once(cache_dir):
    claims = verify_all(cache_dir=cache_dir)
    assert [c.claim_id for c in claims] == list(REGISTRY)
    assert all(c.statement == REGISTRY[c.claim_id] for c in claims)
    assert not any(c.status == "refuted" for c in claims)


def test_scan_z6_z15(cache_dir):
    report = scan([6, 15], cache_dir=cache_dir)
    assert {e.name for e in report.entries} == {"Z6", "S3", "Z15"}
    assert len(report.collisions) == 1
    pairs = {tuple(p["groups"]): p for p in report.collisions[0]["pairs"]}
    z6_z15 = pairs[("Z6", "Z15")]
    assert z6_z15["order_shapes_match"] is True
    assert z6_z15["isomorphic"] is False


def test_scan_trivial_order(cache_dir):
    report = scan([1], cache_dir=cache_dir)
    assert len(report.entries) == 1
    assert report.collisions == ()


def test_scan_uncurated_order(cache_dir):
    report = scan([37], cache_dir=cache_dir)
    assert report.entries[0].error == "order not curated"


def test_scan_order_60_collision_structure(cache_dir):
    report = scan([60], cache_dir=cache_dir)
    assert all(e.error is None for e in report.entries)
    classes = sorted(sorted(c["groups"]) for c in report.collisions)
    assert classes == [
        ["D10xZ6", "S3xZ10"],
        ["Dic15", "F20xZ3", "Z15:Z4", "Z30xZ2", "Z60"],
    ]
    # A5 stays outside every collision class
    collided = {name for c in report.collisions for name in c["groups"]}
    assert "A5" not in collided
    for collision in report.collisions:
        for pair in collision["pairs"]:
            assert pair["isomorphic"] is False


def test_scan_order_120_no_collisions(cache_dir):
    report = scan([120], cache_dir=cache_dir)
    assert {e.name for e in report.entries} == {"S5", "A5xZ2", "SL(2,5)", "Z120"}
    assert all(e.error is None for e in report.entries)
    assert report.collisions == ()


def _strip_times(claims):
    return [dataclasses.replace(c, wall_time_s=0.0) for c in claims]


def test_report_json_deterministic(cache_dir):
    runs = []
    for _ in range(2):
        claims = verify_lemma(group_from_name("Z6"), group_from_name("Z15"),
                              cache_dir=cache_dir)
        runs.append(to_json(report_dict(claims=_strip_times(claims))))
    assert runs[0] == runs[1]


def test_scan_json_deterministic(cache_dir):
    first = to_json(report_dict(scan=dataclasses.asdict(scan([6, 15], cache_dir=cache_dir))))
    second = to_json(report_dict(scan=dataclasses.asdict(scan([6, 15], cache_dir=cache_dir))))
    assert first == second


def test_report_schema_keys():
    group = cyclic(6)
    iso = build_iso_poset(group)
    payload = report_dict(group=group, iso=iso, digest="x")
    assert set(payload) == {"group", "poset", "digest", "digest_version", "claims"}
    assert payload["digest_version"] == 2
    assert payload["group"] == {"name": "Z6", "order": 6, "degree": 6}
    node_keys = {"id", "label", "order", "shape", "class_size", "all_maximal"}
    assert all(set(node) == node_keys for node in payload["poset"]["nodes"])
    assert all(len(edge) == 2 for edge in payload["poset"]["hasse_edges"])


def test_poset_dict_matches_poset():
    iso = build_iso_poset(cyclic(6))
    payload = poset_dict(iso)
    assert [n["order"] for n in payload["nodes"]] == [1, 2, 3, 6]
    assert payload["hasse_edges"] == [[0, 1], [0, 2], [1, 3], [2, 3]]


def test_dot_output():
    dot = poset_dot(build_iso_poset(cyclic(6)))
    assert dot.startswith("digraph")
    assert "rankdir=BT" in dot
    assert '[label="Z2\\norder=2 size=1"]' in dot
    assert "n0 -> n1;" in dot


def test_cli_group_info(capsys):
    assert main(["group", "A5", "info"]) == 0
    out = capsys.readouterr().out
    assert "order 60" in out


def test_cli_group_info_json(capsys):
    assert main(["group", "Z6", "info", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["group"]["order"] == 6


def test_cli_group_subgroups(capsys):
    assert main(["group", "S4", "subgroups"]) == 0
    out = capsys.readouterr().out
    assert "30 subgroups" in out


def test_cli_group_isoposet_json(capsys):
    assert main(["--format", "json", "group", "A5", "isoposet"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["poset"]["nodes"]) == 9
    assert payload["digest"]


def test_cli_group_isoposet_dot(capsys):
    assert main(["group", "Z6", "isoposet", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_cli_dot_rejected_elsewhere(capsys):
    assert main(["group", "Z6", "info", "--format", "dot"]) == 2


def test_cli_poset_iso(capsys):
    assert main(["poset-iso", "Z6", "Z15"]) == 0
    assert "isomorphic" in capsys.readouterr().out


def test_cli_verify_psl25(capsys, cache_dir):
    assert main(["verify", "psl25", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert out.count("[verified]") == 6


def test_cli_verify_json(capsys, cache_dir):
    assert main(["--format", "json", "verify", "remark", "--cache-dir", cache_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"group", "poset", "digest", "digest_version", "claims"}
    assert [c["status"] for c in payload["claims"]] == ["verified"] * 3


def test_cli_verify_lemma_nonisomorphic_pair(capsys, cache_dir):
    # S4 and Z24 have different class posets: hypothesis skipped, exit 0
    assert main(["verify", "lemma", "S4", "Z24", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert out.count("[skipped]") == 4


def test_cli_verify_lemma_needs_two_groups(capsys):
    assert main(["verify", "lemma", "Z6"]) == 2


@pytest.mark.parametrize("target", ["psl25", "psl27", "remark", "all"])
def test_cli_verify_rejects_group_names_outside_lemma(capsys, target):
    # the names would otherwise be dropped and the run would exit 0
    assert main(["verify", target, "Z6", "Z15"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"verify {target} takes no group names" in captured.err


def test_cli_scan(capsys, cache_dir):
    assert main(["scan", "--orders", "6,15", "--cache-dir", cache_dir]) == 0
    assert "collision" in capsys.readouterr().out


def test_cli_scan_bad_orders(capsys):
    assert main(["scan", "--orders", "sixty"]) == 2


@pytest.mark.parametrize("orders", ["0", "-4", "6,0", "", ",,"])
def test_cli_scan_rejects_orders_below_one(capsys, orders):
    assert main(["scan", "--orders", orders]) == 2
    assert "bad --orders value" in capsys.readouterr().err


def test_scan_repeated_order_scans_once(cache_dir):
    report = scan([5, 6, 5], cache_dir=cache_dir)
    assert report.orders == (5, 6)
    assert [e.name for e in report.entries] == ["Z5", "Z6", "S3"]
    # Z5 once, so it cannot collide with itself; Z6 and S3 still do
    assert [c["groups"] for c in report.collisions] == [["Z6", "S3"]]


def test_cli_unknown_group(capsys):
    assert main(["group", "E8", "info"]) == 2


@pytest.mark.parametrize("name", ["Z2x", "xZ2", "Z2xxZ3", "Z2x "])
def test_cli_product_with_empty_factor(capsys, name):
    assert main(["group", name, "info"]) == 2
    err = capsys.readouterr().err
    assert repr(name) in err and "empty factor" in err


def test_cli_resource_error(capsys):
    assert main(["group", "A5xA5", "subgroups"]) == 2
    assert "resource limit" in capsys.readouterr().err


def _run_cli_child(argv):
    """``isoposet argv`` in a child process with a 1 GiB address-space
    limit and a 10 s timeout, so a name that would hang or exhaust memory
    fails the test instead."""
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import isoposet

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    source_root = str(Path(isoposet.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": source_root}
    return subprocess.run([sys.executable, "-m", "isoposet.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=10,
                          preexec_fn=limit_memory)


@pytest.mark.parametrize("name", [
    "Z100003:Z2",  # order past the cap, so no multiplier is searched for
    "Z30000000",  # its generator alone would take gigabytes
    "A200000",
    "S200000",
    "D30000000",
    "Dic3000000",
    "x".join(["Z2"] * 400),  # a chain whose 14th product passes the cap
], ids=["semidirect", "cyclic", "alternating", "symmetric", "dihedral", "dicyclic", "chain"])
def test_cli_oversized_group_names_exit_2(name):
    proc = _run_cli_child(["group", name, "info"])
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("resource limit:") and "element cap 10000" in proc.stderr


def test_cli_named_group_past_the_degree_cap_exits_2():
    # Z2049 is within the element cap, but its generator acts on 2049 points
    proc = _run_cli_child(["group", "Z2049", "info"])
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("resource limit:") and "degree cap 2048" in proc.stderr


def test_cli_long_product_chain_of_trivial_groups():
    # 400 factors parse and build in loops, not 400 levels of recursion
    proc = _run_cli_child(["group", "x".join(["Z1"] * 400), "info"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.endswith(": order 1, degree 400, 0 generators\n")


def test_cli_caps_flag(capsys):
    assert main(["group", "PSL(2,5)", "subgroups", "--caps", "30,30"]) == 2
    assert main(["group", "Z6", "subgroups", "--caps", "30,30"]) == 0


@pytest.mark.parametrize("argv", [
    ["--caps=-5,-1", "group", "S3", "isoposet"],
    ["--caps", "0,0", "verify", "lemma", "Z6", "Z15"],
    ["verify", "lemma", "Z6", "Z15", "--caps", "1,0"],
    ["group", "Z6", "subgroups", "--caps", "0,30"],
])
def test_cli_caps_rejects_values_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "--caps values start at 1" in err


def test_cli_cache_dir_writes(tmp_path, capsys):
    assert main(["group", "S4", "subgroups", "--cache-dir", str(tmp_path)]) == 0
    assert list(tmp_path.glob("lattice-*.json"))


def test_claim_as_dict_shape(cache_dir):
    claim = verify_remark(cache_dir=cache_dir)[0]
    payload = claim.as_dict()
    assert set(payload) == {"id", "statement", "status", "reason", "evidence", "wall_time_s"}
