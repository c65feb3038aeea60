"""Command-line interface.

    isoposet group <spec> info|subgroups|isoposet
    isoposet poset-iso <specA> <specB>
    isoposet verify psl25|psl27|remark|all
    isoposet verify lemma <specA> <specB>
    isoposet scan --orders 60,120

Global flags: --format json|dot|text, --cache-dir PATH (or the
ISOPOSET_CACHE_DIR environment variable), --caps ENUM,ISO.
Exit status: 0 on success and when no claim is refuted, 1 when a verify
run refutes a claim, 2 on usage or resource errors.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import asdict, replace

from .catalog import group_from_name
from .classposet import build_iso_poset, maximal_nontop_classes
from .export import poset_dot, report_dict, to_json
from .limits import DEFAULT_LIMITS, Limits, ResourceLimitError
from .poset import canonical_hash, find_poset_isomorphism
from .subgroups import all_subgroups
from .verify import (
    REFUTED,
    SKIPPED,
    scan,
    verify_all,
    verify_lemma,
    verify_psl25,
    verify_psl27,
    verify_remark,
)


def _parse_caps(raw: str) -> Limits:
    try:
        enum_cap, iso_cap = (int(part) for part in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--caps expects 'ENUM,ISO' integers, got {raw!r}"
        ) from None
    if enum_cap < 1 or iso_cap < 1:
        raise argparse.ArgumentTypeError(f"--caps values start at 1, got {raw!r}")
    return replace(DEFAULT_LIMITS, enum_cap=enum_cap, iso_cap=iso_cap)


def _add_common(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    # registered on the main parser and again on every subparser so the
    # flags work in either position; SUPPRESS keeps subparser defaults
    # from clobbering values parsed before the subcommand
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--format", choices=("text", "json", "dot"),
                        default=default("text"))
    parser.add_argument("--cache-dir", default=default(None),
                        help="directory for cached subgroup lattices")
    parser.add_argument("--caps", type=_parse_caps, default=default(DEFAULT_LIMITS),
                        help="enumeration and isomorphism caps as 'ENUM,ISO'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoposet",
        description="Subgroup-class posets of finite groups and the "
        "PSL(2,5)/PSL(2,7) recognition checks.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="inspect one group")
    group.add_argument("spec", help="group name: Zn, Sn, An, Dn (order n), Dicn, "
                       "PSL(2,5), PSL(2,7), SL(2,5), Zn:Zm, a product AxB, or one of "
                       "the aliases 1, V4, Q8, F20, F21")
    group.add_argument("action", choices=("info", "subgroups", "isoposet"))
    _add_common(group, suppress=True)

    pair = sub.add_parser("poset-iso", help="compare two subgroup-class posets")
    pair.add_argument("spec_a")
    pair.add_argument("spec_b")
    _add_common(pair, suppress=True)

    verify = sub.add_parser("verify", help="run the claim registry")
    verify.add_argument("target", choices=("psl25", "psl27", "remark", "lemma", "all"))
    verify.add_argument("groups", nargs="*",
                        help="two group names, for 'lemma' only")
    _add_common(verify, suppress=True)

    scan_cmd = sub.add_parser("scan", help="digest catalog posets by order")
    scan_cmd.add_argument("--orders", required=True,
                          help="comma-separated group orders, e.g. 60,120")
    _add_common(scan_cmd, suppress=True)
    return parser


def _cmd_group(args) -> int:
    group = group_from_name(args.spec, limits=args.caps)
    if args.action == "info":
        if args.format == "json":
            print(to_json(report_dict(group=group)), end="")
        else:
            print(f"{group.name}: order {group.order}, degree {group.degree}, "
                  f"{len(group.generators)} generators")
        return 0
    lattice = all_subgroups(group, limits=args.caps, cache_dir=args.cache_dir)
    if args.action == "subgroups":
        counts = Counter(s.order for s in lattice.subgroups)
        if args.format == "json":
            payload = report_dict(group=group, subgroup_count=len(lattice),
                                  subgroup_orders={str(k): v for k, v in sorted(counts.items())})
            print(to_json(payload), end="")
        else:
            print(f"{group.name}: {len(lattice)} subgroups")
            for order in sorted(counts):
                print(f"  order {order}: {counts[order]}")
        return 0
    iso = build_iso_poset(group, lattice=lattice, limits=args.caps)
    digest = canonical_hash(iso.to_poset(), limits=args.caps)
    if args.format == "dot":
        print(poset_dot(iso), end="")
    elif args.format == "json":
        print(to_json(report_dict(group=group, iso=iso, digest=digest)), end="")
    else:
        print(f"{group.name}: {len(iso)} classes, digest {digest[:16]}")
        for node in iso.nodes:
            mark = "*" if node.all_members_maximal else " "
            print(f"  [{node.node_id:>2}]{mark} {node.label:<12} order {node.order:>4} "
                  f"copies {node.class_size}")
        tops = ", ".join(n.label for n in maximal_nontop_classes(iso))
        print(f"  maximal non-top classes: {tops}")
    return 0


def _cmd_poset_iso(args) -> int:
    group_a = group_from_name(args.spec_a, limits=args.caps)
    group_b = group_from_name(args.spec_b, limits=args.caps)
    poset_a, poset_b = [
        build_iso_poset(group, lattice=all_subgroups(group, limits=args.caps,
                                                     cache_dir=args.cache_dir),
                        limits=args.caps, recognize=False)
        for group in (group_a, group_b)]
    witness = find_poset_isomorphism(poset_a.to_poset(), poset_b.to_poset(),
                                     limits=args.caps)
    digests = [canonical_hash(poset_a.to_poset(), limits=args.caps),
               canonical_hash(poset_b.to_poset(), limits=args.caps)]
    if args.format == "json":
        payload = report_dict(
            poset_iso={
                "groups": [group_a.name, group_b.name],
                "isomorphic": witness is not None,
                "witness": list(witness) if witness else None,
                "digests": digests,
            }
        )
        print(to_json(payload), end="")
    else:
        verdict = "isomorphic" if witness is not None else "not isomorphic"
        print(f"{group_a.name} vs {group_b.name}: posets {verdict}")
        if witness is not None:
            print(f"  witness: {list(witness)}")
        print(f"  digests: {digests[0][:16]} / {digests[1][:16]}")
    return 0


def _cmd_verify(args) -> int:
    if args.target == "lemma":
        if len(args.groups) != 2:
            print("verify lemma needs exactly two group names", file=sys.stderr)
            return 2
        claims = verify_lemma(*args.groups, limits=args.caps, cache_dir=args.cache_dir)
    else:
        if args.groups:
            print(f"verify {args.target} takes no group names", file=sys.stderr)
            return 2
        runner = {
            "psl25": verify_psl25,
            "psl27": verify_psl27,
            "remark": verify_remark,
            "all": verify_all,
        }[args.target]
        claims = runner(limits=args.caps, cache_dir=args.cache_dir)
    if args.format == "json":
        print(to_json(report_dict(claims=claims)), end="")
    else:
        for claim in claims:
            line = f"[{claim.status}] {claim.claim_id}: {claim.statement}"
            if claim.reason:
                line += f" -- {claim.reason}"
            print(line)
        refuted = sum(1 for c in claims if c.status == REFUTED)
        skipped = sum(1 for c in claims if c.status == SKIPPED)
        print(f"{len(claims)} claims: {len(claims) - refuted - skipped} verified, "
              f"{skipped} skipped, {refuted} refuted")
    return 1 if any(c.status == REFUTED for c in claims) else 0


def _cmd_scan(args) -> int:
    try:
        orders = [int(part) for part in args.orders.split(",") if part]
        if not orders or any(order < 1 for order in orders):
            raise ValueError("no group order, or one below 1")
    except ValueError:
        print(f"bad --orders value {args.orders!r}", file=sys.stderr)
        return 2
    report = scan(orders, limits=args.caps, cache_dir=args.cache_dir)
    if args.format == "json":
        print(to_json(report_dict(scan=asdict(report))), end="")
    else:
        for entry in report.entries:
            if entry.error:
                print(f"  {entry.name} (order {entry.order}): {entry.error}")
            else:
                print(f"  {entry.name} (order {entry.order}): "
                      f"{entry.nodes} classes, digest {entry.digest[:16]}")
        if not report.collisions:
            print("no digest collisions")
        for collision in report.collisions:
            print(f"collision {collision['digest'][:16]}: "
                  f"{', '.join(collision['groups'])}")
            for pair in collision["pairs"]:
                print(f"    {pair['groups'][0]} / {pair['groups'][1]}: "
                      f"shapes match={pair['order_shapes_match']}, "
                      f"isomorphic={pair['isomorphic']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format == "dot" and not (args.command == "group" and args.action == "isoposet"):
        print("--format dot only applies to 'group <spec> isoposet'", file=sys.stderr)
        return 2
    try:
        if args.command == "group":
            return _cmd_group(args)
        if args.command == "poset-iso":
            return _cmd_poset_iso(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_scan(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
