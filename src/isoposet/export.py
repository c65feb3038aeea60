"""JSON and DOT serialization of groups, class posets and claim runs.

The JSON schema is stable: {group, poset, digest, digest_version, claims},
where ``digest_version`` names the canonical form that digests hash (2 since
the form is read off individualization-refinement); commands that need more
attach extra top-level keys without touching these five.
"""

from __future__ import annotations

import json

from .classposet import IsoPoset
from .perm import FiniteGroup
from .poset import DIGEST_VERSION
from .verify import ClaimResult


def group_dict(group: FiniteGroup) -> dict:
    return {"name": group.name, "order": group.order, "degree": group.degree}


def poset_dict(iso: IsoPoset) -> dict:
    nodes = [
        {
            "id": node.node_id,
            "label": node.label,
            "order": node.order,
            "shape": list(node.shape),
            "class_size": node.class_size,
            "all_maximal": node.all_members_maximal,
        }
        for node in iso.nodes
    ]
    return {"nodes": nodes, "hasse_edges": [list(edge) for edge in iso.hasse]}


def report_dict(
    group: FiniteGroup | None = None,
    iso: IsoPoset | None = None,
    digest: str | None = None,
    claims: list[ClaimResult] | None = None,
    **extra,
) -> dict:
    payload = {
        "group": group_dict(group) if group is not None else None,
        "poset": poset_dict(iso) if iso is not None else None,
        "digest": digest,
        "digest_version": DIGEST_VERSION,
        "claims": [c.as_dict() for c in (claims or [])],
    }
    payload.update(extra)
    return payload


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def poset_dot(iso: IsoPoset) -> str:
    """Hasse diagram in DOT, edges drawn upward."""
    lines = ["digraph classposet {", "  rankdir=BT;"]
    for node in iso.nodes:
        label = f"{node.label}\\norder={node.order} size={node.class_size}"
        label = label.replace('"', '\\"')
        lines.append(f'  n{node.node_id} [label="{label}"];')
    for lo, hi in iso.hasse:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
