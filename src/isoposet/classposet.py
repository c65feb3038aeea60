"""The poset of isomorphism classes of subgroups of a finite group.

Nodes are isomorphism classes of subgroups; one class sits below another
exactly when SOME member of the first is contained in SOME member of the
second, evaluated over the complete subgroup lattice.  Checking containment
only between class representatives would be wrong: representatives need not
nest even when the relation holds.

Recognition is lazy: a class that is not cyclic is compared with the
catalog groups of its order in catalog order, cyclic specs skipped, up
to the first that is isomorphic to it.  Each candidate is built when a
class first reaches it, and kept once per spec and limits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache

from .catalog import GroupSpec, catalog_for_order
from .groupiso import classify_with_data, find_isomorphism
from .invariants import Fingerprint, fingerprint
from .limits import DEFAULT_LIMITS, Limits
from .perm import FiniteGroup
from .poset import Poset
from .subgroups import Subgroup, SubgroupLattice, all_subgroups, order_shape


@dataclass(frozen=True)
class IsoClassNode:
    """One isomorphism class of subgroups."""

    node_id: int
    members: tuple[int, ...]
    rep: Subgroup
    class_size: int
    order: int
    shape: tuple[int, ...]
    fp: Fingerprint
    all_members_maximal: bool
    label: str


@dataclass(frozen=True, eq=False)
class IsoPoset:
    """Poset of subgroup isomorphism classes: the order plus per-class data."""

    parent: FiniteGroup
    nodes: tuple[IsoClassNode, ...]
    poset: Poset
    top: int
    bottom: int

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def hasse(self) -> tuple[tuple[int, int], ...]:
        return self.poset.hasse

    def leq(self, i: int, j: int) -> bool:
        return self.poset.leq(i, j)

    def to_poset(self) -> Poset:
        return self.poset

    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(node.shape for node in self.nodes)


@lru_cache(maxsize=None)
def _candidate(spec: GroupSpec, limits: Limits) -> tuple[FiniteGroup, Fingerprint]:
    group = spec.build(limits=limits)
    return group, fingerprint(group)


def _label_for(fp: Fingerprint, rep: Subgroup, node_id: int, *,
               recognize: bool, limits: Limits) -> str:
    if fp.order == 1:
        return "1"
    if recognize and dict(fp.order_histogram).get(fp.order):  # an element of full order: cyclic
        return f"Z{fp.order}"
    if recognize and fp.order <= limits.iso_cap:
        for spec in catalog_for_order(fp.order).specs:
            if spec.kind == "cyclic":  # the class is not cyclic, so no cyclic spec matches
                continue
            group, cfp = _candidate(spec, limits)
            if cfp == fp and find_isomorphism(group, rep, limits=limits, fg=cfp, fh=fp):
                return spec.name
    return f"G{fp.order}.{node_id}"


def build_iso_poset(
    group: FiniteGroup,
    *,
    lattice: SubgroupLattice | None = None,
    limits: Limits = DEFAULT_LIMITS,
    cache_dir: str | os.PathLike | None = None,
    recognize: bool = True,
) -> IsoPoset:
    """Construct the subgroup-class poset of a group.

    The class of the whole group is labelled with the group's name when it
    has one.  With ``recognize``, the other classes are named where they
    are recognized (Zn, or a catalog group of their order) and are
    ``G<order>.<id>`` otherwise.
    """
    if lattice is None:
        lattice = all_subgroups(group, limits=limits, cache_dir=cache_dir)
    classes = classify_with_data(group, lattice, limits=limits)
    k = len(classes)

    class_bits = []
    union_supersets = []  # the subgroups that contain some member of the class
    for members, _, _ in classes:
        bits = over = 0
        for s in members:
            bits |= 1 << s
            over |= lattice.supersets[s]
        class_bits.append(bits)
        union_supersets.append(over)

    nodes = []
    for node_id, (members, fp, rep_idx) in enumerate(classes):
        rep = lattice.subgroups[rep_idx]
        all_max = all(lattice.maximal_flags[s] for s in members)
        if group.name and fp.order == group.order:
            label = group.name
        else:
            label = _label_for(fp, rep, node_id, recognize=recognize, limits=limits)
        nodes.append(
            IsoClassNode(
                node_id=node_id,
                members=members,
                rep=rep,
                class_size=len(members),
                order=fp.order,
                shape=order_shape(fp.order),
                fp=fp,
                all_members_maximal=all_max,
                label=label,
            )
        )

    top = k - 1
    bottom = 0
    if nodes[top].order != group.order or nodes[bottom].order != 1:
        raise RuntimeError("class poset lost its top or bottom node")
    poset = Poset.from_relation(
        k, [(i, j) for j in range(k) for i in range(k) if union_supersets[i] & class_bits[j]]
    )
    if not all(poset.leq(bottom, j) and poset.leq(j, top) for j in range(k)):
        raise RuntimeError("class poset order relation is inconsistent")
    return IsoPoset(parent=group, nodes=tuple(nodes), poset=poset, top=top, bottom=bottom)


def downset(iso: IsoPoset, node_id: int) -> IsoPoset:
    """The induced poset on every class below (and including) a node."""
    if not 0 <= node_id < len(iso.nodes):
        raise ValueError(f"no class with id {node_id}")
    keep = [i for i in range(len(iso.nodes)) if iso.leq(i, node_id)]
    remap = {old: new for new, old in enumerate(keep)}
    nodes = tuple(
        replace(iso.nodes[old], node_id=new) for new, old in enumerate(keep)
    )
    # covers of a downset are the covers of the ambient poset within it
    hasse = tuple(
        sorted((remap[a], remap[b]) for a, b in iso.hasse if a in remap and b in remap)
    )
    return IsoPoset(
        parent=iso.parent,
        nodes=nodes,
        poset=Poset(len(keep), hasse),
        top=remap[node_id],
        bottom=0,
    )


def maximal_nontop_classes(iso: IsoPoset) -> list[IsoClassNode]:
    """Classes whose only upper cover is the top class."""
    return [
        iso.nodes[i]
        for i in range(len(iso.nodes))
        if i != iso.top and iso.poset.up[i] == (iso.top,)
    ]
