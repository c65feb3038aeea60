"""Resource caps shared by the exhaustive algorithms."""

from __future__ import annotations

from dataclasses import dataclass


class ResourceLimitError(RuntimeError):
    """An operation would exceed one of the configured caps."""


@dataclass(frozen=True)
class Limits:
    """Caps guarding the brute-force machinery.

    element_cap   largest group order that closure() will enumerate
    cayley_cap    largest order for which a full multiplication table is kept
    enum_cap      largest order accepted by complete subgroup enumeration
    iso_cap       largest order accepted by the group-isomorphism search
    poset_cap     largest node count accepted by the poset-isomorphism search
    degree_cap    largest permutation degree a named group or product may reach
    """

    element_cap: int = 10_000
    cayley_cap: int = 512
    enum_cap: int = 400
    iso_cap: int = 400
    poset_cap: int = 5_000
    degree_cap: int = 2_048


DEFAULT_LIMITS = Limits()
