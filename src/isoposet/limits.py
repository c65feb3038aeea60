"""Resource caps shared by the exhaustive algorithms."""

from __future__ import annotations

from dataclasses import dataclass


class ResourceLimitError(RuntimeError):
    """An operation would exceed one of the configured caps."""


# what each cap counts, one entry per field of Limits
_UNITS = {"element_cap": "elements", "degree_cap": "points", "enum_cap": "elements",
          "iso_cap": "elements", "poset_cap": "nodes"}


@dataclass(frozen=True)
class Limits:
    """Caps guarding the brute-force machinery: each refuses work past it.

    element_cap   largest group order that closure() will enumerate
    enum_cap      largest order accepted by complete subgroup enumeration
    iso_cap       largest order accepted by the group-isomorphism search
    poset_cap     largest node count accepted by the poset-isomorphism search
    degree_cap    largest permutation degree of any closure, named group or product

    :meth:`check` is the only code that raises a cap error.  Its message
    reads ``"<subject> has more than <cap> <unit> (<cap name> <cap>)"``,
    for example ``"Z11 has more than 10 points (degree cap 10)"``.  Which
    groups build a Cayley table is no cap: ``FiniteGroup.rows`` decides
    it by ``perm.TABLE_ORDER``.
    """

    element_cap: int = 10_000
    enum_cap: int = 400
    iso_cap: int = 400
    poset_cap: int = 5_000
    degree_cap: int = 2_048

    def check(self, subject: str, **sizes: int) -> None:
        """Raise ResourceLimitError for the first of ``sizes``, in the
        order given, that is past its cap: ``element_cap=60`` checks a
        size of 60 against ``element_cap``.  A size may be a lower bound."""
        for name, size in sizes.items():
            cap = getattr(self, name)
            if size > cap:
                raise ResourceLimitError(f"{subject} has more than {cap} {_UNITS[name]} "
                                         f"({name.replace('_', ' ')} {cap})")


DEFAULT_LIMITS = Limits()
