"""Per-object access-control lists.

Every ESCUDO object may carry an ACL refining the protection already provided
by its ring.  The ACL names, for each of the three operations (``read``,
``write``, ``use``), the *outermost* (least privileged) ring that may perform
the operation.  The paper's example ``<div ring=2 r=1 w=0 x=2>`` therefore
means: the content lives in ring 2, principals in rings 0..1 may read it,
only ring 0 may write it, and rings 0..2 may "use" it.

Missing ACL entries default to ring 0 (only the most privileged ring may
perform the operation), per the fail-safe-defaults guideline.  Note that an
ACL can never *grant* more than the ring rule allows -- the ring rule is
evaluated independently and an over-permissive ACL is simply ineffective.
"""

from __future__ import annotations

from typing import Mapping

from .canonical import Canonical, make
from .decision import Operation
from .errors import ConfigurationError
from .rings import MOST_PRIVILEGED, Ring, RingSet, as_ring

_RING_ZERO = Ring(MOST_PRIVILEGED)

#: The canonical ACL of every ``(read, write, use)`` level triple built so far.
_ACLS: dict[tuple[int, int, int], "Acl"] = {}


class Acl(Canonical):
    """Immutable (read, write, use) permission triple.

    Each field holds the outermost ring allowed to perform that operation.
    ACLs are canonical (:mod:`repro.core.canonical`): building a triple that
    already exists returns the existing instance, so
    ``Acl.uniform(1) is Acl.uniform(1)``.
    """

    __slots__ = ("read", "write", "use")

    read: Ring
    write: Ring
    use: Ring

    def __new__(cls, read: Ring | int = _RING_ZERO, write: Ring | int = _RING_ZERO,
                use: Ring | int = _RING_ZERO) -> "Acl":
        if type(read) is not Ring or type(write) is not Ring or type(use) is not Ring:
            read, write, use = as_ring(read), as_ring(write), as_ring(use)
        key = (read.level, write.level, use.level)
        acl = _ACLS.get(key)
        if acl is None:
            acl = _ACLS[key] = make(cls, {"read": read, "write": write, "use": use})
        return acl

    def __reduce__(self):
        return Acl, (self.read, self.write, self.use)

    def __repr__(self) -> str:
        return f"Acl(read={self.read!r}, write={self.write!r}, use={self.use!r})"

    # -- construction ---------------------------------------------------------

    @classmethod
    def default(cls) -> "Acl":
        """The fail-safe default ACL: ``r=0, w=0, x=0``."""
        return cls()

    @classmethod
    def uniform(cls, ring: Ring | int) -> "Acl":
        """An ACL allowing the same outermost ring for all three operations."""
        r = as_ring(ring)
        return cls(r, r, r)

    @classmethod
    def of(cls, read: Ring | int | None = None, write: Ring | int | None = None,
           use: Ring | int | None = None) -> "Acl":
        """Build an ACL from optional per-operation limits.

        Missing operations default to ring 0 (most restrictive).
        """
        def coerce(value: Ring | int | None) -> Ring:
            if value is None:
                return Ring(MOST_PRIVILEGED)
            return as_ring(value)

        return cls(read=coerce(read), write=coerce(write), use=coerce(use))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object], *, rings: RingSet | None = None) -> "Acl":
        """Build an ACL from a mapping of attribute names to ring labels.

        Accepts both the short AC-tag attribute names (``r``, ``w``, ``x``)
        and the long names (``read``, ``write``, ``use``).  String values are
        parsed leniently (malformed values fall back to ring 0); integer
        values are validated.  ``rings`` is used to clamp labels into the
        page's ring universe when provided.
        """
        universe = rings if rings is not None else RingSet()
        limits: dict[Operation, Ring] = {}
        for key, raw in mapping.items():
            try:
                operation = Operation.from_text(str(key))
            except Exception:
                continue
            if isinstance(raw, Ring):
                ring = universe.clamp(raw)
            elif isinstance(raw, int) and not isinstance(raw, bool):
                if raw < 0:
                    ring = Ring(MOST_PRIVILEGED)
                else:
                    ring = universe.clamp(raw)
            else:
                ring = universe.parse_label(
                    str(raw) if raw is not None else None,
                    default=Ring(MOST_PRIVILEGED),
                )
            limits[operation] = ring
        return cls(
            read=limits.get(Operation.READ, Ring(MOST_PRIVILEGED)),
            write=limits.get(Operation.WRITE, Ring(MOST_PRIVILEGED)),
            use=limits.get(Operation.USE, Ring(MOST_PRIVILEGED)),
        )

    # -- queries ---------------------------------------------------------------

    def limit_for(self, operation: Operation) -> Ring:
        """The outermost ring allowed to perform ``operation``."""
        if operation is Operation.READ:
            return self.read
        if operation is Operation.WRITE:
            return self.write
        if operation is Operation.USE:
            return self.use
        raise ConfigurationError(f"unknown operation {operation!r}")

    def permits(self, principal_ring: Ring | int, operation: Operation) -> bool:
        """True when a principal in ``principal_ring`` may perform ``operation``."""
        return as_ring(principal_ring).is_at_least_as_privileged_as(self.limit_for(operation))

    # -- derivation -------------------------------------------------------------

    def restricted_to(self, outer: Ring | int) -> "Acl":
        """Clamp every entry so no operation is granted beyond ``outer``.

        Used by the scoping rule when nested AC scopes try to widen their
        parent's ACL: a child scope can only be *more* restrictive.
        """
        limit = as_ring(outer)
        return Acl(
            read=self.read.elevated_to(limit) if self.read > limit else self.read,
            write=self.write.elevated_to(limit) if self.write > limit else self.write,
            use=self.use.elevated_to(limit) if self.use > limit else self.use,
        )

    def tightened(self, other: "Acl") -> "Acl":
        """Combine two ACLs, keeping the more restrictive limit per operation."""
        return Acl(
            read=self.read.elevated_to(other.read),
            write=self.write.elevated_to(other.write),
            use=self.use.elevated_to(other.use),
        )

    def as_attributes(self) -> dict[str, str]:
        """Serialise the ACL to AC-tag attributes (``r``, ``w``, ``x``)."""
        return {
            "r": str(self.read.level),
            "w": str(self.write.level),
            "x": str(self.use.level),
        }

    def __str__(self) -> str:
        return f"r<={self.read.level} w<={self.write.level} x<={self.use.level}"


#: The ACL attribute names an AC tag accepts: the short and the long forms.
ACL_ATTRIBUTES = frozenset({"r", "w", "x", "read", "write", "use"})


def parse_acl_attributes(attributes: Mapping[str, str], *, rings: RingSet | None = None) -> Acl | None:
    """Extract an ACL from an AC tag's attribute mapping.

    Returns ``None`` when none of the ACL attributes (:data:`ACL_ATTRIBUTES`)
    are present, so the caller can distinguish "no ACL specified" (which, per
    the paper, defaults to the most restrictive ACL for unlabelled content,
    or to the ring's own level for convenience constructors) from an explicit
    specification.
    """
    relevant = {key: value for key, value in attributes.items() if key.lower() in ACL_ATTRIBUTES}
    if not relevant:
        return None
    return Acl.from_mapping(relevant, rings=rings)
