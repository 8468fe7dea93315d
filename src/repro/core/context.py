"""Security contexts.

The ESCUDO implementation in the paper maintains a *security context* for
every principal and object: the origin it belongs to, its ring assignment,
and (for objects) its ACL.  The context is derived from the application's
configuration exactly once -- during parsing -- and is never exposed to
scripts afterwards.

This module defines :class:`SecurityContext`, the immutable value the
reference monitor consumes.  The browser tracks contexts on the entities
themselves, out of scripts' reach:
:meth:`~repro.dom.element.Element.assign_security_context` assigns an
element's context once and refuses a re-assignment without browser
authority (the paper's "tracking the security contexts" implementation
component).
"""

from __future__ import annotations

from dataclasses import dataclass

from .acl import Acl
from .origin import Origin
from .rings import Ring, RingSet, as_ring


@dataclass(frozen=True)
class SecurityContext:
    """Everything the reference monitor needs to know about one entity.

    Attributes
    ----------
    origin:
        The web origin that instantiated the principal or object.
    ring:
        The protection ring the entity was assigned to during configuration.
    acl:
        The per-object ACL.  Principals carry an ACL too (it is simply
        ignored when they act as principals); DOM elements in particular act
        as both principals and objects, so a single context type keeps the
        bookkeeping uniform.
    label:
        Human-readable description used in decisions, logs and reports.
    trusted:
        Marks contexts synthesised by the browser itself (browser chrome,
        internal state).  Trusted contexts bypass the origin rule when the
        *browser* -- not page content -- performs maintenance work.

    The hash and the display text are computed on first use and kept (pages
    memoise contexts in dicts).  Neither is pickled; a copy recomputes both.
    """

    origin: Origin
    ring: Ring
    acl: Acl = Acl()
    label: str = "anonymous"
    trusted: bool = False

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.origin, self.ring, self.acl, self.label, self.trusted))
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        return SecurityContext, (self.origin, self.ring, self.acl, self.label, self.trusted)

    # -- derivation -------------------------------------------------------------

    def with_ring(self, ring: Ring | int) -> "SecurityContext":
        """Copy of this context with a different ring."""
        return SecurityContext(self.origin, as_ring(ring), self.acl, self.label, self.trusted)

    def with_acl(self, acl: Acl) -> "SecurityContext":
        """Copy of this context with a different ACL."""
        return SecurityContext(self.origin, self.ring, acl, self.label, self.trusted)

    def with_label(self, label: str) -> "SecurityContext":
        """Copy of this context with a different display label."""
        return SecurityContext(self.origin, self.ring, self.acl, label, self.trusted)

    def restricted_to(self, outer_ring: Ring | int) -> "SecurityContext":
        """Apply the scoping rule: never exceed the privilege of ``outer_ring``."""
        ring = self.ring.restricted_to(as_ring(outer_ring))
        return SecurityContext(self.origin, ring, self.acl, self.label, self.trusted)

    # -- convenience -------------------------------------------------------------

    @classmethod
    def for_page_default(cls, origin: Origin, rings: RingSet, label: str = "unlabelled content") -> "SecurityContext":
        """Fail-safe default context for unlabelled DOM content.

        Per the paper: the ring attribute defaults to the least privileged
        ring and the ACL defaults to ``r=0, w=0, x=0``.
        """
        return cls(origin=origin, ring=rings.least_privileged(), acl=Acl.default(), label=label)

    @classmethod
    def for_infrastructure(cls, origin: Origin, label: str) -> "SecurityContext":
        """Ring-0 context for cookies, native APIs and browser state defaults."""
        return cls(origin=origin, ring=Ring(0), acl=Acl.uniform(0), label=label)

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            text = f"{self.label}@{self.origin} [{self.ring}, acl {self.acl}]"
            object.__setattr__(self, "_text", text)
            return text

