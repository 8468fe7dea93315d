"""The scoping rule.

Section 5 of the paper: to stop a principal from *creating* a new principal
with elevated privilege, ESCUDO enforces a scoping rule -- every child of a
DOM element is bounded by the ring of its enclosing AC scope.  If a ``div``
is labelled ``ring=n``, then everything inside that scope (including nested
AC tags that *claim* a lower ring number) is effectively at ring ``n`` or
less privileged.  The rule applies both to statically parsed markup and to
elements added dynamically through the DOM API.

This module provides the pure clamping arithmetic; the page labeller
(:class:`~repro.browser.labeler.PageLabeler`) and the DOM API's labelling of
created content apply it.
"""

from __future__ import annotations

from .rings import Ring, as_ring


def effective_ring(declared: Ring | int | None, enclosing: Ring | int) -> Ring:
    """Compute the ring a scope actually receives.

    ``declared`` is the ring the markup (or a script) asked for; ``enclosing``
    is the ring of the surrounding scope.  Per the scoping rule the result is
    never more privileged than ``enclosing``; a missing declaration simply
    inherits the enclosing ring.
    """
    outer = as_ring(enclosing)
    if declared is None:
        return outer
    return as_ring(declared).restricted_to(outer)


def is_violation(declared: Ring | int | None, enclosing: Ring | int) -> bool:
    """True when a declared label claims more privilege than its scope allows."""
    if declared is None:
        return False
    return as_ring(declared).is_more_privileged_than(as_ring(enclosing))

