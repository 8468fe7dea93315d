"""The labelling engine: "extracting and tracking security contexts".

After the tree builder produces an unlabelled DOM, the labeler walks it once
and assigns a :class:`~repro.core.context.SecurityContext` to every element.
This is the paper's "configuration extraction" step, and the single place
where the ring mapping happens (it is never repeated -- elements refuse a
second assignment).

Rules applied during the walk:

* Content outside any AC tag gets the *page default* context.  For
  ESCUDO-enabled pages that default is the fail-safe one (least-privileged
  ring, ``r=0 w=0 x=0``); for legacy pages it is ring 0 with a ring-0 ACL,
  which makes the ESCUDO policy collapse to the same-origin policy.
* An AC tag (``div`` with ESCUDO attributes) opens a new scope.  Its ring is
  the declared ring clamped by the enclosing scope (the scoping rule); a
  declared ACL is honoured, a missing ACL falls back to ``r=0 w=0 x=0``.
* Every element inside a scope (including the AC tag itself) is labelled
  with the scope's context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.acl import Acl
from repro.core.config import PageConfiguration, extract_ac_label
from repro.core.context import SecurityContext
from repro.core.origin import Origin
from repro.core.rings import Ring, RingSet
from repro.core.scoping import effective_ring, is_violation
from repro.dom.document import Document
from repro.dom.element import Element


@dataclass
class LabelingStats:
    """What the labeler did to one page (read by tests and benchmarks)."""

    labelled_elements: int = 0
    ac_tags: int = 0
    scoping_clamps: int = 0
    ring_histogram: dict[int, int] = field(default_factory=dict)

    def note(self, ring_level: int) -> None:
        """Count one labelled element in ``ring_level``."""
        self.labelled_elements += 1
        self.ring_histogram[ring_level] = self.ring_histogram.get(ring_level, 0) + 1


class PageLabeler:
    """Walks a parsed document and assigns security contexts exactly once."""

    def __init__(
        self,
        origin: Origin,
        configuration: PageConfiguration,
        *,
        escudo_enabled: bool | None = None,
        enforce_scoping: bool = True,
    ) -> None:
        self.origin = origin
        self.configuration = configuration
        self.rings: RingSet = configuration.rings
        # The page counts as ESCUDO-enabled if the headers said so, or if the
        # caller detected AC tags in the body (the loader passes that in).
        self.escudo_enabled = (
            escudo_enabled if escudo_enabled is not None else configuration.escudo_enabled
        )
        # The scoping rule is always on in the real model; the ablation
        # benchmark switches it off to show which attacks it stops.
        self.enforce_scoping = enforce_scoping
        self.stats = LabelingStats()

    # -- defaults -------------------------------------------------------------------

    def page_default_context(self) -> SecurityContext:
        """Context for content outside every AC scope."""
        if self.escudo_enabled:
            return SecurityContext(
                origin=self.origin,
                ring=self.rings.least_privileged(),
                acl=Acl.default(),
                label="unlabelled content",
            )
        # Legacy page: one ring, everything mutually accessible within the
        # origin -- exactly the same-origin policy.
        return SecurityContext(
            origin=self.origin,
            ring=Ring(0),
            acl=Acl.uniform(0),
            label="legacy content",
        )

    # -- labelling ---------------------------------------------------------------------

    def label_document(self, document: Document) -> LabelingStats:
        """Assign a context to every element in ``document``.

        Two pieces of state travel down the tree:

        * the *scope context* given to elements that do not open a new AC
          scope (initially the page default -- least privileged for ESCUDO
          pages, ring 0 for legacy pages);
        * the *privilege bound* enforced by the scoping rule: the ring of
          the nearest enclosing AC tag.  Top-level AC tags are unbounded
          (bound = ring 0), because the scoping rule constrains *nested*
          scopes, not siblings of unlabelled content.
        """
        stats = self.stats
        escudo = self.escudo_enabled
        # A pre-order walk over a stack of child iterators (document order),
        # so arbitrarily deep content labels without exhausting Python's
        # recursion limit.
        stack = [(iter(document.children), self.page_default_context(), Ring(0))]
        while stack:
            nodes, scope, bound = stack[-1]
            for element in nodes:
                if not isinstance(element, Element):
                    continue
                context = scope
                child_bound = bound
                if escudo and element.is_ac_tag:
                    context = self._scope_for_ac_tag(element, bound)
                    child_bound = context.ring
                    stats.ac_tags += 1
                # Every element in a scope shares the scope's (immutable) context
                # object: the ring mapping is per-scope, and sharing keeps the
                # labelling pass cheap (Figure 4 measures exactly this bookkeeping).
                if element.security_context is None:
                    element.assign_security_context(context)
                stats.note(context.ring.level)
                if element.children:
                    stack.append((iter(element.children), context, child_bound))
                    break
            else:
                stack.pop()
        return stats

    def _scope_for_ac_tag(self, element: Element, bound: Ring) -> SecurityContext:
        label = extract_ac_label(element.attributes, self.rings)
        if is_violation(label.declared_ring, bound):
            self.stats.scoping_clamps += 1
        if self.enforce_scoping:
            ring = effective_ring(label.declared_ring, bound)
        else:
            ring = label.declared_ring if label.declared_ring is not None else bound
        acl = label.acl if label.acl is not None else Acl.default()
        return SecurityContext(
            origin=self.origin,
            ring=ring,
            acl=acl,
            label=f"ac-scope ring {ring.level}",
        )


def document_uses_escudo(document: Document) -> bool:
    """True when the parsed body contains at least one AC tag."""
    return any(element.is_ac_tag for element in document.elements())
