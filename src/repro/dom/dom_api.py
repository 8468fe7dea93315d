"""The per-principal DOM mediator.

Scripts never touch :class:`~repro.dom.element.Element` objects directly:
they see the ``document`` and element bindings of
:mod:`repro.browser.script_runtime`, and every handler there asks the
:class:`DomApi` of the calling principal before it acts on the element.
:class:`DomApi` runs the reference monitor with that principal's security
context, which is how ESCUDO achieves complete mediation of script/DOM
interactions:

* reading an element (attributes, ``innerHTML``, ``textContent``) is a
  ``read`` access on that element;
* modifying it (setting attributes, ``innerHTML``, appending or removing
  children, adding listeners) is a ``write`` access;
* the DOM API itself is a native-code object (Table 1); when the page
  configuration assigns it a ring, every element access additionally
  requires a ``use`` access on the API object.

Denied operations are *neutralised*, not fatal: the bindings turn a denied
read into ``null`` and a denied write into ``false`` and leave the tree
untouched.  This mirrors the prototype's behaviour in the paper's
defence-effectiveness experiments, and it lets attack scripts run to
completion so the harness can observe that they had no effect.

Anti-tampering (Section 5): the ESCUDO configuration attributes (``ring``,
``nonce`` and the ACL names ``r``/``w``/``x``/``read``/``write``/``use``) are
never readable or writable through the bindings, regardless of ring (each
attempt is recorded by :meth:`DomApi.record_tamper_attempt`), and newly
created elements are labelled under the scoping rule
(:meth:`DomApi.label_created_subtree`) so a principal can never mint content
more privileged than the insertion point allows.
"""

from __future__ import annotations

from functools import cache

from repro.core.config import extract_ac_label
from repro.core.context import SecurityContext
from repro.core.decision import Operation
from repro.core.monitor import ReferenceMonitor
from repro.core.origin import Origin
from repro.core.rings import RingSet
from repro.core.scoping import effective_ring

from .element import Element


class DomApi:
    """Mediates one principal's accesses to the elements of a page."""

    def __init__(
        self,
        monitor: ReferenceMonitor,
        principal: SecurityContext,
        *,
        api_object: SecurityContext | None = None,
    ) -> None:
        self.monitor = monitor
        self.principal = principal
        self.api_object = api_object

    # -- mediation helpers ----------------------------------------------------------

    def _context_of(self, element: Element) -> SecurityContext:
        """The element's context, or the interned fail-safe default.

        Unlabelled elements only exist before labelling finishes; they get
        the fail-safe default (least privilege, ring-0 ACL).
        """
        context = element.security_context
        if context is not None:
            return context
        key = (element.tag_name, self.principal.origin)
        context = _FALLBACK_CONTEXTS.get(key)
        if context is None:
            default = SecurityContext.for_page_default(origin=key[1], rings=_default_rings(), label=f"<{key[0]}>")
            context = _intern(_FALLBACK_CONTEXTS, key, default)
        return context

    def _decision_target(self, element: Element) -> SecurityContext:
        """The element's context carrying its decision display label."""
        context = self._context_of(element)
        key = (element.tag_name, context)
        labeled = _LABELED_CONTEXTS.get(key)
        if labeled is None:
            labeled = _intern(_LABELED_CONTEXTS, key, context.with_label(f"<{key[0]}> {context.label}"))
        return labeled

    def _use_api_allowed(self) -> bool:
        """Mediate the ``use`` access on the DOM API object itself."""
        if self.api_object is None:
            return True
        return self.monitor.authorize(
            self.principal,
            self.api_object,
            Operation.USE,
            object_label="DOM API (native-api)",
        ).allowed

    def authorize(self, element: Element, operation: Operation) -> bool:
        """Run the monitor for one element access by this API's principal."""
        if not self._use_api_allowed():
            return False
        return self.monitor.authorize(self.principal, self._decision_target(element), operation).allowed

    def record_tamper_attempt(self, element: Element, attribute: str, *, operation: Operation) -> None:
        """Log an attempt to touch ESCUDO configuration attributes."""
        self.monitor.deny_tampering(
            self.principal,
            self._context_of(element),
            operation,
            reason=f"attribute {attribute!r} holds ESCUDO configuration",
            object_label=f"<{element.tag_name}>",
        )

    # -- labelling of dynamically created content ----------------------------------------

    def label_created_subtree(self, element: Element, *, parent: Element) -> None:
        """Assign contexts to a script-created subtree under the scoping rule.

        The new content can never be more privileged than the insertion
        point: its effective ring is its declared ring (if any) clamped to
        the parent's ring.  ACLs declared in the markup are honoured (they
        cannot grant beyond the ring rule anyway); elements without an ACL
        inherit the parent's ACL so that application scripts can keep
        managing the content they legitimately created.
        """
        parent_context = parent.security_context
        if parent_context is None:
            parent_context = SecurityContext.for_page_default(
                self.principal.origin, _default_rings(), f"<{parent.tag_name}>"
            )
        # An explicit stack, so arbitrarily deep markup labels without
        # exhausting Python's recursion limit.
        stack = [(element, parent_context)]
        while stack:
            element, parent_context = stack.pop()
            label = extract_ac_label(element.attributes)
            ring = effective_ring(label.declared_ring, parent_context.ring)
            # Dynamically created principals are additionally bounded by their
            # creator: a ring-3 script cannot mint a ring-1 script even inside a
            # ring-1 container it somehow got write access to.
            ring = ring.restricted_to(self.principal.ring)
            context = SecurityContext(
                origin=parent_context.origin,
                ring=ring,
                acl=label.acl if label.acl is not None else parent_context.acl,
                label=f"dynamic <{element.tag_name}>",
            )
            if element.security_context is None:
                element.assign_security_context(context)
            stack.extend((child, context) for child in reversed(element.element_children()))


# -- decision contexts ------------------------------------------------------------------
#
# The context a decision names for an element is a pure function of the
# element's tag and security context (or, for an unlabelled element, of its
# tag and the principal's origin), so every page and every script shares one
# instance per distinct input instead of formatting its label again.  The
# tables hold contexts, not verdicts: every access still goes to the policy.

#: Entries kept per context table; a full table starts over.
_CONTEXT_TABLE_SIZE = 4096

_LABELED_CONTEXTS: dict[tuple[str, SecurityContext], SecurityContext] = {}
_FALLBACK_CONTEXTS: dict[tuple[str, Origin], SecurityContext] = {}


def _intern(table: dict, key, context: SecurityContext) -> SecurityContext:
    if len(table) >= _CONTEXT_TABLE_SIZE:
        table.clear()
    table[key] = context
    return context


@cache
def _default_rings() -> RingSet:
    """The default ring universe used when labelling is incomplete."""
    return RingSet()
