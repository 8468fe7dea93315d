"""The mediated DOM API.

Scripts never touch :class:`~repro.dom.element.Element` objects directly --
they see :class:`DomApi` (bound as ``document`` in the script environment)
and :class:`ElementHandle` wrappers.  Every operation the wrappers expose is
mediated by the reference monitor with the *calling principal's* security
context, which is how ESCUDO achieves complete mediation of script/DOM
interactions:

* reading an element (attributes, ``innerHTML``, ``textContent``) is a
  ``read`` access on that element;
* modifying it (setting attributes, ``innerHTML``, appending or removing
  children) is a ``write`` access;
* the DOM API itself is a native-code object (Table 1); when the page
  configuration assigns it a ring, every facade call additionally requires a
  ``use`` access on the API object.

Denied operations are *neutralised*, not fatal: reads return ``None``,
writes return ``False`` and leave the tree untouched.  This mirrors the
prototype's behaviour in the paper's defence-effectiveness experiments, and
it lets attack scripts run to completion so the harness can observe that
they had no effect.

Anti-tampering (Section 5): the ESCUDO configuration attributes (``ring``,
``nonce`` and the ACL names ``r``/``w``/``x``/``read``/``write``/``use``) are
never readable or writable through the facade, regardless of ring, and newly
created elements are labelled under the scoping rule so a principal can never
mint content more privileged than the insertion point allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.acl import Acl
from repro.core.config import PROTECTED_ATTRIBUTES, extract_ac_label
from repro.core.context import SecurityContext
from repro.core.decision import AccessDecision, Operation
from repro.core.monitor import ReferenceMonitor
from repro.core.scoping import effective_ring

from .document import Document
from .element import Element
from .node import TextNode
from .traversal import query_selector, query_selector_all


class ElementHandle:
    """Script-visible wrapper around one DOM element."""

    def __init__(self, element: Element, api: "DomApi") -> None:
        self._element = element
        self._api = api

    # -- identity -----------------------------------------------------------------

    @property
    def tag_name(self) -> str:
        """Tag name (always readable: it is needed to even address the node)."""
        return self._element.tag_name

    # -- reads ----------------------------------------------------------------------

    def get_attribute(self, name: str) -> str | None:
        """Read an attribute, subject to the ``read`` check.

        ESCUDO configuration attributes are never visible to scripts.
        """
        if name.lower() in PROTECTED_ATTRIBUTES:
            self._api.record_tamper_attempt(self._element, name, operation=Operation.READ)
            return None
        if not self._api.authorize(self._element, Operation.READ):
            return None
        return self._element.get_attribute(name)

    @property
    def text_content(self) -> str | None:
        """Concatenated text of the element, subject to the ``read`` check."""
        if not self._api.authorize(self._element, Operation.READ):
            return None
        return self._element.text_content

    @property
    def inner_html(self) -> str | None:
        """Serialised markup of the element's children (``read`` check)."""
        if not self._api.authorize(self._element, Operation.READ):
            return None
        from repro.html.serializer import serialize_children  # local import: avoids cycle

        return serialize_children(self._element)

    @property
    def id(self) -> str | None:
        """The element's id attribute (``read`` check)."""
        return self.get_attribute("id")

    # -- writes ----------------------------------------------------------------------

    def set_attribute(self, name: str, value: str) -> bool:
        """Write an attribute, subject to tamper protection and ``write`` check."""
        if name.lower() in PROTECTED_ATTRIBUTES:
            self._api.record_tamper_attempt(self._element, name, operation=Operation.WRITE)
            return False
        if name.lower().startswith("on"):
            # Inline handlers minted at runtime would become new principals;
            # they inherit the writer's privileges at dispatch time, so the
            # write check below is the right gate (no extra rule needed).
            pass
        if not self._api.authorize(self._element, Operation.WRITE):
            return False
        self._element.set_attribute(name, value)
        return True

    def set_text_content(self, text: str) -> bool:
        """Replace the element's children with a single text node."""
        if not self._api.authorize(self._element, Operation.WRITE):
            return False
        self._element.replace_children([TextNode(text)])
        return True

    def set_inner_html(self, markup: str) -> bool:
        """Parse ``markup`` and replace the element's children with it.

        The parsed fragment is labelled under the scoping rule: nothing
        inside it can exceed the privilege of this element's ring, no matter
        what ``ring`` attributes the markup claims.
        """
        if not self._api.authorize(self._element, Operation.WRITE):
            return False
        from repro.html.parser import parse_fragment  # local import: avoids cycle

        fragment_children = parse_fragment(markup, owner=self._element.owner_document)
        self._element.replace_children(list(fragment_children))
        for child in self._element.children:
            if isinstance(child, Element):
                self._api.label_created_subtree(child, parent=self._element)
        return True

    def append_child(self, child: "ElementHandle") -> bool:
        """Append a (script-created) element, subject to the ``write`` check."""
        if not self._api.authorize(self._element, Operation.WRITE):
            return False
        element = child._element
        self._element.append_child(element)
        self._api.label_created_subtree(element, parent=self._element)
        return True

    def remove_child(self, child: "ElementHandle") -> bool:
        """Remove a child element, subject to the ``write`` check."""
        if not self._api.authorize(self._element, Operation.WRITE):
            return False
        try:
            self._element.remove_child(child._element)
        except ValueError:
            return False
        return True

    def add_event_listener(self, event_type: str, listener: Callable) -> bool:
        """Register a script listener (a ``write`` on the element).

        The listener will run with the registering principal's context when
        the event is later delivered (see :mod:`repro.browser.ui_events`).
        """
        if not self._api.authorize(self._element, Operation.WRITE):
            return False
        self._api.register_listener(self._element, event_type, listener)
        return True

    # -- queries scoped to this element ------------------------------------------------

    def query_selector(self, selector: str) -> "ElementHandle | None":
        """First matching descendant (the subsequent reads are still mediated)."""
        found = query_selector(self._element, selector)
        return self._api.wrap(found) if found is not None else None

    def query_selector_all(self, selector: str) -> list["ElementHandle"]:
        """All matching descendants (each later read is mediated on its own)."""
        return self._api.wrap_all(query_selector_all(self._element, selector))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ElementHandle {self._element.tag_name}>"


class DomApi:
    """The ``document`` object exposed to scripts, bound to one principal."""

    def __init__(
        self,
        document: Document,
        monitor: ReferenceMonitor,
        principal: SecurityContext,
        *,
        api_object: SecurityContext | None = None,
        listener_registry: Callable[[Element, str, Callable], None] | None = None,
        default_new_element_acl: Acl | None = None,
    ) -> None:
        self.document = document
        self.monitor = monitor
        self.principal = principal
        self.api_object = api_object
        self.last_denial: AccessDecision | None = None
        self._listener_registry = listener_registry
        self._default_new_element_acl = default_new_element_acl
        # Mediation memos: the decision-bearing context for an element is a
        # pure function of its tag name and security context, so display
        # labels (and fail-safe defaults for unlabelled elements) are built
        # once per distinct (tag, context) pair instead of per access --
        # rebuilding those f-strings per access costs more than the cached
        # mediation itself on the hot path.
        self._labeled_contexts: dict[tuple[str, SecurityContext], SecurityContext] = {}
        self._fallback_contexts: dict[str, SecurityContext] = {}

    # -- mediation helpers ----------------------------------------------------------

    def _context_of(self, element: Element) -> SecurityContext:
        """The element's context, or the memoised fail-safe default.

        Unlabelled elements only exist before labelling finishes; they get
        the fail-safe default (least privilege, ring-0 ACL).
        """
        context = element.security_context
        if context is not None:
            return context
        tag = element.tag_name
        context = self._fallback_contexts.get(tag)
        if context is None:
            context = SecurityContext.for_page_default(
                origin=self.principal.origin, rings=_default_rings(), label=f"<{tag}>"
            )
            self._fallback_contexts[tag] = context
        return context

    def _decision_target(self, element: Element) -> SecurityContext:
        """The element's context carrying its decision display label."""
        context = self._context_of(element)
        key = (element.tag_name, context)
        labeled = self._labeled_contexts.get(key)
        if labeled is None:
            labeled = context.with_label(f"<{element.tag_name}> {context.label}")
            self._labeled_contexts[key] = labeled
        return labeled

    def _use_api_allowed(self) -> bool:
        """Mediate the ``use`` access on the DOM API object itself."""
        if self.api_object is None:
            return True
        api_decision = self.monitor.authorize(
            self.principal,
            self.api_object,
            Operation.USE,
            object_label="DOM API (native-api)",
        )
        if api_decision.denied:
            self.last_denial = api_decision
            return False
        return True

    def authorize(self, element: Element, operation: Operation) -> bool:
        """Run the monitor for one element access by this API's principal."""
        if not self._use_api_allowed():
            return False
        decision = self.monitor.authorize(self.principal, self._decision_target(element), operation)
        if decision.denied:
            self.last_denial = decision
            return False
        return True

    def authorize_sweep(self, elements: list[Element], operation: Operation) -> list[bool]:
        """Batch-mediate one operation over many elements.

        A sweep is one facade call, so the DOM API ``use`` check runs once;
        the per-element checks go through the monitor's batch path, which
        coerces the principal once and decides each distinct context once.
        Every element still gets its own recorded decision.
        """
        if not elements:
            return []
        if not self._use_api_allowed():
            return [False] * len(elements)
        targets = [self._decision_target(element) for element in elements]
        decisions = self.monitor.authorize_all(self.principal, targets, operation)
        verdicts: list[bool] = []
        for decision in decisions:
            if decision.denied:
                self.last_denial = decision
            verdicts.append(decision.allowed)
        return verdicts

    def record_tamper_attempt(self, element: Element, attribute: str, *, operation: Operation) -> None:
        """Log an attempt to touch ESCUDO configuration attributes."""
        decision = self.monitor.deny_tampering(
            self.principal,
            element.security_context
            or SecurityContext.for_page_default(self.principal.origin, _default_rings(), f"<{element.tag_name}>"),
            operation,
            reason=f"attribute {attribute!r} holds ESCUDO configuration",
            object_label=f"<{element.tag_name}>",
        )
        self.last_denial = decision

    def register_listener(self, element: Element, event_type: str, listener: Callable) -> None:
        """Forward listener registration to the browser's dispatcher."""
        if self._listener_registry is not None:
            self._listener_registry(element, event_type, listener)

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
        self._label_recursive(element, parent_context)

    def _label_recursive(self, element: Element, parent_context: SecurityContext) -> None:
        label = extract_ac_label(element.attributes)
        ring = effective_ring(label.declared_ring, parent_context.ring)
        # Dynamically created principals are additionally bounded by their
        # creator: a ring-3 script cannot mint a ring-1 script even inside a
        # ring-1 container it somehow got write access to.
        ring = ring.restricted_to(self.principal.ring)
        if label.acl is not None:
            acl = label.acl
        elif self._default_new_element_acl is not None:
            acl = self._default_new_element_acl
        else:
            acl = parent_context.acl
        context = SecurityContext(
            origin=parent_context.origin,
            ring=ring,
            acl=acl,
            label=f"dynamic <{element.tag_name}>",
        )
        if element.security_context is None:
            element.assign_security_context(context)
        for child in element.element_children():
            self._label_recursive(child, context)

    # -- script-facing API -----------------------------------------------------------------

    def wrap(self, element: Element) -> ElementHandle:
        """Wrap an element for script consumption."""
        return ElementHandle(element, self)

    def wrap_all(self, elements: list[Element]) -> list[ElementHandle]:
        """Wrap a traversal sweep's results for script consumption."""
        return [ElementHandle(element, self) for element in elements]

    def get_element_by_id(self, element_id: str) -> ElementHandle | None:
        """``document.getElementById``."""
        element = self.document.get_element_by_id(element_id)
        return self.wrap(element) if element is not None else None

    def query_selector(self, selector: str) -> ElementHandle | None:
        """``document.querySelector``."""
        element = query_selector(self.document, selector)
        return self.wrap(element) if element is not None else None

    def query_selector_all(self, selector: str) -> list[ElementHandle]:
        """``document.querySelectorAll`` (batch-warmed sweep)."""
        return self.wrap_all(query_selector_all(self.document, selector))

    def get_elements_by_tag_name(self, tag_name: str) -> list[ElementHandle]:
        """``document.getElementsByTagName`` (batch-warmed sweep)."""
        return self.wrap_all(self.document.get_elements_by_tag_name(tag_name))

    def create_element(self, tag_name: str) -> ElementHandle:
        """``document.createElement`` -- the element is labelled on insertion."""
        return self.wrap(self.document.create_element(tag_name))

    @property
    def body(self) -> ElementHandle | None:
        """``document.body``."""
        body = self.document.body
        return self.wrap(body) if body is not None else None

    @property
    def head(self) -> ElementHandle | None:
        """``document.head``."""
        head = self.document.head
        return self.wrap(head) if head is not None else None

    @property
    def title(self) -> str:
        """``document.title`` (reads are unmediated: the title is page chrome)."""
        titles = self.document.get_elements_by_tag_name("title")
        return titles[0].text_content if titles else ""


@dataclass
class _RingDefaults:
    """Cache for the default ring universe used when labelling is incomplete."""

    rings: object = field(default=None)


_defaults = _RingDefaults()


def _default_rings():
    from repro.core.rings import RingSet

    if _defaults.rings is None:
        _defaults.rings = RingSet()
    return _defaults.rings
