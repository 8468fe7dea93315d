"""DOM elements.

Elements are the dual-role entities of the ESCUDO model: they are *objects*
when scripts read or modify them through the DOM API, and some of them are
*principals* when instantiated (``script`` tags, ``img``/``a``/``form``/
``iframe`` tags that issue HTTP requests, tags carrying UI event handlers).

Each element therefore carries a security context, assigned exactly once by
the labelling engine (:mod:`repro.browser.labeler`) when the page is parsed
or when a script legitimately creates the element.  The raw attribute
dictionary here is *not* reachable from page scripts -- scripts only see the
element bindings of :mod:`repro.browser.script_runtime`, which ask the
principal's :class:`~repro.dom.dom_api.DomApi` before every access -- so
storing the context on the element does not expose it to tampering.
"""

from __future__ import annotations

from sys import intern
from typing import Iterator, Mapping, Optional

from repro.core.config import RING_ATTRIBUTE, extract_ac_label, is_ac_tag
from repro.core.context import SecurityContext
from repro.core.errors import TamperingError
from repro.core.principal import classify_tag, event_handler_attributes
from repro.core.rings import Ring

from .node import Node, NodeType

#: Elements that never have closing tags or children.
VOID_ELEMENTS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta",
     "param", "source", "track", "wbr"}
)

#: Elements whose content is raw text (not parsed as markup).
RAW_TEXT_ELEMENTS = frozenset({"script", "style", "title", "textarea"})


class Element(Node):
    """One HTML element with attributes, children and a security context."""

    __slots__ = ("tag_name", "_attributes", "_security_context")

    node_type = NodeType.ELEMENT

    def __init__(self, tag_name: str, attributes: Mapping[str, str] | None = None) -> None:
        super().__init__()
        # Names and values are interned: every parse of a page template
        # (and every clone of one) then shares one copy of ``"div"``,
        # ``"ring"`` or a column's repeated nonce.
        self.tag_name = intern(tag_name.lower())
        self._attributes: dict[str, str] = {}
        if attributes:
            for name, value in attributes.items():
                self._attributes[intern(str(name).lower())] = intern(str(value))
        self._security_context: SecurityContext | None = None

    def _clone_shallow(self, owner, parent) -> "Element":
        cls = type(self)
        clone = cls.__new__(cls)
        clone.parent = parent
        clone.children = []
        clone.owner_document = owner
        clone.tag_name = self.tag_name
        clone._attributes = dict(self._attributes)
        # Security contexts are frozen values, so sharing the reference keeps
        # the clone aliasing-free; an unlabelled element clones unlabelled
        # (the labelling engine assigns the clone's context exactly once).
        clone._security_context = self._security_context
        return clone

    # -- attributes (unmediated; browser-internal use only) -------------------------

    def get_attribute(self, name: str) -> str | None:
        """Raw attribute read (browser-internal; scripts go through the bindings)."""
        return self._attributes.get(name.lower())

    def set_attribute(self, name: str, value: str) -> None:
        """Raw attribute write (browser-internal; scripts go through the bindings)."""
        lowered = name.lower()
        self._attributes[lowered] = str(value)
        if lowered == "id":
            self._note_tree_change()

    def remove_attribute(self, name: str) -> None:
        """Raw attribute removal."""
        lowered = name.lower()
        if self._attributes.pop(lowered, None) is not None and lowered == "id":
            self._note_tree_change()

    def has_attribute(self, name: str) -> bool:
        """True when the attribute exists (even if empty)."""
        return name.lower() in self._attributes

    @property
    def attributes(self) -> dict[str, str]:
        """Copy of the attribute map (mutating the copy has no effect)."""
        return dict(self._attributes)

    @property
    def id(self) -> str | None:
        """The element's ``id`` attribute."""
        return self._attributes.get("id")

    @property
    def class_list(self) -> list[str]:
        """The element's classes as a list."""
        return self._attributes.get("class", "").split()

    # -- ESCUDO labelling --------------------------------------------------------------

    @property
    def security_context(self) -> SecurityContext | None:
        """The element's security context (``None`` until the page is labelled)."""
        return self._security_context

    def assign_security_context(self, context: SecurityContext, *, browser_authority: bool = False) -> None:
        """Attach the security context, enforcing assign-exactly-once.

        The labelling engine calls this during parsing; re-assignment without
        browser authority is a tampering attempt and raises.
        """
        if self._security_context is not None and not browser_authority:
            raise TamperingError(
                f"security context of <{self.tag_name}> is already assigned; "
                "ESCUDO performs ring mapping exactly once"
            )
        self._security_context = context

    @property
    def is_ac_tag(self) -> bool:
        """True when this element is an access-control ``div``."""
        return is_ac_tag(self.tag_name, self._attributes)

    @property
    def declared_ring(self) -> Ring | None:
        """The ring this element's markup asked for (before the scoping rule)."""
        label = extract_ac_label(self._attributes)
        return label.declared_ring

    @property
    def declared_nonce(self) -> str | None:
        """The markup-randomisation nonce on this element, if any."""
        return extract_ac_label(self._attributes).nonce

    @property
    def scope_path(self) -> str:
        """Human-readable path used in nonce-mismatch reports."""
        parts: list[str] = []
        node: Node | None = self
        while node is not None and isinstance(node, Element):
            descriptor = node.tag_name
            if node.id:
                descriptor += f"#{node.id}"
            elif node.has_attribute(RING_ATTRIBUTE):
                descriptor += f"[ring={node.get_attribute(RING_ATTRIBUTE)}]"
            parts.append(descriptor)
            node = node.parent
        return "/".join(reversed(parts))

    # -- principal classification --------------------------------------------------------

    @property
    def principal_kind(self):
        """Principal classification of this element's tag, or ``None``."""
        return classify_tag(self.tag_name)

    @property
    def event_handlers(self) -> dict[str, str]:
        """Inline UI event handler attributes (``onclick`` etc.)."""
        return event_handler_attributes(self._attributes)

    # -- queries --------------------------------------------------------------------------

    def element_children(self) -> list["Element"]:
        """Child nodes that are elements."""
        return [child for child in self.children if isinstance(child, Element)]

    def element_descendants(self) -> Iterator["Element"]:
        """All descendant elements, in document order."""
        for node in self.descendants():
            if isinstance(node, Element):
                yield node

    def get_elements_by_tag_name(self, tag_name: str) -> list["Element"]:
        """Descendant elements with the given tag name."""
        wanted = tag_name.lower()
        return [el for el in self.element_descendants() if el.tag_name == wanted]

    def get_element_by_id(self, element_id: str) -> Optional["Element"]:
        """First descendant with the given ``id``."""
        for el in self.element_descendants():
            if el.id == element_id:
                return el
        return None

    def closest_ac_ancestor(self) -> Optional["Element"]:
        """Nearest ancestor that is an AC tag, or ``None``."""
        for ancestor in self.ancestors():
            if isinstance(ancestor, Element) and ancestor.is_ac_tag:
                return ancestor
        return None

    @property
    def is_void(self) -> bool:
        """True when this element never has children (``img``, ``br``...)."""
        return self.tag_name in VOID_ELEMENTS

    @property
    def is_raw_text(self) -> bool:
        """True when this element's content is raw text (``script``, ``style``)."""
        return self.tag_name in RAW_TEXT_ELEMENTS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ident = f"#{self.id}" if self.id else ""
        ring = ""
        if self._security_context is not None:
            ring = f" ring={self._security_context.ring.level}"
        return f"<Element {self.tag_name}{ident}{ring} children={len(self.children)}>"
