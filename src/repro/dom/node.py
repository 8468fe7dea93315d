"""DOM node base classes.

The browser represents a parsed page as a tree of nodes: elements, text,
comments and the document root.  This module provides the structural layer
-- parent/child links, insertion and removal, tree traversal -- with no
security semantics.  Scripts reach the tree only through the element and
``document`` bindings of :mod:`repro.browser.script_runtime`, which mediate
every access through :class:`~repro.dom.dom_api.DomApi`.
"""

from __future__ import annotations

import enum
from typing import Iterator, Optional


class NodeType(enum.IntEnum):
    """Subset of DOM node types the reproduction models."""

    ELEMENT = 1
    TEXT = 3
    COMMENT = 8
    DOCUMENT = 9


class Node:
    """Base class for every node in the document tree.

    Every node class declares ``__slots__``: a page template keeps thousands
    of nodes alive for the whole run, and a per-instance ``__dict__`` would
    be most of each node's footprint.  ``__weakref__`` stays so callers can
    watch a node's lifetime.
    """

    __slots__ = ("parent", "children", "owner_document", "__weakref__")

    node_type: NodeType = NodeType.ELEMENT

    def __init__(self) -> None:
        self.parent: Optional["Node"] = None
        self.children: list["Node"] = []
        self.owner_document = None  # set by Document.adopt / the parser

    # -- structure ----------------------------------------------------------------

    def _note_tree_change(self) -> None:
        """Drop the owning document's load manifest.

        This is the manifest's single invalidation point: structural
        mutations and ``id`` attribute writes call it, and the next
        manifest query rebuilds the index in one walk.  The one mutation
        that keeps the manifest is a text-for-text swap (see
        :meth:`replace_children`), which updates it in place instead.
        ``owner_document`` is authoritative for attached nodes (adoption
        re-owns whole subtrees, see :meth:`_adopt`), so invalidation is one
        attribute check -- which matters because the parser appends through
        this hook.  Mutations on a detached subtree conservatively
        invalidate the owning document too -- harmless over-invalidation,
        and free while the manifest is unbuilt.
        """
        owner = self.owner_document
        if owner is not None and owner._manifest is not None:  # type: ignore[attr-defined]
            owner._manifest = None  # type: ignore[attr-defined]

    def _adopt(self, child: "Node") -> None:
        """Point ``child`` (and, when it moves documents, its whole subtree)
        at this node's owner document.

        Re-owning the subtree keeps ``owner_document`` authoritative for
        every attached node; the walk only runs on cross-document adoption,
        never on same-document moves or parser appends.
        """
        owner = self.owner_document
        if child.owner_document is owner:
            return
        child.owner_document = owner
        for node in child.descendants():
            node.owner_document = owner

    def append_child(self, child: "Node") -> "Node":
        """Append ``child`` (detaching it from any previous parent) and return it."""
        if child is self or self._is_ancestor(child):
            raise ValueError("cannot append a node inside itself")
        child.detach()
        child.parent = self
        self._adopt(child)
        self.children.append(child)
        self._note_tree_change()
        return child

    def insert_before(self, new_child: "Node", reference: "Node | None") -> "Node":
        """Insert ``new_child`` immediately before ``reference`` (or append)."""
        if reference is None:
            return self.append_child(new_child)
        if reference.parent is not self:
            raise ValueError("reference node is not a child of this node")
        new_child.detach()
        new_child.parent = self
        self._adopt(new_child)
        index = self.children.index(reference)
        self.children.insert(index, new_child)
        self._note_tree_change()
        return new_child

    def remove_child(self, child: "Node") -> "Node":
        """Remove ``child`` and return it."""
        if child.parent is not self:
            raise ValueError("node to remove is not a child of this node")
        self._note_tree_change()
        self.children.remove(child)
        child.parent = None
        return child

    def detach(self) -> None:
        """Remove this node from its parent, if attached."""
        if self.parent is not None:
            self.parent.remove_child(self)

    def replace_children(self, new_children: list["Node"]) -> None:
        """Drop every existing child and adopt ``new_children`` in order.

        Replacing a single text child with a single detached text node (a
        ``textContent`` write, or an ``innerHTML`` write of plain text)
        moves no element, so it keeps the owning document's load manifest
        (see :meth:`_swap_text`).
        """
        children = self.children
        if (
            len(children) == 1
            and len(new_children) == 1
            and children[0].node_type is NodeType.TEXT
            and new_children[0].node_type is NodeType.TEXT
            and new_children[0].parent is None
        ):
            self._swap_text(new_children[0])
            return
        for child in list(children):
            self.remove_child(child)
        for child in new_children:
            self.append_child(child)

    def _swap_text(self, new: "Node") -> None:
        """Put the detached text node ``new`` in place of the only child.

        The new node takes the old one's slot in the owning document's
        manifest node list; positions, parents and the element indexes
        stay as they were.
        """
        old = self.children[0]
        owner = self.owner_document
        manifest = owner._manifest if owner is not None else None  # type: ignore[attr-defined]
        if manifest is not None:
            nodes = manifest.nodes
            try:
                nodes[nodes.index(old)] = new
            except ValueError:
                pass  # a detached subtree: the manifest never listed it
        old.parent = None
        new.parent = self
        new.owner_document = owner
        self.children[0] = new

    def _is_ancestor(self, candidate: "Node") -> bool:
        node = self.parent
        while node is not None:
            if node is candidate:
                return True
            node = node.parent
        return False

    # -- cloning ------------------------------------------------------------------

    def _clone_shallow(self, owner, parent) -> "Node":
        """A copy of this node without its children, owned by ``owner`` and
        pointing at ``parent`` (the caller links it into ``parent.children``).

        Subclasses copy their own payload (text data, attributes).  The copy
        bypasses ``__init__`` and subclasses inline the structural fields
        instead of chaining through ``super()``: cloning is the template
        cache's per-page-load hot path (see
        :meth:`Document.clone <repro.dom.document.Document.clone>`), and the
        extra call costs as much as the copy itself.
        """
        cls = type(self)
        clone = cls.__new__(cls)
        clone.parent = parent
        clone.children = []
        clone.owner_document = owner
        return clone

    # -- traversal -------------------------------------------------------------------

    def descendants(self) -> Iterator["Node"]:
        """Yield every descendant in document order (depth first).

        Iterative (explicit stack) rather than recursive: nested ``yield
        from`` chains cost one generator frame per tree level *per node*,
        which made traversal the hottest path of the whole-document sweeps
        (``elements()``, tag-name queries, serialisation).
        """
        stack = self.children[::-1]
        pop = stack.pop
        extend = stack.extend
        while stack:
            node = pop()
            yield node
            children = node.children
            if children:
                extend(children[::-1])

    def ancestors(self) -> Iterator["Node"]:
        """Yield ancestors from the parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    @property
    def first_child(self) -> Optional["Node"]:
        """First child or ``None``."""
        return self.children[0] if self.children else None

    @property
    def last_child(self) -> Optional["Node"]:
        """Last child or ``None``."""
        return self.children[-1] if self.children else None

    @property
    def next_sibling(self) -> Optional["Node"]:
        """The following sibling, if any."""
        if self.parent is None:
            return None
        siblings = self.parent.children
        index = siblings.index(self)
        return siblings[index + 1] if index + 1 < len(siblings) else None

    @property
    def previous_sibling(self) -> Optional["Node"]:
        """The preceding sibling, if any."""
        if self.parent is None:
            return None
        siblings = self.parent.children
        index = siblings.index(self)
        return siblings[index - 1] if index > 0 else None

    # -- content --------------------------------------------------------------------

    @property
    def text_content(self) -> str:
        """Concatenated text of every descendant text node."""
        parts: list[str] = []
        for node in self.descendants():
            if node.node_type is NodeType.TEXT:
                parts.append(node.data)  # type: ignore[attr-defined]
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} children={len(self.children)}>"


class TextNode(Node):
    """A run of character data."""

    __slots__ = ("data",)

    node_type = NodeType.TEXT

    def __init__(self, data: str = "") -> None:
        super().__init__()
        self.data = data

    def _clone_shallow(self, owner, parent) -> "TextNode":
        cls = type(self)
        clone = cls.__new__(cls)
        clone.parent = parent
        clone.children = []
        clone.owner_document = owner
        clone.data = self.data
        return clone

    @property
    def text_content(self) -> str:
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.data if len(self.data) <= 30 else self.data[:27] + "..."
        return f"<TextNode {preview!r}>"


class CommentNode(Node):
    """An HTML comment (``<!-- ... -->``)."""

    __slots__ = ("data",)

    node_type = NodeType.COMMENT

    def __init__(self, data: str = "") -> None:
        super().__init__()
        self.data = data

    # Same payload as a text node.
    _clone_shallow = TextNode._clone_shallow

    @property
    def text_content(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CommentNode {self.data[:30]!r}>"
