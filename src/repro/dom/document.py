"""The Document node.

A :class:`Document` is the root of one parsed page.  It records the URL and
origin the page was loaded from, provides element factories (used both by
the parser and by the mediated DOM API), and offers the usual lookup helpers
(``get_element_by_id``, ``get_elements_by_tag_name``).

The lookups are served from a lazy :class:`LoadManifest`: one walk lists
the tree's nodes, and :meth:`Document.clone` hands every copy its own node
list plus the original's shared shape indexes, so a page served from the
template cache answers its load-time queries (scripts, subresources, ids)
without walking the DOM.  A mutation drops the manifest, except a
text-for-text swap (``textContent`` on an element holding one text node),
which puts the new text node in the old one's slot and keeps the shape: a
page whose script updates a counter still finds its forms without a walk.

A document's tree is one big reference cycle (every node points back at
its ``parent`` and ``owner_document``), so only the cyclic garbage
collector could free it.  :meth:`Document.release` is the owner's way out:
it cuts those back-links in one pass over the manifest's node list, after
which reference counting frees the whole tree the moment its last holder
drops it.  Pages release their documents when they close, and the template
cache releases every tree of a template it evicts.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional

from repro.core.origin import Origin

from .element import Element
from .node import CommentNode, Node, NodeType, TextNode


class TreeShape:
    """The part of a load manifest that depends only on the tree's shape.

    Positions index a document's node list in document order, with the
    document itself at position 0.  ``parents[i]`` is the position of node
    ``i``'s parent (``-1`` for the document); ``by_tag`` maps a tag name to
    its element positions and ``by_id`` maps an id to the position of its
    first element.

    Every clone of a document shares its shape.  Each index is computed on
    first use from the node list of whichever sharer asks first: a document
    holds the shape only while its tree keeps that shape (every mutation
    drops the manifest, except a text-for-text swap, which moves no node
    and changes no element), so every holder gets the same answer.  Once
    computed, an index is never mutated.
    """

    __slots__ = ("parents", "by_tag", "by_id")

    def __init__(self) -> None:
        self.parents: tuple[int, ...] | None = None
        self.by_tag: dict[str, tuple[int, ...]] | None = None
        self.by_id: dict[str, int] | None = None


class LoadManifest:
    """One document's index: its own node list plus a shared :class:`TreeShape`."""

    __slots__ = ("nodes", "shape")

    def __init__(self, nodes: list[Node], shape: TreeShape) -> None:
        self.nodes = nodes
        self.shape = shape

    @classmethod
    def build(cls, document: "Document") -> "LoadManifest":
        """Index ``document`` in one walk; the shape indexes fill in on use."""
        return cls([document, *document.descendants()], TreeShape())

    def parents(self) -> tuple[int, ...]:
        """Each node's parent position (what :meth:`Document.clone` replays)."""
        shape = self.shape
        parents = shape.parents
        if parents is None:
            nodes = self.nodes
            position = {id(node): index for index, node in enumerate(nodes)}
            parents = shape.parents = (
                -1,
                *[position[id(node.parent)] for node in islice(nodes, 1, None)],
            )
        return parents

    def by_tag(self) -> dict[str, tuple[int, ...]]:
        """Tag name -> element positions, in document order."""
        shape = self.shape
        by_tag = shape.by_tag
        if by_tag is None:
            lists: dict[str, list[int]] = {}
            for index, node in enumerate(self.nodes):
                if isinstance(node, Element):
                    positions = lists.get(node.tag_name)
                    if positions is None:
                        lists[node.tag_name] = [index]
                    else:
                        positions.append(index)
            by_tag = shape.by_tag = {tag: tuple(p) for tag, p in lists.items()}
        return by_tag

    def by_id(self) -> dict[str, int]:
        """Element id -> position of its first element in document order."""
        shape = self.shape
        by_id = shape.by_id
        if by_id is None:
            by_id = {}
            for index, node in enumerate(self.nodes):
                if isinstance(node, Element):
                    eid = node._attributes.get("id")
                    if eid is not None and eid not in by_id:
                        by_id[eid] = index
            shape.by_id = by_id
        return by_id


class Document(Node):
    """Root node of a parsed web page."""

    __slots__ = ("url", "doctype", "_manifest")

    node_type = NodeType.DOCUMENT

    def __init__(self, url: str = "about:blank") -> None:
        super().__init__()
        self.url = url
        self.owner_document = self
        self.doctype: str | None = None
        # Lazy load manifest, served to the id and tag-name queries.
        # Structural mutations and ``id`` attribute writes drop it through
        # ``Node._note_tree_change``, so it can never serve a stale element;
        # a text-for-text swap updates its node list in place instead
        # (``Node.replace_children``).
        self._manifest: LoadManifest | None = None

    # -- cloning -------------------------------------------------------------------

    def clone(self) -> "Document":
        """Deep copy of the whole document tree.

        Every node in the copy is a fresh object owned by the cloned
        document; the result is structurally equal to re-parsing the
        document's serialisation, and mutating either tree never affects the
        other.  This is the fast path the HTML template cache uses to serve
        one parsed tree to many page loads.

        The copy is built in one flat pass over this document's manifest
        (node list plus parent positions), and it receives its own node list
        together with the same :class:`TreeShape`: the copy arrives indexed,
        and a tag or id index computed for one copy serves every copy.  The
        clone shares **no mutable state** with the original: child lists,
        attribute maps and text payloads are fresh objects.  Immutable
        values -- strings, the shape's indexes and frozen
        :class:`~repro.core.context.SecurityContext` instances -- are shared
        by reference.
        """
        manifest = self._load_manifest()
        copy = type(self).__new__(type(self))
        copy.parent = None
        copy.children = []
        copy.url = self.url
        copy.owner_document = copy
        copy.doctype = self.doctype
        copies: list[Node] = [copy]
        append = copies.append
        for node, parent_position in zip(
            islice(manifest.nodes, 1, None), islice(manifest.parents(), 1, None)
        ):
            parent = copies[parent_position]
            node_copy = node._clone_shallow(copy, parent)
            parent.children.append(node_copy)
            append(node_copy)
        copy._manifest = LoadManifest(copies, manifest.shape)
        return copy

    # -- teardown ------------------------------------------------------------------

    def release(self) -> None:
        """Cut every ``parent`` and ``owner_document`` back-link of the tree.

        Ends the document's life: afterwards reference counting alone frees
        the tree (child lists only point downwards), and the document must
        not be used again.  One pass over the load manifest's node list, or
        a tree walk when a mutation dropped the manifest.  Clones already
        made from this document are independent trees and are untouched.
        """
        manifest = self._manifest
        nodes = manifest.nodes if manifest is not None else (self, *self.descendants())
        for node in nodes:
            node.parent = None
            node.owner_document = None
        # The manifest's node list holds the document itself.
        self._manifest = None

    # -- identity ------------------------------------------------------------------

    @property
    def origin(self) -> Origin | None:
        """The document's origin, or ``None`` for ``about:blank``."""
        try:
            return Origin.parse(self.url)
        except Exception:
            return None

    # -- factories ------------------------------------------------------------------

    def create_element(self, tag_name: str, attributes: dict[str, str] | None = None) -> Element:
        """Create a detached element owned by this document."""
        element = Element(tag_name, attributes)
        element.owner_document = self
        return element

    def create_text_node(self, data: str) -> TextNode:
        """Create a detached text node owned by this document."""
        node = TextNode(data)
        node.owner_document = self
        return node

    def create_comment(self, data: str) -> CommentNode:
        """Create a detached comment node owned by this document."""
        node = CommentNode(data)
        node.owner_document = self
        return node

    # -- well-known elements ------------------------------------------------------------

    @property
    def document_element(self) -> Optional[Element]:
        """The root ``<html>`` element (or the first element child)."""
        for child in self.children:
            if isinstance(child, Element):
                return child
        return None

    @property
    def head(self) -> Optional[Element]:
        """The ``<head>`` element, if present."""
        return self._find_direct("head")

    @property
    def body(self) -> Optional[Element]:
        """The ``<body>`` element, if present."""
        return self._find_direct("body")

    def _find_direct(self, tag_name: str) -> Optional[Element]:
        root = self.document_element
        if root is None:
            return None
        if root.tag_name == tag_name:
            return root
        for child in root.element_children():
            if child.tag_name == tag_name:
                return child
        for el in self.elements():
            if el.tag_name == tag_name:
                return el
        return None

    # -- lookups --------------------------------------------------------------------------

    def elements(self) -> Iterator[Element]:
        """All elements in document order."""
        for node in self.descendants():
            if isinstance(node, Element):
                yield node

    def _load_manifest(self) -> LoadManifest:
        """The document's manifest, built on first use after a mutation."""
        manifest = self._manifest
        if manifest is None:
            manifest = self._manifest = LoadManifest.build(self)
        return manifest

    def get_element_by_id(self, element_id: str) -> Optional[Element]:
        """First element with the given ``id``."""
        manifest = self._load_manifest()
        position = manifest.by_id().get(element_id)
        if position is None:
            return None
        return manifest.nodes[position]  # type: ignore[return-value]

    def get_elements_by_tag_name(self, tag_name: str) -> list[Element]:
        """Every element with the given tag name, in document order."""
        manifest = self._load_manifest()
        nodes = manifest.nodes
        positions = manifest.by_tag().get(tag_name.lower(), ())
        return [nodes[position] for position in positions]  # type: ignore[misc]

    def get_elements_by_class_name(self, class_name: str) -> list[Element]:
        """Every element whose ``class`` attribute contains ``class_name``."""
        return [el for el in self.elements() if class_name in el.class_list]

    def scripts(self) -> list[Element]:
        """Every ``<script>`` element, in document order."""
        return self.get_elements_by_tag_name("script")

    def count_elements(self) -> int:
        """Total number of elements (used by the benchmark reports)."""
        return sum(1 for _ in self.elements())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Document {self.url!r} elements={self.count_elements()}>"
