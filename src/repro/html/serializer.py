"""DOM → HTML serialisation.

Round-trips the reproduction's DOM trees back to markup.  Used by the
mediated ``innerHTML`` getter, by the template engine's output stage, and by
tests that assert on rendered pages.
"""

from __future__ import annotations

from repro.dom.document import Document
from repro.dom.element import Element, RAW_TEXT_ELEMENTS, VOID_ELEMENTS
from repro.dom.node import CommentNode, Node, TextNode

from .entities import escape_attribute, escape_text


def serialize(node: Node, *, indent: bool = False) -> str:
    """Serialise a node (and its subtree) to HTML text.

    ``indent`` pretty-prints with two-space indentation; the default compact
    form is byte-stable for round-trip tests.
    """
    pieces: list[str] = []
    if isinstance(node, Document):
        if node.doctype:
            pieces.append(f"<!{node.doctype}>")
            if indent:
                pieces.append("\n")
        _serialize_nodes(node.children, pieces, indent)
    else:
        _serialize_nodes((node,), pieces, indent)
    return "".join(pieces)


def serialize_children(node: Node, *, indent: bool = False) -> str:
    """Serialise only the children of ``node`` (the ``innerHTML`` view)."""
    pieces: list[str] = []
    _serialize_nodes(node.children, pieces, indent)
    return "".join(pieces)


def _serialize_nodes(nodes, pieces: list[str], indent: bool) -> None:
    """Append the markup of ``nodes`` and their subtrees to ``pieces``.

    Iterative, over a stack of child iterators each with the closing tag
    its parent still owes, so arbitrarily deep content serialises without
    exhausting Python's recursion limit.
    """
    newline = "\n" if indent else ""
    stack = [(iter(nodes), 0, "")]
    while stack:
        children, depth, closing = stack[-1]
        pad = "  " * depth if indent else ""
        for node in children:
            if isinstance(node, TextNode):
                parent = node.parent
                if isinstance(parent, Element) and parent.tag_name in RAW_TEXT_ELEMENTS:
                    text = node.data
                else:
                    text = escape_text(node.data)
                if indent:
                    stripped = text.strip()
                    if stripped:
                        pieces.append(f"{pad}{stripped}{newline}")
                else:
                    pieces.append(text)
            elif isinstance(node, CommentNode):
                pieces.append(f"{pad}<!--{node.data}-->{newline}")
            elif isinstance(node, Element):
                attrs = _serialize_attributes(node)
                pieces.append(f"{pad}<{node.tag_name}{attrs}>{newline}")
                if node.tag_name in VOID_ELEMENTS and not node.children:
                    continue
                end_tag = f"{pad}</{node.tag_name}>{newline}"
                if node.children:
                    stack.append((iter(node.children), depth + 1, end_tag))
                    break
                pieces.append(end_tag)
            else:
                # Unknown node types (e.g. a Document nested oddly) serialise their children.
                stack.append((iter(node.children), depth, ""))
                break
        else:
            stack.pop()
            pieces.append(closing)


def _serialize_attributes(element: Element) -> str:
    parts = []
    for name, value in element.attributes.items():
        if value == "":
            parts.append(f" {name}")
        else:
            parts.append(f' {name}="{escape_attribute(value)}"')
    return "".join(parts)
