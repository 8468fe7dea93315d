"""Synthetic renderer.

The paper's Figure 4 measures "parsing and rendering time" in the Lobo
browser.  The reproduction has no pixels, but the overhead comparison only
needs a rendering stage whose cost scales with page size the way layout
does, so that the ESCUDO bookkeeping added to the pipeline can be expressed
as a percentage of realistic work.

The renderer builds a box tree from the DOM: block and inline boxes,
synthetic text measurement (per-character advance widths), and a simple
flow layout that assigns every box a position and size inside a viewport.
The amount of arithmetic per element is deliberately comparable to what a
simple layout engine does, and it is completely deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dom.document import Document
from repro.dom.element import Element
from repro.dom.node import Node, NodeType, TextNode

#: Elements laid out as blocks; everything else is treated as inline.
BLOCK_ELEMENTS = frozenset(
    {"html", "body", "div", "p", "h1", "h2", "h3", "h4", "ul", "ol", "li", "table",
     "tr", "td", "th", "form", "blockquote", "pre", "section", "article", "header",
     "footer", "nav", "fieldset"}
)

#: Elements that never produce boxes.
NON_RENDERED = frozenset({"head", "script", "style", "meta", "link", "title"})

#: Synthetic font metrics: per-character advance widths (a small proportional
#: font table) and line height.  Text measurement walks the glyphs the way a
#: simple layout engine does, so rendering cost scales with text volume.
CHAR_WIDTH = 7.2
LINE_HEIGHT = 16.0
DEFAULT_VIEWPORT_WIDTH = 1024.0

_ADVANCE_WIDTHS = {
    " ": 3.6, ".": 3.2, ",": 3.2, "i": 3.4, "l": 3.4, "j": 3.6, "f": 4.2, "t": 4.4,
    "r": 4.8, "s": 5.8, "a": 6.4, "c": 6.2, "e": 6.4, "o": 6.8, "n": 6.8, "u": 6.8,
    "m": 10.4, "w": 9.6, "W": 12.2, "M": 11.6, "0": 7.0, "1": 7.0, "2": 7.0,
}


def measure_text(text: str) -> float:
    """Synthetic text measurement: sum of per-character advance widths."""
    total = 0.0
    widths = _ADVANCE_WIDTHS
    for ch in text:
        total += widths.get(ch, CHAR_WIDTH)
    return total


@dataclass
class LayoutBox:
    """One box in the layout tree."""

    element_tag: str
    x: float = 0.0
    y: float = 0.0
    width: float = 0.0
    height: float = 0.0
    is_block: bool = True
    text_length: int = 0
    text_width: float = 0.0
    children: list["LayoutBox"] = field(default_factory=list)

    def box_count(self) -> int:
        """Total number of boxes in this subtree (including this one)."""
        count = 0
        stack = [self]
        while stack:
            box = stack.pop()
            count += 1
            stack.extend(box.children)
        return count


@dataclass
class RenderStats:
    """Aggregate counters describing one rendering pass."""

    boxes: int = 0
    text_runs: int = 0
    characters: int = 0
    document_height: float = 0.0
    skipped_elements: int = 0


class Renderer:
    """Builds and lays out the box tree for a document."""

    def __init__(self, viewport_width: float = DEFAULT_VIEWPORT_WIDTH) -> None:
        self.viewport_width = viewport_width

    def render(self, document: Document) -> tuple[LayoutBox, RenderStats]:
        """Render ``document`` and return the root box plus statistics."""
        stats = RenderStats()
        root_element = document.document_element
        root_box = LayoutBox(element_tag="viewport", width=self.viewport_width, is_block=True)
        if root_element is not None:
            self._build_boxes(root_element, root_box, stats)
        height = self._layout(root_box, 0.0, 0.0, self.viewport_width)
        root_box.height = height
        stats.document_height = height
        stats.boxes = root_box.box_count()
        return root_box, stats

    # -- box construction -----------------------------------------------------------

    def _build_boxes(self, root: Node, parent: LayoutBox, stats: RenderStats) -> None:
        """Append the box tree of ``root`` (if it renders) to ``parent``'s children.

        An explicit pre-order walk over a stack of child iterators, so deep
        content builds without exhausting Python's recursion limit.
        """
        box_for = self._box_for
        box = box_for(root, stats)
        if box is None:
            return
        parent.children.append(box)
        stack = [(iter(root.children), box)]
        while stack:
            nodes, parent = stack[-1]
            for node in nodes:
                box = box_for(node, stats)
                if box is not None:
                    parent.children.append(box)
                    if node.children:
                        stack.append((iter(node.children), box))
                        break
            else:
                stack.pop()

    def _box_for(self, node: Node, stats: RenderStats) -> LayoutBox | None:
        """The box of one node (its children not included), or ``None``."""
        if node.node_type is NodeType.TEXT:
            assert isinstance(node, TextNode)
            text = node.data.strip()
            if not text:
                return None
            stats.text_runs += 1
            stats.characters += len(text)
            return LayoutBox(
                element_tag="#text",
                is_block=False,
                text_length=len(text),
                text_width=measure_text(text),
            )
        if not isinstance(node, Element):
            return None
        if node.tag_name in NON_RENDERED:
            stats.skipped_elements += 1
            return None
        return LayoutBox(element_tag=node.tag_name, is_block=node.tag_name in BLOCK_ELEMENTS)

    # -- layout ------------------------------------------------------------------------

    def _layout(self, root: LayoutBox, x: float, y: float, available_width: float) -> float:
        """Flow layout of ``root``'s subtree: returns the height ``root`` consumes.

        Iterative: the flow state of every open box (one whose children are
        still being placed) waits on an explicit stack, so deep content lays
        out without exhausting Python's recursion limit.  Leaves are placed
        in line.
        """
        if not root.children:
            return _place_leaf(root, x, y, available_width)
        _place(root, x, y, available_width)
        stack = []
        # The flow state of the innermost open box.
        box, children, left, width = root, iter(root.children), x, available_width
        cursor_x, cursor_y, line_height, total_height = x, y, 0.0, 0.0
        while True:
            for child in children:
                if child.is_block:
                    if line_height:
                        cursor_y += line_height
                        total_height += line_height
                        line_height = 0.0
                        cursor_x = left
                    child_x, child_width = left, width
                else:
                    advance = max(child.text_width, CHAR_WIDTH)
                    if cursor_x + advance > left + width and cursor_x > left:
                        cursor_y += max(line_height, LINE_HEIGHT)
                        total_height += max(line_height, LINE_HEIGHT)
                        cursor_x = left
                        line_height = 0.0
                    child_x, child_width = cursor_x, width - (cursor_x - left)
                if child.children:
                    # Open the child; its parent resumes once it is closed.
                    _place(child, child_x, cursor_y, child_width)
                    stack.append((box, children, left, width, cursor_x, cursor_y, line_height, total_height))
                    box, children, left, width = child, iter(child.children), child_x, child_width
                    cursor_x, line_height, total_height = child_x, 0.0, 0.0
                    break
                consumed = _place_leaf(child, child_x, cursor_y, child_width)
                if child.is_block:
                    cursor_y += consumed
                    total_height += consumed
                else:
                    cursor_x += advance
                    line_height = max(line_height, consumed)
            else:
                # Every child is placed: close the box and resume its parent.
                if line_height:
                    total_height += line_height
                box.height = consumed = total_height
                if not stack:
                    return consumed
                child = box
                box, children, left, width, cursor_x, cursor_y, line_height, total_height = stack.pop()
                if child.is_block:
                    cursor_y += consumed
                    total_height += consumed
                else:
                    cursor_x += max(child.text_width, CHAR_WIDTH)
                    line_height = max(line_height, consumed)


def _place(box: LayoutBox, x: float, y: float, available_width: float) -> None:
    """Position a box and set its width (its height follows from its children)."""
    box.x = x
    box.y = y
    box.width = available_width if box.is_block else min(available_width, box.text_width)


def _place_leaf(box: LayoutBox, x: float, y: float, available_width: float) -> float:
    """Place a box without children; returns its height."""
    box.x = x
    box.y = y
    box.width = available_width if box.is_block else min(available_width, box.text_width)
    if box.element_tag == "#text":
        # Wrap the text run into as many lines as the width requires.
        usable = max(available_width, CHAR_WIDTH)
        lines = max(1, -(-int(box.text_width) // int(usable)))
        box.height = lines * LINE_HEIGHT
    else:
        box.height = LINE_HEIGHT if not box.is_block else 0.0
    return box.height


def render_document(document: Document, viewport_width: float = DEFAULT_VIEWPORT_WIDTH) -> RenderStats:
    """Convenience wrapper returning only the statistics."""
    _, stats = Renderer(viewport_width).render(document)
    return stats
