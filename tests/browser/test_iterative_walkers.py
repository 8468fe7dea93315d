"""The iterative tree walkers reproduce the recursive walks they replaced.

The page labeller, the renderer's box builder and flow layout,
``LayoutBox.box_count``, the serializer and the labelling of script-created
subtrees all walk the DOM (or the box tree) with explicit stacks, so content
nested past Python's recursion limit still loads.  Each walk must stay
observably identical to the straightforward recursive definition kept here
as a reference: the same elements labelled in the same order with the same
contexts, the same :class:`LabelingStats` and :class:`RenderStats`, the same
box geometry and the same markup.  The corpus is every HTML page of the
three applications (ESCUDO and legacy builds) plus hand-made pages that
reach the walkers' less common branches: scoping clamps, line wrapping,
void elements, comments, raw text and nesting a few hundred levels deep.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.attacks.harness import make_application
from repro.browser.labeler import LabelingStats, PageLabeler, document_uses_escudo
from repro.browser.loader import _upgraded_for_ac_tags
from repro.browser.renderer import (
    BLOCK_ELEMENTS,
    CHAR_WIDTH,
    LINE_HEIGHT,
    NON_RENDERED,
    LayoutBox,
    Renderer,
    RenderStats,
    measure_text,
)
from repro.core.config import PageConfiguration, extract_ac_label
from repro.core.context import SecurityContext
from repro.core.monitor import ReferenceMonitor
from repro.core.nonce import NonceValidator
from repro.core.origin import Origin
from repro.core.rings import Ring
from repro.core.scoping import effective_ring
from repro.dom.document import Document
from repro.dom.dom_api import DomApi
from repro.dom.element import Element, RAW_TEXT_ELEMENTS, VOID_ELEMENTS
from repro.dom.node import CommentNode, Node, NodeType, TextNode
from repro.html.entities import escape_attribute, escape_text
from repro.html.parser import TreeBuilder, parse_fragment
from repro.html.serializer import serialize, serialize_children
from repro.http.messages import HttpRequest
from repro.http.url import Url

from .conftest import FORUM_BODY, ORIGIN_TEXT, forum_configuration

# -- recursive references ---------------------------------------------------------------


class RecursiveLabeler(PageLabeler):
    """The labeller's walk written as one recursive call per element."""

    def label_document(self, document: Document) -> LabelingStats:
        default = self.page_default_context()
        for child in document.children:
            if isinstance(child, Element):
                self._label(child, default, Ring(0))
        return self.stats

    def _label(self, element: Element, scope: SecurityContext, bound: Ring) -> None:
        context = scope
        child_bound = bound
        if self.escudo_enabled and element.is_ac_tag:
            context = self._scope_for_ac_tag(element, bound)
            child_bound = context.ring
            self.stats.ac_tags += 1
        if element.security_context is None:
            element.assign_security_context(context)
        self.stats.note(context.ring.level)
        for child in element.element_children():
            self._label(child, context, child_bound)


def recursive_render(document: Document, viewport_width: float) -> tuple[LayoutBox, RenderStats]:
    """Build and lay out the box tree with one recursive call per box."""
    stats = RenderStats()
    root_box = LayoutBox(element_tag="viewport", width=viewport_width, is_block=True)
    if document.document_element is not None:
        child_box = _recursive_build(document.document_element, stats)
        if child_box is not None:
            root_box.children.append(child_box)
    height = _recursive_layout(root_box, 0.0, 0.0, viewport_width)
    root_box.height = height
    stats.document_height = height
    stats.boxes = recursive_box_count(root_box)
    return root_box, stats


def _recursive_build(node: Node, stats: RenderStats) -> LayoutBox | None:
    if node.node_type is NodeType.TEXT:
        assert isinstance(node, TextNode)
        text = node.data.strip()
        if not text:
            return None
        stats.text_runs += 1
        stats.characters += len(text)
        return LayoutBox(
            element_tag="#text", is_block=False, text_length=len(text), text_width=measure_text(text)
        )
    if not isinstance(node, Element):
        return None
    if node.tag_name in NON_RENDERED:
        stats.skipped_elements += 1
        return None
    box = LayoutBox(element_tag=node.tag_name, is_block=node.tag_name in BLOCK_ELEMENTS)
    for child in node.children:
        child_box = _recursive_build(child, stats)
        if child_box is not None:
            box.children.append(child_box)
    return box


def _recursive_layout(box: LayoutBox, x: float, y: float, available_width: float) -> float:
    box.x = x
    box.y = y
    box.width = available_width if box.is_block else min(available_width, box.text_width)
    if not box.children:
        if box.element_tag == "#text":
            usable = max(available_width, CHAR_WIDTH)
            lines = max(1, -(-int(box.text_width) // int(usable)))
            box.height = lines * LINE_HEIGHT
        else:
            box.height = LINE_HEIGHT if not box.is_block else 0.0
        return box.height
    cursor_y = y
    cursor_x = x
    line_height = 0.0
    total_height = 0.0
    for child in box.children:
        if child.is_block:
            if line_height:
                cursor_y += line_height
                total_height += line_height
                line_height = 0.0
                cursor_x = x
            consumed = _recursive_layout(child, x, cursor_y, available_width)
            cursor_y += consumed
            total_height += consumed
        else:
            child_width = max(child.text_width, CHAR_WIDTH)
            if cursor_x + child_width > x + available_width and cursor_x > x:
                cursor_y += max(line_height, LINE_HEIGHT)
                total_height += max(line_height, LINE_HEIGHT)
                cursor_x = x
                line_height = 0.0
            consumed = _recursive_layout(child, cursor_x, cursor_y, available_width - (cursor_x - x))
            cursor_x += child_width
            line_height = max(line_height, consumed)
    if line_height:
        total_height += line_height
    box.height = total_height
    return total_height


def recursive_box_count(box: LayoutBox) -> int:
    count = 1
    for child in box.children:
        count += recursive_box_count(child)
    return count


def recursive_serialize(node: Node, *, indent: bool = False) -> str:
    pieces: list[str] = []
    if isinstance(node, Document):
        if node.doctype:
            pieces.append(f"<!{node.doctype}>")
            if indent:
                pieces.append("\n")
        for child in node.children:
            _recursive_serialize_node(child, pieces, 0, indent)
    else:
        _recursive_serialize_node(node, pieces, 0, indent)
    return "".join(pieces)


def _recursive_serialize_node(node: Node, pieces: list[str], depth: int, indent: bool) -> None:
    pad = "  " * depth if indent else ""
    newline = "\n" if indent else ""
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
        return
    if isinstance(node, CommentNode):
        pieces.append(f"{pad}<!--{node.data}-->{newline}")
        return
    if isinstance(node, Element):
        attrs = "".join(
            f" {name}" if value == "" else f' {name}="{escape_attribute(value)}"'
            for name, value in node.attributes.items()
        )
        pieces.append(f"{pad}<{node.tag_name}{attrs}>{newline}")
        if node.tag_name in VOID_ELEMENTS and not node.children:
            return
        for child in node.children:
            _recursive_serialize_node(child, pieces, depth + 1, indent)
        pieces.append(f"{pad}</{node.tag_name}>{newline}")
        return
    for child in node.children:
        _recursive_serialize_node(child, pieces, depth, indent)


def recursive_created_contexts(
    element: Element, parent_context: SecurityContext, creator_ring: Ring
) -> list[SecurityContext]:
    """The contexts a created subtree should carry, in document order."""
    label = extract_ac_label(element.attributes)
    ring = effective_ring(label.declared_ring, parent_context.ring).restricted_to(creator_ring)
    context = SecurityContext(
        origin=parent_context.origin,
        ring=ring,
        acl=label.acl if label.acl is not None else parent_context.acl,
        label=f"dynamic <{element.tag_name}>",
    )
    contexts = [context]
    for child in element.element_children():
        contexts.extend(recursive_created_contexts(child, context, creator_ring))
    return contexts


# -- the page corpus --------------------------------------------------------------------

#: Every HTML page the applications serve without a session.
APP_PAGES = [
    (app, path, escudo)
    for app, path in (
        ("phpbb", "/"),
        ("phpbb", "/viewtopic?t=1"),
        ("blog", "/"),
        ("blog", "/post?id=1"),
        ("phpcalendar", "/"),
        ("phpcalendar", "/view?id=1"),
    )
    for escudo in (True, False)
]


def _nested(depth: int) -> str:
    tags = ("div", "span", "b", "p", "em")
    opening = "".join(f"<{tags[level % len(tags)]}>t{level} " for level in range(depth))
    closing = "".join(f"</{tags[level % len(tags)]}>" for level in reversed(range(depth)))
    return opening + closing


#: Hand-made pages as ``(body, ESCUDO headers?)``.
STATIC_PAGES = {
    "forum": (FORUM_BODY, True),
    "clamped-scopes": (
        "<html><body>"
        '<div ring="2" r="2" w="2" x="2" id="outer">outer'
        '<div ring="0" id="escalating">clamped to 2<div ring="3">three</div></div>'
        "<!-- between scopes -->"
        '<div ring="1" r="1">also clamped<span>leaf</span></div>'
        "</div>"
        '<div ring="1">top-level sibling</div>plain text'
        "</body></html>",
        True,
    ),
    "ac-tags-without-headers": (
        '<html><body><div ring="1" id="chrome"><p>menu</p></div>'
        '<div ring="3" r="2" w="2" x="2"><p>user</p></div></body></html>',
        False,
    ),
    "line-wrapping": (
        "<html><body><div>"
        + "<span>word after word after word</span> " * 40
        + "<b><i>nested inline</i> tail</b><p>block flushes the line</p>"
        "<span></span><div></div><em>after an empty block</em>"
        "</div><table><tr><td>cell "
        + "wide " * 300
        + "</td></tr></table></body></html>",
        False,
    ),
    "void-comments-raw-text": (
        "<!DOCTYPE html><html><head><title>a &amp; b</title>"
        "<style>p > b { color: red; }</style></head><body>"
        '<img src="/x.png" alt=""><br><input type="text" value="&quot;q&quot;" disabled>'
        "<!-- a comment --><p>1 &lt; 2 &amp;&amp; 3 &gt; 2</p>"
        "<script>if (1 < 2 && 3 > 2) { var s = '</p>'; }</script>"
        "<pre>  spaced\n  lines  </pre><ul><li>one<li>two</ul>"
        "</body></html>",
        False,
    ),
    "nested-300-deep": ("<html><body>" + _nested(300) + "</body></html>", True),
}

PAGE_IDS = [f"{app}{path}{'' if escudo else ' (legacy)'}" for app, path, escudo in APP_PAGES] + list(
    STATIC_PAGES
)
PAGES = [("app", page) for page in APP_PAGES] + [("static", name) for name in STATIC_PAGES]


def _response(kind: str, key) -> tuple[str, str, PageConfiguration]:
    """``(body, url, configuration)`` of one corpus page."""
    if kind == "static":
        body, escudo_headers = STATIC_PAGES[key]
        configuration = forum_configuration() if escudo_headers else PageConfiguration.legacy()
        return body, f"{ORIGIN_TEXT}/page", configuration
    app_key, path, escudo = key
    app = make_application(app_key, escudo_enabled=escudo)
    url = Url.parse(f"{app.origin}{path}")
    response = app.handle_request(HttpRequest(method="GET", url=url))
    assert response.status == 200 and "<html" in response.body
    return response.body, str(url), PageConfiguration.from_headers(response.headers)


def _parse(body: str, url: str, configuration: PageConfiguration):
    """Parse as the cold loader does: ``(document, configuration, escudo_enabled)``."""
    document = TreeBuilder(url=url, nonce_validator=NonceValidator()).build(body)
    escudo_enabled = configuration.escudo_enabled or document_uses_escudo(document)
    if escudo_enabled and not configuration.escudo_enabled:
        configuration = _upgraded_for_ac_tags(configuration)
    return document, configuration, escudo_enabled


@pytest.fixture(params=PAGES, ids=PAGE_IDS)
def page(request):
    return _response(*request.param)


def _flatten(root: LayoutBox) -> list[tuple]:
    """Every box of the tree in pre-order, with its geometry and fan-out."""
    rows = []
    stack = [root]
    while stack:
        box = stack.pop()
        rows.append(
            (box.element_tag, box.x, box.y, box.width, box.height, box.is_block,
             box.text_length, box.text_width, len(box.children))
        )
        stack.extend(reversed(box.children))
    return rows


# -- equivalence over the corpus ------------------------------------------------------------


def test_labeller_visits_like_the_recursive_walk(page):
    body, url, configuration = page
    walks = []
    for labeler_class in (PageLabeler, RecursiveLabeler):
        document, config, escudo_enabled = _parse(body, url, configuration)
        labeler = labeler_class(Url.parse(url).origin, config, escudo_enabled=escudo_enabled)
        original = Element.assign_security_context
        with mock.patch.object(
            Element, "assign_security_context", autospec=True, side_effect=original
        ) as assign:
            stats = labeler.label_document(document)
        position = {id(element): index for index, element in enumerate(document.elements())}
        visits = [(position[id(call.args[0])], call.args[1]) for call in assign.call_args_list]
        walks.append((visits, stats, list(stats.ring_histogram.items())))
    (visits, stats, histogram), (expected_visits, expected_stats, expected_histogram) = walks
    assert len(visits) == stats.labelled_elements > 0
    assert visits == expected_visits
    assert stats == expected_stats
    assert histogram == expected_histogram


def test_renderer_lays_out_the_recursive_box_tree(page):
    body, url, configuration = page
    document, _, _ = _parse(body, url, configuration)
    for width in (1024.0, 120.0):
        root, stats = Renderer(width).render(document)
        expected_root, expected_stats = recursive_render(document, width)
        assert stats == expected_stats
        assert _flatten(root) == _flatten(expected_root)


def test_box_count_matches_the_recursive_count_in_every_subtree(page):
    body, url, configuration = page
    document, _, _ = _parse(body, url, configuration)
    root, stats = Renderer().render(document)
    assert root.box_count() == recursive_box_count(root) == stats.boxes
    stack = [root]
    while stack:
        box = stack.pop()
        assert box.box_count() == recursive_box_count(box)
        stack.extend(box.children)


def test_serializer_writes_the_recursive_markup(page):
    body, url, configuration = page
    document, _, _ = _parse(body, url, configuration)
    for indent in (False, True):
        assert serialize(document, indent=indent) == recursive_serialize(document, indent=indent)
        for element in document.elements():
            expected_children = "".join(
                recursive_serialize(child, indent=indent) for child in element.children
            )
            assert serialize_children(element, indent=indent) == expected_children
            assert serialize(element, indent=indent) == recursive_serialize(element, indent=indent)


# -- script-created subtrees --------------------------------------------------------------

ORIGIN = Origin.parse(ORIGIN_TEXT)

CREATED_MARKUP = {
    "plain": "<p>one<b>two</b></p><ul><li>a</li><li>b<i>c</i></li></ul>",
    "declared-rings": '<div ring="0" r="0">esc<div ring="3" w="3"><span>low</span></div></div><p>x</p>',
    "nested-300-deep": _nested(300),
}


@pytest.mark.parametrize("creator_level", [1, 3])
@pytest.mark.parametrize("markup", list(CREATED_MARKUP.values()), ids=list(CREATED_MARKUP))
def test_created_subtree_labels_match_the_recursive_labelling(markup, creator_level):
    parent = Element("div")
    parent_context = SecurityContext(
        origin=ORIGIN, ring=Ring(2), acl=forum_configuration().cookie_policies["sid"].acl, label="parent"
    )
    parent.assign_security_context(parent_context)
    creator = SecurityContext(origin=ORIGIN, ring=Ring(creator_level), acl=parent_context.acl, label="creator")
    api = DomApi(ReferenceMonitor(), creator)
    for root in parse_fragment(markup):
        if not isinstance(root, Element):
            continue
        expected = recursive_created_contexts(root, parent_context, creator.ring)
        api.label_created_subtree(root, parent=parent)
        labelled = [root, *root.element_descendants()]
        assert [element.security_context for element in labelled] == expected


# -- nesting past the recursion limit --------------------------------------------------------

#: A nesting depth well past Python's default recursion limit.
DEEP = 5000


def _deep_document() -> Document:
    document = TreeBuilder(url=f"{ORIGIN_TEXT}/deep").build(
        '<html><body><div ring="1">' + "<b>" * DEEP + "x</div></body></html>"
    )
    return document


def test_labeller_labels_every_element_of_a_deep_page():
    document = _deep_document()
    labeler = PageLabeler(ORIGIN, forum_configuration(), escudo_enabled=True)
    stats = labeler.label_document(document)
    assert stats.labelled_elements == DEEP + 3  # html, body and the AC tag
    assert stats.ring_histogram[1] == DEEP + 1
    assert all(element.security_context is not None for element in document.elements())


def test_renderer_lays_out_a_deep_page():
    root, stats = Renderer().render(_deep_document())
    # viewport, html, body, div, DEEP <b> boxes and the text run.
    assert stats.boxes == root.box_count() == DEEP + 5
    assert stats.text_runs == 1
    assert stats.document_height == LINE_HEIGHT


def test_serializer_indents_a_deep_page():
    body = _deep_document().body
    markup = serialize_children(body, indent=True)
    lines = markup.splitlines()
    assert len(lines) == 2 * (DEEP + 1) + 1
    assert lines[DEEP + 1] == "  " * (DEEP + 1) + "x"
    assert lines[-1] == "</div>"


def test_a_deep_created_subtree_is_labelled_and_clamped():
    parent = Element("div")
    parent.assign_security_context(
        SecurityContext(
            origin=ORIGIN, ring=Ring(1), acl=forum_configuration().cookie_policies["sid"].acl, label="parent"
        )
    )
    creator = SecurityContext(origin=ORIGIN, ring=Ring(3), acl=parent.security_context.acl, label="creator")
    (root,) = parse_fragment('<div ring="0">' + "<i>" * DEEP + "y</div>")
    DomApi(ReferenceMonitor(), creator).label_created_subtree(root, parent=parent)
    labelled = [root, *root.element_descendants()]
    assert len(labelled) == DEEP + 1
    assert {element.security_context.ring for element in labelled} == {Ring(3)}
