"""A text-for-text swap keeps the served page's load manifest.

``Node.replace_children`` swapping an element's one text child for one
detached text node (what a ``textContent`` write does) moves no element, so
the document keeps its :class:`~repro.dom.document.LoadManifest` and the
shared :class:`~repro.dom.document.TreeShape`, with the new node in the old
one's slot.  Every other mutation drops the manifest.
"""

from __future__ import annotations

import pytest

from repro.dom.document import Document, LoadManifest
from repro.dom.node import TextNode
from repro.html.parser import parse_document, parse_fragment

MARKUP = (
    "<html><head><title>Forum</title></head><body>"
    '<p>Unread: <span id="unread-count">?</span></p>'
    '<form id="login" method="POST" action="/login">'
    '<input name="username" value=""><input name="password" value="">'
    "</form>"
    '<div id="two"><b>a</b>b</div><div id="mixed">x<!-- c -->y</div><div id="empty"></div>'
    "</body></html>"
)


def served_page() -> Document:
    """A clone of a parsed template whose shape indexes are already computed."""
    template = parse_document(MARKUP, url="http://forum.example.com/")
    manifest = template._load_manifest()
    manifest.parents(), manifest.by_tag(), manifest.by_id()
    return template.clone()


def assert_answers_like_a_fresh_walk(document: Document) -> None:
    elements = list(document.elements())
    manifest = document._manifest
    assert manifest is not None
    assert manifest.nodes == [document, *document.descendants()]
    assert manifest.parents() == LoadManifest.build(document).parents()
    for tag in {element.tag_name for element in elements}:
        assert document.get_elements_by_tag_name(tag) == [e for e in elements if e.tag_name == tag]
    for element_id in {element.id for element in elements if element.id}:
        assert document.get_element_by_id(element_id) is next(e for e in elements if e.id == element_id)


class TestSwapKeepsTheManifest:
    @pytest.mark.parametrize("write", ["text", "inner_html"])
    def test_same_manifest_and_shape_and_fresh_walk_answers(self, write):
        document = served_page()
        manifest = document._manifest
        shape = manifest.shape
        badge = document.get_element_by_id("unread-count")
        old = badge.children[0]
        new = [TextNode("3")] if write == "text" else parse_fragment("3", owner=document)
        badge.replace_children(new)
        assert document._manifest is manifest
        assert manifest.shape is shape
        assert badge.children == new and new[0].parent is badge and new[0].owner_document is document
        assert old.parent is None and old not in manifest.nodes
        assert_answers_like_a_fresh_walk(document)

    def test_repeated_swaps_keep_it_too(self):
        document = served_page()
        manifest = document._manifest
        badge = document.get_element_by_id("unread-count")
        for count in range(5):
            badge.replace_children([TextNode(str(count))])
        assert document._manifest is manifest
        assert badge.text_content == "4"
        assert_answers_like_a_fresh_walk(document)

    def test_a_detached_elements_swap_leaves_the_manifest_alone(self):
        document = served_page()
        orphan = document.create_element("span")
        orphan.append_child(document.create_text_node("old"))
        manifest = document._load_manifest()
        orphan.replace_children([TextNode("new")])
        assert document._manifest is manifest
        assert orphan.text_content == "new"
        assert_answers_like_a_fresh_walk(document)


class TestEveryOtherMutationDropsIt:
    @pytest.mark.parametrize(
        "element_id, new_children",
        [
            ("empty", lambda document: [TextNode("0 -> 1")]),
            ("mixed", lambda document: [TextNode("3 -> 1")]),
            ("two", lambda document: [TextNode("removes an element")]),
            ("unread-count", lambda document: parse_fragment("<b>adds</b> an element", owner=document)),
            ("unread-count", lambda document: [TextNode("a"), TextNode("b")]),
            ("unread-count", lambda document: []),
        ],
        ids=["0-to-1", "text-comment-text-to-1", "text-removes-element", "inner-html-adds-element", "1-to-2", "1-to-0"],
    )
    def test_drops_the_manifest(self, element_id, new_children):
        document = served_page()
        element = document.get_element_by_id(element_id)
        element.replace_children(new_children(document))
        assert document._manifest is None
        document._load_manifest()
        assert_answers_like_a_fresh_walk(document)

    def test_two_texts_to_one_drops_it(self):
        document = served_page()
        badge = document.get_element_by_id("unread-count")
        badge.append_child(TextNode("!"))
        document._load_manifest()
        badge.replace_children([TextNode("2 -> 1")])
        assert document._manifest is None
        document._load_manifest()
        assert_answers_like_a_fresh_walk(document)

    def test_swapping_a_comment_drops_it(self):
        document = served_page()
        span = document.get_element_by_id("unread-count")
        span.replace_children([document.create_comment("c")])
        assert document._manifest is None
        document._load_manifest()
        span.replace_children([TextNode("back to text")])
        assert document._manifest is None

