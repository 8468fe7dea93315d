"""Tests for the HTML tree builder, including nonce-checked terminators."""

from __future__ import annotations

from repro.core.nonce import NonceValidator
from repro.dom.element import Element
from repro.dom.node import CommentNode, TextNode
from repro.html.parser import parse_document, parse_document_with_stats, parse_fragment


class TestTreeShapes:
    def test_simple_document(self):
        doc = parse_document("<html><head><title>T</title></head><body><p>x</p></body></html>")
        assert doc.document_element.tag_name == "html"
        assert doc.head.tag_name == "head"
        assert doc.body.tag_name == "body"
        assert doc.get_elements_by_tag_name("p")[0].text_content == "x"

    def test_doctype_recorded(self):
        doc = parse_document("<!DOCTYPE html><html></html>")
        assert doc.doctype.lower() == "doctype html"

    def test_nesting(self):
        doc = parse_document("<div><ul><li>a</li><li>b</li></ul></div>")
        items = doc.get_elements_by_tag_name("li")
        assert [li.text_content for li in items] == ["a", "b"]
        assert items[0].parent.tag_name == "ul"

    def test_void_elements_do_not_swallow_siblings(self):
        doc = parse_document('<p><img src="a.png"><b>bold</b></p>')
        img = doc.get_elements_by_tag_name("img")[0]
        assert img.children == []
        assert doc.get_elements_by_tag_name("b")[0].parent.tag_name == "p"

    def test_self_closing_syntax(self):
        doc = parse_document("<div><br/><span>x</span></div>")
        assert doc.get_elements_by_tag_name("span")[0].parent.tag_name == "div"

    def test_implied_p_close(self):
        doc = parse_document("<body><p>one<p>two</body>")
        paragraphs = doc.get_elements_by_tag_name("p")
        assert len(paragraphs) == 2
        assert paragraphs[1].parent.tag_name == "body"

    def test_stray_end_tag_ignored(self):
        doc = parse_document("<div>a</span></div>")
        assert doc.get_elements_by_tag_name("div")[0].text_content == "a"

    def test_unclosed_elements_still_in_tree(self):
        doc = parse_document("<div><p>never closed")
        assert doc.get_elements_by_tag_name("p")[0].text_content == "never closed"

    def test_raw_text_ends_after_text_that_lower_cases_longer(self):
        doc = parse_document("<textarea>İİ</textarea><p id=a>x</p>")
        textarea = doc.get_elements_by_tag_name("textarea")[0]
        assert textarea.text_content == "İİ"
        assert doc.get_element_by_id("a").parent is doc

    def test_comments_preserved(self):
        doc = parse_document("<div><!-- note --></div>")
        div = doc.get_elements_by_tag_name("div")[0]
        assert isinstance(div.children[0], CommentNode)

    def test_text_nodes_preserved(self):
        doc = parse_document("<p>hello <b>world</b>!</p>")
        paragraph = doc.get_elements_by_tag_name("p")[0]
        assert isinstance(paragraph.children[0], TextNode)
        assert paragraph.text_content == "hello world!"

    def test_script_body_is_raw_text(self):
        doc = parse_document("<script>var x = '<p>';</script><p>after</p>")
        script = doc.scripts()[0]
        # Everything up to the </script> terminator is raw text, and the
        # markup-looking string inside does not create elements.
        assert script.text_content == "var x = '<p>';"
        assert len(script.children) == 1
        assert [el.tag_name for el in doc.elements()] == ["script", "p"]

    def test_attributes_survive(self):
        doc = parse_document('<div ring="2" r="1" w="0" x="2" nonce="n1">x</div>')
        div = doc.get_elements_by_tag_name("div")[0]
        assert div.get_attribute("ring") == "2"
        assert div.declared_nonce == "n1"
        assert div.is_ac_tag

    def test_document_url(self):
        doc = parse_document("<p>x</p>", url="http://app.example.com/page")
        assert doc.url == "http://app.example.com/page"
        assert doc.origin.host == "app.example.com"


class TestNonceCheckedTerminators:
    PAGE = (
        '<body><div ring="3" nonce="real">'
        'user text</div nonce="WRONG"><div ring="0"><script>evil()</script></div>'
        '</div nonce="real"></body>'
    )

    def test_mismatched_terminator_ignored(self):
        doc, builder = parse_document_with_stats(self.PAGE, nonce_validator=NonceValidator())
        assert builder.ignored_end_tags == 1
        # The injected ring-0 div stays nested inside the ring-3 scope.
        injected = [
            el for el in doc.get_elements_by_tag_name("div") if el.get_attribute("ring") == "0"
        ][0]
        assert injected.parent.get_attribute("ring") == "3"

    def test_matching_terminator_closes_scope(self):
        page = '<body><div ring="3" nonce="n">text</div nonce="n"><p>after</p></body>'
        doc = parse_document(page, nonce_validator=NonceValidator())
        assert doc.get_elements_by_tag_name("p")[0].parent.tag_name == "body"

    def test_validator_records_mismatches(self):
        validator = NonceValidator()
        parse_document(self.PAGE, nonce_validator=validator)
        assert validator.rejected_count == 1

    def test_nonce_matching_without_validator_still_applies(self):
        doc, builder = parse_document_with_stats(self.PAGE)
        assert builder.ignored_end_tags == 1

    def test_unlabelled_divs_close_normally(self):
        page = "<body><div>plain</div><p>after</p></body>"
        doc = parse_document(page, nonce_validator=NonceValidator())
        assert doc.get_elements_by_tag_name("p")[0].parent.tag_name == "body"


class TestFragments:
    def test_fragment_returns_top_level_nodes(self):
        nodes = parse_fragment("<p>a</p><p>b</p>")
        assert [n.tag_name for n in nodes if isinstance(n, Element)] == ["p", "p"]

    def test_fragment_nodes_owned_by_target_document(self):
        doc = parse_document("<body></body>", url="http://app.example.com/")
        nodes = parse_fragment("<span>x</span>", owner=doc)
        assert nodes[0].owner_document is doc

    def test_deeply_nested_fragment_is_owned_without_recursion(self):
        doc = parse_document("<body></body>")
        (root,) = parse_fragment("<b>" * 3000 + "x", owner=doc)
        assert all(node.owner_document is doc for node in (root, *root.descendants()))

    def test_fragment_with_text_only(self):
        nodes = parse_fragment("just text")
        assert isinstance(nodes[0], TextNode)

    def test_empty_fragment(self):
        assert parse_fragment("") == []
