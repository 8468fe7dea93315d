"""Tests for DOM elements: attributes, labelling, and principal classification."""

from __future__ import annotations

import pytest

from repro.core.acl import Acl
from repro.core.errors import TamperingError
from repro.core.origin import Origin
from repro.core.principal import PrincipalKind
from repro.core.context import SecurityContext
from repro.core.rings import Ring
from repro.dom.element import RAW_TEXT_ELEMENTS, VOID_ELEMENTS, Element

ORIGIN = Origin.parse("http://app.example.com")


def context(ring: int, label: str = "test") -> SecurityContext:
    return SecurityContext(origin=ORIGIN, ring=Ring(ring), acl=Acl.uniform(ring), label=label)


class TestAttributes:
    def test_tag_name_is_lowercased(self):
        assert Element("DIV").tag_name == "div"

    def test_attribute_names_are_case_insensitive(self):
        element = Element("img", {"SRC": "/x.png", "Alt": "pic"})
        assert element.get_attribute("src") == "/x.png"
        assert element.get_attribute("ALT") == "pic"
        assert element.has_attribute("alt")

    def test_set_and_remove_attribute(self):
        element = Element("div")
        element.set_attribute("data-x", "1")
        assert element.get_attribute("data-x") == "1"
        element.remove_attribute("data-x")
        assert not element.has_attribute("data-x")
        element.remove_attribute("data-x")  # silent when absent

    def test_attribute_values_are_stringified(self):
        element = Element("div", {"ring": 2})
        assert element.get_attribute("ring") == "2"

    def test_attributes_property_returns_a_copy(self):
        element = Element("div", {"id": "x"})
        copy = element.attributes
        copy["id"] = "tampered"
        assert element.id == "x"

    def test_id_and_class_list(self):
        element = Element("div", {"id": "post-1", "class": "post highlighted"})
        assert element.id == "post-1"
        assert element.class_list == ["post", "highlighted"]
        assert Element("div").class_list == []


class TestSecurityLabelling:
    def test_context_is_none_until_assigned(self):
        assert Element("div").security_context is None

    def test_assign_exactly_once(self):
        element = Element("div")
        element.assign_security_context(context(3))
        assert element.security_context.ring == Ring(3)
        with pytest.raises(TamperingError):
            element.assign_security_context(context(0))

    def test_reassignment_with_browser_authority_is_allowed(self):
        element = Element("div")
        element.assign_security_context(context(3))
        element.assign_security_context(context(1), browser_authority=True)
        assert element.security_context.ring == Ring(1)

    def test_is_ac_tag_requires_div_with_escudo_attribute(self):
        assert Element("div", {"ring": "2"}).is_ac_tag
        assert Element("div", {"w": "0"}).is_ac_tag
        assert Element("div", {"nonce": "abc"}).is_ac_tag
        assert not Element("div", {"class": "post"}).is_ac_tag
        assert not Element("span", {"ring": "2"}).is_ac_tag

    def test_declared_ring_and_nonce(self):
        element = Element("div", {"ring": "2", "nonce": "deadbeef"})
        assert element.declared_ring == Ring(2)
        assert element.declared_nonce == "deadbeef"
        assert Element("div").declared_ring is None
        assert Element("div").declared_nonce is None

    def test_scope_path_describes_ancestry(self):
        outer = Element("div", {"ring": "1"})
        middle = Element("div", {"id": "posts"})
        inner = Element("span")
        outer.append_child(middle)
        middle.append_child(inner)
        assert inner.scope_path == "div[ring=1]/div#posts/span"

    def test_closest_ac_ancestor(self):
        scope = Element("div", {"ring": "3"})
        wrapper = Element("div", {"class": "post"})
        target = Element("span")
        scope.append_child(wrapper)
        wrapper.append_child(target)
        assert target.closest_ac_ancestor() is scope
        assert scope.closest_ac_ancestor() is None


class TestPrincipalClassification:
    def test_script_tags_are_script_invoking_principals(self):
        assert Element("script").principal_kind is PrincipalKind.SCRIPT

    @pytest.mark.parametrize("tag", ["a", "img", "form", "iframe", "embed"])
    def test_http_request_issuing_tags(self, tag):
        assert Element(tag).principal_kind is PrincipalKind.HTTP_REQUEST_ISSUER

    def test_plain_markup_is_not_a_principal(self):
        assert Element("p").principal_kind is None
        assert Element("div").principal_kind is None

    def test_event_handlers_extracted_from_attributes(self):
        element = Element("button", {"onclick": "doit()", "onmouseover": "peek()", "class": "x"})
        assert element.event_handlers == {"onclick": "doit()", "onmouseover": "peek()"}
        assert Element("button").event_handlers == {}


class TestQueriesAndCategories:
    def test_element_children_and_descendants(self):
        parent = Element("div")
        child_a = Element("p")
        child_b = Element("span")
        grandchild = Element("em")
        parent.append_child(child_a)
        parent.append_child(child_b)
        child_b.append_child(grandchild)
        assert parent.element_children() == [child_a, child_b]
        assert list(parent.element_descendants()) == [child_a, child_b, grandchild]

    def test_get_elements_by_tag_name_and_id(self):
        parent = Element("div")
        child = Element("p", {"id": "target"})
        parent.append_child(child)
        assert parent.get_elements_by_tag_name("P") == [child]
        assert parent.get_element_by_id("target") is child
        assert parent.get_element_by_id("missing") is None

    def test_void_and_raw_text_classification(self):
        assert Element("img").is_void
        assert Element("br").is_void
        assert not Element("div").is_void
        assert Element("script").is_raw_text
        assert Element("style").is_raw_text
        assert not Element("p").is_raw_text
        assert "img" in VOID_ELEMENTS and "script" in RAW_TEXT_ELEMENTS


class TestCompactNodes:
    """Cached page templates keep thousands of nodes alive for a whole run."""

    def test_nodes_carry_no_instance_dict(self):
        from repro.dom.document import Document
        from repro.dom.node import CommentNode, TextNode

        for node in (Element("div"), TextNode("t"), CommentNode("c"), Document()):
            assert not hasattr(node, "__dict__")
            with pytest.raises(AttributeError):
                node.stray = 1

    def test_names_and_values_are_shared_across_parses(self):
        from repro.html.parser import parse_document

        # Built at run time so no string in it is a compile-time constant.
        nonce = "".join(["feed", "face", "0123"])
        markup = (
            f'<html><body><div ring="2" r="2" nonce="{nonce}"><p class="c">x</p>'
            f'</div nonce="{nonce}"></body></html>'
        )
        first, second = parse_document(markup), parse_document(markup)
        first_elements, second_elements = list(first.elements()), list(second.elements())
        assert [el.tag_name for el in first_elements] == ["html", "body", "div", "p"]
        for a, b in zip(first_elements, second_elements, strict=True):
            assert a is not b
            assert a.tag_name is b.tag_name
            pairs = zip(a._attributes.items(), b._attributes.items(), strict=True)  # noqa: SLF001
            for (name_a, value_a), (name_b, value_b) in pairs:
                assert name_a is name_b and value_a is value_b

    def test_script_created_elements_share_the_parsed_names(self):
        from repro.html.parser import parse_document

        parsed = parse_document('<div class="note"></div>').get_elements_by_tag_name("div")[0]
        created = Element("".join(["D", "IV"]), {"".join(["CL", "ASS"]): "".join(["no", "te"])})
        assert created.tag_name is parsed.tag_name
        ((name, value),) = created.attributes.items()
        ((parsed_name, parsed_value),) = parsed.attributes.items()
        assert name is parsed_name and value is parsed_value

    def test_parsing_a_page_makes_no_element_constructor_calls(self):
        from unittest import mock

        from repro.html.parser import parse_document, parse_fragment

        markup = '<html><BODY><div RING="1" class="c"><p>x<br/></p></div></BODY></html>'
        with mock.patch.object(Element, "__init__", autospec=True) as constructor:
            document = parse_document(markup)
            fragment = parse_fragment("<SPAN ID='s'>y</SPAN>", owner=document)
        assert constructor.call_count == 0
        assert [el.tag_name for el in document.elements()] == ["html", "body", "div", "p", "br"]
        assert document.get_elements_by_tag_name("div")[0].attributes == {"ring": "1", "class": "c"}
        assert fragment[0].tag_name == "span" and fragment[0].attributes == {"id": "s"}
