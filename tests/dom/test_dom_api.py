"""Tests for the mediated DOM API facade (the `document` object scripts see)."""

from __future__ import annotations

import pytest

from repro.core.acl import Acl
from repro.core.context import SecurityContext
from repro.core.monitor import ReferenceMonitor
from repro.core.origin import Origin
from repro.core.rings import Ring
from repro.dom.dom_api import DomApi, ElementHandle
from repro.html.parser import parse_document

ORIGIN = Origin.parse("http://forum.example.com")
OTHER_ORIGIN = Origin.parse("http://evil.example.net")

PAGE = (
    "<html><head><title>Forum</title></head><body>"
    '<div id="chrome"><h1 id="banner">Forum</h1></div>'
    '<div id="posts">'
    '<div class="post" id="post-1" ring="3" read="2"><p id="body-1">untrusted text</p></div>'
    "</div>"
    "</body></html>"
)


def make_context(ring: int, *, acl: Acl | None = None, origin: Origin = ORIGIN, label: str = "x") -> SecurityContext:
    return SecurityContext(origin=origin, ring=Ring(ring), acl=acl or Acl.uniform(ring), label=label)


def labelled_page():
    """Parse the fixture page and label it: chrome at ring 1, posts at ring 3."""
    document = parse_document(PAGE, url="http://forum.example.com/viewtopic")
    for element in document.elements():
        if element.id in ("post-1", "body-1"):
            element.assign_security_context(make_context(3, acl=Acl.uniform(2), label=element.id))
        else:
            element.assign_security_context(make_context(1, label=element.tag_name))
    return document


def api_for(ring: int, **kwargs) -> DomApi:
    document = kwargs.pop("document", None) or labelled_page()
    return DomApi(document, ReferenceMonitor(), make_context(ring, label=f"script-ring-{ring}"), **kwargs)


class TestMediatedReads:
    def test_privileged_principal_reads_untrusted_content(self):
        api = api_for(1)
        handle = api.get_element_by_id("body-1")
        assert handle.text_content == "untrusted text"
        assert api.monitor.stats.allowed >= 1
        assert api.monitor.stats.denied == 0

    def test_unprivileged_principal_cannot_read_chrome(self):
        api = api_for(3)
        banner = api.get_element_by_id("banner")
        assert banner.text_content is None
        assert banner.get_attribute("id") is None
        assert api.monitor.stats.denied >= 1
        assert api.last_denial is not None and api.last_denial.denied

    def test_inner_html_is_mediated(self):
        api = api_for(1)
        assert "untrusted text" in api.get_element_by_id("post-1").inner_html
        weak_api = api_for(3)
        assert weak_api.get_element_by_id("chrome").inner_html is None

    def test_cross_origin_read_is_denied_even_from_ring_zero(self):
        document = labelled_page()
        api = DomApi(document, ReferenceMonitor(), make_context(0, origin=OTHER_ORIGIN))
        assert api.get_element_by_id("body-1").text_content is None

    def test_missing_element_lookup_returns_none(self):
        api = api_for(0)
        assert api.get_element_by_id("does-not-exist") is None
        assert api.query_selector("#does-not-exist") is None


class TestMediatedWrites:
    def test_privileged_write_modifies_tree(self):
        api = api_for(1)
        handle = api.get_element_by_id("banner")
        assert handle.set_text_content("Updated") is True
        assert api.document.get_element_by_id("banner").text_content == "Updated"

    def test_unprivileged_write_is_neutralised(self):
        api = api_for(3)
        handle = api.get_element_by_id("banner")
        assert handle.set_text_content("Owned!") is False
        assert api.document.get_element_by_id("banner").text_content == "Forum"
        assert api.monitor.stats.denied >= 1

    def test_acl_rule_restricts_same_ring_writes(self):
        # post-1 is ring 3 but its ACL says only rings <= 2 may write (message
        # isolation from the phpBB case study): a ring-3 principal may not.
        api = api_for(3)
        handle = api.get_element_by_id("body-1")
        assert handle.set_text_content("defaced") is False
        api2 = api_for(2)
        assert api2.get_element_by_id("body-1").set_text_content("moderated") is True

    def test_set_attribute_mediated(self):
        api = api_for(3)
        assert api.get_element_by_id("banner").set_attribute("class", "owned") is False
        api = api_for(1)
        assert api.get_element_by_id("banner").set_attribute("class", "fresh") is True
        assert api.document.get_element_by_id("banner").get_attribute("class") == "fresh"

    def test_append_and_remove_child(self):
        api = api_for(1)
        posts = api.get_element_by_id("posts")
        new_child = api.create_element("p")
        assert posts.append_child(new_child) is True
        assert len(api.document.get_element_by_id("posts").element_children()) == 2

        weak = api_for(3, document=api.document)
        target = weak.get_element_by_id("posts")
        assert target.remove_child(weak.get_element_by_id("post-1")) is False

    def test_remove_child_of_non_child_returns_false(self):
        api = api_for(0)
        posts = api.get_element_by_id("posts")
        stranger = api.create_element("p")
        assert posts.remove_child(stranger) is False


class TestTamperProtection:
    @pytest.mark.parametrize("attribute", ["ring", "r", "w", "x", "nonce", "read", "write", "use"])
    def test_escudo_attributes_are_never_readable(self, attribute):
        api = api_for(0)
        handle = api.get_element_by_id("post-1")
        assert handle.get_attribute(attribute) is None
        assert api.monitor.stats.denied_by_rule.get("tamper-protection", 0) >= 1

    @pytest.mark.parametrize("attribute", ["ring", "r", "w", "x", "nonce", "read", "write", "use"])
    def test_escudo_attributes_are_never_writable(self, attribute):
        api = api_for(0)
        handle = api.get_element_by_id("post-1")
        assert handle.set_attribute(attribute, "0") is False
        raw = api.document.get_element_by_id("post-1")
        assert raw.get_attribute("ring") == "3", "raw configuration untouched"

    def test_setattribute_privilege_escalation_attempt_fails_even_for_ring_zero(self):
        """The paper's Section 5 scenario: remapping an AC tag via setAttribute."""
        api = api_for(0)
        assert api.get_element_by_id("post-1").set_attribute("ring", "0") is False


class TestDynamicContentLabelling:
    def test_created_elements_inherit_insertion_point_privileges(self):
        api = api_for(1)
        handle = api.create_element("span")
        api.get_element_by_id("chrome").append_child(handle)
        created = api.document.get_elements_by_tag_name("span")[0]
        assert created.security_context is not None
        assert created.security_context.ring == Ring(1)

    def test_scoping_rule_clamps_claimed_ring_on_inner_html(self):
        api = api_for(1)
        posts = api.get_element_by_id("post-1")
        # post-1 is ring 3; even though the injected markup claims ring 0 the
        # children must come out at ring 3 (scoping rule).
        weak_api = api_for(2, document=api.document)
        target = weak_api.get_element_by_id("post-1")
        assert target.set_inner_html('<div ring="0"><script>attack()</script></div>') is True
        injected = api.document.get_element_by_id("post-1").element_children()[0]
        assert injected.security_context.ring == Ring(3)

    def test_created_principal_cannot_exceed_its_creator(self):
        # A ring-3 script writing into a ring-3 region cannot mint ring-0 content.
        document = labelled_page()
        api = DomApi(document, ReferenceMonitor(), make_context(3, label="user-script"))
        # Give the script a region it can write (ring 3, permissive acl).
        region = document.get_element_by_id("posts")
        region.assign_security_context(make_context(3, acl=Acl.uniform(3)), browser_authority=True)
        handle = api.wrap(region)
        assert handle.set_inner_html('<div ring="0">boost</div>') is True
        injected = region.element_children()[0]
        assert injected.security_context.ring == Ring(3)

    def test_explicit_default_acl_for_new_elements(self):
        api = api_for(1, default_new_element_acl=Acl.uniform(0))
        container = api.get_element_by_id("chrome")
        child = api.create_element("span")
        container.append_child(child)
        created = api.document.get_element_by_id("chrome").get_elements_by_tag_name("span")[0]
        assert created.security_context.acl == Acl.uniform(0)


class TestNativeApiGate:
    def test_api_object_use_check_denies_everything_for_weak_principals(self):
        api_object = make_context(1, label="DOM API")
        api = api_for(3, api_object=api_object)
        handle = api.get_element_by_id("body-1")
        assert handle.text_content is None
        assert api.last_denial is not None

    def test_api_object_use_check_passes_for_privileged_principals(self):
        api_object = make_context(1, label="DOM API")
        api = api_for(1, api_object=api_object)
        assert api.get_element_by_id("body-1").text_content == "untrusted text"


class TestFacadeQueries:
    def test_query_selector_and_all(self):
        api = api_for(1)
        assert isinstance(api.query_selector(".post"), ElementHandle)
        assert len(api.query_selector_all("div")) == 3
        assert [h.tag_name for h in api.get_elements_by_tag_name("p")] == ["p"]

    def test_element_scoped_query(self):
        api = api_for(1)
        posts = api.get_element_by_id("posts")
        assert posts.query_selector("p").tag_name == "p"
        assert posts.query_selector("h1") is None
        assert len(posts.query_selector_all(".post")) == 1

    def test_body_head_title(self):
        api = api_for(1)
        assert api.body.tag_name == "body"
        assert api.head.tag_name == "head"
        assert api.title == "Forum"

    def test_create_element_makes_a_detached_element_of_the_document(self):
        api = api_for(1)
        handle = api.create_element("span")
        assert handle.tag_name == "span"
        assert handle._element.owner_document is api.document
        assert handle._element.parent is None
        assert api.monitor.stats.total == 0

    def test_add_event_listener_routes_through_registry(self):
        registered = []
        api = api_for(1, listener_registry=lambda el, etype, fn: registered.append((el.id, etype)))
        handle = api.get_element_by_id("banner")
        assert handle.add_event_listener("click", lambda event: None) is True
        assert registered == [("banner", "click")]

    def test_add_event_listener_denied_for_weak_principal(self):
        registered = []
        api = api_for(3, listener_registry=lambda el, etype, fn: registered.append(el.id))
        assert api.get_element_by_id("banner").add_event_listener("click", lambda e: None) is False
        assert registered == []
