"""Tests for DOM mediation: the ``document`` and element bindings scripts see.

Each test runs a script as one principal through
:class:`~repro.browser.script_runtime.ScriptRuntime`; the element handlers
consult that principal's :class:`~repro.dom.dom_api.DomApi` before acting.
"""

from __future__ import annotations

import pytest

from repro.browser.page import Page
from repro.browser.script_runtime import ScriptRuntime
from repro.core.acl import Acl
from repro.core.config import PageConfiguration, ResourcePolicy
from repro.core.context import SecurityContext
from repro.core.decision import Operation
from repro.core.monitor import ReferenceMonitor
from repro.core.origin import Origin
from repro.core.rings import Ring
from repro.dom import dom_api
from repro.dom.dom_api import DomApi
from repro.html.parser import parse_document
from repro.http.url import Url

URL = "http://forum.example.com/viewtopic"
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


def labelled_page(*, dom_api_ring: int | None = None) -> Page:
    """The fixture page, labelled by hand: chrome at ring 1, posts at ring 3."""
    document = parse_document(PAGE, url=URL)
    for element in document.elements():
        if element.id in ("post-1", "body-1"):
            element.assign_security_context(make_context(3, acl=Acl.uniform(2), label=element.id))
        else:
            element.assign_security_context(make_context(1, label=element.tag_name))
    configuration = PageConfiguration()
    if dom_api_ring is not None:
        configuration.api_policies["DOM API"] = ResourcePolicy.uniform(dom_api_ring)
    return Page(url=Url.parse(URL), document=document, configuration=configuration,
                monitor=ReferenceMonitor(), escudo_enabled=True)


def run(page: Page, ring: int, source: str, *, origin: Origin = ORIGIN):
    """Run ``source`` as a ring-``ring`` principal; the last statement's value."""
    principal = make_context(ring, origin=origin, label=f"script-ring-{ring}")
    result = ScriptRuntime(None, page).execute(source, principal).result
    assert not result.failed, result.error
    return result.value


def element(page: Page, element_id: str):
    return page.document.get_element_by_id(element_id)


class TestMediatedReads:
    def test_privileged_principal_reads_untrusted_content(self):
        page = labelled_page()
        assert run(page, 1, "document.getElementById('body-1').textContent") == "untrusted text"
        assert page.monitor.stats.allowed >= 1
        assert page.monitor.stats.denied == 0

    def test_unprivileged_principal_cannot_read_chrome(self):
        page = labelled_page()
        banner = "var banner = document.getElementById('banner');"
        assert run(page, 3, banner + "banner.textContent") is None
        assert run(page, 3, banner + "banner.getAttribute('id')") is None
        assert page.monitor.stats.denied >= 1
        last = page.monitor.audit.denials()[-1]
        assert last.denied and last.operation is Operation.READ

    def test_inner_html_is_mediated(self):
        assert "untrusted text" in run(labelled_page(), 1, "document.getElementById('post-1').innerHTML")
        assert run(labelled_page(), 3, "document.getElementById('chrome').innerHTML") is None

    def test_cross_origin_read_is_denied_even_from_ring_zero(self):
        page = labelled_page()
        assert run(page, 0, "document.getElementById('body-1').textContent", origin=OTHER_ORIGIN) is None

    def test_missing_element_lookup_returns_none(self):
        page = labelled_page()
        assert run(page, 0, "document.getElementById('does-not-exist')") is None
        assert run(page, 0, "document.querySelector('#does-not-exist')") is None


class TestMediatedWrites:
    def test_privileged_write_modifies_tree(self):
        page = labelled_page()
        run(page, 1, "document.getElementById('banner').textContent = 'Updated';")
        assert element(page, "banner").text_content == "Updated"

    def test_unprivileged_write_is_neutralised(self):
        page = labelled_page()
        run(page, 3, "document.getElementById('banner').textContent = 'Owned!';")
        assert element(page, "banner").text_content == "Forum"
        assert page.monitor.stats.denied >= 1

    def test_acl_rule_restricts_same_ring_writes(self):
        # post-1 is ring 3 but its ACL says only rings <= 2 may write (message
        # isolation from the phpBB case study): a ring-3 principal may not.
        page = labelled_page()
        run(page, 3, "document.getElementById('body-1').textContent = 'defaced';")
        assert element(page, "body-1").text_content == "untrusted text"
        run(page, 2, "document.getElementById('body-1').textContent = 'moderated';")
        assert element(page, "body-1").text_content == "moderated"

    def test_set_attribute_mediated(self):
        page = labelled_page()
        assert run(page, 3, "document.getElementById('banner').setAttribute('class', 'owned')") is False
        assert run(page, 1, "document.getElementById('banner').setAttribute('class', 'fresh')") is True
        assert element(page, "banner").get_attribute("class") == "fresh"

    def test_append_and_remove_child(self):
        page = labelled_page()
        assert run(page, 1, "document.getElementById('posts').appendChild(document.createElement('p'))") is True
        assert len(element(page, "posts").element_children()) == 2
        assert run(page, 3, "document.getElementById('posts')"
                            ".removeChild(document.getElementById('post-1'))") is False
        assert element(page, "post-1").parent is element(page, "posts")

    def test_remove_child_of_non_child_returns_false(self):
        page = labelled_page()
        assert run(page, 0, "document.getElementById('posts').removeChild(document.createElement('p'))") is False


PROTECTED = ["ring", "r", "w", "x", "nonce", "read", "write", "use"]


class TestTamperProtection:
    @pytest.mark.parametrize("attribute", PROTECTED)
    def test_escudo_attributes_are_never_readable(self, attribute):
        page = labelled_page()
        assert run(page, 0, f"document.getElementById('post-1').getAttribute('{attribute}')") is None
        assert page.monitor.stats.denied_by_rule.get("tamper-protection", 0) >= 1

    @pytest.mark.parametrize("attribute", PROTECTED)
    def test_escudo_attributes_are_never_writable(self, attribute):
        page = labelled_page()
        assert run(page, 0, f"document.getElementById('post-1').setAttribute('{attribute}', '0')") is False
        assert element(page, "post-1").get_attribute("ring") == "3", "raw configuration untouched"
        assert page.monitor.audit.denials()[-1].operation is Operation.WRITE

    def test_setattribute_privilege_escalation_attempt_fails_even_for_ring_zero(self):
        """The paper's Section 5 scenario: remapping an AC tag via setAttribute."""
        page = labelled_page()
        assert run(page, 0, "document.getElementById('post-1').setAttribute('ring', '0')") is False


class TestDynamicContentLabelling:
    def test_created_elements_inherit_insertion_point_privileges(self):
        page = labelled_page()
        run(page, 1, "document.getElementById('chrome').appendChild(document.createElement('span'));")
        created = page.document.get_elements_by_tag_name("span")[0]
        assert created.security_context is not None
        assert created.security_context.ring == Ring(1)

    def test_scoping_rule_clamps_claimed_ring_on_inner_html(self):
        # post-1 is ring 3; even though the injected markup claims ring 0 the
        # children must come out at ring 3 (scoping rule).
        page = labelled_page()
        run(page, 2, "document.getElementById('post-1').innerHTML = "
                     "'<div ring=\"0\"><script>attack()</script></div>';")
        injected = element(page, "post-1").element_children()[0]
        assert injected.security_context.ring == Ring(3)

    def test_created_principal_cannot_exceed_its_creator(self):
        # A ring-3 script writing into a ring-3 region cannot mint ring-0 content.
        page = labelled_page()
        # Give the script a region it can write (ring 3, permissive acl).
        region = element(page, "posts")
        region.assign_security_context(make_context(3, acl=Acl.uniform(3)), browser_authority=True)
        run(page, 3, "document.getElementById('posts').innerHTML = '<div ring=\"0\">boost</div>';")
        injected = region.element_children()[0]
        assert injected.text_content == "boost"
        assert injected.security_context.ring == Ring(3)


class TestNativeApiGate:
    def test_api_object_use_check_denies_everything_for_weak_principals(self):
        page = labelled_page(dom_api_ring=1)
        assert run(page, 3, "document.getElementById('body-1').textContent") is None
        last = page.monitor.audit.denials()[-1]
        assert last.operation is Operation.USE and "DOM API" in last.object_label

    def test_api_object_use_check_passes_for_privileged_principals(self):
        page = labelled_page(dom_api_ring=1)
        assert run(page, 1, "document.getElementById('body-1').textContent") == "untrusted text"


class TestDocumentQueries:
    def test_query_selector_and_all(self):
        page = labelled_page()
        assert run(page, 1, "typeof document.querySelector('.post')") == "object"
        assert run(page, 1, "document.querySelector('.post').id") == "post-1"
        assert run(page, 1, "document.querySelectorAll('div').length") == 3
        assert run(page, 1, "document.getElementsByTagName('p')[0].tagName") == "P"
        assert page.monitor.stats.denied == 0

    def test_element_scoped_query(self):
        page = labelled_page()
        posts = "var posts = document.getElementById('posts');"
        assert run(page, 1, posts + "posts.querySelector('p').tagName") == "P"
        assert run(page, 1, posts + "posts.querySelector('h1')") is None
        assert run(page, 1, posts + "posts.querySelectorAll('.post').length") == 1

    def test_body_head_title(self):
        page = labelled_page()
        assert run(page, 1, "document.body.tagName") == "BODY"
        assert run(page, 1, "document.head.tagName") == "HEAD"
        assert run(page, 1, "document.title") == "Forum"

    def test_create_element_makes_a_detached_element_of_the_document(self):
        page = labelled_page()
        created = run(page, 1, "document.createElement('span')")
        assert created.js_get("tagName") == "SPAN"
        assert created._element.owner_document is page.document
        assert created._element.parent is None
        assert page.monitor.stats.total == 0

    def test_add_event_listener_lands_in_the_page_dispatcher(self):
        page = labelled_page()
        assert run(page, 1, "document.getElementById('banner')"
                            ".addEventListener('click', function (event) { })") is True
        assert len(page.dispatcher.listeners_for(element(page, "banner"), "click")) == 1

    def test_add_event_listener_denied_for_weak_principal(self):
        page = labelled_page()
        assert run(page, 3, "document.getElementById('banner')"
                            ".addEventListener('click', function (event) { })") is False
        assert page.dispatcher.listeners_for(element(page, "banner"), "click") == []


class TestDecisionContexts:
    def test_every_api_shares_one_labelled_context_and_still_decides_each_access(self):
        first, second = labelled_page(), labelled_page()
        banner = element(first, "banner")
        pages = [first, first, second, second]
        apis = [DomApi(page.monitor, make_context(ring, label=f"p{ring}")) for page, ring in zip(pages, (1, 3, 1, 3))]
        targets = [api._decision_target(element(page, "banner")) for api, page in zip(apis, pages)]
        assert all(target is targets[0] for target in targets)
        assert targets[0].label == "<h1> h1" and targets[0].ring == banner.security_context.ring
        assert [api.authorize(banner, Operation.READ) for api in apis[:2]] == [True, False]
        assert first.monitor.stats.total == 2

    def test_unlabelled_elements_share_a_fallback_per_tag_and_origin(self):
        page = labelled_page()
        home = DomApi(page.monitor, make_context(1))
        away = DomApi(page.monitor, make_context(1, origin=OTHER_ORIGIN))
        orphans = [page.document.create_element("span") for _ in range(2)]
        assert home._context_of(orphans[0]) is home._context_of(orphans[1])
        assert away._context_of(orphans[0]).origin == OTHER_ORIGIN
        assert home._decision_target(orphans[0]).label == "<span> <span>"

    def test_the_tables_are_bounded(self, monkeypatch):
        monkeypatch.setattr(dom_api, "_CONTEXT_TABLE_SIZE", 2)
        monkeypatch.setattr(dom_api, "_LABELED_CONTEXTS", {})
        page = labelled_page()
        api = DomApi(page.monitor, make_context(1))
        for element_id in ("chrome", "banner", "posts", "post-1", "body-1"):
            api._decision_target(element(page, element_id))
            assert len(dom_api._LABELED_CONTEXTS) <= 2
