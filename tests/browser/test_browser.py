"""Integration tests for the Browser: navigation, cookies, mediated requests."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.browser.browser import Browser
from repro.core.acl import Acl
from repro.core.config import ResourcePolicy
from repro.core.origin import Origin
from repro.core.rings import Ring
from repro.http.cookies import CookieJar
from repro.http.messages import HttpResponse
from repro.http.network import Network
from repro.webapps.blog import COMMENT_RING, Blog

from .conftest import ORIGIN_TEXT, ForumServer, forum_configuration

ORIGIN = Origin.parse(ORIGIN_TEXT)


def browser_and_server(model: str = "escudo", **kwargs) -> tuple[Browser, ForumServer, Network]:
    server = ForumServer()
    network = Network()
    network.register(ORIGIN_TEXT, server)
    return Browser(network, model=model, **kwargs), server, network


class TestNavigation:
    def test_load_produces_an_escudo_page_and_stores_the_labelled_cookie(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        assert loaded.page.escudo_enabled
        assert loaded.response.ok
        cookie = browser.cookie_jar.get(ORIGIN, "sid")
        assert cookie is not None
        assert cookie.ring == Ring(1), "cookie labelled from X-Escudo-Cookie-Policy"
        assert len(browser.history) == 1

    # Responses per load: the navigation hops plus the page's one ``<img>``
    # fetch.  The fetch sets no cookie, so its response is neither parsed
    # for a configuration nor stored.
    @pytest.mark.parametrize(("path", "responses"), [("/viewtopic?t=1", 2), ("/go", 3)])
    def test_load_stores_and_parses_each_response_once(self, forum_network, path, responses):
        network, _ = forum_network
        browser = Browser(network)
        store = mock.patch.object(
            CookieJar, "store_from_response", autospec=True, side_effect=CookieJar.store_from_response
        )
        parse = mock.patch.object(
            HttpResponse,
            "escudo_configuration",
            autospec=True,
            side_effect=HttpResponse.escudo_configuration,
        )
        with store as stored, parse as parsed:
            browser.load(f"{ORIGIN_TEXT}{path}")
        assert stored.call_count == responses - 1
        assert parsed.call_count == responses - 1
        cookie = browser.cookie_jar.get(ORIGIN, "sid")
        assert cookie is not None and cookie.value == "victim-session"
        assert cookie.ring == Ring(1), "cookie labelled from X-Escudo-Cookie-Policy"

    def test_redirects_are_followed(self, forum_network):
        network, server = forum_network
        browser = Browser(network)
        loaded = browser.load(f"{ORIGIN_TEXT}/go")
        assert loaded.page.document.get_element_by_id("banner") is not None
        paths = [request.url.path for request in server.requests]
        assert "/go" in paths and "/viewtopic" in paths

    def test_unknown_model_is_rejected(self):
        with pytest.raises(ValueError):
            Browser(Network(), model="capability")

    def test_subresources_are_fetched_as_their_element_principals(self, forum_network, forum_url):
        network, server = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        assert any("logo.png" in target for target in loaded.subresource_requests)
        logo_requests = [r for r in server.requests if r.url.path == "/logo.png"]
        assert len(logo_requests) == 1
        assert "img" in logo_requests[0].initiator


class TestCookieAttachment:
    """The heart of the CSRF defence: cookie attachment honours `use`."""

    def test_ring1_principal_gets_the_session_cookie(self, forum_network, forum_url):
        network, server = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        chrome_form = loaded.page.document.get_element_by_id("reply-form")
        browser.issue_request(
            page=loaded.page,
            principal=loaded.page.principal_context_for(chrome_form),
            method="POST",
            url=loaded.page.url.resolve("/posting"),
            initiator_label="chrome form",
        )
        posting = [r for r in server.requests if r.url.path == "/posting"][-1]
        assert posting.cookies.get("sid") == "victim-session"

    def test_ring3_principal_does_not_get_the_session_cookie(self, forum_network, forum_url):
        network, server = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        message = loaded.page.document.get_element_by_id("message-1")
        browser.issue_request(
            page=loaded.page,
            principal=loaded.page.principal_context_for(message),
            method="GET",
            url=loaded.page.url.resolve("/index"),
            initiator_label="untrusted content",
        )
        index_request = [r for r in server.requests if r.url.path == "/index"][-1]
        assert "sid" not in index_request.cookies

    def test_sop_browser_attaches_cookies_unconditionally(self, forum_url):
        browser, server, _ = browser_and_server(model="sop")
        loaded = browser.load(forum_url)
        message = loaded.page.document.get_element_by_id("message-1")
        browser.issue_request(
            page=loaded.page,
            principal=loaded.page.principal_context_for(message),
            method="GET",
            url=loaded.page.url.resolve("/index"),
            initiator_label="untrusted content",
        )
        index_request = [r for r in server.requests if r.url.path == "/index"][-1]
        assert index_request.cookies.get("sid") == "victim-session"

    def test_user_navigation_always_attaches_cookies(self, forum_network, forum_url):
        network, server = forum_network
        browser = Browser(network)
        browser.load(forum_url)
        browser.load(forum_url)
        second_navigation = [r for r in server.requests if r.url.path == "/viewtopic"][-1]
        assert second_navigation.cookies.get("sid") == "victim-session"
        assert second_navigation.initiator == "user"


class TestFormsAndLinks:
    def test_submit_form_as_user_carries_fields_and_cookies(self, forum_network, forum_url):
        network, server = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        browser.submit_form(loaded, "reply-form", {"message": "hello"}, as_user=True)
        posting = [r for r in server.requests if r.url.path == "/posting"][-1]
        assert posting.method == "POST"
        assert posting.params["mode"] == "reply"
        assert posting.params["message"] == "hello"
        assert posting.cookies.get("sid") == "victim-session"

    def test_submit_form_as_the_form_element_principal(self, forum_network, forum_url):
        network, server = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        browser.submit_form(loaded, "reply-form", as_user=False)
        posting = [r for r in server.requests if r.url.path == "/posting"][-1]
        # The form lives in the ring-1 chrome scope, so it may use the cookie.
        assert posting.cookies.get("sid") == "victim-session"

    def test_submit_form_collects_nested_fields_and_a_textarea_wins_a_shared_name(self, forum_url):
        body = (
            '<html><body><form id="f" method="POST" action="/posting">'
            '<textarea name="message">typed</textarea>'
            '<div><input name="mode" value="reply"><input name="message" value="hidden"></div>'
            '<input name="topic" value="7"><input value="unnamed">'
            '<textarea name="note">first</textarea><textarea name="note">second</textarea>'
            "</form></body></html>"
        )
        server = ForumServer(body)
        network = Network()
        network.register(ORIGIN_TEXT, server)
        browser = Browser(network)
        browser.submit_form(browser.load(forum_url), "f", as_user=True)
        posting = [r for r in server.requests if r.url.path == "/posting"][-1]
        assert posting.form == {"mode": "reply", "message": "typed", "topic": "7", "note": "second"}
        assert list(posting.form) == ["mode", "message", "topic", "note"]

    def test_submit_missing_form_raises(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        with pytest.raises(ValueError):
            browser.submit_form(loaded, "no-such-form")

    def test_click_link(self, forum_network, forum_url):
        network, server = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        response = browser.click_link(loaded, "home-link")
        assert response.ok
        index_request = [r for r in server.requests if r.url.path == "/index"][-1]
        assert index_request.method == "GET"

    def test_click_missing_link_raises(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        with pytest.raises(ValueError):
            browser.click_link(loaded, "nope")


class TestScriptCookieAccess:
    def test_privileged_script_reads_the_session_cookie(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        run = browser.run_script(loaded, "document.cookie;", ring=1)
        assert run.succeeded
        assert "sid=victim-session" in run.result.value

    def test_untrusted_script_sees_no_session_cookie(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        run = browser.run_script(loaded, "document.cookie;")  # defaults to ring 3
        assert run.succeeded
        assert "sid" not in (run.result.value or "")

    def test_untrusted_script_cannot_overwrite_the_session_cookie(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        browser.run_script(loaded, "document.cookie = 'sid=attacker-session';", ring=3)
        assert browser.cookie_jar.get(ORIGIN, "sid").value == "victim-session"

    def test_untrusted_script_may_create_its_own_low_privilege_cookie(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        browser.run_script(loaded, "document.cookie = 'prefs=dark';", ring=3)
        created = browser.cookie_jar.get(ORIGIN, "prefs")
        assert created is not None
        assert created.ring == Ring(3), "a principal cannot mint a cookie above its own ring"

    def test_http_only_cookie_is_invisible_to_document_cookie(self, forum_url):
        server = ForumServer()
        original = server.handle_request

        def with_http_only(request):
            response = original(request)
            if request.url.path == "/viewtopic":
                response.set_cookie("secret", "hidden", http_only=True)
            return response

        server.handle_request = with_http_only
        network = Network()
        network.register(ORIGIN_TEXT, server)
        browser = Browser(network)
        loaded = browser.load(forum_url)
        run = browser.run_script(loaded, "document.cookie;", ring=0)
        assert "secret" not in (run.result.value or "")

    @staticmethod
    def _browser_relabelling_prefs(initial_ring: int, relabelled_ring: int) -> Browser:
        """A forum whose pages set ``prefs`` at ``initial_ring`` and whose
        ``/api/relabel`` response re-sends it labelled ``relabelled_ring``."""
        server = ForumServer()
        original = server.handle_request

        def with_prefs_cookie(request):
            if request.url.path == "/api/relabel":
                response = HttpResponse.text("ok")
                ring = relabelled_ring
            else:
                response = original(request)
                if request.url.path != "/viewtopic":
                    return response
                ring = initial_ring
            response.set_cookie("prefs", "dark")
            configuration = forum_configuration()
            configuration.cookie_policies["prefs"] = ResourcePolicy(
                ring=Ring(ring), acl=Acl.uniform(ring)
            )
            response.apply_escudo_headers(configuration)
            return response

        server.handle_request = with_prefs_cookie
        network = Network()
        network.register(ORIGIN_TEXT, server)
        return Browser(network)

    @staticmethod
    def _relabel(browser: Browser, loaded) -> None:
        relabel = browser.run_script(
            loaded,
            "var xhr = new XMLHttpRequest(); xhr.open('GET', '/api/relabel'); xhr.send();",
            ring=1,
        )
        assert relabel.succeeded

    def test_cookie_relabelled_by_a_later_response_is_unreadable_on_the_next_read(self, forum_url):
        """A later ``X-Escudo-Cookie-Policy`` promoting a cookie above the
        reader takes effect on the reader's very next ``document.cookie``."""
        browser = self._browser_relabelling_prefs(3, 1)
        loaded = browser.load(forum_url)
        before = browser.run_script(loaded, "document.cookie;", ring=3)
        assert "prefs=dark" in (before.result.value or "")

        self._relabel(browser, loaded)
        assert browser.cookie_jar.get(ORIGIN, "prefs").ring == Ring(1)

        after = browser.run_script(loaded, "document.cookie;", ring=3)
        assert after.succeeded
        assert "prefs" not in (after.result.value or "")

    def test_cookie_relabelled_down_by_a_later_response_is_readable_on_the_next_read(
        self, forum_url
    ):
        """The reverse relabel grants access on the very next read too."""
        browser = self._browser_relabelling_prefs(1, 3)
        loaded = browser.load(forum_url)
        before = browser.run_script(loaded, "document.cookie;", ring=3)
        assert before.succeeded
        assert "prefs" not in (before.result.value or "")

        self._relabel(browser, loaded)
        assert browser.cookie_jar.get(ORIGIN, "prefs").ring == Ring(3)

        after = browser.run_script(loaded, "document.cookie;", ring=3)
        assert "prefs=dark" in (after.result.value or "")


class TestBrowserState:
    def test_history_readable_only_from_ring_zero(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        ring0 = loaded.page.browser_principal().with_label("trusted script")
        ring1 = loaded.page.principal_context_for(loaded.page.document.get_element_by_id("banner"))
        monitor = loaded.page.monitor
        before = monitor.stats.total
        assert browser.history_for_script(loaded.page, ring0) == [str(loaded.page.url)]
        assert browser.history_for_script(loaded.page, ring1) is None
        # Each call records exactly one decision on the ring-0 history context.
        assert monitor.stats.total == before + 2
        recorded = [(decision.object_label, decision.allowed) for decision in monitor.audit.entries[-2:]]
        assert recorded == [("history", True), ("history", False)]


class TestAdhocScripts:
    def test_run_script_defaults_to_least_privileged_ring(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        run = browser.run_script(
            loaded,
            "var banner = document.getElementById('banner');"
            "if (banner != null) { banner.textContent = 'Owned'; } 'done';",
        )
        assert run.succeeded
        assert loaded.page.document.get_element_by_id("banner").text_content == "Mini forum"
        assert loaded.page.denied_accesses() >= 1

    def test_run_script_with_explicit_privileged_ring(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        browser.run_script(
            loaded,
            "document.getElementById('banner').textContent = 'Updated by admin';",
            ring=1,
        )
        assert loaded.page.document.get_element_by_id("banner").text_content == "Updated by admin"


class TestHostileScriptContent:
    def test_a_comment_script_computing_infinity_does_not_crash_the_load(self):
        blog = Blog(input_validation=False)
        blog.add_comment(1, "mallory", '<script>var x = "" + 1/0;</script>')
        network = Network()
        network.register(blog.origin, blog)
        loaded = Browser(network).load(f"{blog.origin}/post?id=1")
        comment_runs = [run for run in loaded.page.script_runs if run.principal.ring == Ring(COMMENT_RING)]
        assert len(comment_runs) == 1
        assert comment_runs[0].succeeded

    def test_content_nested_5000_deep_loads_and_a_script_reads_it(self):
        # Every load-time walker (labeller, box builder, layout) and the
        # innerHTML serialiser must handle nesting past the recursion limit.
        browser, loaded = _load_legacy_page("<html><body>" + "<b>" * DEEP + "x</body></html>")
        run = browser.run_script(loaded, "document.body.innerHTML;")
        assert run.succeeded, run.result.error
        assert run.result.value == "<b>" * DEEP + "x" + "</b>" * DEEP

    def test_a_script_writing_5000_deep_markup_labels_every_new_element(self):
        browser, loaded = _load_legacy_page("<html><body><div id='top'>x</div></body></html>")
        run = browser.run_script(loaded, f"document.getElementById('top').innerHTML = '{'<i>' * DEEP}y';")
        assert run.succeeded, run.result.error
        created = loaded.page.document.get_elements_by_tag_name("i")
        assert len(created) == DEEP
        assert all(element.security_context is not None for element in created)


#: A nesting depth well past Python's default recursion limit.
DEEP = 5000


def _load_legacy_page(body: str):
    server = ForumServer(body, escudo=False)
    network = Network()
    network.register(ORIGIN_TEXT, server)
    browser = Browser(network)
    return browser, browser.load(f"{ORIGIN_TEXT}/deep")
