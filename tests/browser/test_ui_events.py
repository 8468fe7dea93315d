"""Tests for mediated UI event delivery (the `use` check on event targets)."""

from __future__ import annotations

import pytest

from repro.browser.browser import Browser
from repro.core.rings import Ring
from repro.http.network import Network

from .conftest import ORIGIN_TEXT, ForumServer, forum_configuration
from repro.http.messages import HttpResponse


#: Page with inline handlers in both a trusted (ring 1) and an untrusted
#: (ring 3) scope.
EVENT_BODY = (
    "<!DOCTYPE html><html><head><title>Events</title></head><body>"
    '<div ring="1" r="1" w="1" x="1" id="chrome">'
    '<button id="refresh" onclick="document.getElementById(\'status\').textContent = \'refreshed\';">refresh</button>'
    '<p id="status">stale</p>'
    "</div>"
    '<div ring="3" r="2" w="2" x="2" id="user-scope">'
    '<span id="user-widget" onmouseover="document.getElementById(\'status\').textContent = \'hijacked\';">hover me</span>'
    "</div>"
    "</body></html>"
)


class EventServer(ForumServer):
    def __init__(self) -> None:
        super().__init__(body=EVENT_BODY)

    def handle_request(self, request):
        self.requests.append(request)
        response = HttpResponse.html(self.body)
        response.set_cookie("sid", "victim-session")
        response.apply_escudo_headers(forum_configuration())
        return response


@pytest.fixture
def loaded_events_page():
    network = Network()
    network.register(ORIGIN_TEXT, EventServer())
    browser = Browser(network)
    return browser, browser.load(f"{ORIGIN_TEXT}/events")


class TestUserInitiatedEvents:
    def test_user_click_reaches_chrome_and_runs_its_inline_handler(self, loaded_events_page):
        browser, loaded = loaded_events_page
        result = browser.fire_event(loaded, "refresh", "click")
        assert result.delivered
        assert result.inline_handlers_run == 1
        assert loaded.page.document.get_element_by_id("status").text_content == "refreshed"

    def test_user_event_reaches_untrusted_content_too(self, loaded_events_page):
        browser, loaded = loaded_events_page
        result = browser.fire_event(loaded, "user-widget", "mouseover")
        assert result.delivered
        # The handler ran, but it runs with the *element's* ring-3 context, so
        # its attempt to modify the ring-1 status line is neutralised.
        assert result.inline_handlers_run == 1
        assert loaded.page.document.get_element_by_id("status").text_content == "stale"
        assert loaded.page.denied_accesses() >= 1

    def test_firing_at_a_missing_element_raises(self, loaded_events_page):
        browser, loaded = loaded_events_page
        with pytest.raises(ValueError):
            browser.fire_event(loaded, "ghost", "click")


class TestScriptSynthesizedEvents:
    def test_low_privilege_principal_cannot_deliver_events_to_chrome(self, loaded_events_page):
        browser, loaded = loaded_events_page
        page = loaded.page
        untrusted = page.principal_context_for(page.document.get_element_by_id("user-widget"))
        target = page.document.get_element_by_id("refresh")
        result = loaded.events.fire(
            target, "click", user_initiated=False, synthesizing_principal=untrusted
        )
        assert not result.delivered
        assert result.blocked_at, "the ring-3 principal was stopped by the use check"
        assert result.inline_handlers_run == 0
        assert page.document.get_element_by_id("status").text_content == "stale"

    def test_privileged_principal_can_synthesize_events(self, loaded_events_page):
        browser, loaded = loaded_events_page
        page = loaded.page
        chrome = page.principal_context_for(page.document.get_element_by_id("refresh"))
        result = loaded.events.fire(
            page.document.get_element_by_id("refresh"),
            "click",
            user_initiated=False,
            synthesizing_principal=chrome,
        )
        assert result.delivered
        assert page.document.get_element_by_id("status").text_content == "refreshed"

    def test_untrusted_principal_can_poke_its_own_scope(self, loaded_events_page):
        browser, loaded = loaded_events_page
        page = loaded.page
        untrusted = page.principal_context_for(page.document.get_element_by_id("user-widget")).with_ring(2)
        result = loaded.events.fire(
            page.document.get_element_by_id("user-widget"),
            "mouseover",
            user_initiated=False,
            synthesizing_principal=untrusted,
        )
        assert result.delivered


class TestRegisteredListeners:
    def test_script_registered_listener_runs_with_registering_principal(self, loaded_events_page):
        browser, loaded = loaded_events_page
        # A ring-1 script registers a listener on the chrome status line
        # (which has no inline handler of its own).
        run = browser.run_script(
            loaded,
            "document.getElementById('status').addEventListener('click', function (event) {"
            "  document.getElementById('status').textContent = 'listener ran';"
            "});",
            ring=1,
        )
        assert run.succeeded
        result = browser.fire_event(loaded, "status", "click")
        assert result.listeners_run == 1
        assert loaded.page.document.get_element_by_id("status").text_content == "listener ran"

    def test_untrusted_script_cannot_register_listeners_on_chrome(self, loaded_events_page):
        browser, loaded = loaded_events_page
        run = browser.run_script(
            loaded,
            "document.getElementById('refresh').addEventListener('click', function (event) {"
            "  document.getElementById('status').textContent = 'stolen';"
            "});",
            ring=3,
        )
        assert run.succeeded, "the attempt runs; the registration is silently denied"
        result = browser.fire_event(loaded, "refresh", "click")
        assert result.listeners_run == 0

    def test_listener_result_counts_match_page_bookkeeping(self, loaded_events_page):
        browser, loaded = loaded_events_page
        browser.run_script(
            loaded,
            "var button = document.getElementById('refresh');"
            "button.addEventListener('click', function (e) { var x = 1; });"
            "button.addEventListener('click', function (e) { var y = 2; });",
            ring=1,
        )
        target = loaded.page.document.get_element_by_id("refresh")
        assert len(loaded.page.dispatcher.listeners_for(target, "click")) == 2
        result = browser.fire_event(loaded, "refresh", "click")
        assert result.listeners_run == 2
