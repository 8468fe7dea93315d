"""Tests for the script runtime: per-principal bindings over the mediated APIs."""

from __future__ import annotations

import pytest

from repro.browser.browser import Browser
from repro.core.rings import Ring
from repro.http.messages import HttpResponse
from repro.http.network import Network

from .conftest import ORIGIN_TEXT, ForumServer, forum_configuration

#: Page with scripts in two different scopes: a trusted ring-1 script that
#: updates the chrome, and an injected ring-3 script that tries to do the same.
SCRIPTED_BODY = (
    "<!DOCTYPE html><html><head><title>Scripts</title></head><body>"
    '<div ring="1" r="1" w="1" x="1" id="chrome">'
    '<h1 id="banner">Forum</h1>'
    '<p id="unread">?</p>'
    "<script>"
    "var xhr = new XMLHttpRequest();"
    "xhr.open('GET', '/api/unread');"
    "xhr.send();"
    "var badge = document.getElementById('unread');"
    "if (badge != null && xhr.status == 200) { badge.textContent = xhr.responseText; }"
    "</script>"
    "</div>"
    '<div ring="3" r="2" w="2" x="2" id="user-scope">'
    "<script>"
    "var banner = document.getElementById('banner');"
    "if (banner != null) { banner.textContent = 'Owned'; }"
    "document.cookie = 'sid=attacker';"
    "</script>"
    '<p id="user-note">user text</p>'
    "</div>"
    "</body></html>"
)


class ScriptedServer(ForumServer):
    def __init__(self) -> None:
        super().__init__(body=SCRIPTED_BODY)


@pytest.fixture
def loaded_scripted_page():
    network = Network()
    network.register(ORIGIN_TEXT, ScriptedServer())
    browser = Browser(network)
    return browser, browser.load(f"{ORIGIN_TEXT}/page")


class TestDocumentScripts:
    def test_scripts_run_in_document_order_with_their_scope_privileges(self, loaded_scripted_page):
        browser, loaded = loaded_scripted_page
        assert len(loaded.page.script_runs) == 2
        rings = [run.principal.ring.level for run in loaded.page.script_runs]
        assert rings == [1, 3]
        assert all(run.succeeded for run in loaded.page.script_runs)

    def test_trusted_script_performed_its_ajax_update(self, loaded_scripted_page):
        browser, loaded = loaded_scripted_page
        assert loaded.page.document.get_element_by_id("unread").text_content == "3"

    def test_untrusted_script_was_neutralised(self, loaded_scripted_page):
        browser, loaded = loaded_scripted_page
        assert loaded.page.document.get_element_by_id("banner").text_content == "Forum"
        assert browser.cookie_jar.get(loaded.page.origin, "sid").value == "victim-session"
        assert loaded.page.denied_accesses() >= 1


class TestExternalScripts:
    def test_src_scripts_are_fetched_through_the_mediated_request_path(self):
        body = (
            "<!DOCTYPE html><html><body>"
            '<div ring="1" r="1" w="1" x="1" id="chrome">'
            '<p id="target">untouched</p>'
            '<script src="/lib.js"></script>'
            "</div>"
            "</body></html>"
        )

        class LibraryServer(ForumServer):
            def __init__(self) -> None:
                super().__init__(body=body)

            def handle_request(self, request):
                self.requests.append(request)
                if request.url.path == "/lib.js":
                    return HttpResponse.text("document.getElementById('target').textContent = 'library ran';")
                response = HttpResponse.html(self.body)
                response.set_cookie("sid", "victim-session")
                response.apply_escudo_headers(forum_configuration())
                return response

        server = LibraryServer()
        network = Network()
        network.register(ORIGIN_TEXT, server)
        browser = Browser(network)
        loaded = browser.load(f"{ORIGIN_TEXT}/page")
        assert loaded.page.document.get_element_by_id("target").text_content == "library ran"
        script_fetches = [r for r in server.requests if r.url.path == "/lib.js"]
        assert len(script_fetches) == 1
        assert "script-src" in script_fetches[0].initiator


class TestWindowBindings:
    def test_alerts_and_console_are_observed(self, loaded_scripted_page):
        browser, loaded = loaded_scripted_page
        run = browser.run_script(
            loaded,
            "alert('hello', 1); console.log('logged', 'twice'); window.alert('again');",
            ring=1,
        )
        assert run.succeeded
        observations = loaded.runtime.observations
        # run_script builds a fresh runtime environment per execution, but all
        # observations funnel into the page runtime's collector.
        assert "hello 1" in observations.alerts
        assert "again" in observations.alerts
        assert "logged twice" in observations.console

    def test_window_globals_resolve_on_first_lookup(self, loaded_scripted_page, monkeypatch):
        from repro.browser import script_runtime

        browser, loaded = loaded_scripted_page
        reads = []
        js_get = script_runtime.WindowBinding.js_get

        def counting(self, name):
            reads.append(name)
            return js_get(self, name)

        monkeypatch.setattr(script_runtime.WindowBinding, "js_get", counting)
        run = browser.run_script(loaded, "1 + 1;", ring=1)
        assert run.succeeded and reads == []
        run = browser.run_script(
            loaded, "alert('a'); alert('b'); typeof document + (document == window.document);", ring=1
        )
        assert run.result.value == "objecttrue"
        assert reads == ["alert", "document", "document"]
        run = browser.run_script(loaded, "var alert = 5; alert + 1;", ring=1)
        assert run.result.value == 6.0

    def test_location_reads_reflect_the_page_url(self, loaded_scripted_page):
        browser, loaded = loaded_scripted_page
        run = browser.run_script(loaded, "location.host + location.pathname;", ring=1)
        assert run.result.value == "forum.example.com/page"

    def test_location_writes_record_navigation_attempts(self, loaded_scripted_page):
        browser, loaded = loaded_scripted_page
        browser.run_script(loaded, "location.href = 'http://evil.example.net/phish';", ring=3)
        assert "http://evil.example.net/phish" in loaded.runtime.observations.navigation_targets()

    def test_set_timeout_defers_past_the_registering_script(self, loaded_scripted_page):
        """The callback runs when the loop drains, not inside the script."""
        browser, loaded = loaded_scripted_page
        run = browser.run_script(
            loaded,
            "var hit = 'no';"
            "window.setTimeout(function () { hit = 'yes'; console.log('timer ' + hit); }, 1000);"
            "hit;",
            ring=1,
        )
        # Read at script end: the callback had not run yet (the old runtime
        # executed it synchronously and returned 'yes' here).
        assert run.result.value == "no"
        # run_script drained the loop afterwards, so the callback did fire.
        assert "timer yes" in loaded.runtime.observations.console
        assert loaded.page.event_loop.stats.timers_fired >= 1

    def test_clear_timeout_cancels_a_pending_timer(self, loaded_scripted_page):
        browser, loaded = loaded_scripted_page
        browser.run_script(
            loaded,
            "var id = setTimeout(function () { console.log('should not run'); }, 50);"
            "clearTimeout(id);",
            ring=1,
        )
        assert "should not run" not in loaded.runtime.observations.console
        assert loaded.page.event_loop.stats.cancelled >= 1

    def test_clear_timeout_cannot_cancel_another_principals_timer(self, loaded_scripted_page):
        """Timer ids are shared page-wide; cancellation is not.

        A low-privilege script sweeping guessed ids must not cancel another
        principal's deferred callback -- that would be an unmediated,
        unaudited interference channel.
        """
        browser, loaded = loaded_scripted_page
        browser.run_script(
            loaded,
            "setTimeout(function () { console.log('chrome timer ran'); }, 20);",
            ring=1,
            drain=False,
        )
        browser.run_script(
            loaded,
            "var i = 1; while (i < 50) { clearTimeout(i); i = i + 1; }",
            ring=3,
            drain=False,
        )
        assert not loaded.page.event_loop.quiescent, "the sweep must not cancel the timer"
        browser.advance_time(loaded, 20)
        assert "chrome timer ran" in loaded.runtime.observations.console

    def test_deferred_timer_survives_page_load(self, loaded_scripted_page):
        """A positive-delay timer scheduled without a drain stays queued."""
        browser, loaded = loaded_scripted_page
        browser.run_script(
            loaded,
            "setTimeout(function () { console.log('deferred ran'); }, 25);",
            ring=1,
            drain=False,
        )
        assert "deferred ran" not in loaded.runtime.observations.console
        assert not loaded.page.event_loop.quiescent
        browser.advance_time(loaded, 25)
        assert "deferred ran" in loaded.runtime.observations.console

    def test_document_title_and_write(self, loaded_scripted_page):
        browser, loaded = loaded_scripted_page
        run = browser.run_script(loaded, "document.title;", ring=1)
        assert run.result.value == "Scripts"
        # document.write appends markup through the mediated innerHTML path.
        browser.run_script(loaded, "document.write('<p id=\"written\">w</p>');", ring=0)
        assert loaded.page.document.get_element_by_id("written") is not None


class TestHostValuesInScripts:
    def test_an_element_binding_serialises_as_an_empty_object(self, loaded_scripted_page):
        browser, loaded = loaded_scripted_page
        run = browser.run_script(
            loaded, "JSON.stringify([document.getElementById('banner'), document]);", ring=1
        )
        assert run.result.value == "[{},{}]"

    def test_dom_methods_fit_their_arity(self, loaded_scripted_page):
        browser, loaded = loaded_scripted_page
        run = browser.run_script(
            loaded,
            "var b = document.getElementById('banner', 'extra');"
            "b.getAttribute() + ':' + document.getElementById();",
            ring=1,
        )
        assert run.succeeded
        assert run.result.value == "null:null"


class TestScriptFaultIsolation:
    def test_script_errors_do_not_break_the_page_load(self):
        body = (
            "<!DOCTYPE html><html><body>"
            '<div ring="1" r="1" w="1" x="1" id="chrome">'
            "<script>totally.broken(;</script>"
            "<script>document.getElementById('chrome');</script>"
            '<p id="after">still here</p>'
            "</div>"
            "</body></html>"
        )

        class BrokenScriptServer(ForumServer):
            def __init__(self) -> None:
                super().__init__(body=body)

        network = Network()
        network.register(ORIGIN_TEXT, BrokenScriptServer())
        browser = Browser(network)
        loaded = browser.load(f"{ORIGIN_TEXT}/page")
        assert loaded.page.document.get_element_by_id("after") is not None
        runs = loaded.page.script_runs
        assert len(runs) == 2
        assert not runs[0].succeeded
        assert runs[1].succeeded

    def test_infinite_loop_scripts_are_bounded(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network, max_script_steps=5_000)
        loaded = browser.load(forum_url)
        run = browser.run_script(loaded, "while (true) { var spin = 1; }", ring=1)
        assert not run.succeeded
        assert "budget" in str(run.result.error).lower()
