"""Tests for the Page object (one web page == one ESCUDO 'system')."""

from __future__ import annotations

import gc
import weakref

from repro.browser.loader import load_page
from repro.browser.script_runtime import ScriptRuntime
from repro.core.rings import Ring

from .conftest import FORUM_BODY, forum_configuration

URL = "http://forum.example.com/viewtopic?t=1"


def page():
    return load_page(FORUM_BODY, URL, configuration=forum_configuration())


class TestIdentity:
    def test_origin_and_rings(self):
        loaded = page()
        assert loaded.origin.host == "forum.example.com"
        assert loaded.rings.highest_level == 3


class TestPrincipals:
    def test_element_principal_context_is_its_labelled_context(self):
        loaded = page()
        message = loaded.document.get_element_by_id("message-1")
        context = loaded.principal_context_for(message)
        assert context.ring == Ring(3)
        assert "div" in context.label

    def test_unlabelled_element_falls_back_to_least_privilege(self):
        loaded = page()
        orphan = loaded.document.create_element("script")
        context = loaded.principal_context_for(orphan)
        assert context.ring == loaded.rings.least_privileged()

    def test_browser_principal_is_trusted_ring_zero(self):
        loaded = page()
        principal = loaded.browser_principal()
        assert principal.ring == Ring(0)
        assert principal.origin == loaded.origin


class TestNativeApiContexts:
    def test_configured_api_ring(self):
        loaded = page()
        context = loaded.api_context("XMLHttpRequest")
        assert context.ring == Ring(1)

    def test_unconfigured_api_defaults_to_ring_zero(self):
        loaded = page()
        context = loaded.api_context("Geolocation")
        assert context.ring == Ring(0)

    def test_dom_api_context_only_when_configured(self):
        loaded = page()
        assert loaded.dom_api_context() is None
        loaded.configuration.api_policies["DOM API"] = loaded.configuration.api_policies["XMLHttpRequest"]
        assert loaded.dom_api_context().ring == Ring(1)


class TestListeners:
    def test_script_listener_keeps_its_detached_element_alive(self):
        # The dispatcher is the page's only listener store, so it must hold
        # the element: a freed element's id() could be reused by a new one,
        # which would then inherit the listener.
        loaded = page()
        runtime = ScriptRuntime(None, loaded)
        principal = loaded.browser_principal()
        runtime.execute(
            'var box = document.createElement("span"); box.setAttribute("id", "box");'
            "document.body.appendChild(box); box = null;",
            principal,
        )
        alive = weakref.ref(loaded.document.get_element_by_id("box"))
        runtime.execute(
            'var box = document.getElementById("box");'
            'box.addEventListener("click", function (event) { return 1; });'
            "document.body.removeChild(box); box = null;",
            principal,
        )
        del runtime
        gc.collect()
        assert alive() is not None
        assert alive().parent is None
        assert len(loaded.dispatcher.listeners_for(alive(), "click")) == 1

    def test_close_drops_every_listener(self):
        loaded = page()
        banner = loaded.document.get_element_by_id("banner")
        loaded.dispatcher.add_listener(banner, "click", lambda event: None)
        loaded.close()
        assert loaded.dispatcher.listeners_for(banner, "click") == []


class TestSummaries:
    def test_ring_histogram_covers_every_element(self):
        loaded = page()
        histogram = loaded.ring_histogram()
        assert sum(histogram.values()) == loaded.document.count_elements()
        assert histogram[1] >= 3  # chrome div + banner + status
        assert histogram[3] >= 2  # message scope + message

    def test_denied_accesses_tracks_the_monitor(self):
        loaded = page()
        assert loaded.denied_accesses() == 0
        weak = loaded.principal_context_for(loaded.document.get_element_by_id("message-1"))
        chrome = loaded.document.get_element_by_id("banner").security_context
        loaded.monitor.authorize(weak, chrome, "write")
        assert loaded.denied_accesses() == 1

    def test_summary_keys(self):
        summary = page().summary()
        assert {"url", "escudo", "model", "elements", "ac_tags", "rings",
                "scripts_run", "mediated_accesses", "denied_accesses",
                "ignored_end_tags"} <= set(summary)
