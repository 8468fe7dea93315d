"""Tests for the page-loading pipeline (parse → extract → label → render)."""

from __future__ import annotations

import pytest

from repro.browser.loader import LoaderOptions, load_page
from repro.core.config import PageConfiguration
from repro.core.nonce import NonceGenerator
from repro.core.policy import EscudoPolicy
from repro.core.rings import Ring
from repro.core.sop import SameOriginPolicy

from .conftest import FORUM_BODY, forum_configuration

URL = "http://forum.example.com/viewtopic?t=1"


class TestLoaderOptions:
    def test_default_model_is_escudo(self):
        options = LoaderOptions()
        assert options.escudo_bookkeeping
        assert isinstance(options.build_policy(), EscudoPolicy)

    @pytest.mark.parametrize("model", ["sop", "same-origin"])
    def test_sop_model_disables_bookkeeping(self, model):
        options = LoaderOptions(model=model)
        assert not options.escudo_bookkeeping
        assert isinstance(options.build_policy(), SameOriginPolicy)


class TestEscudoPipeline:
    def test_full_pipeline_produces_a_labelled_rendered_page(self):
        page = load_page(FORUM_BODY, URL, configuration=forum_configuration())
        assert page.escudo_enabled
        assert page.origin.host == "forum.example.com"
        assert page.labeling.ac_tags == 2
        assert page.labeling.labelled_elements == page.document.count_elements()
        assert page.rendering.boxes > 0
        assert page.monitor.model_name == "escudo"

    def test_chrome_and_message_scopes_get_their_rings(self):
        page = load_page(FORUM_BODY, URL, configuration=forum_configuration())
        assert page.document.get_element_by_id("banner").security_context.ring == Ring(1)
        assert page.document.get_element_by_id("message-1").security_context.ring == Ring(3)

    def test_body_ac_tags_enable_escudo_without_headers(self):
        page = load_page(FORUM_BODY, URL)  # no header configuration at all
        assert page.escudo_enabled
        assert page.document.get_element_by_id("message-1").security_context.ring == Ring(3)

    def test_page_without_any_configuration_is_legacy(self):
        page = load_page("<html><body><p id='x'>plain</p></body></html>", URL)
        assert not page.escudo_enabled
        assert page.document.get_element_by_id("x").security_context.ring == Ring(0)

    def test_explicit_monitor_is_used(self):
        from repro.core.monitor import ReferenceMonitor

        monitor = ReferenceMonitor()
        page = load_page(FORUM_BODY, URL, monitor=monitor)
        assert page.monitor is monitor


class TestSopPipeline:
    def test_sop_model_ignores_ac_tags(self):
        page = load_page(FORUM_BODY, URL, configuration=forum_configuration(),
                         options=LoaderOptions(model="sop"))
        assert not page.escudo_enabled
        assert page.document.get_element_by_id("message-1").security_context.ring == Ring(0)
        assert page.labeling.ac_tags == 0
        assert page.monitor.model_name in ("sop", "same-origin")


class TestNonceHandlingDuringLoad:
    def _nonced_body(self) -> tuple[str, str]:
        nonce = NonceGenerator(seed="test").next_nonce()
        body = (
            "<html><body>"
            f'<div ring="3" nonce="{nonce}" id="scope">'
            "user content"
            '</div nonce="wrong-guess">'            # attacker's terminator: ignored
            '<div ring="0" id="injected">boost</div>'
            f'</div nonce="{nonce}">'               # the legitimate terminator
            "</body></html>"
        )
        return body, nonce

    def test_mismatching_terminator_is_ignored_and_counted(self):
        body, _ = self._nonced_body()
        page = load_page(body, URL)
        assert page.ignored_end_tags == 1
        injected = page.document.get_element_by_id("injected")
        # The injected div stayed *inside* the nonce-protected scope, so the
        # scoping rule clamps its ring-0 claim to ring 3.
        assert injected.security_context.ring == Ring(3)
        assert page.nonce_validator.rejected_count == 1

    def test_sop_pipeline_does_not_do_nonce_bookkeeping(self):
        body, _ = self._nonced_body()
        page = load_page(body, URL, options=LoaderOptions(model="sop"))
        assert page.nonce_validator.rejected_count == 0


class TestScopingAblation:
    BODY = (
        "<html><body>"
        '<div ring="3" id="outer"><div ring="0" id="inner">x</div></div>'
        "</body></html>"
    )

    def test_scoping_enforced_by_default(self):
        page = load_page(self.BODY, URL)
        assert page.document.get_element_by_id("inner").security_context.ring == Ring(3)

    def test_scoping_can_be_disabled_for_the_ablation(self):
        page = load_page(self.BODY, URL, options=LoaderOptions(enforce_scoping=False))
        assert page.document.get_element_by_id("inner").security_context.ring == Ring(0)


class TestPageSummary:
    def test_summary_reports_the_key_counters(self):
        page = load_page(FORUM_BODY, URL, configuration=forum_configuration())
        summary = page.summary()
        assert summary["escudo"] is True
        assert summary["ac_tags"] == 2
        assert summary["elements"] == page.document.count_elements()
        assert summary["denied_accesses"] == 0
        assert summary["model"] == "escudo"
