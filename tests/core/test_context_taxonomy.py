"""Tests for security contexts and the Table-1 taxonomy."""

from __future__ import annotations

import pytest

from repro.browser.history import BrowserHistory
from repro.core.acl import Acl
from repro.core.context import SecurityContext
from repro.core.objects import (
    BROWSER_STATE_OBJECTS,
    NATIVE_APIS,
    ObjectKind,
)
from repro.core.objects import taxonomy as object_taxonomy
from repro.core.origin import Origin
from repro.core.principal import (
    HTTP_REQUEST_ISSUING_TAGS,
    PrincipalKind,
    classify_tag,
    event_handler_attributes,
)
from repro.core.principal import taxonomy as principal_taxonomy
from repro.core.rings import Ring, RingSet
from tests.conftest import make_context


class TestSecurityContext:
    def test_with_ring_and_acl_and_label_are_copies(self, origin):
        context = make_context(origin, 2, label="original")
        relabelled = context.with_label("copy").with_ring(1).with_acl(Acl.uniform(0))
        assert context.ring == Ring(2) and context.label == "original"
        assert relabelled.ring == Ring(1) and relabelled.label == "copy"
        assert relabelled.acl.read == Ring(0)

    def test_restricted_to_applies_scoping(self, origin):
        assert make_context(origin, 0).restricted_to(2).ring == Ring(2)
        assert make_context(origin, 3).restricted_to(1).ring == Ring(3)

    def test_page_default_is_least_privileged_and_locked(self, origin):
        context = SecurityContext.for_page_default(origin, RingSet(3))
        assert context.ring == Ring(3)
        assert context.acl.write == Ring(0)

    def test_infrastructure_default_is_ring_zero(self, origin):
        context = SecurityContext.for_infrastructure(origin, "cookie jar")
        assert context.ring == Ring(0)

    def test_str_mentions_ring_and_origin(self, origin):
        assert "ring 2" in str(make_context(origin, 2))


class TestPrincipals:
    def test_http_request_issuing_tags_match_table1(self):
        assert HTTP_REQUEST_ISSUING_TAGS == {"a", "img", "form", "embed", "iframe"}

    @pytest.mark.parametrize("tag", ["a", "img", "form", "embed", "iframe"])
    def test_classify_http_request_issuers(self, tag):
        assert classify_tag(tag) is PrincipalKind.HTTP_REQUEST_ISSUER

    def test_classify_script(self):
        assert classify_tag("script") is PrincipalKind.SCRIPT
        assert classify_tag("SCRIPT") is PrincipalKind.SCRIPT

    def test_classify_plain_content_returns_none(self):
        assert classify_tag("p") is None
        assert classify_tag("div") is None

    def test_event_handler_extraction(self):
        attributes = {"onclick": "run()", "class": "x", "ONLOAD": "init()"}
        handlers = event_handler_attributes(attributes)
        assert handlers == {"onclick": "run()", "onload": "init()"}

    def test_plugins_are_not_application_controllable(self):
        assert not PrincipalKind.PLUGIN.controllable
        assert PrincipalKind.SCRIPT.controllable

    def test_principal_taxonomy_covers_all_kinds_except_browser(self):
        taxonomy = principal_taxonomy()
        assert set(taxonomy) == {
            PrincipalKind.HTTP_REQUEST_ISSUER.value,
            PrincipalKind.SCRIPT.value,
            PrincipalKind.UI_EVENT_HANDLER.value,
            PrincipalKind.PLUGIN.value,
        }


class TestObjects:
    def test_browser_state_is_forced_to_ring_zero(self, origin):
        assert object_taxonomy()[ObjectKind.BROWSER_STATE.value]["configurable"] is False
        for name, context in BrowserHistory().protected_objects(origin).items():
            assert name in BROWSER_STATE_OBJECTS
            assert context.label == name
            assert context.ring == Ring(0)
            assert context.acl == Acl.uniform(0)

    def test_native_api_and_state_constants(self):
        assert "XMLHttpRequest" in NATIVE_APIS
        assert "history" in BROWSER_STATE_OBJECTS

    def test_object_taxonomy_matches_table1(self):
        taxonomy = object_taxonomy()
        assert set(taxonomy) == {"dom-element", "cookie", "native-api", "browser-state"}
        assert taxonomy["dom-element"]["dual_role"] is True
        assert taxonomy["browser-state"]["configurable"] is False
