"""Tests for HTTP request/response messages and their ESCUDO headers."""

from __future__ import annotations

from repro.core.acl import Acl
from repro.core.config import (
    API_POLICY_HEADER,
    COOKIE_POLICY_HEADER,
    RINGS_HEADER,
    PageConfiguration,
    ResourcePolicy,
)
from repro.core.rings import Ring
from repro.http.messages import HttpRequest, HttpResponse
from repro.http.url import Url


class TestHttpRequest:
    def test_url_string_is_parsed(self):
        request = HttpRequest(method="get", url="http://app.example.com/path?x=1")
        assert isinstance(request.url, Url)
        assert request.method == "GET"
        assert request.origin == Url.parse("http://app.example.com/").origin

    def test_params_merge_query_and_form(self):
        request = HttpRequest(
            method="POST",
            url="http://app.example.com/posting?mode=reply&t=1",
            form={"message": "hello", "mode": "edit"},
        )
        assert request.params == {"mode": "edit", "t": "1", "message": "hello"}
        assert request.param("t") == "1"
        assert request.param("missing", "fallback") == "fallback"

    def test_cookie_parsing_from_header(self):
        request = HttpRequest(method="GET", url="http://app.example.com/")
        request.attach_cookie_header("sid=abc; theme=dark")
        assert request.cookies == {"sid": "abc", "theme": "dark"}

    def test_attach_empty_cookie_header_is_a_no_op(self):
        request = HttpRequest(method="GET", url="http://app.example.com/")
        request.attach_cookie_header("")
        assert request.cookie_header is None
        assert request.cookies == {}

    def test_default_initiator_is_user(self):
        request = HttpRequest(method="GET", url="http://app.example.com/")
        assert request.initiator == "user"

    def test_serialized_body_prefers_raw_body(self):
        request = HttpRequest(method="POST", url="http://a.example.com/", body="raw", form={"a": "1"})
        assert request.serialized_body() == "raw"

    def test_serialized_body_encodes_form(self):
        request = HttpRequest(method="POST", url="http://a.example.com/", form={"a": "1", "b": "two words"})
        assert request.serialized_body() == "a=1&b=two+words"

    def test_serialized_body_empty(self):
        assert HttpRequest(method="GET", url="http://a.example.com/").serialized_body() == ""

    def test_str(self):
        assert str(HttpRequest(method="get", url="http://a.example.com/x")) == "GET http://a.example.com/x"


class TestHttpResponse:
    def test_html_constructor(self):
        response = HttpResponse.html("<p>hi</p>")
        assert response.ok
        assert response.status == 200
        assert response.content_type.startswith("text/html")

    def test_text_constructor(self):
        response = HttpResponse.text("3 unread")
        assert response.content_type.startswith("text/plain")

    def test_not_found_and_forbidden(self):
        assert HttpResponse.not_found().status == 404
        assert not HttpResponse.not_found().ok
        assert HttpResponse.forbidden("nope").status == 403

    def test_redirect(self):
        response = HttpResponse.redirect("/login")
        assert response.is_redirect
        assert response.headers["Location"] == "/login"

    def test_redirect_without_location_is_not_redirect(self):
        response = HttpResponse(status=302)
        assert not response.is_redirect

    def test_reason_phrases(self):
        assert HttpResponse(status=200).reason == "OK"
        assert HttpResponse(status=404).reason == "Not Found"
        assert HttpResponse(status=599).reason == "Unknown"

    def test_set_cookie_appends_headers(self):
        response = HttpResponse.html("x")
        response.set_cookie("sid", "abc", http_only=True)
        response.set_cookie("theme", "dark", path="/app", secure=True)
        values = response.set_cookie_values
        assert values[0] == "sid=abc; Path=/; HttpOnly"
        assert values[1] == "theme=dark; Path=/app; Secure"


class TestEscudoHeaderRoundTrip:
    def _configuration(self) -> PageConfiguration:
        configuration = PageConfiguration()
        configuration.cookie_policies["sid"] = ResourcePolicy(ring=Ring(1), acl=Acl.uniform(1))
        configuration.api_policies["XMLHttpRequest"] = ResourcePolicy(ring=Ring(1), acl=Acl.uniform(1))
        return configuration

    def test_apply_escudo_headers_emits_all_three_headers(self):
        response = HttpResponse.html("x")
        response.apply_escudo_headers(self._configuration())
        assert RINGS_HEADER in response.headers
        assert COOKIE_POLICY_HEADER in response.headers
        assert API_POLICY_HEADER in response.headers

    def test_configuration_round_trips_through_headers(self):
        response = HttpResponse.html("x")
        response.apply_escudo_headers(self._configuration())
        recovered = response.escudo_configuration()
        assert recovered.escudo_enabled
        assert recovered.cookie_policy("sid").ring == Ring(1)
        assert recovered.api_policy("XMLHttpRequest").ring == Ring(1)
        # Unconfigured resources fall back to the ring-0 default.
        assert recovered.cookie_policy("other").ring == Ring(0)

    def test_first_value_of_each_header_wins_in_any_case(self):
        response = HttpResponse.html("x")
        response.headers.add("x-escudo-rings", "2")
        response.headers.add("X-Escudo-Rings", "5")
        response.headers.add("X-ESCUDO-API-POLICY", "XMLHttpRequest; ring=1")
        response.headers.add("X-Escudo-Api-Policy", "XMLHttpRequest; ring=2")
        recovered = response.escudo_configuration()
        assert recovered.escudo_enabled
        assert recovered.rings.highest_level == 2
        assert recovered.api_policy("XMLHttpRequest").ring == Ring(1)
        assert recovered.cookie_policies == {}

    def test_response_without_escudo_headers_reports_disabled(self):
        recovered = HttpResponse.html("x").escudo_configuration()
        assert recovered.escudo_enabled is False

    def test_legacy_configuration_emits_no_headers(self):
        response = HttpResponse.html("x")
        response.apply_escudo_headers(PageConfiguration.legacy())
        assert RINGS_HEADER not in response.headers
        assert COOKIE_POLICY_HEADER not in response.headers
