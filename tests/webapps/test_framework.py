"""Tests for the server-side web framework (routing, sessions, defences)."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from repro.core.config import COOKIE_POLICY_HEADER, RINGS_HEADER, PageConfiguration, ResourcePolicy
from repro.core.rings import RingSet
from repro.http.messages import HttpRequest, HttpResponse
from repro.scenarios import run_suite
from repro.webapps.framework import RequestContext, WebApplication
from repro.webapps.sessions import SessionStore


class MiniApp(WebApplication):
    """Tiny application exercising every framework feature."""

    session_cookie_name = "mini_sid"

    def register_routes(self) -> None:
        self.route("GET", "/", self.index)
        self.route("POST", "/login", self.do_login)
        self.route("POST", "/post", self.do_post, requires_login=True)
        self.route("GET", "/echo", self.echo)

    def index(self, context: RequestContext) -> HttpResponse:
        user = context.username or "guest"
        return HttpResponse.html(f"<html><body><p id='user'>{user}</p></body></html>")

    def do_login(self, context: RequestContext) -> HttpResponse:
        response = HttpResponse.html("<html><body>welcome</body></html>")
        self.login(context, context.param("username", "anonymous"), response)
        return response

    def do_post(self, context: RequestContext) -> HttpResponse:
        return HttpResponse.html(f"<html><body>posted as {context.username}</body></html>")

    def echo(self, context: RequestContext) -> HttpResponse:
        return HttpResponse.html(f"<html><body>{context.clean(context.param('q'))}</body></html>")


ORIGIN = "http://mini.example.com"


def request(method: str, path: str, *, form: dict | None = None, cookies: str = "") -> HttpRequest:
    req = HttpRequest(method=method, url=f"{ORIGIN}{path}", form=form or {})
    if cookies:
        req.attach_cookie_header(cookies)
    return req


def login(app: MiniApp, username: str = "alice") -> str:
    response = app.handle_request(request("POST", "/login", form={"username": username}))
    value = response.set_cookie_values[0]
    return value.split(";", 1)[0]  # "mini_sid=<id>"


class TestRouting:
    def test_matching_route_is_dispatched(self):
        app = MiniApp(ORIGIN)
        response = app.handle_request(request("GET", "/"))
        assert response.ok
        assert "guest" in response.body

    def test_unknown_route_is_404(self):
        app = MiniApp(ORIGIN)
        assert app.handle_request(request("GET", "/nope")).status == 404

    def test_method_must_match(self):
        app = MiniApp(ORIGIN)
        assert app.handle_request(request("POST", "/")).status == 404

    def test_requires_login_rejects_anonymous_requests(self):
        app = MiniApp(ORIGIN)
        assert app.handle_request(request("POST", "/post")).status == 403

    def test_requires_login_accepts_a_valid_session_cookie(self):
        app = MiniApp(ORIGIN)
        cookie = login(app)
        response = app.handle_request(request("POST", "/post", cookies=cookie))
        assert response.ok
        assert "alice" in response.body


class TestSessions:
    def test_login_sets_the_session_cookie_and_identifies_the_user(self):
        app = MiniApp(ORIGIN)
        cookie = login(app, "bob")
        response = app.handle_request(request("GET", "/", cookies=cookie))
        assert "bob" in response.body
        assert len(app.sessions.sessions_for("bob")) == 1

    def test_unknown_session_id_is_ignored(self):
        app = MiniApp(ORIGIN)
        response = app.handle_request(request("GET", "/", cookies="mini_sid=forged"))
        assert "guest" in response.body

    def test_session_store_lifecycle(self):
        store = SessionStore(seed="t")
        session = store.create("alice")
        assert store.get(session.session_id) is session
        assert store.get(None) is None
        session.set("theme", "dark")
        assert session.get("theme") == "dark"
        assert session.get("missing", "fallback") == "fallback"
        store.destroy(session.session_id)
        assert store.get(session.session_id) is None
        assert len(store) == 0

    def test_session_ids_are_distinct(self):
        store = SessionStore(seed="t")
        ids = {store.create("alice").session_id for _ in range(10)}
        assert len(ids) == 10


class TestEscudoHeaders:
    def test_html_responses_carry_escudo_headers_when_enabled(self):
        app = MiniApp(ORIGIN)
        response = app.handle_request(request("GET", "/"))
        assert RINGS_HEADER in response.headers

    def test_legacy_application_emits_no_escudo_headers(self):
        app = MiniApp(ORIGIN, escudo_enabled=False)
        response = app.handle_request(request("GET", "/"))
        assert RINGS_HEADER not in response.headers
        assert COOKIE_POLICY_HEADER not in response.headers

    def test_the_header_lines_are_rendered_once_per_class(self):
        class CountingApp(MiniApp):
            rendered = 0

            def escudo_configuration(self) -> PageConfiguration:
                CountingApp.rendered += 1
                return super().escudo_configuration()

        for _ in range(3):
            app = CountingApp(ORIGIN)
            app.handle_request(request("GET", "/"))
            app.handle_request(request("GET", "/missing"))
        assert CountingApp.rendered == 1

    def test_a_subclass_overriding_the_configuration_gets_its_own_lines(self):
        class RingOneApp(MiniApp):
            def escudo_configuration(self) -> PageConfiguration:
                config = PageConfiguration(rings=RingSet(1))
                config.cookie_policies["mini_sid"] = ResourcePolicy.uniform(1)
                return config

        base = MiniApp(ORIGIN).handle_request(request("GET", "/"))
        sub = RingOneApp(ORIGIN).handle_request(request("GET", "/"))
        again = MiniApp(ORIGIN).handle_request(request("GET", "/"))
        assert list(sub.headers) == [(RINGS_HEADER, "1"), (COOKIE_POLICY_HEADER, "mini_sid; ring=1; r=1; w=1; x=1")]
        rendered = list(MiniApp(ORIGIN).escudo_configuration().to_headers().items())
        assert list(base.headers) == list(again.headers) == rendered
        assert list(base.headers) != list(sub.headers)

    def test_every_suite_response_carries_the_same_header_pairs(self, monkeypatch):
        # SHA-256 over (app, method, path, status, header pairs) of every
        # response the three applications send in run_suite(seed=42,
        # count=30): any change to a header's text or position shows.
        digest, sent = hashlib.sha256(), Counter()
        handle = WebApplication.handle_request

        def recording(self, incoming):
            response = handle(self, incoming)
            name = type(self).__name__
            line = [name, incoming.method, incoming.url.path, response.status, list(response.headers)]
            digest.update(json.dumps(line).encode() + b"\n")
            sent[name] += 1
            return response

        monkeypatch.setattr(WebApplication, "handle_request", recording)
        run_suite(seed=42, count=30)
        assert sent == {"Blog": 183, "PhpBB": 357, "PhpCalendar": 211}
        assert digest.hexdigest() == "1d459d22bcd6422e3d044c870e95e6a2c5e4aa3159d6b88c7fdb8e139b3d9b47"


class TestFirstLineDefences:
    def test_input_validation_escapes_user_text_by_default(self):
        app = MiniApp(ORIGIN)
        response = app.handle_request(request("GET", "/echo?q=<script>x()</script>"))
        assert "<script>" not in response.body

    def test_input_validation_can_be_removed_as_in_the_paper(self):
        app = MiniApp(ORIGIN, input_validation=False)
        response = app.handle_request(request("GET", "/echo?q=<script>x()</script>"))
        assert "<script>x()</script>" in response.body

    def test_csrf_protection_rejects_posts_without_the_token(self):
        app = MiniApp(ORIGIN, csrf_protection=True)
        cookie = login(app)
        assert app.handle_request(request("POST", "/post", cookies=cookie)).status == 403

    def test_csrf_protection_accepts_the_correct_token(self):
        app = MiniApp(ORIGIN, csrf_protection=True)
        cookie = login(app)
        session = app.sessions.sessions_for("alice")[0]
        token = app.csrf_token_for(session)
        response = app.handle_request(
            request("POST", "/post", form={"csrf_token": token}, cookies=cookie)
        )
        assert response.ok

    def test_hidden_csrf_field_rendering(self):
        app = MiniApp(ORIGIN, csrf_protection=True)
        login(app)
        session = app.sessions.sessions_for("alice")[0]
        context = RequestContext(request=request("GET", "/"), app=app, session=session)
        assert app.csrf_token_for(session) in app.hidden_csrf_field(context)
        app_without = MiniApp(ORIGIN)
        context2 = RequestContext(request=request("GET", "/"), app=app_without, session=session)
        assert app_without.hidden_csrf_field(context2) == ""


class TestMarkupRandomizationFlag:
    def test_nonce_generator_present_by_default(self):
        assert MiniApp(ORIGIN).nonce_generator() is not None

    def test_nonce_generator_absent_when_disabled(self):
        assert MiniApp(ORIGIN, markup_randomization=False).nonce_generator() is None

    def test_seeded_nonce_generator_is_reproducible(self):
        first = MiniApp(ORIGIN, nonce_seed=7).nonce_generator().next_nonce()
        second = MiniApp(ORIGIN, nonce_seed=7).nonce_generator().next_nonce()
        assert first == second
