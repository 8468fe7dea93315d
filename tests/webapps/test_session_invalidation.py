"""Session-driven invalidation of the GET-response memo and state digest.

The bug class this file pins down: a memoised GET response outliving the
session state it rendered.  Logout must never serve a memoised logged-in
page, a session-data write must never be masked by a pre-write memo, and a
destroyed-then-recreated session that happens to reuse an identifier must
never alias its predecessor's cache entries.  Every one of these is a
storage write, so the storage write digest in the memo key is what
guarantees it.  All of it on both storage backends.
"""

from __future__ import annotations

import pytest

from repro.http.messages import HttpRequest, HttpResponse
from repro.webapps.framework import RequestContext, WebApplication
from repro.webapps.sessions import SessionStore
from repro.webapps.storage import BACKEND_KINDS, StorageUnavailable, make_backend

ORIGIN = "http://memo.example.com"


class MemoApp(WebApplication):
    """Renders the session (user + a data key) on a memoisable GET."""

    session_cookie_name = "memo_sid"

    def register_routes(self) -> None:
        self.route("GET", "/me", self.me)
        self.route("POST", "/login", self.do_login)
        self.route("POST", "/logout", self.do_logout)
        self.route("POST", "/note", self.do_note, requires_login=True)

    def me(self, context: RequestContext) -> HttpResponse:
        user = context.username or "guest"
        note = context.session.get("note", "-") if context.session else "-"
        return HttpResponse.html(f"<html><body>{user}:{note}</body></html>")

    def do_login(self, context: RequestContext) -> HttpResponse:
        response = HttpResponse.redirect("/me")
        self.login(context, context.param("username", "alice"), response)
        return response

    def do_logout(self, context: RequestContext) -> HttpResponse:
        response = HttpResponse.redirect("/me")
        self.logout(context, response)
        return response

    def do_note(self, context: RequestContext) -> HttpResponse:
        context.session.set("note", context.param("note", ""))
        return HttpResponse.redirect("/me")


def make_app(backend_kind: str) -> MemoApp:
    return MemoApp(ORIGIN, nonce_seed="memo-test", response_cache=True,
                   storage=backend_kind)


def request(method: str, path: str, *, form=None, sid: str | None = None) -> HttpRequest:
    req = HttpRequest(method=method, url=f"{ORIGIN}{path}", form=form or {})
    if sid is not None:
        req.attach_cookie_header(f"memo_sid={sid}")
    return req


def login(app: MemoApp, username: str = "alice") -> str:
    app.handle_request(request("POST", "/login", form={"username": username}))
    return app.sessions.sessions_for(username)[-1].session_id


@pytest.fixture(params=BACKEND_KINDS)
def app(request) -> MemoApp:
    built = make_app(request.param)
    yield built
    built.storage.close()


class TestLogoutInvalidation:
    def test_destroy_changes_the_write_digest(self, app):
        sid = login(app)
        before = app.storage.write_digest()
        app.sessions.destroy(sid)
        assert app.storage.write_digest() != before

    def test_destroying_unknown_session_leaves_the_write_digest(self, app):
        before = app.storage.write_digest()
        app.sessions.destroy("not-a-session")
        assert app.storage.write_digest() == before

    def test_logout_never_serves_the_memoised_logged_in_page(self, app):
        sid = login(app)
        logged_in = app.handle_request(request("GET", "/me", sid=sid))
        assert "alice" in logged_in.body
        # Warm hit while still logged in: same body, served from the memo.
        assert app.handle_request(request("GET", "/me", sid=sid)).body == logged_in.body

        app.handle_request(request("POST", "/logout", sid=sid))
        after = app.handle_request(request("GET", "/me", sid=sid))
        assert "alice" not in after.body
        assert "guest" in after.body


class TestSessionDataWrites:
    def test_data_write_invalidates_the_memo(self, app):
        sid = login(app)
        before = app.handle_request(request("GET", "/me", sid=sid))
        assert "alice:-" in before.body
        app.handle_request(request("POST", "/note", form={"note": "updated"}, sid=sid))
        after = app.handle_request(request("GET", "/me", sid=sid))
        assert "alice:updated" in after.body

    def test_data_write_moves_the_write_digest_not_the_snapshot(self, app):
        sid = login(app)
        session = app.sessions.get(sid)
        state, writes = app.state_digest(), app.storage.write_digest()
        session.set("note", "x")
        # Session data is not part of the oracle's snapshot, but it is a
        # storage write, so the memo key moves.
        assert app.state_digest() == state
        assert app.storage.write_digest() != writes

    def test_write_through_persists_to_the_backend(self, app):
        sid = login(app)
        app.sessions.get(sid).set("note", "durable")
        row = app.storage.select("sessions", session_id=sid)[0]
        assert '"note": "durable"' in row["data"]

    def test_failed_write_leaves_the_session_data(self, app, monkeypatch):
        sid = login(app)
        session = app.sessions.get(sid)
        session.set("note", "kept")

        def unavailable(*args, **kwargs):
            raise StorageUnavailable("busy", "sessions")

        monkeypatch.setattr(app.storage, "update", unavailable)
        with pytest.raises(StorageUnavailable):
            session.set("note", "lost")
        # The page must not render data the write digest does not cover.
        assert session.get("note") == "kept"


class TestRecreatedSessionDefense:
    """A recreated session reusing an id must not alias its predecessor."""

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_recreated_session_gets_a_fresh_write_digest(self, kind):
        backend = make_backend(kind)
        store = SessionStore(seed="recreate-test", backend=backend)
        first = store.create("alice")
        sid, old_digest = first.session_id, backend.write_digest()
        store.destroy(sid)

        # Simulate an id collision (e.g. a reset counter over a shared
        # database): the same identifier lands in the table again.  The
        # destroy and the re-insert are both writes, so the digest -- and
        # with it every memo key -- differs from the predecessor's.
        backend.insert("sessions", {"session_id": sid, "username": "alice", "data": "{}"})
        twin = store.get(sid)
        assert twin is not first
        assert twin.session_id == sid
        assert backend.write_digest() != old_digest
        backend.close()

    def test_memo_is_not_shared_with_a_recreated_session(self, app):
        sid = login(app)
        cached = app.handle_request(request("GET", "/me", sid=sid))
        assert "alice" in cached.body
        app.sessions.destroy(sid)
        app.storage.insert("sessions", {"session_id": sid, "username": "mallory", "data": "{}"})
        served = app.handle_request(request("GET", "/me", sid=sid))
        assert "alice" not in served.body, "the write digest must fence off the old memo"
        assert "mallory" in served.body


class TestStoreMaterialisation:
    """A fresh store over the same backend sees the durable rows."""

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_sessions_survive_a_new_store_instance(self, kind):
        backend = make_backend(kind)
        store = SessionStore(seed="shared", backend=backend)
        created = store.create("alice")
        created.set("note", "kept")

        fresh = SessionStore(seed="shared", backend=backend)
        loaded = fresh.get(created.session_id)
        assert loaded is not created
        assert loaded.username == "alice"
        assert loaded.get("note") == "kept"
        assert fresh.get(created.session_id) is loaded  # cached per store
        backend.close()
