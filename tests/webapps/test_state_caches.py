"""State digests and the opt-in GET response cache.

The differential oracle digests application state once per run, so the
digest must follow every state mutation.  Every mutator of every built-in
application is exercised here: a digest that missed a mutation would let
the oracle compare stale state and mask a real divergence.  The GET memo
keys on the storage write digest, so a write that escaped it would serve a
stale page; the memo tests count route-handler calls to see what it served.
"""

from __future__ import annotations

from repro.http.messages import HttpRequest
from repro.http.url import Url
from repro.webapps.blog import Blog
from repro.webapps.phpbb import PhpBB
from repro.webapps.phpcalendar import PhpCalendar


def _get(app, path: str, *, sid: str | None = None):
    request = HttpRequest(method="GET", url=Url.parse(f"{app.origin}{path}"))
    if sid is not None:
        request.attach_cookie_header(f"{app.session_cookie_name}={sid}")
    return app.handle_request(request)


class TestDigestMemo:
    def test_repeated_digests_are_cached_and_equal(self):
        app = PhpBB()
        assert app.state_digest() == app.state_digest()

    def test_every_phpbb_mutator_invalidates(self):
        app = PhpBB()
        digests = {app.state_digest()}
        topic = app.create_topic("alice", "t", "body")
        digests.add(app.state_digest())
        app.add_reply(topic.topic_id, "bob", "reply")
        digests.add(app.state_digest())
        app.send_private_message("alice", "bob", "s", "b")
        digests.add(app.state_digest())
        assert len(digests) == 4, "each content mutation must produce a fresh digest"

    def test_blog_and_calendar_mutators_invalidate(self):
        blog = Blog()
        d0 = blog.state_digest()
        post = blog.publish("t", "b")
        d1 = blog.state_digest()
        blog.add_comment(post.post_id, "eve", "hi")
        d2 = blog.state_digest()
        assert len({d0, d1, d2}) == 3

        calendar = PhpCalendar()
        c0 = calendar.state_digest()
        calendar.create_event("alice", "2010-04-01", "t", "d")
        c1 = calendar.state_digest()
        assert c0 != c1

    def test_session_churn_invalidates_without_touch(self):
        app = PhpBB()
        d0 = app.state_digest()
        session = app.sessions.create("alice")
        d1 = app.state_digest()
        assert d0 != d1
        app.sessions.destroy(session.session_id)
        d2 = app.state_digest()
        # Same snapshot content as before login (ids are never reused, and
        # the destroyed session is gone), so the digest matches d0 again.
        assert d2 == d0

    def test_handler_driven_mutations_invalidate(self):
        """POST handlers route through the same mutators (edit included)."""
        app = PhpBB(input_validation=False, csrf_protection=False)
        session = app.sessions.create("alice")
        topic = app.create_topic("alice", "subject", "original")
        post_id = topic.posts[0].post_id
        before = app.state_digest()
        request = HttpRequest(
            method="POST",
            url=Url.parse(f"{app.origin}/edit"),
            form={"post_id": str(post_id), "message": "edited"},
        )
        request.attach_cookie_header(f"{app.session_cookie_name}={session.session_id}")
        app.handle_request(request)
        assert app.state_digest() != before
        assert "edited" in str(app.snapshot_state())


class TestResponseCache:
    def test_disabled_by_default_and_without_nonce_seed(self):
        assert PhpBB().response_memo is None
        assert PhpBB(response_cache=True).response_memo is None
        assert PhpBB(response_cache=True, nonce_seed="s").response_memo is not None

    def test_repeat_gets_are_served_identically_without_reexecution(self, count_calls):
        calls = count_calls(PhpBB, "index")
        app = PhpBB(nonce_seed="seed", response_cache=True)
        first = _get(app, "/")
        second = _get(app, "/")
        assert calls == ["index"], "the repeat must be served from the memo"
        assert second.body == first.body
        assert second.headers.to_dict() == first.headers.to_dict()
        assert second is not first  # served as a copy, never the cached object

    def test_memo_invalidated_by_content_mutation(self):
        app = PhpBB(nonce_seed="seed", response_cache=True)
        before = _get(app, "/").body
        app.create_topic("alice", "fresh topic", "body")
        after = _get(app, "/").body
        assert "fresh topic" in after
        assert after != before

    def test_memo_is_per_session_and_logout_safe(self):
        app = PhpBB(nonce_seed="seed", response_cache=True)
        session = app.sessions.create("alice")
        anonymous = _get(app, "/").body
        logged_in = _get(app, "/", sid=session.session_id).body
        assert logged_in != anonymous
        assert "alice" in logged_in
        # Destroying the session must not serve the stale logged-in page.
        app.sessions.destroy(session.session_id)
        after_logout = _get(app, "/", sid=session.session_id).body
        assert "alice" not in after_logout

    def test_session_data_write_invalidates_memo_and_digest(self, count_calls):
        """``Session.set`` must be visible to every memo key (a storage write)."""
        calls = count_calls(PhpBB, "index")
        app = PhpBB(nonce_seed="seed", response_cache=True)
        session = app.sessions.create("alice")
        _get(app, "/", sid=session.session_id)  # populate the memo
        _get(app, "/", sid=session.session_id)
        assert len(calls) == 1
        digest_before = app.state_digest()
        session.set("prefs", {"theme": "dark"})
        # The memo key embeds the write digest, so the pre-write entry is
        # unreachable: the next GET runs the handler again.
        _get(app, "/", sid=session.session_id)
        assert len(calls) == 2
        # Equal: session data is not part of the visible snapshot.
        assert app.state_digest() == digest_before

    def test_caller_mutation_cannot_poison_the_memo(self):
        app = PhpBB(nonce_seed="seed", response_cache=True)
        first = _get(app, "/")
        first.headers.set("X-Poisoned", "yes")
        second = _get(app, "/")
        assert second.headers.get("X-Poisoned") is None

    def test_identical_bodies_with_deterministic_nonces(self):
        """The property the template cache builds on: unchanged page, same bytes."""
        app = PhpBB(nonce_seed="seed", response_cache=False)
        assert _get(app, "/").body == _get(app, "/").body
