"""State-invalidation audit: every POST action keeps the digest honest.

Invalidation is structural: every backend write appends to the storage
write digest the GET memo keys on, so no handler has to remember to
invalidate anything.  This property test
locks the invariant in: for **every registered POST route** of every built-in application, on
**both backends**, the cached ``state_digest()`` must equal a digest
recomputed from scratch after the action -- whether or not the action
mutated anything.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.http.messages import HttpRequest
from repro.webapps.blog import Blog
from repro.webapps.phpbb import PhpBB
from repro.webapps.phpcalendar import PhpCalendar
from repro.webapps.storage import BACKEND_KINDS

#: One union form feeding every handler's parameters: ids target the seeded
#: row 1, and the login user below owns it, so guarded edits really mutate.
FORM = {
    "username": "ignored",
    "mode": "reply",
    "t": "1",
    "post_id": "1",
    "id": "1",
    "message": "audited message",
    "subject": "audited subject",
    "title": "audited title",
    "body": "audited body",
    "description": "audited description",
    "date": "2010-04-21",
    "to": "bob",
    "author": "carol",
}

#: Seeded row 1 is authored by this user in each application.
OWNER = {PhpBB: "admin", PhpCalendar: "alice", Blog: "publisher"}


def uncached_truth(app) -> str:
    """The digest recomputed from scratch, bypassing every cache layer."""
    snapshot = {
        "app": app.name,
        "origin": app.origin,
        "sessions": sorted(
            (session.username, session.session_id) for session in app.sessions.all()
        ),
        "content": app.snapshot_content(),
    }
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("backend", BACKEND_KINDS)
@pytest.mark.parametrize("app_cls", [PhpBB, PhpCalendar, Blog])
def test_every_post_action_keeps_the_digest_honest(app_cls, backend):
    post_paths = [
        route.path
        for route in app_cls(storage=backend)._routes
        if route.method == "POST"
    ]
    assert post_paths, "audit is vacuous without POST routes"

    mutated = []
    for path in post_paths:
        # A fresh application per action isolates each audit step.
        app = app_cls(storage=backend)
        session = app.sessions.create(OWNER[app_cls])
        form = dict(FORM, username=OWNER[app_cls])
        before = uncached_truth(app)
        assert app.state_digest() == before, "cached digest stale before the action"

        request = HttpRequest(method="POST", url=f"{app.origin}{path}", form=form)
        request.attach_cookie_header(f"{app.session_cookie_name}={session.session_id}")
        response = app.handle_request(request)
        assert response.status != 404, f"{path} did not route"

        after = uncached_truth(app)
        assert app.state_digest() == after, (
            f"POST {path} on {backend}: cached digest diverged from the "
            "recomputed truth -- a mutation escaped invalidation"
        )
        if after != before:
            mutated.append(path)
        app.storage.close()

    assert mutated, f"no POST action of {app_cls.__name__} mutated state; audit form too weak"

