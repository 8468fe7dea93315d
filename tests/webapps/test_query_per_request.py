"""No route handler scans a whole content table.

Request handlers read storage through primary-key gets and declared-index
lookups, so a request costs what its page renders rather than the size of
the board.  A recording backend notes every ``all()`` call; every
registered GET and POST route of every built-in application is driven on
both backends, and none may scan the posts, private-message or comment
tables -- the tables that grow with user content.  The check counts calls,
so it is deterministic and independent of timing.
"""

from __future__ import annotations

from urllib.parse import urlencode

import pytest

from repro.http.messages import HttpRequest
from repro.webapps.blog import Blog
from repro.webapps.phpbb import PhpBB
from repro.webapps.phpcalendar import PhpCalendar
from repro.webapps.storage import DictBackend, SqliteBackend

#: Tables whose size grows with user-written content.
CONTENT_TABLES = {"phpbb_posts", "phpbb_privmsgs", "blog_comments"}

#: One parameter set feeding every handler; ids target seeded row 1.
PARAMS = {
    "mode": "reply",
    "t": "1",
    "post_id": "1",
    "id": "1",
    "month": "2010-04",
    "message": "a message",
    "subject": "a subject",
    "title": "a title",
    "body": "a body",
    "description": "a description",
    "date": "2010-04-21",
    "to": "alice",
    "author": "carol",
}

#: Seeded row 1 is authored by this user in each application.
OWNER = {PhpBB: "admin", PhpCalendar: "alice", Blog: "publisher"}


class _RecordingScans:
    """Mixin recording the table of every ``all()`` call."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scanned: list[str] = []

    def all(self, table: str) -> list[dict]:
        self.scanned.append(table)
        return super().all(table)


class RecordingDict(_RecordingScans, DictBackend):
    pass


class RecordingSqlite(_RecordingScans, SqliteBackend):
    pass


@pytest.mark.parametrize("backend_cls", [RecordingDict, RecordingSqlite])
@pytest.mark.parametrize("app_cls", [PhpBB, PhpCalendar, Blog])
def test_no_route_handler_scans_a_content_table(app_cls, backend_cls):
    routes = [(route.method, route.path) for route in app_cls(storage=backend_cls())._routes]
    assert {method for method, _ in routes} == {"GET", "POST"}

    for method, path in routes:
        storage = backend_cls()
        app = app_cls(storage=storage)
        session = app.sessions.create(OWNER[app_cls])
        params = dict(PARAMS, username=OWNER[app_cls])
        if method == "GET":
            request = HttpRequest(method="GET", url=f"{app.origin}{path}?{urlencode(params)}")
        else:
            request = HttpRequest(method="POST", url=f"{app.origin}{path}", form=params)
        request.attach_cookie_header(f"{app.session_cookie_name}={session.session_id}")
        storage.scanned.clear()

        response = app.handle_request(request)

        assert response.status < 400, f"{method} {path} -> {response.status}"
        scans = CONTENT_TABLES.intersection(storage.scanned)
        assert not scans, f"{method} {path} on {storage.kind} scanned {sorted(scans)}"
        storage.close()
