"""Server-side sessions for the synthetic web applications.

Both case-study applications (phpBB and PHP-Calendar) authenticate users and
track them with session cookies -- the very cookies whose protection the
ESCUDO configurations in Tables 3 and 5 are about.  The session store is
ordinary server-side bookkeeping; what matters for the reproduction is that
the session *identifier* travels in a cookie the application labels with a
ring.

Sessions live in the application's storage backend (``sessions`` table,
modeled on phpBB's session table), so every create, destroy and data write
is a backend write and moves the write digest the framework's GET-response
memo keys on.  A destroyed-then-recreated session that happens to reuse an
identifier therefore never sees its predecessor's memoised pages: the
destroy and the re-insert are both in the digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from .storage import DictBackend, StorageBackend, TableSpec

#: The session table (modeled on phpBB's ``phpbb_sessions``): an
#: auto-increment surrogate key, the cookie-visible identifier, the user and
#: the JSON data blob; cookie lookups and per-user listings probe the indexes.
SESSIONS_TABLE = TableSpec(
    name="sessions",
    columns=("id", "session_id", "username", "data"),
    indexes=("session_id", "username"),
)


@dataclass
class Session:
    """One logged-in session."""

    session_id: str
    username: str
    data: dict[str, Any] = field(default_factory=dict)
    #: Owning store (write-through persistence for :meth:`set`).
    _store: Any = field(default=None, repr=False, compare=False)
    #: Surrogate key of this session's row in the backend.
    _row_id: int = field(default=0, repr=False, compare=False)

    def get(self, key: str, default=None):
        """Read a value from the session."""
        return self.data.get(key, default)

    def set(self, key: str, value) -> None:
        """Store a value in the session, writing the backend first: if that
        fails, the session keeps the data its row (and the write digest) holds."""
        if self._store is not None:
            self._store._persist(self._row_id, {**self.data, key: value})
        self.data[key] = value


class SessionStore:
    """Session registry keyed by session id, rows held in a storage backend.

    Session identifiers are deterministic given the store's seed, which
    keeps experiments reproducible without weakening the point being made
    (an attacker in the experiments never guesses identifiers; they try to
    *ride* or *steal* them).  Identifiers embed the row's auto-increment
    key, which the backends never reuse -- not after a destroy, and not
    after reopening a file-backed database.

    Live :class:`Session` objects are cached per store instance, so within
    one store :meth:`get` returns the same object it created (handlers and
    tests may hold onto it); the backend row stays the durable record a
    fresh store over the same database would materialise from.
    """

    def __init__(self, seed: str = "session-store", backend: StorageBackend | None = None) -> None:
        self._seed = seed
        self._backend = backend if backend is not None else DictBackend()
        self._backend.create_table(SESSIONS_TABLE)
        self._live: dict[str, Session] = {}

    def create(self, username: str) -> Session:
        """Create a session for ``username`` and return it."""
        row_id = self._backend.insert(
            "sessions", {"session_id": "", "username": username, "data": "{}"}
        )
        session_id = hashlib.sha256(f"{self._seed}:{username}:{row_id}".encode()).hexdigest()[:24]
        self._backend.update("sessions", row_id, session_id=session_id)
        session = Session(session_id=session_id, username=username, _store=self, _row_id=row_id)
        self._live[session_id] = session
        return session

    def _persist(self, row_id: int, data: dict) -> None:
        """Write a session's data blob through to the backend."""
        self._backend.update(
            "sessions", row_id, data=json.dumps(data, sort_keys=True, default=str)
        )

    def _materialise(self, row: dict) -> Session:
        """A live session object for a backend row (cached per store)."""
        session = Session(
            session_id=row["session_id"],
            username=row["username"],
            data=json.loads(row["data"] or "{}"),
            _store=self,
            _row_id=row["id"],
        )
        self._live[session.session_id] = session
        return session

    def get(self, session_id: str | None) -> Session | None:
        """Look up a session by id (``None`` for unknown/missing ids)."""
        if not session_id:
            return None
        session = self._live.get(session_id)
        if session is not None:
            return session
        rows = self._backend.select("sessions", session_id=session_id)
        return self._materialise(rows[0]) if rows else None

    def destroy(self, session_id: str) -> None:
        """Log a session out (a backend delete, like any table write)."""
        session = self.get(session_id)
        if session is None:
            return
        self._live.pop(session_id, None)
        self._backend.delete("sessions", session._row_id)

    def close(self) -> None:
        """Drop the live-session cache: every cached session links back to
        the store, so the cache is a reference cycle until dropped."""
        self._live.clear()

    def sessions_for(self, username: str) -> list[Session]:
        """Every live session belonging to ``username``, creation order."""
        return [
            self._live.get(row["session_id"]) or self._materialise(row)
            for row in self._backend.select("sessions", username=username)
        ]

    def all(self) -> list[Session]:
        """Every live session, creation order."""
        return [
            self._live.get(row["session_id"]) or self._materialise(row)
            for row in self._backend.all("sessions")
        ]

    def __len__(self) -> int:
        return self._backend.count("sessions")
