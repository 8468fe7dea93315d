"""Server-side sessions for the synthetic web applications.

Both case-study applications (phpBB and PHP-Calendar) authenticate users and
track them with session cookies -- the very cookies whose protection the
ESCUDO configurations in Tables 3 and 5 are about.  The session store is
ordinary server-side bookkeeping; what matters for the reproduction is that
the session *identifier* travels in a cookie the application labels with a
ring.

Sessions live in the application's storage backend (``sessions`` table,
modeled on phpBB's session table): each row carries the per-session
``version`` column (bumped on every data write) and an ``epoch`` column --
the store-wide version counter at creation time.  The epoch makes a
destroyed-then-recreated session that happens to reuse an identifier
distinguishable from its predecessor: destruction bumps the store version,
so the recreated session's epoch always differs, and the framework's
GET-response memo (which keys on ``(id, version, epoch)``) can never serve
the old session's page body to the new one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from .storage import SESSION_SCOPE, StorageBackend, TableSpec

#: The session table (modeled on phpBB's ``phpbb_sessions``): an
#: auto-increment surrogate key, the cookie-visible identifier, the user,
#: the JSON data blob, and the two row-version columns the response memo
#: keys on; cookie lookups and per-user listings probe the two indexes.
SESSIONS_TABLE = TableSpec(
    name="sessions",
    columns=("id", "session_id", "username", "data", "version", "epoch"),
    scope=SESSION_SCOPE,
    indexes=("session_id", "username"),
)


@dataclass
class Session:
    """One logged-in session."""

    session_id: str
    username: str
    data: dict[str, Any] = field(default_factory=dict)
    #: Bumped on every :meth:`set`: response memos key on it so a handler
    #: that renders session data can never be served a pre-write body.
    version: int = 0
    #: Store version at creation time.  Monotonic across create *and*
    #: destroy, so a recreated session reusing an identifier never shares
    #: its predecessor's ``(id, version, epoch)`` memo key.
    epoch: int = 0
    #: Owning store (write-through persistence for :meth:`set`).
    _store: Any = field(default=None, repr=False, compare=False)
    #: Surrogate key of this session's row in the backend.
    _row_id: int = field(default=0, repr=False, compare=False)

    def get(self, key: str, default=None):
        """Read a value from the session."""
        return self.data.get(key, default)

    def set(self, key: str, value) -> None:
        """Store a value in the session (write-through to the backend)."""
        self.data[key] = value
        self.version += 1
        if self._store is not None:
            self._store._persist(self)


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
        from .storage import DictBackend

        self._seed = seed
        self._backend = backend if backend is not None else DictBackend()
        self._backend.create_table(SESSIONS_TABLE)
        self._live: dict[str, Session] = {}

    @property
    def version(self) -> int:
        """Monotonic mutation counter over the session table.

        Bumped whenever the table changes -- create, **destroy**, and every
        session-data write.  The application's GET-response memo keys on it
        through each session's ``epoch``, so logout invalidates exactly like
        login and data writes do.
        """
        return self._backend.version(SESSION_SCOPE)

    def create(self, username: str) -> Session:
        """Create a session for ``username`` and return it."""
        row_id = self._backend.insert(
            "sessions",
            {"session_id": "", "username": username, "data": "{}", "version": 0, "epoch": 0},
        )
        session_id = hashlib.sha256(f"{self._seed}:{username}:{row_id}".encode()).hexdigest()[:24]
        epoch = self._backend.version(SESSION_SCOPE)
        self._backend.update("sessions", row_id, session_id=session_id, epoch=epoch)
        session = Session(session_id=session_id, username=username, epoch=epoch,
                          _store=self, _row_id=row_id)
        self._live[session_id] = session
        return session

    def _persist(self, session: Session) -> None:
        """Write a session's data and version columns through to the backend.

        This is the data-write notification path: the backend bumps the
        session scope, so the store version -- and through it every memo
        key -- reflects the write.
        """
        self._backend.update(
            "sessions",
            session._row_id,
            data=json.dumps(session.data, sort_keys=True, default=str),
            version=session.version,
        )

    def _materialise(self, row: dict) -> Session:
        """A live session object for a backend row (cached per store)."""
        session = Session(
            session_id=row["session_id"],
            username=row["username"],
            data=json.loads(row["data"] or "{}"),
            version=row["version"] or 0,
            epoch=row["epoch"] or 0,
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
        """Log a session out (bumps the store version like any table write)."""
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
