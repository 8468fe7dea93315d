"""A small server-side web framework.

The case-study applications (phpBB, PHP-Calendar, the blog example and the
attacker's site) are built on this framework.  It provides the pieces the
paper's evaluation relies on:

* routing of :class:`~repro.http.messages.HttpRequest` objects to handler
  methods;
* cookie-based sessions (login/logout), with the session cookie labelled via
  the application's ESCUDO configuration;
* emission of the optional ESCUDO response headers
  (``X-Escudo-Rings`` / ``X-Escudo-Cookie-Policy`` / ``X-Escudo-Api-Policy``);
* two switchable "first line of defense" mechanisms that the paper's
  defence-effectiveness experiments disable: input validation
  (HTML-escaping of user-supplied text) and secret-token CSRF validation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import PageConfiguration
from repro.http.headers import Headers
from repro.http.messages import HttpRequest, HttpResponse

from .sessions import Session, SessionStore
from .storage import StorageBackend, StorageUnavailable, make_backend
from repro.html.entities import escape_text


@dataclass
class RequestContext:
    """Everything a route handler gets to work with."""

    request: HttpRequest
    app: "WebApplication"
    session: Session | None = None

    @property
    def params(self) -> dict[str, str]:
        """Merged query + form parameters."""
        return self.request.params

    def param(self, name: str, default: str = "") -> str:
        """Single parameter with a default."""
        return self.request.params.get(name, default)

    @property
    def username(self) -> str | None:
        """The logged-in user, if any."""
        return self.session.username if self.session is not None else None

    def clean(self, text: str) -> str:
        """Apply the application's input-validation policy to user text.

        With ``input_validation`` enabled this HTML-escapes the text (the
        conventional first line of defence against XSS); with it disabled
        the text passes through verbatim, which is how the paper's
        experiments let the injected markup reach the page.
        """
        return escape_text(text) if self.app.input_validation else text


Handler = Callable[[RequestContext], HttpResponse]

#: Application class -> its rendered ESCUDO header lines (see ``decorate``).
_ESCUDO_HEADER_LINES: dict[type, tuple[tuple[str, str], ...]] = {}


def snapshot_digest(snapshot: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a state snapshot."""
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResponseMemo:
    """A GET-response memo applications share; past ``MAXSIZE`` the oldest goes."""

    #: Pages average about 0.9 KB, so a full memo holds about 1 MB of bodies.
    MAXSIZE = 1024
    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: dict[tuple, tuple] = {}

    def get(self, key: tuple) -> HttpResponse | None:
        """A fresh response rebuilt from the entry under ``key``, or ``None``."""
        entry = self.entries.get(key)
        if entry is None:
            return None
        status, headers, body, content_type = entry
        return HttpResponse(status=status, headers=Headers.from_pairs(headers), body=body,
                            content_type=content_type)

    def put(self, key: tuple, response: HttpResponse) -> None:
        """Store ``response`` as an immutable tuple, out of its caller's reach."""
        if len(self.entries) >= self.MAXSIZE:
            del self.entries[next(iter(self.entries))]
        self.entries[key] = (response.status, tuple(response.headers), response.body,
                             response.content_type)


@dataclass
class Route:
    """One routing table entry."""

    method: str
    path: str
    handler: Handler
    requires_login: bool = False


class WebApplication:
    """Base class for every synthetic server application."""

    #: Cookie carrying the session identifier.  Subclasses override to match
    #: the real application (phpBB uses ``phpbb2mysql_sid``).
    session_cookie_name = "session_sid"

    def __init__(
        self,
        origin: str,
        *,
        escudo_enabled: bool = True,
        input_validation: bool = True,
        csrf_protection: bool = False,
        markup_randomization: bool = True,
        nonce_seed: str | int | None = None,
        response_cache: "bool | ResponseMemo" = False,
        storage: "StorageBackend | str | None" = None,
    ) -> None:
        self.origin = origin
        self.escudo_enabled = escudo_enabled
        self.input_validation = input_validation
        self.csrf_protection = csrf_protection
        self.markup_randomization = markup_randomization
        self.nonce_seed = nonce_seed
        # GET response memo: ``True`` makes a private one, a ResponseMemo is
        # shared.  Only sound with a deterministic nonce_seed: random nonces
        # make two renders of one page differ, and a memo would change bodies.
        if not isinstance(response_cache, ResponseMemo):
            response_cache = ResponseMemo() if response_cache else None
        self.response_memo = response_cache if nonce_seed is not None else None
        # Storage backend: the in-memory dict tier by default, SQLite (WAL)
        # via ``storage="sqlite"`` / ``"sqlite:PATH"`` / an instance (so an
        # application can be attached to a pre-seeded database).  Sessions
        # and every subclass's content tables live in it.
        self.storage = make_backend(storage)
        self.sessions = SessionStore(seed=f"{origin}-sessions", backend=self.storage)
        self._routes: list[Route] = []
        self.register_routes()
        self._memo_identity = self.memo_identity()

    # -- subclass API ---------------------------------------------------------------------

    def register_routes(self) -> None:
        """Subclasses register their routes here."""

    def escudo_configuration(self) -> PageConfiguration:
        """The application's ESCUDO configuration (headers side).

        Subclasses override to label their cookies and native APIs; the base
        returns an empty (but enabled) configuration.  It must depend on the
        class alone: :meth:`decorate` renders it once per class.
        """
        return PageConfiguration()

    # -- routing ----------------------------------------------------------------------------

    def route(self, method: str, path: str, handler: Handler, *, requires_login: bool = False) -> None:
        """Add a route."""
        self._routes.append(Route(method=method.upper(), path=path, handler=handler,
                                  requires_login=requires_login))

    def memo_identity(self) -> tuple:
        """Every constructor input that shapes a response, read once at the
        end of ``__init__`` (subclasses with more, like the blog's ad script,
        set it before and extend this)."""
        return (
            type(self), self.origin, self.escudo_enabled, self.input_validation,
            self.csrf_protection, self.markup_randomization, self.nonce_seed, self.storage.kind,
        )

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Entry point called by the network fabric.

        With a response memo, ``GET``s (whose handlers never write) are
        memoised per ``(memo_identity(), storage write digest, path+query,
        resolved session)``: apps with the same inputs and writes share
        entries, and every write moves the key.  A GET with a form body or a
        response setting cookies is never memoised; hits are served as copies.
        """
        session = self.sessions.get(request.cookies.get(self.session_cookie_name))
        memo = self.response_memo
        if memo is None or request.method != "GET" or request.form or request.body:
            return self._handle_uncached(request, session)
        # An unknown or destroyed session cookie keys like an anonymous GET.
        key = (
            self._memo_identity,
            self.storage.write_digest(),
            request.url.path_and_query,
            session.session_id if session is not None else None,
        )
        cached = memo.get(key)
        if cached is not None:
            return cached
        response = self._handle_uncached(request, session)
        # 5xx responses only arise from injected faults; memoising one
        # would keep serving the outage after the fault window passed.
        if not response.set_cookie_values and response.status < 500:
            memo.put(key, response)
        return response

    def _handle_uncached(self, request: HttpRequest, session: Session | None) -> HttpResponse:
        """Route one request to its handler (the original entry point)."""
        context = RequestContext(request=request, app=self, session=session)
        for route in self._routes:
            if route.method != request.method or route.path != request.url.path:
                continue
            if route.requires_login and session is None:
                return self.decorate(HttpResponse.forbidden("login required"), context)
            if route.requires_login and self.csrf_protection and request.method == "POST":
                if not self._csrf_token_valid(context):
                    return self.decorate(HttpResponse.forbidden("invalid or missing CSRF token"), context)
            try:
                response = route.handler(context)
            except StorageUnavailable as error:
                # Graceful degradation: a transient storage fault becomes a
                # clean 503 instead of a traceback escaping the fabric.  Any
                # writes the handler completed before the fault are already
                # in the write digest, so no memo can go stale.
                response = HttpResponse(
                    status=503,
                    body=f"<html><body><h1>503</h1><p>{error}</p></body></html>",
                )
            return self.decorate(response, context)
        return self.decorate(HttpResponse.not_found(f"no route for {request.method} {request.url.path}"), context)

    def decorate(self, response: HttpResponse, context: RequestContext) -> HttpResponse:
        """Attach the ESCUDO headers (when enabled) to every HTML response.

        The header lines are rendered once per application class, on first
        use: every application derives its configuration from class-level
        constants (the paper's Tables 3 and 5), so re-building and
        re-formatting it per instance or per response would be pure
        overhead.  Handlers never emit these headers themselves, so the
        lines are appended in one step.
        """
        if self.escudo_enabled and response.content_type.startswith("text/html"):
            cls = type(self)
            lines = _ESCUDO_HEADER_LINES.get(cls)
            if lines is None:
                lines = _ESCUDO_HEADER_LINES[cls] = tuple(self.escudo_configuration().to_headers().items())
            response.headers.extend(lines)
        return response

    # -- sessions --------------------------------------------------------------------------------

    def login(self, context: RequestContext, username: str, response: HttpResponse) -> Session:
        """Create a session for ``username`` and set the session cookie."""
        session = self.sessions.create(username)
        response.set_cookie(self.session_cookie_name, session.session_id, http_only=False)
        return session

    def logout(self, context: RequestContext, response: HttpResponse) -> None:
        """Destroy the current session."""
        if context.session is not None:
            self.sessions.destroy(context.session.session_id)
            response.set_cookie(self.session_cookie_name, "", path="/")

    # -- CSRF secret tokens (the server-side defence the paper disables) ---------------------------

    def csrf_token_for(self, session: Session) -> str:
        """Deterministic per-session secret token."""
        return hashlib.sha256(f"csrf:{session.session_id}".encode()).hexdigest()[:16]

    def _csrf_token_valid(self, context: RequestContext) -> bool:
        if context.session is None:
            return False
        return context.param("csrf_token") == self.csrf_token_for(context.session)

    def hidden_csrf_field(self, context: RequestContext) -> str:
        """Markup for the hidden token field (empty when protection is off)."""
        if not self.csrf_protection or context.session is None:
            return ""
        token = self.csrf_token_for(context.session)
        return f'<input type="hidden" name="csrf_token" value="{token}">'

    # -- state snapshots (the scenario engine's parity oracle) -------------------------------------

    def snapshot_state(self) -> dict:
        """Deterministic, JSON-serialisable snapshot of application-visible state.

        The scenario engine's transparency oracle compares these snapshots
        across protection models: a benign session must leave byte-identical
        state whether the browser enforced ESCUDO, the legacy SOP, or the
        application emitted no ESCUDO markup at all.  Subclasses contribute
        their domain state via :meth:`snapshot_content`; the base records the
        session table (identifiers are deterministic per store seed, so they
        are comparable across runs too).
        """
        return {
            "app": self.name,
            "origin": self.origin,
            "sessions": sorted(
                (session.username, session.session_id) for session in self.sessions.all()
            ),
            "content": self.snapshot_content(),
        }

    def snapshot_content(self) -> dict:
        """Application-specific state; subclasses override."""
        return {}

    def state_digest(self) -> str:
        """SHA-256 over the canonical JSON encoding of :meth:`snapshot_state`."""
        return snapshot_digest(self.snapshot_state())

    # -- teardown -----------------------------------------------------------------------------------

    def close(self) -> None:
        """Close the sessions and the storage backend, drop the routes and
        the GET memo (uncleared: other applications may share it).

        The route table holds bound-method handlers, so the application
        sits in a reference cycle until this drops it.  The application
        serves no request afterwards.
        """
        self.sessions.close()
        self.storage.close()
        self.response_memo = None
        self._routes.clear()

    # -- misc ---------------------------------------------------------------------------------------

    def nonce_generator(self):
        """Per-response nonce generator, or ``None`` with markup randomisation off.

        Disabling markup randomisation is only used by the node-splitting
        ablation benchmark; real deployments always keep it on.
        """
        from repro.core.nonce import NonceGenerator

        if not self.markup_randomization:
            return None
        return NonceGenerator(self.nonce_seed)

    @property
    def name(self) -> str:
        """Application name (class name by default)."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "escudo" if self.escudo_enabled else "legacy"
        return f"<{self.name} at {self.origin} ({mode})>"
