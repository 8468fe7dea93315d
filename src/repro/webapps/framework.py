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
from repro.http.messages import HttpRequest, HttpResponse

from .sessions import Session, SessionStore
from .storage import CONTENT_SCOPE, StorageBackend, StorageUnavailable, make_backend
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


def snapshot_digest(snapshot: dict) -> str:
    """SHA-256 over the canonical JSON encoding of a state snapshot."""
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _copy_response(response: HttpResponse) -> HttpResponse:
    """Independent copy of a response (fresh header map, shared body string)."""
    from repro.http.headers import Headers

    return HttpResponse(
        status=response.status,
        headers=Headers(response.headers),
        body=response.body,
        content_type=response.content_type,
    )


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
        response_cache: bool = False,
        storage: "StorageBackend | str | None" = None,
    ) -> None:
        self.origin = origin
        self.escudo_enabled = escudo_enabled
        self.input_validation = input_validation
        self.csrf_protection = csrf_protection
        self.markup_randomization = markup_randomization
        self.nonce_seed = nonce_seed
        # Opt-in GET response memo (the scenario runner's warm-start path).
        # Only sound with a deterministic nonce_seed: with random nonces two
        # renders of the same page legitimately differ, and serving a memo
        # would *change* observable bodies rather than just skipping work.
        self.response_cache_enabled = response_cache and nonce_seed is not None
        self._response_cache: dict[tuple, HttpResponse] = {}
        self._escudo_header_cache: tuple[tuple[str, str], ...] | None = None
        # Storage backend: the in-memory dict tier by default, SQLite (WAL)
        # via ``storage="sqlite"`` / ``"sqlite:PATH"`` / an instance (so an
        # application can be attached to a pre-seeded database).  Sessions
        # and every subclass's content tables live in it.
        self.storage = make_backend(storage)
        self.sessions = SessionStore(seed=f"{origin}-sessions", backend=self.storage)
        self._routes: list[Route] = []
        self.register_routes()

    # -- subclass API ---------------------------------------------------------------------

    def register_routes(self) -> None:
        """Subclasses register their routes here."""

    def escudo_configuration(self) -> PageConfiguration:
        """The application's ESCUDO configuration (headers side).

        Subclasses override to label their cookies and native APIs; the base
        returns an empty (but enabled) configuration.
        """
        return PageConfiguration()

    # -- routing ----------------------------------------------------------------------------

    def route(self, method: str, path: str, handler: Handler, *, requires_login: bool = False) -> None:
        """Add a route."""
        self._routes.append(Route(method=method.upper(), path=path, handler=handler,
                                  requires_login=requires_login))

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Entry point called by the network fabric.

        With the (opt-in) response cache on, side-effect-free requests --
        ``GET``s, which by this framework's routing convention never mutate
        state -- are memoised per ``(path+query, session, state
        generation)``.  Any state mutation (all of which happen in ``POST``
        handlers and bump a generation counter) changes the key, so a memo
        can never outlive the state it rendered.  Responses that set cookies
        are never memoised, and every hit is served as a copy so callers
        cannot poison the cache.
        """
        session = self.sessions.get(request.cookies.get(self.session_cookie_name))
        if not self.response_cache_enabled or request.method != "GET":
            return self._handle_uncached(request, session)
        # The key is the *resolved* session (an unknown or destroyed cookie
        # keys like an anonymous request), that session's data version (a
        # handler rendering session data must never see a pre-write memo),
        # its creation epoch, and the content generation.  The epoch -- the
        # store version at creation, which session destruction also bumps --
        # keeps a destroyed-then-recreated session that reuses an identifier
        # (a reset counter over a shared backend) from ever aliasing its
        # predecessor's memos.  Other users' logins and writes touch none of
        # these, so their churn cannot evict unrelated memos.
        key = (
            request.url.path_and_query,
            session.session_id if session is not None else None,
            session.version if session is not None else 0,
            session.epoch if session is not None else 0,
            self._state_generation,
        )
        cached = self._response_cache.get(key)
        if cached is not None:
            return _copy_response(cached)
        response = self._handle_uncached(request, session)
        # 5xx responses only arise from injected faults; memoising one
        # would keep serving the outage after the fault window passed.
        if not response.set_cookie_values and response.status < 500:
            if len(self._response_cache) >= 256:
                self._response_cache.clear()
            self._response_cache[key] = _copy_response(response)
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
                # writes the handler completed before the fault already
                # bumped their version scopes, so no memo can go stale.
                response = HttpResponse(
                    status=503,
                    body=f"<html><body><h1>503</h1><p>{error}</p></body></html>",
                )
            return self.decorate(response, context)
        return self.decorate(HttpResponse.not_found(f"no route for {request.method} {request.url.path}"), context)

    def decorate(self, response: HttpResponse, context: RequestContext) -> HttpResponse:
        """Attach the ESCUDO headers (when enabled) to every response.

        The header lines are rendered once per application instance: the
        built-in applications derive their configuration from class-level
        constants (the paper's Tables 3 and 5), so re-building and
        re-formatting it per response was pure overhead on every request.
        """
        if self.escudo_enabled and response.content_type.startswith("text/html"):
            headers = self._escudo_header_cache
            if headers is None:
                headers = tuple(self.escudo_configuration().to_headers().items())
                self._escudo_header_cache = headers
            for name, value in headers:
                response.headers.set(name, value)
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

    @property
    def _state_generation(self) -> int:
        """The content-version counter (a row version in the SQLite tier).

        Every write to a content table bumps it automatically in the storage
        backend, so a mutator cannot forget to invalidate the response memo.
        """
        return self.storage.version(CONTENT_SCOPE)

    def state_digest(self) -> str:
        """SHA-256 over the canonical JSON encoding of :meth:`snapshot_state`."""
        return snapshot_digest(self.snapshot_state())

    # -- teardown -----------------------------------------------------------------------------------

    def close(self) -> None:
        """Close the sessions and the storage backend, drop the GET memo
        and the routes.

        The route table holds bound-method handlers, so the application
        sits in a reference cycle until this drops it.  The application
        serves no request afterwards.
        """
        self.sessions.close()
        self.storage.close()
        self._response_cache.clear()
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
