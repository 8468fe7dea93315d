"""Cookies and the browser cookie jar.

Cookies are first-class ESCUDO objects: the application assigns them a ring
(and optionally an ACL) via the optional ``X-Escudo-Cookie-Policy`` response
header; the browser attaches a cookie to an outgoing HTTP request only when
the principal that initiated the request passes the ``use`` check for that
cookie, and scripts may read/write ``document.cookie`` only subject to the
``read``/``write`` checks.  This is the mechanism that neutralises CSRF in
the paper's evaluation.

The jar itself is pure storage -- mediation happens in the browser substrate
through the reference monitor -- but every stored cookie carries its
security context so the monitor can be consulted directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator

from repro.core.acl import Acl
from repro.core.config import PageConfiguration, ResourcePolicy
from repro.core.context import SecurityContext
from repro.core.decision import Operation
from repro.core.monitor import ReferenceMonitor
from repro.core.origin import Origin
from repro.core.rings import Ring


@dataclass(frozen=True)
class Cookie:
    """A single cookie together with its ESCUDO labelling."""

    name: str
    value: str
    origin: Origin
    path: str = "/"
    secure: bool = False
    http_only: bool = False
    ring: Ring = Ring(0)
    acl: Acl = Acl.uniform(0)

    @cached_property
    def security_context(self) -> SecurityContext:
        """Context the reference monitor evaluates for this cookie (built once).

        Every derived cookie (:meth:`with_policy`, :meth:`with_value`) is a
        new instance and builds its own.
        """
        return SecurityContext(
            origin=self.origin,
            ring=self.ring,
            acl=self.acl,
            label=self.label,
        )

    @cached_property
    def label(self) -> str:
        """Display label used in access decisions."""
        return f"cookie:{self.name}"

    def with_policy(self, policy: ResourcePolicy) -> "Cookie":
        """Copy of this cookie relabelled with ``policy`` (ring + ACL)."""
        return replace(self, ring=policy.ring, acl=policy.acl)

    def with_value(self, value: str) -> "Cookie":
        """Copy of this cookie with a new value (labels unchanged)."""
        return replace(self, value=value)

    def header_pair(self) -> str:
        """``name=value`` form used in the ``Cookie`` request header."""
        return f"{self.name}={self.value}"

    def matches_path(self, request_path: str) -> bool:
        """Standard cookie path matching."""
        if self.path == "/" or request_path == self.path:
            return True
        prefix = self.path if self.path.endswith("/") else self.path + "/"
        return request_path.startswith(prefix)


def parse_set_cookie(value: str, origin: Origin) -> Cookie:
    """Parse one ``Set-Cookie`` header value into an (unlabelled) cookie.

    The ESCUDO labelling comes separately from the page configuration
    (``X-Escudo-Cookie-Policy``); by default cookies land in ring 0 per the
    paper's fail-safe default.
    """
    name, cookie_value, path, secure, http_only = _set_cookie_fields(value)
    return Cookie(name=name, value=cookie_value, origin=origin, path=path, secure=secure,
                  http_only=http_only)


def _set_cookie_fields(value: str) -> tuple[str, str, str, bool, bool]:
    """``(name, value, path, secure, http_only)`` of one ``Set-Cookie`` value."""
    parts = [part.strip() for part in value.split(";")]
    name, _, cookie_value = parts[0].partition("=")
    path = "/"
    secure = False
    http_only = False
    for attr in parts[1:]:
        key, _, raw = attr.partition("=")
        key = key.strip().lower()
        if key == "path":
            # RFC 6265 §5.2.4: a path value that is empty or does not start
            # with "/" is ignored and the default path applies -- treating
            # any non-empty value as valid would let `Path=foo` cookies
            # shadow or miss legitimate path scopes.
            candidate = raw.strip()
            if candidate.startswith("/"):
                path = candidate
        elif key == "secure":
            secure = True
        elif key == "httponly":
            http_only = True
    return name.strip(), cookie_value.strip(), path, secure, http_only


def format_cookie_header(cookies: Iterable[Cookie]) -> str:
    """Render cookies into a ``Cookie`` request header value."""
    return "; ".join(cookie.header_pair() for cookie in cookies)


def authorized_cookies(
    monitor: ReferenceMonitor,
    principal: SecurityContext,
    cookies: list[Cookie],
    operation: Operation,
) -> list[Cookie]:
    """Batch-mediate ``operation`` over many cookies; return those allowed.

    Cookie attachment (``use``) and ``document.cookie`` reads sweep the whole
    jar for an origin on every request, so they go through the monitor's
    batch path over the cookies' contexts: the policy decides every cookie
    and records its own decision (complete mediation of the sweep).
    """
    if not cookies:
        return []
    decisions = monitor.authorize_all(principal, [cookie.security_context for cookie in cookies], operation)
    return [cookie for cookie, decision in zip(cookies, decisions) if decision.allowed]


class CookieJar:
    """Per-browser cookie storage, keyed by origin, then by cookie name.

    A request reads only its own origin's bucket, so its cost does not grow
    with the cookies other origins have set.
    """

    def __init__(self) -> None:
        self._cookies: dict[Origin, dict[str, Cookie]] = {}

    # -- mutation ---------------------------------------------------------------

    def set(self, cookie: Cookie) -> None:
        """Store (or overwrite) a cookie."""
        bucket = self._cookies.get(cookie.origin)
        if bucket is None:
            bucket = self._cookies[cookie.origin] = {}
        bucket[cookie.name] = cookie

    def store_from_response(
        self,
        origin: Origin,
        set_cookie_values: Iterable[str],
        configuration: PageConfiguration | None = None,
    ) -> list[Cookie]:
        """Store every cookie from a response's ``Set-Cookie`` headers.

        When the response carried an ESCUDO cookie policy, each cookie is
        labelled with its configured ring/ACL; otherwise it keeps the ring-0
        default.  Each cookie is built once, already labelled.  Returns the
        stored cookies.
        """
        labelled = configuration is not None and configuration.escudo_enabled
        stored: list[Cookie] = []
        for raw in set_cookie_values:
            name, value, path, secure, http_only = _set_cookie_fields(raw)
            if labelled:
                policy = configuration.cookie_policy(name)  # type: ignore[union-attr]
                cookie = Cookie(name, value, origin, path, secure, http_only, policy.ring, policy.acl)
            else:
                cookie = Cookie(name, value, origin, path, secure, http_only)
            self.set(cookie)
            stored.append(cookie)
        return stored

    def delete(self, origin: Origin, name: str) -> None:
        """Remove a cookie if present."""
        bucket = self._cookies.get(origin)
        if bucket is not None:
            bucket.pop(name, None)
            if not bucket:
                del self._cookies[origin]

    def clear(self) -> None:
        """Remove every cookie (fresh browser profile)."""
        self._cookies.clear()

    # -- queries ---------------------------------------------------------------------

    def get(self, origin: Origin, name: str) -> Cookie | None:
        """Look up one cookie by origin and name."""
        bucket = self._cookies.get(origin)
        return bucket.get(name) if bucket is not None else None

    def cookies_for(self, origin: Origin, path: str = "/", *, secure_channel: bool | None = None) -> list[Cookie]:
        """Cookies eligible for a request to ``origin`` at ``path``.

        ``secure_channel`` filters out ``Secure`` cookies on plain-HTTP
        requests when provided; when ``None`` the scheme of the origin is
        used.
        """
        bucket = self._cookies.get(origin)
        if not bucket:
            return []
        https = secure_channel if secure_channel is not None else origin.scheme == "https"
        return [
            cookie
            for _, cookie in sorted(bucket.items())
            if (https or not cookie.secure) and cookie.matches_path(path)
        ]

    def all_cookies(self) -> list[Cookie]:
        """Every stored cookie."""
        return list(self)

    def __len__(self) -> int:
        return sum(map(len, self._cookies.values()))

    def __iter__(self) -> Iterator[Cookie]:
        for bucket in self._cookies.values():
            yield from bucket.values()

    def __contains__(self, key: tuple[Origin, str]) -> bool:
        origin, name = key
        bucket = self._cookies.get(origin)
        return bucket is not None and name in bucket
