"""HTTP request and response messages.

A compact, in-process model of HTTP/1.1 messages: enough structure for the
browser substrate (methods, headers, cookies, form bodies, status codes,
redirects) without any real sockets.  Responses carry the optional ESCUDO
headers; :meth:`HttpResponse.escudo_configuration` extracts them into a
:class:`~repro.core.config.PageConfiguration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import API_POLICY_HEADER, COOKIE_POLICY_HEADER, RINGS_HEADER, PageConfiguration

from .headers import Headers
from .url import Url, encode_query

#: Lower-cased ESCUDO header name -> its argument slot in
#: ``PageConfiguration.from_header_values``.
_ESCUDO_HEADER_SLOTS = {
    RINGS_HEADER.lower(): 0,
    COOKIE_POLICY_HEADER.lower(): 1,
    API_POLICY_HEADER.lower(): 2,
}


#: Minimal set of reason phrases used by the synthetic servers.
REASON_PHRASES = {
    200: "OK",
    201: "Created",
    302: "Found",
    303: "See Other",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


@dataclass
class HttpRequest:
    """One HTTP request as issued by the browser substrate.

    ``initiator`` records a description of the principal that caused the
    request (an ``img`` tag, a form submission, an ``XMLHttpRequest`` call,
    or the user typing a URL); ``initiator_page`` records the URL of the
    page whose content issued it (empty for user navigations).  The network
    log uses both so the CSRF experiments can attribute requests -- in
    particular, whether a request was issued *cross-site*.  Neither affects
    routing.
    """

    method: str
    url: Url
    headers: Headers = field(default_factory=Headers)
    body: str = ""
    form: dict[str, str] = field(default_factory=dict)
    initiator: str = "user"
    initiator_page: str = ""

    def __post_init__(self) -> None:
        self.method = self.method.upper()
        if isinstance(self.url, str):
            self.url = Url.parse(self.url)

    # -- parameters -------------------------------------------------------------

    @property
    def params(self) -> dict[str, str]:
        """Merged query + form parameters (form wins on conflicts)."""
        merged = dict(self.url.params)
        merged.update(self.form)
        return merged

    def param(self, name: str, default: str | None = None) -> str | None:
        """Single parameter lookup."""
        return self.params.get(name, default)

    # -- cookies ------------------------------------------------------------------

    @property
    def cookie_header(self) -> str | None:
        """The raw ``Cookie`` header, if any cookies were attached."""
        return self.headers.get("Cookie")

    @property
    def cookies(self) -> dict[str, str]:
        """Cookies attached to this request, as a name → value dict."""
        header = self.cookie_header
        if not header:
            return {}
        result: dict[str, str] = {}
        for pair in header.split(";"):
            name, _, value = pair.strip().partition("=")
            if name:
                result[name] = value
        return result

    def attach_cookie_header(self, header_value: str) -> None:
        """Set the ``Cookie`` header (the browser calls this after mediation)."""
        if header_value:
            self.headers.set("Cookie", header_value)

    # -- misc ----------------------------------------------------------------------

    @property
    def origin(self):
        """Origin the request is addressed to."""
        return self.url.origin

    def serialized_body(self) -> str:
        """Body as transmitted (form-encodes ``form`` when no raw body set)."""
        if self.body:
            return self.body
        if self.form:
            return encode_query(self.form)
        return ""

    def __str__(self) -> str:
        return f"{self.method} {self.url}"


@dataclass
class HttpResponse:
    """One HTTP response produced by a synthetic server."""

    status: int = 200
    headers: Headers = field(default_factory=Headers)
    body: str = ""
    content_type: str = "text/html; charset=utf-8"
    #: Non-empty when this response was synthesised by the fault-injection
    #: plane instead of a server (the fault kind, e.g. ``"drop"``).  The
    #: browser's retry layer keys off this; applications never set it.
    fault: str = ""

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def html(cls, body: str, status: int = 200) -> "HttpResponse":
        """An HTML response."""
        return cls(status=status, body=body)

    @classmethod
    def text(cls, body: str, status: int = 200) -> "HttpResponse":
        """A plain-text response."""
        return cls(status=status, body=body, content_type="text/plain; charset=utf-8")

    @classmethod
    def not_found(cls, detail: str = "not found") -> "HttpResponse":
        """A 404 response."""
        return cls(status=404, body=f"<html><body><h1>404</h1><p>{detail}</p></body></html>")

    @classmethod
    def redirect(cls, location: str, status: int = 302) -> "HttpResponse":
        """A redirect response."""
        response = cls(status=status, body="")
        response.headers.set("Location", location)
        return response

    @classmethod
    def forbidden(cls, detail: str = "forbidden") -> "HttpResponse":
        """A 403 response."""
        return cls(status=403, body=f"<html><body><h1>403</h1><p>{detail}</p></body></html>")

    # -- cookies & ESCUDO headers ---------------------------------------------------

    def set_cookie(self, name: str, value: str, *, path: str = "/", secure: bool = False,
                   http_only: bool = False) -> None:
        """Append a ``Set-Cookie`` header."""
        parts = [f"{name}={value}", f"Path={path}"]
        if secure:
            parts.append("Secure")
        if http_only:
            parts.append("HttpOnly")
        self.headers.add("Set-Cookie", "; ".join(parts))

    @property
    def set_cookie_values(self) -> list[str]:
        """All ``Set-Cookie`` header values."""
        return self.headers.get_all("Set-Cookie")

    def apply_escudo_headers(self, configuration: PageConfiguration) -> None:
        """Emit the optional ESCUDO headers for ``configuration``."""
        for name, value in configuration.to_headers().items():
            self.headers.set(name, value)

    def escudo_configuration(self) -> PageConfiguration:
        """Extract the page's ESCUDO configuration from the response headers.

        Responses without any ESCUDO header yield a configuration with
        ``escudo_enabled=False`` (the body may still enable ESCUDO through AC
        tags; the loader handles that).
        """
        values: list[str | None] = [None, None, None]
        for name, value in self.headers:
            slot = _ESCUDO_HEADER_SLOTS.get(name.lower())
            # The first value of each header wins, as in ``Headers.get``.
            if slot is not None and values[slot] is None:
                values[slot] = value
        return PageConfiguration.from_header_values(*values)

    # -- misc --------------------------------------------------------------------------

    @property
    def reason(self) -> str:
        """Reason phrase for the status code."""
        return REASON_PHRASES.get(self.status, "Unknown")

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300

    @property
    def is_redirect(self) -> bool:
        """True for 3xx statuses carrying a ``Location`` header."""
        return 300 <= self.status < 400 and "Location" in self.headers

    def __str__(self) -> str:
        return f"{self.status} {self.reason}"
