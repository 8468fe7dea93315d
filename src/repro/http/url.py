"""URL parsing and resolution for the synthetic HTTP substrate.

A deliberately small, dependency-free URL implementation sufficient for the
reproduction: absolute ``http``/``https`` URLs with host, optional port,
path, query string and fragment, plus relative-reference resolution (needed
when pages link to ``"post.php?id=3"`` style URLs).

The :class:`Url` type exposes its :class:`~repro.core.origin.Origin`, which
is what both the same-origin policy baseline and ESCUDO's origin rule
compare.  URLs are shared like origins: :meth:`Url.parse` serves one
instance per text, and :meth:`Url.resolve` one per reference against a
given base, so a page's sub-requests reuse the values it already derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.core.errors import ConfigurationError
from repro.core.origin import DEFAULT_PORTS, Origin


def _parse_query(query: str) -> dict[str, str]:
    """Parse ``a=1&b=two`` into a dict (last duplicate wins, '+' is a space)."""
    params: dict[str, str] = {}
    if not query:
        return params
    for pair in query.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        params[_unquote(key)] = _unquote(value)
    return params


def _quote(text: str) -> str:
    """Minimal percent-encoding for query components."""
    safe = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.~"
    out = []
    for ch in text:
        if ch in safe:
            out.append(ch)
        elif ch == " ":
            out.append("+")
        else:
            out.append("".join(f"%{b:02X}" for b in ch.encode("utf-8")))
    return "".join(out)


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _unquote(text: str) -> str:
    """Inverse of :func:`_quote`.

    ``%XX`` escapes decode byte-wise (so multi-byte UTF-8 sequences
    reassemble exactly), ``+`` decodes to a space, and anything that is not
    a complete two-hex-digit escape -- a truncated ``%A`` at end-of-string,
    or ``%`` followed by non-hex characters -- passes through literally.
    The hex check is strict membership, not ``int()``, which would also
    accept whitespace and sign characters (``"% 1"`` must stay literal,
    not decode to byte 0x01).
    """
    out = bytearray()
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "+":
            out.append(0x20)
            i += 1
            continue
        if ch == "%" and i + 3 <= n and text[i + 1] in _HEX_DIGITS and text[i + 2] in _HEX_DIGITS:
            out.append(int(text[i + 1 : i + 3], 16))
            i += 3
            continue
        out.extend(ch.encode("utf-8"))
        i += 1
    return out.decode("utf-8", errors="replace")


def encode_query(params: dict[str, str]) -> str:
    """Encode a parameter dict into a query string."""
    return "&".join(f"{_quote(str(k))}={_quote(str(v))}" for k, v in params.items())


#: Resolved references kept per base :class:`Url`; a full memo starts over.
_RESOLVE_MEMO_SIZE = 16


@dataclass(frozen=True)
class Url:
    """An absolute URL decomposed into its components.

    Equality and hashing are by the six fields.  Everything derived from
    them -- the origin, the request target, the text and the URLs resolved
    against this one -- is computed on first use and kept on the instance;
    copies and pickles carry only the fields.
    """

    scheme: str
    host: str
    port: int
    path: str = "/"
    query: str = ""
    fragment: str = ""

    def __post_init__(self) -> None:
        if not self.scheme or not self.host:
            raise ConfigurationError("URL requires a scheme and a host")
        object.__setattr__(self, "scheme", self.scheme.lower())
        object.__setattr__(self, "host", self.host.lower())
        if not self.path.startswith("/"):
            object.__setattr__(self, "path", "/" + self.path)

    def __reduce__(self):
        return Url, (self.scheme, self.host, self.port, self.path, self.query, self.fragment)

    # -- construction ---------------------------------------------------------

    @classmethod
    def parse(cls, text: "str | Url") -> "Url":
        """Parse an absolute URL string into its shared instance.

        An already-parsed :class:`Url` is returned as-is -- callers holding
        one never pay a stringify/re-parse round-trip.  String parses are
        served from a bounded LRU: the browser substrate parses the same
        handful of application URLs on every page load, XHR and cookie
        check, so a page's URL is one instance, and with it the origin and
        resolved references it has already derived.
        """
        if isinstance(text, Url):
            return text
        if not isinstance(text, str) or "://" not in text:
            raise ConfigurationError(f"not an absolute URL: {text!r}")
        return _parse_url_text(text)

    @classmethod
    def _parse_text(cls, text: str) -> "Url":
        """The uncached string parser (the LRU's fill path)."""
        scheme, _, rest = text.strip().partition("://")
        scheme = scheme.lower()
        fragment = ""
        if "#" in rest:
            rest, fragment = rest.split("#", 1)
        query = ""
        if "?" in rest:
            rest, query = rest.split("?", 1)
        authority, slash, path = rest.partition("/")
        path = slash + path if slash else "/"
        if "@" in authority:
            authority = authority.rsplit("@", 1)[1]
        host, _, port_text = authority.partition(":")
        if not host:
            raise ConfigurationError(f"URL {text!r} has no host")
        if port_text:
            try:
                port = int(port_text, 10)
            except ValueError as exc:
                raise ConfigurationError(f"URL {text!r} has a malformed port") from exc
        else:
            port = DEFAULT_PORTS.get(scheme, 80)
        return cls(scheme=scheme, host=host, port=port, path=path or "/", query=query, fragment=fragment)

    # -- properties -------------------------------------------------------------

    @cached_property
    def origin(self) -> Origin:
        """The URL's web origin (scheme, host, port): the shared instance.

        Read once per URL through :meth:`Origin.of`, so every URL of a site
        -- a page, its pollers, forms and redirects -- reports the same
        :class:`Origin` object, and the origin rule's tables compare it by
        identity first.
        """
        return Origin.of(self.scheme, self.host, self.port)

    @property
    def params(self) -> dict[str, str]:
        """Query parameters as a dict."""
        return _parse_query(self.query)

    @cached_property
    def path_and_query(self) -> str:
        """Path plus query string (the request target sent to the server)."""
        if self.query:
            return f"{self.path}?{self.query}"
        return self.path

    @cached_property
    def _text(self) -> str:
        default = DEFAULT_PORTS.get(self.scheme)
        host = self.host if default == self.port else f"{self.host}:{self.port}"
        text = f"{self.scheme}://{host}{self.path_and_query}"
        if self.fragment:
            text += f"#{self.fragment}"
        return text

    @cached_property
    def _resolved(self) -> dict[str, "Url"]:
        return {}

    # -- derivation --------------------------------------------------------------

    def with_params(self, params: dict[str, str]) -> "Url":
        """Copy of this URL with the query string replaced by ``params``."""
        return Url(
            scheme=self.scheme,
            host=self.host,
            port=self.port,
            path=self.path,
            query=encode_query(params),
            fragment=self.fragment,
        )

    def resolve(self, reference: str) -> "Url":
        """Resolve a (possibly relative) reference against this URL.

        Handles absolute URLs, scheme-relative (``//host/...``), absolute
        paths (``/x/y``), relative paths (``y``, ``../y``), bare query
        strings (``?a=1``) and bare fragments (``#top``).

        Served from a small memo on this instance: a page resolves the same
        poller, form and subresource references on every load, and its URL
        is shared through :meth:`parse`, so a repeated reference returns
        the same :class:`Url` (with its origin already read).
        """
        memo = self._resolved
        url = memo.get(reference)
        if url is None:
            url = self._resolve(reference)
            if url is self:
                return url
            if len(memo) >= _RESOLVE_MEMO_SIZE:
                memo.clear()
            memo[reference] = url
        return url

    def _resolve(self, reference: str) -> "Url":
        """The unmemoised resolver (the memo's fill path)."""
        ref = reference.strip()
        if not ref:
            return self
        if "://" in ref:
            return Url.parse(ref)
        if ref.startswith("//"):
            return Url.parse(f"{self.scheme}:{ref}")
        if ref.startswith("#"):
            return Url(self.scheme, self.host, self.port, self.path, self.query, ref[1:])
        if ref.startswith("?"):
            return Url(self.scheme, self.host, self.port, self.path, ref[1:], "")
        fragment = ""
        if "#" in ref:
            ref, fragment = ref.split("#", 1)
        query = ""
        if "?" in ref:
            ref, query = ref.split("?", 1)
        if ref.startswith("/"):
            path = _normalize_path(ref)
        else:
            base_dir = self.path.rsplit("/", 1)[0]
            path = _normalize_path(f"{base_dir}/{ref}")
        return Url(self.scheme, self.host, self.port, path, query, fragment)

    def __str__(self) -> str:
        return self._text


@lru_cache(maxsize=4096)
def _parse_url_text(text: str) -> Url:
    """Memoised absolute-URL parse (module level so the cache is bounded once)."""
    return Url._parse_text(text)


def _normalize_path(path: str) -> str:
    """Collapse ``.`` and ``..`` segments in an absolute path."""
    segments: list[str] = []
    for segment in path.split("/"):
        if segment in ("", "."):
            continue
        if segment == "..":
            if segments:
                segments.pop()
            continue
        segments.append(segment)
    normalized = "/" + "/".join(segments)
    if path.endswith("/") and normalized != "/":
        normalized += "/"
    return normalized
