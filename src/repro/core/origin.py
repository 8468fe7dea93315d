"""Web origins.

The same-origin policy -- and ESCUDO's origin rule -- identify an
application's origin as the unique combination of ``(protocol, domain,
port)``.  This module provides the :class:`Origin` value type used by both
the ESCUDO policy and the same-origin-policy baseline, plus lenient parsing
from URL strings.

Default ports follow the usual scheme conventions (http → 80, https → 443) so
that ``http://example.com`` and ``http://example.com:80`` compare equal, as
real browsers treat them.

Origins are shared: :meth:`Origin.parse`, :meth:`Origin.of` and
``Url.origin`` hand out the one instance per ``(scheme, host, port)`` held
in a bounded module table (hash-consing, as :mod:`repro.core.canonical`
does for rings and ACLs).  The table starts over when full, so equality
stays by value; sharing only saves the rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError

#: Default port per scheme, used when a URL omits the port.
DEFAULT_PORTS = {
    "http": 80,
    "https": 443,
    "ws": 80,
    "wss": 443,
    "ftp": 21,
}

#: Entries kept in the origin table; a full table starts over.
_ORIGIN_TABLE_SIZE = 4096

#: ``(scheme, host, port)`` as given, and lower-cased -> the shared origin.
_ORIGINS: dict[tuple[str, str, int], "Origin"] = {}


@dataclass(frozen=True)
class Origin:
    """An immutable ``(protocol, domain, port)`` triple.

    Build origins with :meth:`parse` or :meth:`of` (or read ``Url.origin``):
    they return the shared instance for the triple, so a page, its
    sub-requests and its cookies hold one origin object.  Equality is by
    value; a directly constructed origin equals the shared one.

    The hash and the ``scheme://host[:port]`` text are computed once, when
    the origin is built: the origin rule hashes and prints origins on every
    mediated access.  Neither is pickled; a copy recomputes both.
    """

    scheme: str
    host: str
    port: int

    def __post_init__(self) -> None:
        if not self.scheme:
            raise ConfigurationError("origin scheme must not be empty")
        if not self.host:
            raise ConfigurationError("origin host must not be empty")
        if not isinstance(self.port, int) or isinstance(self.port, bool) or self.port <= 0:
            raise ConfigurationError(f"origin port must be a positive int, got {self.port!r}")
        scheme, host = self.scheme.lower(), self.host.lower()
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "_hash", hash((scheme, host, self.port)))
        if DEFAULT_PORTS.get(scheme) == self.port:
            text = f"{scheme}://{host}"
        else:
            text = f"{scheme}://{host}:{self.port}"
        object.__setattr__(self, "_text", text)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Origin, (self.scheme, self.host, self.port)

    # -- construction ---------------------------------------------------------

    @classmethod
    def parse(cls, url: str) -> "Origin":
        """The shared origin of an absolute URL.

        Only the scheme, host and port are considered; the path, query and
        fragment are irrelevant to the origin, and the result is the
        instance ``Url.parse(url).origin`` returns.  Raises
        :class:`~repro.core.errors.ConfigurationError` for URLs without a
        scheme or host.
        """
        if not isinstance(url, str) or not url.strip():
            raise ConfigurationError(f"cannot parse origin from {url!r}")
        text = url.strip()
        if "://" not in text:
            raise ConfigurationError(f"URL {url!r} has no scheme; cannot derive an origin")
        scheme, _, rest = text.partition("://")
        authority = rest.split("/", 1)[0].split("?", 1)[0].split("#", 1)[0]
        if "@" in authority:
            authority = authority.rsplit("@", 1)[1]
        if not authority:
            raise ConfigurationError(f"URL {url!r} has no host; cannot derive an origin")
        host, _, port_text = authority.partition(":")
        scheme = scheme.lower()
        if port_text:
            try:
                port = int(port_text, 10)
            except ValueError as exc:
                raise ConfigurationError(f"URL {url!r} has a malformed port") from exc
        else:
            port = DEFAULT_PORTS.get(scheme, 80)
        return _shared_origin(scheme, host, port)

    @classmethod
    def of(cls, scheme: str, host: str, port: int | None = None) -> "Origin":
        """The shared origin for the triple, defaulting the port from the scheme."""
        if port is None:
            port = DEFAULT_PORTS.get(scheme.lower(), 80)
        return _shared_origin(scheme, host, port)

    # -- queries ---------------------------------------------------------------

    def same_origin_as(self, other: "Origin") -> bool:
        """The same-origin test: scheme, host and port must all match."""
        return self == other

    def url_prefix(self) -> str:
        """Canonical ``scheme://host[:port]`` prefix for building URLs."""
        return self._text

    def __str__(self) -> str:
        return self._text


def _shared_origin(scheme: str, host: str, port: int) -> Origin:
    """The one :class:`Origin` for ``(scheme, host, port)``, built on a miss.

    Scheme and host compare case-insensitively; a triple that is not a
    valid origin raises exactly as the constructor does.
    """
    key = (scheme, host, port)
    origin = _ORIGINS.get(key)
    if origin is not None and type(port) is int:
        return origin
    origin = Origin(scheme=scheme, host=host, port=port)
    lowered = (origin.scheme, origin.host, port)
    origin = _ORIGINS.get(lowered, origin)
    if len(_ORIGINS) >= _ORIGIN_TABLE_SIZE - 1:
        _ORIGINS.clear()
    _ORIGINS[lowered] = _ORIGINS[key] = origin
    return origin
