"""Frozen reference resolver: the test oracle for :meth:`repro.http.url.Url.resolve`.

This is the resolver body ``Url.resolve`` ran before it was served from a
memo on the base URL, kept verbatim as a function of the base.  It builds
a fresh :class:`Url` for every relative reference and shares nothing, so
``test_url_resolve_oracle.py`` can check that the memoised resolver gives
an equal value on every case; :func:`reference_text` is the ``__str__``
that ran on every call before the text was kept on the instance.  Do not
optimise this module: its value is that it is obviously the old rules.
"""

from __future__ import annotations

from repro.core.origin import DEFAULT_PORTS
from repro.http.url import Url, _normalize_path


def reference_resolve(base: Url, reference: str) -> Url:
    """Resolve a (possibly relative) reference against ``base``."""
    ref = reference.strip()
    if not ref:
        return base
    if "://" in ref:
        return Url.parse(ref)
    if ref.startswith("//"):
        return Url.parse(f"{base.scheme}:{ref}")
    if ref.startswith("#"):
        return Url(base.scheme, base.host, base.port, base.path, base.query, ref[1:])
    if ref.startswith("?"):
        return Url(base.scheme, base.host, base.port, base.path, ref[1:], "")
    fragment = ""
    if "#" in ref:
        ref, fragment = ref.split("#", 1)
    query = ""
    if "?" in ref:
        ref, query = ref.split("?", 1)
    if ref.startswith("/"):
        path = _normalize_path(ref)
    else:
        base_dir = base.path.rsplit("/", 1)[0]
        path = _normalize_path(f"{base_dir}/{ref}")
    return Url(base.scheme, base.host, base.port, path, query, fragment)


def reference_text(url: Url) -> str:
    """``str(url)`` as it was computed on every call."""
    default = DEFAULT_PORTS.get(url.scheme)
    host = url.host if default == url.port else f"{url.host}:{url.port}"
    text = f"{url.scheme}://{host}{url.path}"
    if url.query:
        text += f"?{url.query}"
    if url.fragment:
        text += f"#{url.fragment}"
    return text
