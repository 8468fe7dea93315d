"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.core.acl import Acl
from repro.core.config import PageConfiguration, ResourcePolicy
from repro.core.context import SecurityContext
from repro.core.origin import Origin
from repro.core.rings import Ring
from repro.http.messages import HttpResponse
from repro.http.network import Network

# ``HYPOTHESIS_PROFILE=ci`` raises the example budget of every property that
# does not fix its own -- the parser-versus-reference properties of
# ``tests/html`` and the dict-vs-SQLite state machine of
# ``tests/webapps/test_storage_parity.py`` -- for CI's dedicated parser and
# storage steps; the tier-1 run keeps Hypothesis's default budget.  CI's scenario-fuzz step runs without
# hypothesis installed, so the profile is registered only when it is.
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", max_examples=2000)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def origin() -> Origin:
    """An origin used throughout the core tests."""
    return Origin.parse("http://app.example.com")


@pytest.fixture
def other_origin() -> Origin:
    """A different origin (for origin-rule tests)."""
    return Origin.parse("http://evil.example.net")


def make_context(origin: Origin, ring: int, *, read: int | None = None, write: int | None = None,
                 use: int | None = None, label: str = "entity") -> SecurityContext:
    """Helper used by many tests to build contexts tersely."""
    if read is None and write is None and use is None:
        acl = Acl.uniform(ring)
    else:
        acl = Acl.of(read=read if read is not None else ring,
                     write=write if write is not None else ring,
                     use=use if use is not None else ring)
    return SecurityContext(origin=origin, ring=Ring(ring), acl=acl, label=label)


@pytest.fixture
def context_factory(origin):
    """Factory fixture returning :func:`make_context` bound to the test origin."""

    def factory(ring: int, **kwargs) -> SecurityContext:
        kwargs.setdefault("label", f"entity-ring-{ring}")
        return make_context(origin, ring, **kwargs)

    return factory


class SinglePageServer:
    """Minimal HTTP server serving one configurable HTML page."""

    def __init__(self, body: str, *, configuration: PageConfiguration | None = None,
                 cookies: dict[str, str] | None = None) -> None:
        self.body = body
        self.configuration = configuration
        self.cookies = cookies or {}
        self.requests = []

    def handle_request(self, request):
        self.requests.append(request)
        if request.url.path.startswith("/resource"):
            return HttpResponse.text("resource body")
        response = HttpResponse.html(self.body)
        for name, value in self.cookies.items():
            response.set_cookie(name, value)
        if self.configuration is not None:
            response.apply_escudo_headers(self.configuration)
        return response


@pytest.fixture
def single_page_network():
    """Factory: register a single-page server and return (network, server, url)."""

    def build(body: str, *, configuration: PageConfiguration | None = None,
              cookies: dict[str, str] | None = None, origin_text: str = "http://app.example.com"):
        server = SinglePageServer(body, configuration=configuration, cookies=cookies)
        network = Network()
        network.register(origin_text, server)
        return network, server, f"{origin_text}/"

    return build


@pytest.fixture
def standard_configuration() -> PageConfiguration:
    """A typical ESCUDO configuration: ring-1 session cookie and XHR."""
    configuration = PageConfiguration()
    configuration.cookie_policies["sid"] = ResourcePolicy(ring=Ring(1), acl=Acl.uniform(1))
    configuration.api_policies["XMLHttpRequest"] = ResourcePolicy(ring=Ring(1), acl=Acl.uniform(1))
    return configuration
