"""A timing-free gate on what a page's request path rebuilds.

A page's URL is shared through the parse LRU, its sub-request targets
through the URL's resolve memo, and origins through one table per
``(scheme, host, port)``; an XHR builds no header map it does not fill.
So a warm, logged-in phpBB index load -- the navigation plus the trusted
poller's synchronous XHR to ``/api/unread`` -- builds no ``Origin`` and no
``Url``, and allocates four ``Headers`` (each request's own map and each
memoised response's copy).  Over ``run_suite(seed=42, count=30)``,
starting from an empty origin table, four origins are built: one per
origin the suite visits.  The gate counts constructor calls (no clock
involved) and fails if per-request rebuilding returns.
"""

from __future__ import annotations

from unittest import mock

from repro.attacks.harness import build_environment, login_user
from repro.core import origin as origin_module
from repro.core.origin import Origin
from repro.http.headers import Headers
from repro.http.url import Url
from repro.scenarios import run_suite
from repro.scenarios.runner import ScenarioRunner

#: Headers a warm index load may allocate: two requests, two memo copies.
INDEX_LOAD_HEADERS = 4
#: Origins ``run_suite(seed=42, count=30)`` builds from an empty table.
SUITE_ORIGINS = 4


def _counting(cls):
    return mock.patch.object(cls, "__init__", autospec=True, side_effect=cls.__init__)


def test_a_warm_index_load_and_its_poller_rebuild_no_url_or_origin():
    runner = ScenarioRunner()
    spec = next(spec for spec in runner.specs if spec.browser_model == "escudo")
    with build_environment(
        "phpbb",
        spec.browser_model,
        escudo_app=spec.escudo_app,
        app_kwargs=runner._app_kwargs("phpbb", spec),
        caches=runner.caches,
    ) as env:
        login_user(env.browser, env.app, env.victim)
        index = f"{env.app.origin}/"
        env.browser.load(index)
        env.browser.load(index)
        sent = len(env.network.request_log)
        with _counting(Origin) as origins, _counting(Url) as urls, _counting(Headers) as headers:
            loaded = env.browser.load(index)
        paths = [record.request.url.path for record in env.network.request_log[sent:]]
        assert paths == ["/", "/api/unread"], "the poller's XHR is part of the load"
        assert loaded.page.document.get_element_by_id("unread-count").text_content == "0"
    assert origins.call_count == 0, f"{origins.call_count} origins built"
    assert urls.call_count == 0, f"{urls.call_count} URLs built"
    assert headers.call_count <= INDEX_LOAD_HEADERS, f"{headers.call_count} header maps allocated"


def test_the_suite_builds_one_origin_per_site(monkeypatch):
    monkeypatch.setattr(origin_module, "_ORIGINS", {})
    with _counting(Origin) as origins:
        run_suite(seed=42, count=30)
    assert origins.call_count <= SUITE_ORIGINS, f"{origins.call_count} origins built"
