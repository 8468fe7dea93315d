"""A timing-free gate on the runner's shared GET-response memo.

``run_suite(seed=42, count=100)`` sends 2,048 GETs, and 418 of them reach
a route handler when every application the runner builds shares one memo
keyed by its storage write digest.  The gate counts routed GETs (no clock
involved), allows 450, and checks that serving the rest from the memo
changed nothing the parity report sees.
"""

from __future__ import annotations

import json

from repro.scenarios import run_suite
from repro.webapps.framework import WebApplication


def _parity(result) -> str:
    return json.dumps(result.parity_dict(), sort_keys=True, separators=(",", ":"))


def test_shared_memo_routes_at_most_450_of_the_suites_gets(monkeypatch):
    counts = {"gets": 0, "routed": 0}
    handle, route = WebApplication.handle_request, WebApplication._handle_uncached

    def counted_handle(self, request):
        counts["gets"] += request.method == "GET"
        return handle(self, request)

    def counted_route(self, request, session):
        counts["routed"] += request.method == "GET"
        return route(self, request, session)

    monkeypatch.setattr(WebApplication, "handle_request", counted_handle)
    monkeypatch.setattr(WebApplication, "_handle_uncached", counted_route)
    warm = run_suite(seed=42, count=100)
    assert counts["gets"] == 2048
    assert counts["routed"] <= 450, f"{counts['routed']} of 2,048 GETs reached a route handler"

    monkeypatch.undo()
    assert _parity(warm) == _parity(run_suite(seed=42, count=100, compile_caches=False))
