"""The fault report's one verdict: every check it carries can fail it alone."""

from __future__ import annotations

import pytest

from repro.bench.faults_bench import build_faults_report


def passing_parts() -> dict:
    return {
        "chaos": {"ok": True, "faults": {"injected": {"network.dispatch": 3}}},
        "passivity": {"ok": True, "checks": []},
        "throughput": [{"rate": 0.0, "ok": True}, {"rate": 0.15, "ok": True}],
        "overhead": {"ok": True, "overhead_percent": 0.4},
    }


def test_all_checks_holding_is_ok():
    assert build_faults_report(**passing_parts())["ok"] is True


@pytest.mark.parametrize(
    "breach",
    [
        lambda parts: parts["chaos"].update(ok=False),
        lambda parts: parts["chaos"].update(faults={"injected": {}}),
        lambda parts: parts["chaos"].update(faults={}),
        lambda parts: parts["throughput"][1].update(ok=False),
        lambda parts: parts["passivity"].update(ok=False),
        lambda parts: parts["overhead"].update(ok=False),
    ],
    ids=[
        "chaos-property-broken",
        "no-fault-injected",
        "no-fault-telemetry",
        "throughput-point-failed",
        "not-passive",
        "overhead-over-gate",
    ],
)
def test_each_check_alone_fails_the_verdict(breach):
    parts = passing_parts()
    breach(parts)
    assert build_faults_report(**parts)["ok"] is False
