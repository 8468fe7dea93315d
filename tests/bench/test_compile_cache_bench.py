"""Unit tests for the compile-cache bench module (tiny workloads).

The real sweep (with the committed speedup floors) runs in
``benchmarks/bench_compile_cache.py``; these tests keep the module's logic
under tier-1 coverage with workloads small enough to be free, and pin the
payload schema the CI ``perf-smoke`` artifact consumers read.  Speedup
*values* are not asserted here -- tiny workloads on shared CI hardware make
them meaningless -- but the parity flags must hold at any size.
"""

from __future__ import annotations

import json

from repro.bench import (
    format_compile_cache_report,
    measure_compile_cache,
    write_json_report,
)


def test_measure_compile_cache_payload_schema(tmp_path):
    payload = measure_compile_cache(
        page_loads=4,
        script_runs=10,
        scenario_seed=7,
        scenario_count=2,
        attack_ratio=0.0,
        scenario_rounds=1,
    )

    # Section structure and workload sizes.
    assert payload["page_compile"]["loads"] == 4
    assert payload["script_ast"]["runs"] == 10
    assert payload["scenarios"]["count"] == 2
    assert payload["scenarios"]["rounds"] == 1
    assert len(payload["scenarios"]["cold_rounds"]) == 1
    assert len(payload["scenarios"]["steady_rounds"]) == 1

    # Every speedup field is present and positive (ratios, not floors).
    for key in (
        "page_compile_speedup",
        "script_ast_speedup",
        "scenario_speedup",
    ):
        assert payload[key] > 0

    # Parity is size-independent: the cached pipelines must be observably
    # identical to their cold twins even on a 2-scenario suite.
    assert payload["verdict_parity"] is True
    assert payload["page_compile"]["parity"] is True
    assert payload["script_ast"]["parity"] is True
    assert payload["scenarios"]["cold_ok"] and payload["scenarios"]["warm_ok"]

    # Headline keys mirror the nested sections for dashboard consumers (the
    # headline throughput is the warm worker's steady state).
    assert payload["scenarios_per_second"] == payload["scenarios"]["steady_scenarios_per_second"]
    assert payload["scenario_steady_speedup"] == payload["scenarios"]["steady_speedup"]
    assert payload["page_compile_speedup"] == payload["page_compile"]["speedup"]

    # No baseline path given => no seed-relative fields.
    assert "speedup_vs_seed" not in payload

    report = format_compile_cache_report(payload)
    assert "page compile" in report and "scenarios (1 worker)" in report

    path = write_json_report(payload, tmp_path / "BENCH_compile_cache.json")
    assert json.loads(path.read_text(encoding="utf-8")) == payload


def test_seed_baseline_comparison(tmp_path):
    baseline = tmp_path / "BENCH_scenarios_seed.json"
    baseline.write_text(json.dumps({"scenarios_per_second": 1.0}), encoding="utf-8")
    payload = measure_compile_cache(
        page_loads=2,
        script_runs=4,
        scenario_seed=7,
        scenario_count=1,
        attack_ratio=0.0,
        scenario_rounds=1,
        seed_baseline_path=baseline,
    )
    assert payload["scenarios_per_second_seed"] == 1.0
    assert payload["speedup_vs_seed"] == payload["scenarios_per_second"]
    assert "vs pinned PR-3 baseline" in format_compile_cache_report(payload)


def test_missing_or_malformed_baseline_is_ignored(tmp_path):
    missing = measure_compile_cache(
        page_loads=2,
        script_runs=4,
        scenario_seed=7,
        scenario_count=1,
        attack_ratio=0.0,
        scenario_rounds=1,
        seed_baseline_path=tmp_path / "nope.json",
    )
    assert "speedup_vs_seed" not in missing

    malformed = tmp_path / "bad.json"
    malformed.write_text("{\"scenarios_per_second\": \"fast\"}", encoding="utf-8")
    payload = measure_compile_cache(
        page_loads=2,
        script_runs=4,
        scenario_seed=7,
        scenario_count=1,
        attack_ratio=0.0,
        scenario_rounds=1,
        seed_baseline_path=malformed,
    )
    assert "speedup_vs_seed" not in payload
