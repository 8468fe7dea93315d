"""Schema and invariants of the storage-tier workload (small scale)."""

from __future__ import annotations

import json

from repro.bench.storage_bench import (
    format_storage_report,
    measure_storage,
    write_storage_report,
)


def small_report() -> dict:
    return measure_storage(
        users=500, posts=120, topics=6, page_loads=10, scenario_count=4,
        seed="storage-bench-test",
    )


class TestStorageWorkload:
    def test_report_schema_and_invariants(self):
        report = small_report()
        assert report["workload"] == "storage-tier"
        assert set(report["backends"]) == {"dict", "sqlite"}
        for kind in ("dict", "sqlite"):
            entry = report["backends"][kind]
            assert entry["bulk_seed"]["rows"] == 500 + 120 + 6
            pages = entry["page_load_ms"]
            assert pages["loads"] == 10
            assert pages["p99_ms"] >= pages["p50_ms"] > 0
            assert "warmup_ms" not in pages
            mixed = entry["mixed"]
            assert mixed["rounds"] == 10
            for metric in ("reply_p50_ms", "read_p50_ms", "read_after_write_p50_ms"):
                assert mixed[metric] > 0
        assert report["backends"]["sqlite"]["db_bytes"] > 0
        scenarios = report["scenarios"]
        assert scenarios["dict"]["ok"] and scenarios["sqlite"]["ok"]
        assert scenarios["digest_parity"] is True
        assert scenarios["dict"]["scenarios_per_s"] > 0

    def test_report_round_trips_as_json(self, tmp_path):
        report = small_report()
        path = write_storage_report(report, tmp_path / "BENCH_storage.json")
        assert json.loads(path.read_text(encoding="utf-8")) == report
        text = format_storage_report(report)
        assert "digest parity OK" in text
        assert "rows/s" in text
        assert "read after write" in text
