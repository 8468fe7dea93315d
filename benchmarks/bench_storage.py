"""Storage-tier scale workload: bulk seeding + page loads + scenario parity.

Seeds a phpBB board with ``REPRO_STORAGE_USERS`` users and
``REPRO_STORAGE_POSTS`` posts (1M / 100k by default -- the ROADMAP's
realistic-scale target) on both the dict and SQLite backends, measures
bulk-seed throughput, p50/p99 page-load latency and the mixed
reply/read/read-after-write p50s over the seeded board, runs the
differential scenario engine on each backend, and writes
``benchmarks/results/BENCH_storage.json``.  The CI ``storage`` job runs a
scaled-down smoke (10k users) through the same code path and uploads the
artifact.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.bench import (
    STORAGE_RESULTS_NAME,
    format_storage_report,
    measure_storage,
    write_json_report,
)

RESULTS_DIR = Path(__file__).parent / "results"

USERS = int(os.environ.get("REPRO_STORAGE_USERS", "1000000"))
POSTS = int(os.environ.get("REPRO_STORAGE_POSTS", "100000"))
TOPICS = int(os.environ.get("REPRO_STORAGE_TOPICS", "1000"))
PAGE_LOADS = int(os.environ.get("REPRO_STORAGE_PAGE_LOADS", "200"))
SCENARIOS = int(os.environ.get("REPRO_STORAGE_SCENARIOS", "12"))


def test_storage_tier_scale(benchmark, report_writer):
    """Seed both backends at scale and certify dict-vs-SQLite parity."""
    report = benchmark.pedantic(
        lambda: measure_storage(
            users=USERS,
            posts=POSTS,
            topics=TOPICS,
            page_loads=PAGE_LOADS,
            scenario_count=SCENARIOS,
        ),
        rounds=1,
        iterations=1,
    )
    for kind in ("dict", "sqlite"):
        entry = report["backends"][kind]
        assert entry["bulk_seed"]["rows"] == USERS + TOPICS + POSTS
        assert entry["page_load_ms"]["p99_ms"] >= entry["page_load_ms"]["p50_ms"]
        assert entry["mixed"]["rounds"] == PAGE_LOADS
    assert report["backends"]["sqlite"]["db_bytes"] > 0
    assert report["scenarios"]["dict"]["ok"] and report["scenarios"]["sqlite"]["ok"]
    assert report["scenarios"]["digest_parity"], (
        "SQLite and dict backends diverged on scenario digests"
    )

    path = write_json_report(report, RESULTS_DIR / STORAGE_RESULTS_NAME)
    artifact = path.relative_to(RESULTS_DIR.parent.parent)
    report_writer("storage_tier", format_storage_report(report) + f"\n[json artifact: {artifact}]")
