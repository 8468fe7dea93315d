"""Static-analysis tier benchmark: throughput, memoisation and screen overhead.

Analyzes the mixed attack/benign script corpus cold and through the report
cache, then times a scenario suite with the soundness screen attached vs.
detached.  Writes ``benchmarks/results/BENCH_analysis.json``; the CI
``static-analysis`` job runs a scaled-down smoke through the same code
path and uploads the artifact.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.bench import (
    ANALYSIS_RESULTS_NAME,
    format_analysis_report,
    measure_analysis,
    write_json_report,
)

RESULTS_DIR = Path(__file__).parent / "results"

VARIANTS = int(os.environ.get("REPRO_ANALYSIS_VARIANTS", "20"))
REPEATS = int(os.environ.get("REPRO_ANALYSIS_REPEATS", "5"))
SCENARIOS = int(os.environ.get("REPRO_ANALYSIS_SCENARIOS", "12"))

#: CI gate: attaching the screen to the scenario suite must stay cheap.
OVERHEAD_CEILING_PCT = 10.0


def test_static_analysis_tier(benchmark, report_writer):
    """Measure the analyzer and certify the screened-suite overhead bound."""
    report = benchmark.pedantic(
        lambda: measure_analysis(
            variants=VARIANTS, repeats=REPEATS, scenario_count=SCENARIOS
        ),
        rounds=1,
        iterations=1,
    )
    assert report["corpus"]["distinct_digests"] == report["corpus"]["scripts"]
    assert report["cold"]["scripts_per_second"] > 0
    # Re-serving the corpus must be cache hits, and the memoised path must
    # beat the cold path outright.
    assert report["memoised"]["hit_rate"] > 0.5
    assert (
        report["memoised"]["scripts_per_second"] > report["cold"]["scripts_per_second"]
    )
    suite = report["suite"]
    assert suite["digest_parity"], "screen changed scenario digests"
    assert suite["soundness"]["scripts"] > 0
    assert suite["overhead_pct"] < OVERHEAD_CEILING_PCT, (
        f"static screen costs {suite['overhead_pct']:.2f}% on the scenario "
        f"suite (ceiling {OVERHEAD_CEILING_PCT}%)"
    )

    path = write_json_report(report, RESULTS_DIR / ANALYSIS_RESULTS_NAME)
    artifact = path.relative_to(RESULTS_DIR.parent.parent)
    report_writer("static_analysis", format_analysis_report(report) + f"\n[json artifact: {artifact}]")
