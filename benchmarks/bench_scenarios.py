"""Scenario-engine throughput: N seeded multi-user sessions x policy matrix.

Runs the differential scenario workload end to end (generation, per-model
execution, oracle classification), asserts the paper's differential claim
holds at fuzzing scale, and writes the throughput artifact
``benchmarks/results/BENCH_scenarios.json`` (scenarios/s, mediations/s)
that the CI ``scenarios`` job uploads.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import write_json_report
from repro.scenarios import run_suite_parallel

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_scenarios.json"

#: Fixed workload so runs are comparable across commits.
SEED = 42
COUNT = 25
ATTACK_RATIO = 0.25


def test_scenario_engine_throughput(benchmark, report_writer):
    """Time the whole engine and certify the differential invariant."""
    suite = benchmark.pedantic(
        lambda: run_suite_parallel(
            seed=SEED, count=COUNT, attack_ratio=ATTACK_RATIO, workers=1, persist_failures=False
        ),
        rounds=1,
        iterations=1,
    )
    assert suite.ok, suite.summary()
    assert suite.benign_count + suite.attack_count == COUNT
    assert suite.attack_count > 0, "the fixed seed must exercise attack injection"
    assert suite.mediations > 0, "scenario execution must be mediated"

    path = write_json_report(suite.as_dict(), RESULTS_PATH)
    artifact = path.relative_to(RESULTS_PATH.parents[2])
    report_writer("scenario_throughput", suite.summary() + f"\n[json artifact: {artifact}]")
