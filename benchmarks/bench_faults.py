"""Fault-injection plane: chaos oracle smoke + disabled-plane overhead gate.

A scaled-down version of the full ``python -m repro.faults`` matrix (which
the CI ``chaos`` job runs at 200 schedules): the differential properties
must hold on a small matrix, the armed-but-empty plane must be byte-passive,
and the disabled-plane overhead stays under the committed gate.  Writes the
``benchmarks/results/BENCH_faults.json`` artifact.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.faults_bench import (
    FAULTS_RESULTS_NAME,
    OVERHEAD_GATE_PERCENT,
    build_faults_report,
    measure_disabled_overhead,
    measure_throughput_vs_rate,
)
from repro.bench.reporting import write_json_report
from repro.scenarios.chaos import check_passivity, run_chaos_matrix

RESULTS_DIR = Path(__file__).parent / "results"

#: Fixed workload so runs are comparable across commits.
SEED = 42
COUNT = 10
SCHEDULES = 2
RATE = 0.15


def test_fault_plane_chaos_and_overhead(benchmark, report_writer):
    """Fail-closed + convergent + passive, and cheap when disabled."""
    chaos = benchmark.pedantic(
        lambda: run_chaos_matrix(
            seed=SEED, count=COUNT, schedules=SCHEDULES, rate=RATE
        ),
        rounds=1,
        iterations=1,
    )
    assert chaos.ok, (chaos.fail_open, chaos.diverged)
    assert chaos.runs_faulted == COUNT * SCHEDULES * 2
    assert sum(chaos.faults.get("injected", {}).values()) > 0, (
        "the matrix must actually inject faults"
    )

    passivity = check_passivity(seed=SEED, count=8, workers=2)
    assert passivity["ok"], passivity["checks"]

    throughput = measure_throughput_vs_rate(seed=SEED, count=COUNT)
    assert all(point["ok"] for point in throughput)

    overhead = measure_disabled_overhead(seed=SEED, count=40, repeats=9)
    assert overhead["ok"], (
        f"disabled-plane overhead {overhead['overhead_percent']:.2f}% "
        f"breached the {OVERHEAD_GATE_PERCENT}% gate"
    )

    payload = build_faults_report(
        chaos=chaos.as_dict(),
        passivity=passivity,
        throughput=throughput,
        overhead=overhead,
    )
    path = write_json_report(payload, RESULTS_DIR / FAULTS_RESULTS_NAME)
    artifact = path.relative_to(RESULTS_DIR.parent.parent)
    report_writer(
        "fault_plane",
        (
            f"chaos: {chaos.runs_faulted} fault runs, 0 fail-open, 0 diverged, "
            f"{chaos.degraded} degraded (retries off) | passivity: ok | "
            f"overhead: {overhead['overhead_percent']:+.2f}% "
            f"(gate < {OVERHEAD_GATE_PERCENT}%)\n[json artifact: {artifact}]"
        ),
    )
