"""Fault-plane workload: resilience cost and the disabled-plane overhead gate.

Three measurements land in ``benchmarks/results/BENCH_faults.json``:

* **throughput vs fault rate** -- the end-to-end scenario suite at a sweep
  of per-site injection rates (retries armed), with the plane's retry and
  recovery telemetry alongside each point;
* **recovery telemetry** -- aggregated over the chaos matrix: injections by
  site and kind, retries by site, suppressed duplicate completions, and the
  cumulative virtual-clock backoff latency the retries paid;
* **disabled-plane overhead** -- an *armed-but-empty* plan versus no plane
  at all, best-of-N wall clock.  The plane is designed to cost nothing when
  idle (zero-rate sites short-circuit before touching any counter); the
  artifact gates that claim at ``OVERHEAD_GATE_PERCENT``.

:func:`build_faults_report` assembles the artifact and its one verdict;
``python -m repro.faults --bench-out PATH`` is its single producer.
"""

from __future__ import annotations

from repro.faults.plan import FaultConfig
from repro.scenarios.engine import run_suite

#: Default artifact location (relative to the repository root).
FAULTS_RESULTS_NAME = "BENCH_faults.json"

#: The artifact's schema version.
FAULTS_SCHEMA = 1

#: Maximum tolerated slowdown of a suite with the plane armed-but-empty
#: relative to no plane at all, in percent.
OVERHEAD_GATE_PERCENT = 5.0

#: Injection rates swept by the throughput curve.
DEFAULT_RATE_SWEEP = (0.0, 0.05, 0.15, 0.3)


def measure_throughput_vs_rate(
    *,
    seed: int | str = 42,
    count: int = 25,
    rates=DEFAULT_RATE_SWEEP,
    storage: str = "dict",
) -> list[dict]:
    """One suite run per injection rate, retries armed, escudo-only matrix."""
    points: list[dict] = []
    for rate in rates:
        faults = (
            FaultConfig.uniform(seed=f"{seed}:bench", rate=rate)
            if rate > 0.0
            else FaultConfig.empty(seed=f"{seed}:bench")
        )
        suite = run_suite(
            seed=seed, count=count, models=("escudo",), storage=storage, faults=faults
        )
        stats = suite.faults or {}
        points.append(
            {
                "rate": rate,
                "ok": suite.ok,
                "scenarios_per_second": suite.scenarios_per_second,
                "duration_s": suite.duration_s,
                "injected": sum(stats.get("injected", {}).values()),
                "retries": sum(stats.get("retries", {}).values()),
                "recoveries": stats.get("recoveries", 0),
                "recovery_latency_ms": stats.get("recovery_latency_ms", 0.0),
            }
        )
    return points


def measure_disabled_overhead(
    *,
    seed: int | str = 42,
    count: int = 40,
    repeats: int = 9,
) -> dict:
    """Best-of-``repeats`` suite wall clock: no plane vs armed-but-empty.

    Best-of minima are the standard noise filter for same-process A/B wall
    clocks (the OS can only ever *add* time), and the A and B runs are
    interleaved so slow machine drift hits both sides alike.  The
    percentage is what the ``< OVERHEAD_GATE_PERCENT`` CI gate consumes.
    """
    baseline_times: list[float] = []
    armed_times: list[float] = []
    for _ in range(repeats):
        baseline_times.append(run_suite(seed=seed, count=count).duration_s)
        armed_times.append(
            run_suite(seed=seed, count=count, faults=FaultConfig.empty()).duration_s
        )
    baseline = min(baseline_times)
    armed = min(armed_times)
    overhead_percent = (armed / baseline - 1.0) * 100.0 if baseline > 0 else 0.0
    return {
        "baseline_s": baseline,
        "armed_empty_s": armed,
        "overhead_percent": overhead_percent,
        "gate_percent": OVERHEAD_GATE_PERCENT,
        "ok": overhead_percent < OVERHEAD_GATE_PERCENT,
    }


def build_faults_report(
    *,
    chaos: dict,
    passivity: dict,
    throughput: list[dict],
    overhead: dict,
) -> dict:
    """Assemble the full ``BENCH_faults.json`` payload.

    ``ok`` is the one verdict: the chaos matrix held its properties *and*
    injected at least one fault (a matrix that injects none proves
    nothing), every throughput-vs-rate suite passed, the armed-but-empty
    plane was passive, and the disabled-plane overhead stayed under its
    gate.
    """
    injected = sum(chaos.get("faults", {}).get("injected", {}).values())
    return {
        "schema": FAULTS_SCHEMA,
        "ok": bool(
            chaos.get("ok")
            and injected > 0
            and all(point.get("ok") for point in throughput)
            and passivity.get("ok")
            and overhead.get("ok")
        ),
        "chaos": chaos,
        "passivity": passivity,
        "throughput_vs_rate": throughput,
        "overhead": overhead,
    }
