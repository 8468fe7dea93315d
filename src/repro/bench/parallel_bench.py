"""Work-stealing sharded scenario-execution throughput workload.

Measures the same seeded scenario range serially and sharded over 1 / 2 / 4
worker processes, verifying on the way that every sharded run's merged
report is byte-identical to the serial baseline (the parity oracle doubles
as a correctness certificate for the numbers being compared).  The payload
lands in ``benchmarks/results/BENCH_parallel_scenarios.json``:

* ``scenarios_per_second`` per worker count plus ``speedup_vs_serial``,
* ``per_worker_chunks_stolen`` -- how many queue pulls each worker won
  (the work-stealing balance evidence),
* ``scheduling_efficiency`` -- busy worker-seconds over available
  worker-seconds, ``sum(shard duration) / (workers * wall clock)``.  A
  straggler under static sharding leaves siblings idle at the tail and
  drags this down; the steal queue keeps it near 1.0 on any hardware
  (unlike raw speedup, it does not depend on physical core count),
* ``parity_with_serial`` (merged report equality),
* an ``efficiency`` section: a larger dedicated run backing the
  perf-smoke floor of >= 0.8 scheduling efficiency at 4 workers,

plus the host's CPU count, since raw speedup is meaningless without it.
"""

from __future__ import annotations

import os

from repro.scenarios.engine import run_suite
from repro.scenarios.parallel import run_suite_parallel

#: Artifact name uploaded by the CI ``parallel-scenarios`` job.
PARALLEL_RESULTS_NAME = "BENCH_parallel_scenarios.json"

#: Worker counts the workload sweeps.
DEFAULT_WORKER_COUNTS = (1, 2, 4)

#: Perf-smoke floor: busy worker-seconds / available worker-seconds at the
#: dedicated efficiency run's worker count.
SCHEDULING_EFFICIENCY_FLOOR = 0.8

#: Scenario count of the dedicated efficiency run -- large enough that the
#: pool's fixed startup cost (fork + each worker's lazy cache warm-up) is
#: amortised the way a production-size run would amortise it.
EFFICIENCY_COUNT = 160

#: Worker count the efficiency floor is asserted at.
EFFICIENCY_WORKERS = 4


def scheduling_efficiency(suite) -> float:
    """Busy worker-seconds over available worker-seconds for one sharded run."""
    if suite.duration_s <= 0 or suite.workers <= 0:
        return 0.0
    busy = sum(stat["duration_s"] for stat in suite.shard_stats)
    return min(1.0, busy / (suite.workers * suite.duration_s))


def measure_parallel_scenarios(
    *,
    seed: int | str = 42,
    count: int = 40,
    models=("escudo", "sop", "none"),
    attack_ratio: float = 0.25,
    worker_counts=DEFAULT_WORKER_COUNTS,
    efficiency_count: int = EFFICIENCY_COUNT,
) -> dict:
    """Sweep the work-stealing executor over ``worker_counts``, build the payload."""
    serial = run_suite(seed=seed, count=count, models=models, attack_ratio=attack_ratio)
    serial_parity = serial.parity_dict()

    rows = []
    for workers in worker_counts:
        suite = run_suite_parallel(
            seed=seed,
            count=count,
            models=models,
            attack_ratio=attack_ratio,
            workers=workers,
            persist_failures=False,
        )
        rows.append(
            {
                "workers": workers,
                "effective_workers": suite.workers,
                "ok": suite.ok,
                "parity_with_serial": suite.parity_dict() == serial_parity,
                "duration_s": suite.duration_s,
                "scenarios_per_second": suite.scenarios_per_second,
                "speedup_vs_serial": (
                    suite.scenarios_per_second / serial.scenarios_per_second
                    if serial.scenarios_per_second > 0
                    else 0.0
                ),
                "scheduling_efficiency": scheduling_efficiency(suite),
                "steal_chunk": suite.steal_chunk,
                "per_worker_chunks_stolen": [
                    stat["chunks_stolen"] for stat in suite.shard_stats
                ],
                "per_worker_scenarios": [stat["scenarios"] for stat in suite.shard_stats],
                "per_worker_scenarios_per_second": [
                    stat["scenarios_per_second"] for stat in suite.shard_stats
                ],
            }
        )

    # Dedicated efficiency run: big enough to amortise pool startup, floor
    # asserted by the bench test.
    eff = run_suite_parallel(
        seed=seed,
        count=efficiency_count,
        models=models,
        attack_ratio=attack_ratio,
        workers=EFFICIENCY_WORKERS,
        persist_failures=False,
    )
    efficiency = {
        "workers": EFFICIENCY_WORKERS,
        "effective_workers": eff.workers,
        "count": efficiency_count,
        "ok": eff.ok,
        "duration_s": eff.duration_s,
        "scenarios_per_second": eff.scenarios_per_second,
        "scheduling_efficiency": scheduling_efficiency(eff),
        "floor": SCHEDULING_EFFICIENCY_FLOOR,
        "per_worker_chunks_stolen": [stat["chunks_stolen"] for stat in eff.shard_stats],
    }

    return {
        "seed": serial.seed,
        "count": count,
        "models": list(serial.models),
        "attack_ratio": attack_ratio,
        "cpu_count": os.cpu_count(),
        "serial": {
            "ok": serial.ok,
            "duration_s": serial.duration_s,
            "scenarios_per_second": serial.scenarios_per_second,
        },
        "workers": rows,
        "efficiency": efficiency,
    }


def format_parallel_report(payload: dict) -> str:
    """Human-readable summary of the sweep."""
    lines = [
        f"parallel scenario execution: seed={payload['seed']} count={payload['count']} "
        f"matrix={','.join(payload['models'])} (host: {payload['cpu_count']} cpu)",
        f"  serial baseline: {payload['serial']['scenarios_per_second']:,.1f} scenarios/s",
    ]
    for row in payload["workers"]:
        steals = "/".join(str(n) for n in row["per_worker_chunks_stolen"])
        lines.append(
            f"  workers={row['workers']}: {row['scenarios_per_second']:,.1f} scenarios/s "
            f"({row['speedup_vs_serial']:.2f}x serial, "
            f"sched eff {row['scheduling_efficiency'] * 100.0:.0f}%) | "
            f"parity={'ok' if row['parity_with_serial'] else 'BROKEN'} | "
            f"chunks stolen: {steals}"
        )
    eff = payload.get("efficiency")
    if eff:
        lines.append(
            f"  efficiency run ({eff['count']} scenarios @ {eff['workers']} workers): "
            f"{eff['scenarios_per_second']:,.1f} scenarios/s, scheduling efficiency "
            f"{eff['scheduling_efficiency'] * 100.0:.0f}% (floor {eff['floor'] * 100.0:.0f}%)"
        )
    return "\n".join(lines)
