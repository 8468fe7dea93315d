"""Scenario-engine throughput workload.

Where the mediation benchmark isolates the reference monitor, this workload
measures the whole stack end to end: N seeded multi-user scenarios, each
executed under the full policy matrix (every page load runs the parse →
label → render → script pipeline and every access is mediated).  The
headline figures are **scenarios/second** and **mediations/second**; they
land in
``benchmarks/results/BENCH_scenarios.json`` so CI can track regressions.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.scenarios.engine import SuiteResult
from repro.scenarios.parallel import run_suite_parallel

#: Default artifact location (relative to the repository root).
SCENARIO_RESULTS_NAME = "BENCH_scenarios.json"


def measure_scenarios(
    *,
    seed: int | str = 42,
    count: int = 25,
    models=("escudo", "sop", "none"),
    attack_ratio: float = 0.25,
) -> SuiteResult:
    """Run the scenario workload and return the suite result.

    Routed through the sharded executor at one worker (a single in-process
    shard), so this workload and the ``python -m repro.scenarios`` CLI emit
    the identical artifact schema -- worker statistics included.
    """
    return run_suite_parallel(
        seed=seed,
        count=count,
        models=models,
        attack_ratio=attack_ratio,
        workers=1,
        persist_failures=False,
    )


def write_scenario_report(suite: SuiteResult, path: Path | str) -> Path:
    """Serialise a suite result as the JSON artifact at ``path``.

    The single producer of ``BENCH_scenarios.json``'s schema -- both the
    benchmark and the ``python -m repro.scenarios`` CLI write through here.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(suite.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return target
