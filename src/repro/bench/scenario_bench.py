"""Scenario-engine throughput artifact.

Where the mediation benchmark isolates the reference monitor, the scenario
workload measures the whole stack end to end: N seeded multi-user
scenarios, each executed under the full policy matrix (every page load runs
the parse → label → render → script pipeline and every access is
mediated).  ``benchmarks/bench_scenarios.py`` runs it through
:func:`~repro.scenarios.parallel.run_suite_parallel` at one worker; this
module writes the result, with its headline **scenarios/second** and
**mediations/second**, to ``benchmarks/results/BENCH_scenarios.json`` so CI
can track regressions.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.scenarios.engine import SuiteResult

#: Default artifact location (relative to the repository root).
SCENARIO_RESULTS_NAME = "BENCH_scenarios.json"


def write_scenario_report(suite: SuiteResult, path: Path | str) -> Path:
    """Serialise a suite result as the JSON artifact at ``path``.

    The single producer of ``BENCH_scenarios.json``'s schema -- both the
    benchmark and the ``python -m repro.scenarios`` CLI write through here.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(suite.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return target
