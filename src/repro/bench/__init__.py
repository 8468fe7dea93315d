"""Benchmark support: Figure-4 workloads, timing loops and report formatting."""

from .compile_cache_bench import (
    COMPILE_CACHE_RESULTS_NAME,
    SEED_SCENARIOS_NAME,
    format_compile_cache_report,
    measure_compile_cache,
)
from .storage_bench import (
    STORAGE_RESULTS_NAME,
    format_storage_report,
    measure_storage,
)
from .reporting import (
    format_defense_matrix,
    format_figure4,
    format_policy_table,
    format_table,
    write_json_report,
)
from .timing import (
    OverheadRow,
    TimingSample,
    average_overhead,
    measure_all,
    measure_workload,
    parse_and_render,
)
from .workloads import (
    SCENARIOS,
    ScenarioSpec,
    Workload,
    all_workloads,
    build_workload,
)

__all__ = [
    "COMPILE_CACHE_RESULTS_NAME",
    "OverheadRow",
    "SCENARIOS",
    "SEED_SCENARIOS_NAME",
    "STORAGE_RESULTS_NAME",
    "ScenarioSpec",
    "TimingSample",
    "Workload",
    "all_workloads",
    "average_overhead",
    "build_workload",
    "format_compile_cache_report",
    "format_defense_matrix",
    "format_figure4",
    "format_policy_table",
    "format_storage_report",
    "format_table",
    "measure_all",
    "measure_compile_cache",
    "measure_storage",
    "measure_workload",
    "parse_and_render",
    "write_json_report",
]
