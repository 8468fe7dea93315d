"""Benchmark support: Figure-4 workloads, timing loops and report formatting."""

from .analysis_bench import (
    ANALYSIS_RESULTS_NAME,
    format_analysis_report,
    measure_analysis,
)
from .compile_cache_bench import (
    COMPILE_CACHE_RESULTS_NAME,
    SEED_SCENARIOS_NAME,
    format_compile_cache_report,
    measure_compile_cache,
)
from .event_loop_bench import (
    EVENT_LOOP_RESULTS_NAME,
    format_event_loop_report,
    measure_event_loop,
)
from .parallel_bench import (
    PARALLEL_RESULTS_NAME,
    SCHEDULING_EFFICIENCY_FLOOR,
    format_parallel_report,
    measure_parallel_scenarios,
    scheduling_efficiency,
)
from .storage_bench import (
    STORAGE_RESULTS_NAME,
    format_storage_report,
    measure_storage,
)
from .reporting import (
    format_defense_matrix,
    format_figure4,
    format_mediation_report,
    format_policy_table,
    format_table,
    write_json_report,
)
from .timing import (
    MediationSample,
    OverheadRow,
    TimingSample,
    average_overhead,
    measure_all,
    measure_mediation,
    measure_page_mediation,
    measure_workload,
    parse_and_render,
    time_callable,
)
from .workloads import (
    MEDIATION_SPEC,
    SCENARIOS,
    MediationSpec,
    ScenarioSpec,
    Workload,
    all_workloads,
    build_mediation_requests,
    build_workload,
    workload_by_name,
)

__all__ = [
    "ANALYSIS_RESULTS_NAME",
    "COMPILE_CACHE_RESULTS_NAME",
    "EVENT_LOOP_RESULTS_NAME",
    "MEDIATION_SPEC",
    "MediationSample",
    "MediationSpec",
    "OverheadRow",
    "PARALLEL_RESULTS_NAME",
    "SCHEDULING_EFFICIENCY_FLOOR",
    "SCENARIOS",
    "SEED_SCENARIOS_NAME",
    "STORAGE_RESULTS_NAME",
    "ScenarioSpec",
    "TimingSample",
    "Workload",
    "all_workloads",
    "average_overhead",
    "build_mediation_requests",
    "build_workload",
    "format_analysis_report",
    "format_compile_cache_report",
    "format_defense_matrix",
    "format_event_loop_report",
    "format_figure4",
    "format_mediation_report",
    "format_parallel_report",
    "format_policy_table",
    "format_storage_report",
    "format_table",
    "measure_all",
    "measure_analysis",
    "measure_compile_cache",
    "measure_event_loop",
    "measure_mediation",
    "measure_page_mediation",
    "measure_parallel_scenarios",
    "scheduling_efficiency",
    "measure_storage",
    "measure_workload",
    "parse_and_render",
    "time_callable",
    "workload_by_name",
    "write_json_report",
]
