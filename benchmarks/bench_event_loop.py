"""Event-loop throughput: tasks/s drained, mediations/s under deferred load.

Runs the three event-loop workloads (raw scheduling, mediated timer
callbacks, deferred XHR completions), writes
``benchmarks/results/BENCH_event_loop.json`` for the CI ``event-loop`` job,
and asserts the structural claims that must hold on any hardware:

* every workload makes progress (positive throughput);
* every mediated timer callback records exactly one decision;
* every queued async XHR completes exactly once when the loop drains.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import (
    EVENT_LOOP_RESULTS_NAME,
    format_event_loop_report,
    measure_event_loop,
    write_json_report,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Fixed workload sizes so runs are comparable across commits.
TASK_COUNT = 20_000
TIMER_COUNT = 5_000
XHR_COUNT = 300


def test_event_loop_throughput(benchmark, report_writer):
    """Time the event-loop workloads and write the JSON artifact."""
    payload = benchmark.pedantic(
        lambda: measure_event_loop(
            task_count=TASK_COUNT, timer_count=TIMER_COUNT, xhr_count=XHR_COUNT
        ),
        rounds=1,
        iterations=1,
    )

    assert payload["tasks_per_second"] > 0
    assert payload["scheduling"]["tasks"] == TASK_COUNT

    mediated = payload["mediated_timers"]
    assert mediated["mediations"] == TIMER_COUNT, "every timer callback mediates once"
    assert payload["mediations_per_second"] > 0

    xhrs = payload["deferred_xhrs"]
    assert xhrs["completions"] == XHR_COUNT, "each queued send drains exactly once"
    assert xhrs["xhr_completions_per_second"] > 0

    path = write_json_report(payload, RESULTS_DIR / EVENT_LOOP_RESULTS_NAME)
    artifact = path.relative_to(RESULTS_DIR.parent.parent)
    report_writer("event_loop", format_event_loop_report(payload) + f"\n[json artifact: {artifact}]")
