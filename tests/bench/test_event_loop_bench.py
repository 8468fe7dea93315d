"""Unit tests for the event-loop bench module (tiny workloads).

The real sweep runs in ``benchmarks/bench_event_loop.py``; these tests keep
the module's logic under tier-1 coverage with workloads small enough to be
free, and pin the payload schema the CI artifact consumers read.
"""

from __future__ import annotations

import json

from repro.bench import (
    format_event_loop_report,
    measure_event_loop,
    write_json_report,
)


def test_measure_event_loop_payload_schema(tmp_path):
    payload = measure_event_loop(task_count=50, timer_count=30, xhr_count=4)

    assert payload["scheduling"]["tasks"] == 50
    assert payload["scheduling"]["tasks_per_second"] > 0
    assert payload["mediated_timers"]["mediations"] == 30
    assert payload["deferred_xhrs"]["completions"] == 4
    # Headline keys mirror the nested sections for dashboard consumers.
    assert payload["tasks_per_second"] == payload["scheduling"]["tasks_per_second"]
    assert payload["mediations_per_second"] == payload["mediated_timers"]["mediations_per_second"]

    report = format_event_loop_report(payload)
    assert "tasks/s" in report and "mediations/s" in report

    path = write_json_report(payload, tmp_path / "BENCH_event_loop.json")
    assert json.loads(path.read_text(encoding="utf-8")) == payload
