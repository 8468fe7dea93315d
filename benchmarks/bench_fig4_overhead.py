"""Figure 4: ESCUDO overhead on parsing and rendering.

The paper loads 8 pages with varying amounts of AC tags and dynamic content,
with and without ESCUDO, averaging 90 runs, and reports ≈5.09 % average
overhead.  These benchmarks time the same pipeline (parse → extract
configuration → label → render) on the 8 generated scenarios under both
models, and the summary benchmark writes the Figure-4 style table.

Expected shape: ESCUDO adds a small relative overhead that stays roughly
flat (low double digits at worst in this pure-Python pipeline) as pages grow.
"""

from __future__ import annotations

import pytest

from repro.bench import all_workloads, average_overhead, format_figure4, measure_all
from repro.bench.timing import parse_and_render

WORKLOADS = all_workloads()


@pytest.mark.parametrize("workload", WORKLOADS, ids=[w.name for w in WORKLOADS])
@pytest.mark.parametrize("model", ["without-escudo", "with-escudo"])
def test_fig4_parse_render(benchmark, workload, model):
    """Time one scenario under one model (the raw Figure 4 data points)."""
    escudo = model == "with-escudo"
    page = benchmark(lambda: parse_and_render(workload, escudo=escudo))
    assert page.document.count_elements() > 0
    if escudo:
        assert page.escudo_enabled
        assert page.labeling.ac_tags == workload.spec.ac_tags
    else:
        assert not page.escudo_enabled


def test_fig4_summary_table(benchmark, report_writer):
    """Regenerate the Figure-4 table and check the overhead's shape."""
    rows = benchmark.pedantic(
        lambda: measure_all(WORKLOADS, repetitions=45),
        rounds=1,
        iterations=1,
    )
    table = format_figure4(rows)
    report_writer("fig4_overhead", table)
    overhead = average_overhead(rows)
    # Paper: ~5 %.  The pure-Python pipeline has a much lighter baseline than
    # the Lobo browser, so the same per-tag bookkeeping is relatively more
    # visible; anything wildly larger indicates a regression.
    assert overhead < 60.0, f"average ESCUDO overhead unexpectedly high: {overhead:.1f}%"
    # Every scenario must actually have exercised ESCUDO bookkeeping.
    assert all(row.ac_tags > 0 for row in rows)

