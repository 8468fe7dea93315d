"""Tests for the overhead-measurement helpers behind Figure 4."""

from __future__ import annotations

from unittest import mock

from repro.bench import timing
from repro.bench.reporting import format_defense_matrix, format_figure4, format_policy_table, format_table
from repro.bench.timing import (
    TimingSample,
    average_overhead,
    measure_all,
    measure_workload,
    parse_and_render,
)
from repro.bench.workloads import SCENARIOS, build_workload
from repro.browser.page import Page


class TestTimingPrimitives:
    def test_timing_sample_statistics(self):
        sample = TimingSample.from_durations([0.001, 0.002, 0.006])
        assert abs(sample.mean_ms - 3.0) < 1e-9
        assert sample.median_ms == 2.0
        assert sample.repetitions == 3

    def test_single_duration_has_zero_stdev(self):
        assert TimingSample.from_durations([0.001]).stdev_ms == 0.0


class TestOverheadMeasurement:
    def test_parse_and_render_variants(self):
        workload = build_workload(SCENARIOS[0])
        with_escudo = parse_and_render(workload, escudo=True)
        without = parse_and_render(workload, escudo=False)
        assert with_escudo.escudo_enabled
        assert not without.escudo_enabled
        assert with_escudo.document.count_elements() == without.document.count_elements()

    def test_measure_workload_produces_a_complete_row(self):
        row = measure_workload(build_workload(SCENARIOS[0]), repetitions=3)
        assert row.scenario == SCENARIOS[0].name
        assert row.elements > 0
        assert row.ac_tags == SCENARIOS[0].ac_tags
        assert row.with_escudo.repetitions == 3
        assert len(row.pair_ratios) == 3
        assert isinstance(row.overhead_percent, float)

    def test_measure_workload_closes_every_page_it_builds(self):
        close = mock.patch.object(Page, "close", autospec=True, side_effect=Page.close)
        with close as closed:
            measure_workload(build_workload(SCENARIOS[0]), repetitions=3)
        # Two timed loads per pair, plus the one page the mediation sweep reads.
        assert closed.call_count == 2 * 3 + 1

    def test_measure_workload_pairs_interleaved_loads(self):
        calls: list[bool] = []

        def fake_load(workload, *, escudo):
            calls.append(escudo)
            pair = (len(calls) - 1) // 2
            return 0.002 * (pair + 1) if escudo else 0.001 * (pair + 1)

        with mock.patch.object(timing, "_timed_load", side_effect=fake_load):
            row = measure_workload(build_workload(SCENARIOS[0]), repetitions=4)
        assert calls == [False, True] * 4
        # Each pair is one baseline load and the ESCUDO load right after it.
        assert row.pair_ratios == (2.0, 2.0, 2.0, 2.0)
        assert abs(row.overhead_percent - 100.0) < 1e-9

    def test_measure_all_and_average(self):
        rows = measure_all([build_workload(spec) for spec in SCENARIOS[:2]], repetitions=2)
        assert len(rows) == 2
        assert isinstance(average_overhead(rows), float)
        assert average_overhead([]) == 0.0

    def test_zero_baseline_does_not_divide_by_zero(self):
        sample = TimingSample(mean_ms=0.0, stdev_ms=0.0, median_ms=0.0, repetitions=1)
        from repro.bench.timing import OverheadRow

        row = OverheadRow(scenario="x", without_escudo=sample, with_escudo=sample, elements=1, ac_tags=0)
        assert row.overhead_percent == 0.0

    def test_overhead_is_the_median_pair_ratio(self):
        from repro.bench.timing import OverheadRow

        sample = TimingSample(mean_ms=1.0, stdev_ms=0.0, median_ms=1.0, repetitions=3)
        row = OverheadRow(
            scenario="x", without_escudo=sample, with_escudo=sample, elements=1, ac_tags=0,
            pair_ratios=(1.1, 3.0, 1.2),
        )
        # One outlying pair (3.0) does not move the median.
        assert abs(row.overhead_percent - 20.0) < 1e-9


class TestReportFormatting:
    def test_format_table_includes_headers_rows_and_title(self):
        text = format_table(("a", "b"), [(1, 2), (3, 4)], title="My table")
        assert "My table" in text
        assert "a" in text and "b" in text
        assert "3" in text and "4" in text

    def test_format_figure4_reports_every_scenario_and_the_average(self):
        rows = measure_all([build_workload(spec) for spec in SCENARIOS[:2]], repetitions=2)
        text = format_figure4(rows)
        for spec in SCENARIOS[:2]:
            assert spec.name in text
        assert "%" in text

    def test_format_defense_matrix(self):
        from repro.attacks.harness import AttackResult

        matrix = {
            "escudo": [AttackResult("a1", "phpbb", "xss", "escudo", succeeded=False)],
            "sop": [AttackResult("a1", "phpbb", "xss", "sop", succeeded=True)],
        }
        text = format_defense_matrix(matrix)
        assert "a1" in text
        assert "escudo" in text and "sop" in text

    def test_format_policy_table(self):
        text = format_policy_table(
            "ESCUDO security configuration for phpBB",
            columns=("Cookies", "XMLHttpRequest"),
            ring_row=(1, 1),
            acl_rows={"Read access": ("<=1", "<=1")},
        )
        assert "phpBB" in text
        assert "Cookies" in text
        assert "Read access" in text
