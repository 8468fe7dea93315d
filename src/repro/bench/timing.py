"""Timing helpers for the overhead experiments.

``pytest-benchmark`` drives the statistically careful measurements in
``benchmarks/``; the helpers here provide the plain loops used to print the
Figure-4 style table (per-scenario medians with and without ESCUDO and the
relative overhead), both from the benchmark harness and from the
``examples/overhead_fig4.py`` script.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from repro.browser.loader import LoaderOptions, load_page

from .workloads import Workload


@dataclass
class TimingSample:
    """Summary statistics of repeated executions of one pipeline variant."""

    mean_ms: float
    stdev_ms: float
    median_ms: float
    repetitions: int

    @classmethod
    def from_durations(cls, durations_s: list[float]) -> "TimingSample":
        millis = [d * 1000.0 for d in durations_s]
        return cls(
            mean_ms=statistics.fmean(millis),
            stdev_ms=statistics.pstdev(millis) if len(millis) > 1 else 0.0,
            median_ms=statistics.median(millis),
            repetitions=len(millis),
        )


@dataclass
class OverheadRow:
    """One row of the Figure-4 table."""

    scenario: str
    without_escudo: TimingSample
    with_escudo: TimingSample
    elements: int
    ac_tags: int
    #: ESCUDO time over baseline time for each interleaved pair of loads.
    pair_ratios: tuple[float, ...] = ()

    @property
    def overhead_percent(self) -> float:
        """Relative slowdown of the ESCUDO pipeline over the baseline.

        The median of the per-pair ratios: the two loads of a pair run back
        to back, so machine load that slows one slows both, and the median
        keeps one lucky or unlucky pair from moving the figure.  A row
        without pairs reads 0.
        """
        if not self.pair_ratios:
            return 0.0
        return (statistics.median(self.pair_ratios) - 1.0) * 100.0


def parse_and_render(workload: Workload, *, escudo: bool):
    """Run the loader pipeline once on a workload variant and return the page.

    The comparison mirrors the paper's: the *same* ESCUDO-configured page is
    loaded by a browser with ESCUDO enforcement ("with Escudo") and by a
    legacy browser that parses but ignores the AC attributes and headers
    ("without Escudo").  The difference is therefore exactly the cost of the
    ESCUDO bookkeeping -- configuration extraction, nonce validation and
    security-context tracking -- not the cost of the extra markup bytes.
    """
    if escudo:
        options = LoaderOptions(model="escudo")
        return load_page(workload.escudo_html, workload.url,
                         configuration=workload.configuration, options=options)
    options = LoaderOptions(model="sop")
    return load_page(workload.escudo_html, workload.url, configuration=None, options=options)


def _timed_load(workload: Workload, *, escudo: bool) -> float:
    """Seconds one load takes; the page is closed and freed after the clock stops."""
    start = time.perf_counter()
    page = parse_and_render(workload, escudo=escudo)
    duration = time.perf_counter() - start
    page.close()
    return duration


def measure_workload(workload: Workload, *, repetitions: int = 30) -> OverheadRow:
    """Measure one scenario with and without ESCUDO (Figure 4's comparison).

    The two variants are timed *interleaved* (baseline, ESCUDO, baseline,
    ESCUDO, ...) rather than in two separate blocks, so slow drift in machine
    load affects both loads of a pair equally; the overhead is the median of
    the pairs' ratios.
    """
    baseline_durations: list[float] = []
    escudo_durations: list[float] = []
    for _ in range(repetitions):
        baseline_durations.append(_timed_load(workload, escudo=False))
        escudo_durations.append(_timed_load(workload, escudo=True))
    sample_page = parse_and_render(workload, escudo=True)
    row = OverheadRow(
        scenario=workload.name,
        without_escudo=TimingSample.from_durations(baseline_durations),
        with_escudo=TimingSample.from_durations(escudo_durations),
        elements=sample_page.document.count_elements(),
        ac_tags=sample_page.labeling.ac_tags,
        pair_ratios=tuple(
            escudo / baseline for baseline, escudo in zip(baseline_durations, escudo_durations)
        ),
    )
    sample_page.close()
    return row


def measure_all(workloads: list[Workload], *, repetitions: int = 30) -> list[OverheadRow]:
    """Measure every scenario."""
    return [measure_workload(w, repetitions=repetitions) for w in workloads]


def average_overhead(rows: list[OverheadRow]) -> float:
    """Average relative overhead across scenarios (the paper reports 5.09 %)."""
    if not rows:
        return 0.0
    return statistics.fmean(row.overhead_percent for row in rows)
