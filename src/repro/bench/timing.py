"""Timing helpers for the overhead experiments.

``pytest-benchmark`` drives the statistically careful measurements in
``benchmarks/``; the helpers here provide the plain loops used to print the
Figure-4 style table (per-scenario means with and without ESCUDO and the
relative overhead), both from the benchmark harness and from the
``examples/overhead_fig4.py`` script.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

from repro.browser.loader import LoaderOptions, load_page
from repro.core.monitor import ReferenceMonitor

from .workloads import MEDIATION_SPEC, MediationSpec, Workload, build_mediation_requests


@dataclass
class TimingSample:
    """Summary statistics of repeated executions of one pipeline variant."""

    mean_ms: float
    stdev_ms: float
    minimum_ms: float
    repetitions: int

    @classmethod
    def from_durations(cls, durations_s: list[float]) -> "TimingSample":
        millis = [d * 1000.0 for d in durations_s]
        return cls(
            mean_ms=statistics.fmean(millis),
            stdev_ms=statistics.pstdev(millis) if len(millis) > 1 else 0.0,
            minimum_ms=min(millis),
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
    #: Mediated accesses performed by the page's read sweep (see
    #: :func:`measure_page_mediation`).
    mediations: int = 0
    #: Throughput of that sweep through the reference monitor.
    mediations_per_second: float = 0.0

    @property
    def overhead_percent(self) -> float:
        """Relative slowdown of the ESCUDO pipeline over the baseline.

        Computed from the per-variant *minimum* times: on shared machines the
        mean is dominated by scheduler noise, while the minimum estimates the
        actual work each pipeline performs (the quantity Figure 4 compares).
        """
        baseline = self.without_escudo.minimum_ms
        if baseline <= 0:
            return 0.0
        return (self.with_escudo.minimum_ms - baseline) / baseline * 100.0


def time_callable(fn: Callable[[], object], repetitions: int) -> TimingSample:
    """Run ``fn`` ``repetitions`` times and summarise the wall-clock cost."""
    durations: list[float] = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        durations.append(time.perf_counter() - start)
    return TimingSample.from_durations(durations)


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


def measure_workload(workload: Workload, *, repetitions: int = 30) -> OverheadRow:
    """Measure one scenario with and without ESCUDO (Figure 4's comparison).

    The two variants are timed *interleaved* (baseline, ESCUDO, baseline,
    ESCUDO, ...) rather than in two separate blocks, so slow drift in machine
    load affects both variants equally instead of biasing whichever block ran
    during the busy period.
    """
    baseline_durations: list[float] = []
    escudo_durations: list[float] = []
    for _ in range(repetitions):
        start = time.perf_counter()
        parse_and_render(workload, escudo=False)
        baseline_durations.append(time.perf_counter() - start)
        start = time.perf_counter()
        parse_and_render(workload, escudo=True)
        escudo_durations.append(time.perf_counter() - start)
    without = TimingSample.from_durations(baseline_durations)
    with_escudo = TimingSample.from_durations(escudo_durations)
    sample_page = parse_and_render(workload, escudo=True)
    mediations, rate = measure_page_mediation(sample_page)
    return OverheadRow(
        scenario=workload.name,
        without_escudo=without,
        with_escudo=with_escudo,
        elements=sample_page.document.count_elements(),
        ac_tags=sample_page.labeling.ac_tags,
        mediations=mediations,
        mediations_per_second=rate,
    )


def measure_page_mediation(page, *, passes: int = 3) -> tuple[int, float]:
    """Exercise the mediated DOM read sweep on a loaded page.

    Loading alone performs no authorizations (labelling is not an access);
    the mediation figures of the Figure-4 table come from the access pattern
    scripts actually exhibit -- repeated ``read`` sweeps over every element
    -- driven through the DOM mediator's batch sweep.  Returns the number of
    mediated accesses and their throughput (mediations/second).
    """
    from repro.core.decision import Operation
    from repro.dom.dom_api import DomApi

    body = page.document.body
    principal = (
        page.principal_context_for(body) if body is not None else page.browser_principal()
    )
    api = DomApi(page.monitor, principal)
    elements = list(page.document.elements())
    before_total = page.monitor.stats.total
    start = time.perf_counter()
    for _ in range(passes):
        api.authorize_sweep(elements, Operation.READ)
    duration = time.perf_counter() - start
    mediations = page.monitor.stats.total - before_total
    rate = mediations / duration if duration > 0 else 0.0
    return mediations, rate


def measure_all(workloads: list[Workload], *, repetitions: int = 30) -> list[OverheadRow]:
    """Measure every scenario."""
    return [measure_workload(w, repetitions=repetitions) for w in workloads]


def average_overhead(rows: list[OverheadRow]) -> float:
    """Average relative overhead across scenarios (the paper reports 5.09 %)."""
    if not rows:
        return 0.0
    return statistics.fmean(row.overhead_percent for row in rows)


# -- mediation throughput ------------------------------------------------------------------


@dataclass
class MediationSample:
    """Reference-monitor throughput over one mediation request stream."""

    spec: MediationSpec
    total: int
    duration_s: float
    allowed: int
    denied: int

    @property
    def mediations_per_second(self) -> float:
        """Authorizations mediated per second."""
        return self.total / self.duration_s if self.duration_s > 0 else 0.0

    def as_dict(self) -> dict[str, object]:
        """Serialise for the ``BENCH_mediation.json`` artifact."""
        return {
            "workload": self.spec.name,
            "total_requests": self.spec.total_requests,
            "distinct_keys": self.spec.distinct_keys,
            "total": self.total,
            "duration_s": self.duration_s,
            "mediations_per_second": self.mediations_per_second,
            "allowed": self.allowed,
            "denied": self.denied,
        }


def measure_mediation(spec: MediationSpec = MEDIATION_SPEC) -> MediationSample:
    """Measure the per-access cost of mediation: the policy decides every request.

    One untimed pass over the stream warms the interpreter and CPU caches;
    the timed pass then mediates the same stream on a fresh monitor.
    """
    requests = build_mediation_requests(spec)
    warmup = ReferenceMonitor()
    for principal, target, operation in requests:
        warmup.authorize(principal, target, operation)
    monitor = ReferenceMonitor()
    authorize = monitor.authorize
    start = time.perf_counter()
    for principal, target, operation in requests:
        authorize(principal, target, operation)
    duration = time.perf_counter() - start
    return MediationSample(
        spec=spec,
        total=monitor.stats.total,
        duration_s=duration,
        allowed=monitor.stats.allowed,
        denied=monitor.stats.denied,
    )
