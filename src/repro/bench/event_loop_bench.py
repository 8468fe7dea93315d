"""Event-loop throughput workload.

Three measurements, all on the deterministic virtual-clock loop:

* **Raw scheduling** -- how many trivial macrotasks per second one loop can
  enqueue and drain (``tasks_per_second``).  This is the floor cost every
  deferred behaviour pays.
* **Mediated deferred load** -- a loaded page schedules thousands of timer
  callbacks that each perform a mediated access, the loop drains, and the
  payload reports ``mediations_per_second``.
* **Deferred XHR completions** -- async ``send()``s queued and drained
  through the loop against the in-process network
  (``xhr_completions_per_second``).

The payload lands in ``benchmarks/results/BENCH_event_loop.json`` and is
uploaded by the CI ``event-loop`` job.
"""

from __future__ import annotations

import time

from repro.browser.browser import Browser
from repro.browser.event_loop import EventLoop
from repro.core.decision import Operation
from repro.http.messages import HttpRequest, HttpResponse
from repro.http.network import Network

#: Artifact name uploaded by the CI ``event-loop`` job.
EVENT_LOOP_RESULTS_NAME = "BENCH_event_loop.json"

ORIGIN = "http://bench.example.com"

#: A small ESCUDO page with ring-labelled scopes for the mediation workload.
PAGE_BODY = (
    "<!DOCTYPE html><html><head><title>bench</title></head><body>"
    '<div ring="1" r="1" w="1" x="1"><p id="chrome">chrome</p></div>'
    '<div ring="3" r="3" w="3" x="3"><p id="content">content</p></div>'
    "</body></html>"
)


class _BenchServer:
    """Serves the bench page at ``/`` and a constant body everywhere else."""

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        if request.url.path == "/":
            return HttpResponse(status=200, body=PAGE_BODY)
        return HttpResponse(status=200, body="ok")


def _drain_tasks(count: int) -> dict:
    """Raw loop throughput: ``count`` no-op macrotasks, enqueue + drain."""
    loop = EventLoop()
    sink: list[int] = []
    start = time.perf_counter()
    for index in range(count):
        loop.post(lambda index=index: sink.append(index))
    executed = loop.drain()
    elapsed = time.perf_counter() - start
    assert executed == count and len(sink) == count
    return {
        "tasks": count,
        "duration_s": elapsed,
        "tasks_per_second": count / elapsed if elapsed > 0 else 0.0,
    }


def _mediated_timers(count: int) -> dict:
    """``count`` timer callbacks each performing one mediated DOM access."""
    network = Network()
    network.register(ORIGIN, _BenchServer())
    browser = Browser(network, fetch_subresources=False)
    loaded = browser.load(f"{ORIGIN}/")
    page = loaded.page
    loop = page.event_loop
    monitor = page.monitor

    chrome = page.document.get_element_by_id("chrome")
    content = page.document.get_element_by_id("content")
    principal = page.principal_context_for(content)
    targets = [
        page.principal_context_for(chrome),
        page.principal_context_for(content),
    ]

    before = monitor.stats.total
    start = time.perf_counter()
    for index in range(count):
        target = targets[index % len(targets)]
        loop.set_timeout(
            lambda target=target: monitor.allows(principal, target, Operation.READ),
            float(index % 7),
        )
    loop.drain()
    elapsed = time.perf_counter() - start
    mediations = monitor.stats.total - before
    return {
        "timers": count,
        "mediations": mediations,
        "duration_s": elapsed,
        "mediations_per_second": mediations / elapsed if elapsed > 0 else 0.0,
    }


def _deferred_xhrs(count: int) -> dict:
    """``count`` async XHR completions queued and drained through the loop."""
    network = Network()
    network.register(ORIGIN, _BenchServer())
    browser = Browser(network, fetch_subresources=False)
    loaded = browser.load(f"{ORIGIN}/")
    source = (
        "var xhr = new XMLHttpRequest();"
        "xhr.open('GET', '/api/ping', true);"
        "xhr.send();"
    )
    start = time.perf_counter()
    for _ in range(count):
        browser.run_script(loaded, source, ring=0, drain=False)
    completed = browser.drain(loaded)
    elapsed = time.perf_counter() - start
    return {
        "xhrs": count,
        "completions": completed,
        "duration_s": elapsed,
        "xhr_completions_per_second": completed / elapsed if elapsed > 0 else 0.0,
    }


def measure_event_loop(
    *,
    task_count: int = 20_000,
    timer_count: int = 5_000,
    xhr_count: int = 300,
) -> dict:
    """Run the three workloads and build the artifact payload."""
    scheduling = _drain_tasks(task_count)
    mediated = _mediated_timers(timer_count)
    xhrs = _deferred_xhrs(xhr_count)
    return {
        "scheduling": scheduling,
        "mediated_timers": mediated,
        "deferred_xhrs": xhrs,
        "tasks_per_second": scheduling["tasks_per_second"],
        "mediations_per_second": mediated["mediations_per_second"],
    }


def format_event_loop_report(payload: dict) -> str:
    """Human-readable summary of the event-loop workloads."""
    scheduling = payload["scheduling"]
    mediated = payload["mediated_timers"]
    xhrs = payload["deferred_xhrs"]
    return "\n".join(
        [
            "event loop throughput:",
            f"  scheduling: {scheduling['tasks_per_second']:,.0f} tasks/s "
            f"({scheduling['tasks']} no-op macrotasks)",
            f"  mediated timers: {mediated['mediations_per_second']:,.0f} mediations/s "
            f"over {mediated['timers']} deferred callbacks",
            f"  deferred XHRs: {xhrs['xhr_completions_per_second']:,.0f} completions/s "
            f"({xhrs['completions']} queued sends drained)",
        ]
    )
