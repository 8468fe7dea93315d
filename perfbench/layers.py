"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each boundary is named ``<package>.<module>.<function>`` after the callable
it covers, and reports two metrics per operation (per scenario, or per
request on ``forum-rw``): ``<name>.calls`` and ``<name>.self_ms``.  Which
end-to-end metric each boundary should move, on which workload, is listed in
``perfbench/README.md``.
"""

from __future__ import annotations

from .tracer import Boundary, Tracer


def _rows(args, result) -> int:
    return len(result)


def _is_get(args, result) -> int:
    return args[1].method == "GET"


def _storage(op: str, **kwargs) -> Boundary:
    return Boundary(
        f"webapps.storage.{op}",
        (f"repro.webapps.storage:DictBackend.{op}", f"repro.webapps.storage:SqliteBackend.{op}"),
        **kwargs,
    )


#: Boundaries reported as ``<name>.calls`` / ``<name>.self_ms``.
LAYERS = (
    Boundary("scenarios.runner.run", ("repro.scenarios.runner:ScenarioRunner.run",)),
    Boundary("scenarios.oracle.classify", ("repro.scenarios.oracle:DifferentialOracle.classify",)),
    Boundary("attacks.harness.build_environment", ("repro.attacks.harness:build_environment",)),
    Boundary("attacks.harness.login_user", ("repro.attacks.harness:login_user",)),
    Boundary("browser.browser.load", ("repro.browser.browser:Browser.load",)),
    Boundary("browser.browser.issue_request", ("repro.browser.browser:Browser.issue_request",)),
    Boundary("browser.browser.submit_form", ("repro.browser.browser:Browser.submit_form",)),
    Boundary("browser.loader.load_page", ("repro.browser.loader:load_page",)),
    Boundary("browser.compile_cache.entry", ("repro.browser.compile_cache:TemplateCache.entry",)),
    Boundary(
        "browser.compile_cache.labeled_tree",
        ("repro.browser.compile_cache:TemplateCache.labeled_tree",),
    ),
    Boundary("html.parser.build", ("repro.html.parser:TreeBuilder.build",)),
    Boundary("browser.labeler.label_document", ("repro.browser.labeler:PageLabeler.label_document",)),
    Boundary(
        "browser.script_runtime.run_document_scripts",
        ("repro.browser.script_runtime:ScriptRuntime.run_document_scripts",),
    ),
    Boundary("browser.script_runtime.execute", ("repro.browser.script_runtime:ScriptRuntime.execute",)),
    Boundary("scripting.vm.run", ("repro.scripting.vm:VirtualMachine.run",)),
    Boundary("browser.event_loop.settle", ("repro.browser.event_loop:EventLoop.settle",)),
    Boundary("browser.event_loop.advance", ("repro.browser.event_loop:EventLoop.advance",)),
    Boundary("browser.event_loop.drain", ("repro.browser.event_loop:EventLoop.drain",)),
    Boundary("http.network.dispatch", ("repro.http.network:Network.dispatch",)),
    Boundary(
        "webapps.framework.handle_request",
        ("repro.webapps.framework:WebApplication.handle_request",),
        count=_is_get,
    ),
    Boundary("webapps.framework.state_digest", ("repro.webapps.framework:WebApplication.state_digest",)),
    _storage("insert"),
    _storage("get"),
    _storage("all", count=_rows),
    _storage("select", count=_rows),
    _storage("update"),
    _storage("count"),
    Boundary("core.monitor.authorize", ("repro.core.monitor:ReferenceMonitor.authorize",)),
    Boundary(
        "core.monitor.authorize_all",
        ("repro.core.monitor:ReferenceMonitor.authorize_all",),
        count=_rows,
    ),
    # A generator: its work runs while the caller iterates, so only calls count.
    Boundary("dom.document.elements", ("repro.dom.document:Document.elements",), timed=False),
)

#: The public GET route handlers.  GET ``handle_request`` calls that reach
#: none of them were served from the response memo.
ROUTE_HANDLERS = Boundary(
    "webapps.routes.get",
    (
        "repro.webapps.phpbb:PhpBB.index",
        "repro.webapps.phpbb:PhpBB.view_topic",
        "repro.webapps.phpbb:PhpBB.private_messages",
        "repro.webapps.phpbb:PhpBB.api_unread",
        "repro.webapps.phpcalendar:PhpCalendar.month_view",
        "repro.webapps.phpcalendar:PhpCalendar.event_view",
        "repro.webapps.phpcalendar:PhpCalendar.api_event_count",
        "repro.webapps.blog:Blog.index",
        "repro.webapps.blog:Blog.view_post",
    ),
    timed=False,
)

#: The pool parent's warm-up, shipped to every worker.
WARM_SHIP = (
    Boundary("scenarios.runner.warm_for", ("repro.scenarios.runner:ScenarioRunner.warm_for",)),
    Boundary(
        "scenarios.runner.warm_snapshot", ("repro.scenarios.runner:ScenarioRunner.warm_snapshot",)
    ),
)

#: Boundaries whose every duration the end-to-end probe keeps.
READ, WRITE = "browser.browser.load", "browser.browser.submit_form"
RUN, CLASSIFY = "scenarios.runner.run", "scenarios.oracle.classify"

CACHE_TIERS = ("templates", "scripts", "code", "decisions")
POOL_METRICS = (
    ("pool.busy_share", "ratio", "higher"),
    ("pool.imbalance", "ratio", "lower"),
    ("pool.chunks_stolen", "count", "lower"),
    ("pool.warm_ship_ms", "ms", "lower"),
    ("pool.respawns", "count", "lower"),
)


def _by_name(names) -> tuple[Boundary, ...]:
    return tuple(b for b in LAYERS + WARM_SHIP if b.name in names)


def full_tracer() -> Tracer:
    """Every layer boundary plus the helpers the derived metrics need."""
    return Tracer(LAYERS + (ROUTE_HANDLERS,) + WARM_SHIP)


def probe_tracer(*, scenarios: bool) -> Tracer:
    """The end-to-end latency probe: page loads and form posts, nothing else.

    With ``scenarios`` (the pool, whose scenarios run inside workers) it
    also times each scenario's run and classification, and the parent's
    warm-up that is shipped to the workers.
    """
    sampled = {READ, WRITE, RUN, CLASSIFY} if scenarios else {READ, WRITE}
    names = sampled | ({b.name for b in WARM_SHIP} if scenarios else set())
    return Tracer(_by_name(names), samples=sampled)


def catalogue() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    metrics = []
    for boundary in LAYERS:
        metrics.append((f"{boundary.name}.calls", "count", "lower"))
        if boundary.timed:
            metrics.append((f"{boundary.name}.self_ms", "ms", "lower"))
    metrics += [(f"compile_cache.{tier}.hit_ratio", "ratio", "higher") for tier in CACHE_TIERS]
    metrics += [
        ("webapps.response_memo.hit_ratio", "ratio", "higher"),
        ("storage.rows_read", "count", "lower"),
        ("core.monitor.decisions", "count", "lower"),
    ]
    metrics += list(POOL_METRICS)
    metrics += [
        ("trace.overhead", "ratio", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
    ]
    return metrics


def cache_ratios(before: dict, after: dict) -> dict[str, float]:
    """Hit ratio per compile-cache tier over the counter delta ``after - before``.

    Both arguments map each tier to its ``hits`` and ``misses`` counters, as
    :meth:`CompileCaches.as_dict` does.
    """
    ratios = {}
    for tier in CACHE_TIERS:
        hits = after[tier]["hits"] - before[tier]["hits"]
        misses = after[tier]["misses"] - before[tier]["misses"]
        ratios[tier] = hits / (hits + misses) if hits + misses else 0.0
    return ratios


def per_layer_metrics(
    snapshot: dict,
    *,
    ops: int,
    traced_s: float,
    untraced_s: float,
    caches: dict[str, float],
    pool: dict[str, float] | None = None,
) -> dict[str, float]:
    """Every catalogue metric from one traced pass.

    ``traced_s`` is the time the traced pass spent inside its operations;
    ``untraced_s`` the same for the identical pass run untraced.

    The root spans are the operation's own entry points (``runner.run`` and
    ``oracle.classify`` per scenario, ``Browser.load`` or ``submit_form`` per
    request), so they cover the operations by construction.  Unattributed
    time is therefore what no boundary *below* them accounts for: the root
    spans' self time plus any time outside every span.
    """
    stats = snapshot["stats"]

    def stat(name: str) -> dict:
        return stats.get(name, {"calls": 0, "self_s": 0.0, "count": 0})

    metrics: dict[str, float] = {}
    for boundary in LAYERS:
        s = stat(boundary.name)
        metrics[f"{boundary.name}.calls"] = s["calls"] / ops
        if boundary.timed:
            metrics[f"{boundary.name}.self_ms"] = s["self_s"] * 1000.0 / ops
    for tier in CACHE_TIERS:
        metrics[f"compile_cache.{tier}.hit_ratio"] = caches.get(tier, 0.0)
    gets = stat("webapps.framework.handle_request")["count"]
    handled = stat(ROUTE_HANDLERS.name)["calls"]
    metrics["webapps.response_memo.hit_ratio"] = (gets - handled) / gets if gets else 0.0
    rows = stat("webapps.storage.all")["count"] + stat("webapps.storage.select")["count"]
    metrics["storage.rows_read"] = rows / ops
    decisions = stat("core.monitor.authorize")["calls"] + stat("core.monitor.authorize_all")["count"]
    metrics["core.monitor.decisions"] = decisions / ops
    for name, _unit, _better in POOL_METRICS:
        metrics[name] = (pool or {}).get(name, 0.0)
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    unattributed = traced_s - snapshot["covered_s"] + snapshot["root_self_s"]
    metrics["trace.unattributed_share"] = max(0.0, unattributed / traced_s)
    return metrics
