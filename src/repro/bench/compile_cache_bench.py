"""Compile-cache workloads: cold vs warm pipelines on identical inputs.

Five measurements, each pairing the baseline pipeline with the cached /
compiled stack on the *same* deterministic workload, plus a parity
certificate that the caches change nothing but speed:

* **Page compilation** -- the same response body through parse → label →
  render, cold per load vs served as template clones
  (``page_compile_speedup``; the serialized DOM, ring histogram and render
  statistics must be identical).
* **Script front end** -- the same source executed repeatedly, cold parse
  per run vs the shared script cache (``script_ast_speedup``).
* **Script execution** -- a script-heavy payload on a warm front end, AST
  walker vs the bytecode VM with shared inline caches
  (``script_vm_speedup``; identical completion values required).
* **Warm-start mediation** -- per-page *fresh* reference monitors performing
  the repeated-access sweep of the mediation benchmark, each with its own
  decision cache (the cold-start reality the scenario engine used to pay)
  vs monitors sharing one pre-warmed decision cache and policy instance
  (``mediation_warm_speedup``; per-request verdicts must be identical).
* **Scenario throughput** -- the full differential suite at one worker:
  cold runner, a fresh warm worker's first pass (``scenario_speedup``), and
  the same worker re-running the identical range at steady state
  (``scenario_steady_speedup`` -- the amortised cross-scenario number the
  per-worker stack exists for).  Byte-identical ``parity_dict`` reports are
  required for every pass (``verdict_parity``).  When the pinned PR-3
  baseline artifact is available, ``scenarios_per_second_seed`` /
  ``speedup_vs_seed`` compare the steady-state throughput against it.

The payload lands in ``benchmarks/results/BENCH_compile_cache.json`` and is
uploaded by the CI ``perf-smoke`` job, which asserts the committed floors.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.browser.compile_cache import CompileCaches
from repro.browser.loader import LoaderOptions, load_page
from repro.core.monitor import ReferenceMonitor
from repro.core.policy import EscudoPolicy
from repro.html.serializer import serialize
from repro.scenarios.engine import run_suite
from repro.scenarios.model import canonical_spec_json
from repro.scripting.cache import ScriptCache
from repro.scripting.interpreter import Interpreter
from repro.scripting.vm import VirtualMachine

from .workloads import MediationSpec, build_mediation_requests

#: Artifact name uploaded by the CI ``perf-smoke`` job.
COMPILE_CACHE_RESULTS_NAME = "BENCH_compile_cache.json"

#: Pinned PR-3 scenario throughput (the pre-compile-cache baseline).
SEED_SCENARIOS_NAME = "BENCH_scenarios_seed.json"

PAGE_URL = "http://bench.example.com/page"

#: A representative ESCUDO page: labelled scopes, nonced terminators, text.
PAGE_BODY = (
    "<!DOCTYPE html><html><head><title>compile bench</title>"
    "<script>var version = 1;</script></head><body>"
    '<div ring="1" r="1" w="1" x="1" nonce="aaaa1111bbbb2222">'
    '<h1 id="banner">Forum</h1><p>Navigation chrome with some text.</p>'
    "</div nonce=\"aaaa1111bbbb2222\">"
    + "".join(
        f'<div ring="3" r="3" w="3" x="3" nonce="cccc{i:04d}dddd3333">'
        f'<p id="msg-{i}">User message number {i} with a little prose in it.</p>'
        f"</div nonce=\"cccc{i:04d}dddd3333\">"
        for i in range(12)
    )
    + "</body></html>"
)

SCRIPT_SOURCE = (
    "var total = 0;"
    "for (var i = 0; i < 5; i = i + 1) { total = total + i; }"
    "total;"
)

#: A script-heavy scenario payload in the shape of real page scripts: loops
#: over object rows, member reads, method calls, string building.  This is
#: the workload class where execution (not the front end) dominates, i.e.
#: where the bytecode VM and its inline caches earn their keep.
VM_SCRIPT_SOURCE = """
var rows = [];
for (var i = 0; i < 30; i = i + 1) {
    rows.push({id: i, weight: i % 7, label: 'row-' + i});
}
var score = 0;
var labels = '';
for (var i = 0; i < rows.length; i = i + 1) {
    var row = rows[i];
    for (var j = 0; j < 16; j = j + 1) {
        score = score + row.weight * j % 7;
    }
    if (row.id % 3 == 0) {
        labels = labels + row.label + '|';
    }
}
var parts = labels.split('|');
var total = 0;
for (var i = 0; i < parts.length; i = i + 1) {
    total = total + parts[i].length;
}
score + total;
"""


def _measure_page_compile(loads: int) -> dict:
    """The same body through the load pipeline, cold vs template-served."""
    options = LoaderOptions()

    start = time.perf_counter()
    for _ in range(loads):
        cold_page = load_page(PAGE_BODY, PAGE_URL, options=options)
    cold_s = time.perf_counter() - start

    caches = CompileCaches.build()
    start = time.perf_counter()
    for _ in range(loads):
        warm_page = load_page(PAGE_BODY, PAGE_URL, options=options, caches=caches)
    warm_s = time.perf_counter() - start

    parity = (
        serialize(warm_page.document) == serialize(cold_page.document)
        and warm_page.ring_histogram() == cold_page.ring_histogram()
        and warm_page.rendering == cold_page.rendering
        and warm_page.escudo_enabled == cold_page.escudo_enabled
        and warm_page.ignored_end_tags == cold_page.ignored_end_tags
    )
    return {
        "loads": loads,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_loads_per_second": loads / cold_s if cold_s > 0 else 0.0,
        "warm_loads_per_second": loads / warm_s if warm_s > 0 else 0.0,
        "speedup": cold_s / warm_s if warm_s > 0 else 0.0,
        "parity": parity,
        "template_hit_rate": caches.templates.hit_rate,
    }


def _measure_script_ast(runs: int) -> dict:
    """The same source executed repeatedly, cold front end vs the script cache."""
    start = time.perf_counter()
    for _ in range(runs):
        cold_result = Interpreter().run(SCRIPT_SOURCE)
    cold_s = time.perf_counter() - start

    cache = ScriptCache()
    start = time.perf_counter()
    for _ in range(runs):
        warm_result = Interpreter().run(cache.parse(SCRIPT_SOURCE))
    warm_s = time.perf_counter() - start

    return {
        "runs": runs,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_runs_per_second": runs / cold_s if cold_s > 0 else 0.0,
        "warm_runs_per_second": runs / warm_s if warm_s > 0 else 0.0,
        "speedup": cold_s / warm_s if warm_s > 0 else 0.0,
        "parity": (warm_result.value == cold_result.value and not warm_result.failed),
        "ast_hit_rate": cache.as_dict()["scripts"]["hit_rate"],
    }


def _measure_script_vm(runs: int, rounds: int = 3) -> dict:
    """Script execution on a script-heavy payload: AST walker vs bytecode VM.

    Both engines run with a warm front end (the walker executes the cached
    AST, the VM executes the cached :class:`CodeObject`), so the measured
    difference is pure execution -- the tier this PR adds.  Each run builds
    a fresh engine, like one page-load principal; the compiled code (and its
    inline caches) is shared through the script cache, like one worker's
    cache stack.  Per-engine times are best-of-``rounds`` (the minimum-time
    estimator -- scheduler noise only ever slows a round down), applied to
    walker and VM alike.
    """
    cache = ScriptCache()
    program = cache.parse(VM_SCRIPT_SOURCE)
    code = cache.code_for(VM_SCRIPT_SOURCE)
    rounds = max(1, rounds)

    # Warm-up (also primes the shared inline caches, untimed).
    walker_result = Interpreter().run(program)
    vm_result = VirtualMachine().run(code)

    walker_s = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(runs):
            walker_result = Interpreter().run(program)
        walker_s = min(walker_s, time.perf_counter() - start)

    vm_s = float("inf")
    ic_hits = 0
    ic_misses = 0
    for _ in range(rounds):
        ic_hits = 0
        ic_misses = 0
        start = time.perf_counter()
        for _ in range(runs):
            vm = VirtualMachine()
            vm_result = vm.run(code)
            ic_hits += vm.ic_hits
            ic_misses += vm.ic_misses
        vm_s = min(vm_s, time.perf_counter() - start)

    ic_total = ic_hits + ic_misses
    return {
        "runs": runs,
        "rounds": rounds,
        "walker_s": walker_s,
        "vm_s": vm_s,
        "walker_scripts_per_second": runs / walker_s if walker_s > 0 else 0.0,
        "vm_scripts_per_second": runs / vm_s if vm_s > 0 else 0.0,
        "speedup": walker_s / vm_s if vm_s > 0 else 0.0,
        "ic_hit_rate": ic_hits / ic_total if ic_total else 0.0,
        "parity": (
            vm_result.value == walker_result.value
            and not vm_result.failed
            and not walker_result.failed
        ),
    }


def _measure_warm_mediation(pages: int, spec: MediationSpec | None = None) -> dict:
    """Per-page fresh monitors: private cold caches vs one pre-warmed cache.

    Each simulated page gets a brand-new :class:`ReferenceMonitor` -- the
    scenario engine's reality -- and mediates the repeated-access sweep once.
    Cold-start monitors own a fresh decision cache and policy, so every page
    re-evaluates every distinct request; warm-start monitors share the
    stack's pre-warmed cache and policy instance, so every request is a
    lookup.  Verdicts are compared per request.
    """
    spec = spec or MediationSpec()
    # One pass over every distinct (principal, target, operation) triple per
    # page: a page load decides each distinct request about once, which is
    # the least cache-friendly shape (repeats only help the warm variant
    # further).
    requests = build_mediation_requests(
        MediationSpec(
            name=spec.name,
            principal_rings=spec.principal_rings,
            distinct_targets=spec.distinct_targets,
            operations=spec.operations,
            total_requests=spec.distinct_keys,
        )
    )

    cold_verdicts: list[bool] = []
    start = time.perf_counter()
    for _ in range(pages):
        monitor = ReferenceMonitor(EscudoPolicy(), cache=True)
        cold_verdicts = [monitor.authorize(p, t, op).allowed for p, t, op in requests]
    cold_s = time.perf_counter() - start

    caches = CompileCaches.build()
    shared_policy = EscudoPolicy()
    # Pre-warm: one untimed monitor fills the shared cache (the stack's
    # policy-matrix seeding, condensed).
    seed_monitor = ReferenceMonitor(shared_policy, cache=caches.decisions)
    seed_monitor.warm(requests[0][0], [t for _, t, _ in requests], requests[0][2])
    for principal, target, operation in requests:
        seed_monitor.authorize(principal, target, operation)

    warm_verdicts: list[bool] = []
    start = time.perf_counter()
    for _ in range(pages):
        monitor = ReferenceMonitor(shared_policy, cache=caches.decisions)
        warm_verdicts = [monitor.authorize(p, t, op).allowed for p, t, op in requests]
    warm_s = time.perf_counter() - start

    mediations = pages * len(requests)
    return {
        "pages": pages,
        "requests_per_page": len(requests),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_mediations_per_second": mediations / cold_s if cold_s > 0 else 0.0,
        "warm_mediations_per_second": mediations / warm_s if warm_s > 0 else 0.0,
        "speedup": cold_s / warm_s if warm_s > 0 else 0.0,
        "parity": warm_verdicts == cold_verdicts,
        "shared_cache_hit_rate": caches.decisions.hit_rate,
    }


def _measure_scenarios(seed, count: int, attack_ratio: float, rounds: int = 3) -> dict:
    """The full differential suite: cold runner, first warm pass, steady state.

    Three throughputs over the identical seed range at one worker:

    * **cold** -- the PR-3 pipeline (``compile_caches=False``), re-measured
      under the same conditions as the warm runs;
    * **warm (first pass)** -- a fresh worker with the compile-cache stack,
      paying every compile miss while it fills;
    * **steady state** -- the *same* worker re-running the identical range
      (the regression-replay / corpus-re-execution reality the per-worker
      stack exists for): templates, ASTs and decisions are already resident.

    Cold and steady-state throughputs are best-of-``rounds`` (the
    minimum-time estimator -- scheduler noise on shared hardware only ever
    *lowers* a round's throughput, so the max is the least-noise estimate,
    applied to baseline and cached variant alike).  The first warm pass is
    inherently a single shot: it is the pass that fills the caches.  Every
    pass must produce a byte-identical semantic report.
    """
    from repro.scenarios.runner import ScenarioRunner

    rounds = max(1, rounds)
    cold_runs = [
        run_suite(seed=seed, count=count, attack_ratio=attack_ratio, compile_caches=False)
        for _ in range(rounds)
    ]
    cold = max(cold_runs, key=lambda suite: suite.scenarios_per_second)
    worker = ScenarioRunner()
    warm = run_suite(seed=seed, count=count, attack_ratio=attack_ratio, runner=worker)
    steady_runs = [
        run_suite(seed=seed, count=count, attack_ratio=attack_ratio, runner=worker)
        for _ in range(rounds)
    ]
    steady = max(steady_runs, key=lambda suite: suite.scenarios_per_second)
    baseline_parity = canonical_spec_json(cold.parity_dict())
    return {
        "seed": cold.seed,
        "count": count,
        "attack_ratio": attack_ratio,
        "rounds": rounds,
        "cold_rounds": [suite.scenarios_per_second for suite in cold_runs],
        "steady_rounds": [suite.scenarios_per_second for suite in steady_runs],
        "cold_scenarios_per_second": cold.scenarios_per_second,
        "warm_scenarios_per_second": warm.scenarios_per_second,
        "steady_scenarios_per_second": steady.scenarios_per_second,
        "speedup": (
            warm.scenarios_per_second / cold.scenarios_per_second
            if cold.scenarios_per_second > 0
            else 0.0
        ),
        "steady_speedup": (
            steady.scenarios_per_second / cold.scenarios_per_second
            if cold.scenarios_per_second > 0
            else 0.0
        ),
        "cold_ok": all(suite.ok for suite in cold_runs),
        "warm_ok": warm.ok and all(suite.ok for suite in steady_runs),
        "warm_cache_hit_rate": warm.cache_hit_rate,
        "steady_cache_hit_rate": steady.cache_hit_rate,
        # Byte-identical semantic reports: verdicts, digests, mediation and
        # denial counts must not depend on the caches (cold or warm, first
        # pass or steady state).
        "verdict_parity": (
            canonical_spec_json(warm.parity_dict()) == baseline_parity
            and all(
                canonical_spec_json(suite.parity_dict()) == baseline_parity
                for suite in steady_runs
            )
        ),
    }


def measure_compile_cache(
    *,
    page_loads: int = 60,
    script_runs: int = 300,
    script_vm_runs: int = 200,
    mediation_pages: int = 60,
    scenario_seed: int | str = 42,
    scenario_count: int = 25,
    attack_ratio: float = 0.25,
    scenario_rounds: int = 3,
    seed_baseline_path: Path | str | None = None,
) -> dict:
    """Run the five workloads and build the artifact payload."""
    page_compile = _measure_page_compile(page_loads)
    script_ast = _measure_script_ast(script_runs)
    script_vm = _measure_script_vm(script_vm_runs)
    warm_mediation = _measure_warm_mediation(mediation_pages)
    scenarios = _measure_scenarios(
        scenario_seed, scenario_count, attack_ratio, rounds=scenario_rounds
    )

    payload = {
        "page_compile": page_compile,
        "script_ast": script_ast,
        "script_vm": script_vm,
        "warm_mediation": warm_mediation,
        "scenarios": scenarios,
        # Headline fields for dashboard consumers and the CI floor checks.
        "page_compile_speedup": page_compile["speedup"],
        "script_ast_speedup": script_ast["speedup"],
        "script_vm_speedup": script_vm["speedup"],
        "mediation_warm_speedup": warm_mediation["speedup"],
        "scenario_speedup": scenarios["speedup"],
        "scenario_steady_speedup": scenarios["steady_speedup"],
        # Headline throughput: the warm worker at steady state (the pinned
        # PR-3 baseline is compared against this).
        "scenarios_per_second": scenarios["steady_scenarios_per_second"],
        "verdict_parity": bool(
            scenarios["verdict_parity"]
            and page_compile["parity"]
            and script_ast["parity"]
            and script_vm["parity"]
            and warm_mediation["parity"]
        ),
    }

    baseline = _load_seed_baseline(seed_baseline_path)
    if baseline is not None:
        payload["scenarios_per_second_seed"] = baseline
        payload["speedup_vs_seed"] = (
            payload["scenarios_per_second"] / baseline if baseline > 0 else 0.0
        )
    return payload


def _load_seed_baseline(path: Path | str | None) -> float | None:
    """The PR-3 baseline's scenarios/s, or ``None`` when unavailable."""
    if path is None:
        return None
    target = Path(path)
    if not target.exists():
        return None
    try:
        data = json.loads(target.read_text(encoding="utf-8"))
        return float(data["scenarios_per_second"])
    except (ValueError, KeyError, TypeError):
        return None


def format_compile_cache_report(payload: dict) -> str:
    """Human-readable summary of the compile-cache workloads."""
    page = payload["page_compile"]
    script = payload["script_ast"]
    vm = payload["script_vm"]
    mediation = payload["warm_mediation"]
    scenarios = payload["scenarios"]
    lines = [
        "compile caches (cold vs warm):",
        f"  page compile: {page['cold_loads_per_second']:,.0f} -> "
        f"{page['warm_loads_per_second']:,.0f} loads/s "
        f"({page['speedup']:.2f}x, template hit rate {page['template_hit_rate'] * 100.0:.1f}%)",
        f"  script front end: {script['cold_runs_per_second']:,.0f} -> "
        f"{script['warm_runs_per_second']:,.0f} runs/s ({script['speedup']:.2f}x)",
        f"  script execution: {vm['walker_scripts_per_second']:,.0f} walker -> "
        f"{vm['vm_scripts_per_second']:,.0f} VM scripts/s ({vm['speedup']:.2f}x, "
        f"IC hit rate {vm['ic_hit_rate'] * 100.0:.1f}%)",
        f"  warm-start mediation: {mediation['cold_mediations_per_second']:,.0f} -> "
        f"{mediation['warm_mediations_per_second']:,.0f} mediations/s "
        f"({mediation['speedup']:.2f}x over fresh per-page caches)",
        f"  scenarios (1 worker): {scenarios['cold_scenarios_per_second']:,.1f} cold -> "
        f"{scenarios['warm_scenarios_per_second']:,.1f} first warm pass -> "
        f"{scenarios['steady_scenarios_per_second']:,.1f} steady scenarios/s "
        f"({scenarios['speedup']:.2f}x / {scenarios['steady_speedup']:.2f}x, "
        f"decision-cache hit rate {scenarios['warm_cache_hit_rate'] * 100.0:.1f}%)",
        f"  verdict parity with caches enabled: {payload['verdict_parity']}",
    ]
    if "speedup_vs_seed" in payload:
        lines.append(
            f"  vs pinned PR-3 baseline: {payload['scenarios_per_second_seed']:,.1f} -> "
            f"{payload['scenarios_per_second']:,.1f} scenarios/s "
            f"({payload['speedup_vs_seed']:.2f}x)"
        )
    return "\n".join(lines)


def write_compile_cache_report(payload: dict, path: Path | str) -> Path:
    """Serialise the payload as the JSON artifact at ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return target
