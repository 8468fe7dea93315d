"""Compile-cache workloads: cold vs warm pipelines on identical inputs.

Three measurements, each pairing the baseline pipeline with the cached /
compiled stack on the *same* deterministic workload, plus a parity
certificate that the caches change nothing but speed:

* **Page compilation** -- the same response body through parse → label →
  render, cold per load vs served as template clones
  (``page_compile_speedup``; the serialized DOM, ring histogram and render
  statistics must be identical).
* **Script front end** -- the same source executed repeatedly, cold parse
  per run vs the shared script cache (``script_ast_speedup``).
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
from repro.html.serializer import serialize
from repro.scenarios.engine import run_suite
from repro.scenarios.model import canonical_spec_json
from repro.scripting.cache import ScriptCache
from repro.scripting.interpreter import Interpreter

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


def _measure_suite(seed, count: int, attack_ratio: float, rounds: int = 3) -> dict:
    """The full differential suite: cold runner, first warm pass, steady state.

    Three throughputs over the identical seed range at one worker:

    * **cold** -- the PR-3 pipeline (``compile_caches=False``), re-measured
      under the same conditions as the warm runs;
    * **warm (first pass)** -- a fresh worker with the compile-cache stack,
      paying every compile miss while it fills;
    * **steady state** -- the *same* worker re-running the identical range
      (the regression-replay / corpus-re-execution reality the per-worker
      stack exists for): templates and scripts are already resident.

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
    scenario_seed: int | str = 42,
    scenario_count: int = 25,
    attack_ratio: float = 0.25,
    scenario_rounds: int = 3,
    seed_baseline_path: Path | str | None = None,
) -> dict:
    """Run the three workloads and build the artifact payload."""
    page_compile = _measure_page_compile(page_loads)
    script_ast = _measure_script_ast(script_runs)
    scenarios = _measure_suite(
        scenario_seed, scenario_count, attack_ratio, rounds=scenario_rounds
    )

    payload = {
        "page_compile": page_compile,
        "script_ast": script_ast,
        "scenarios": scenarios,
        # Headline fields for dashboard consumers and the CI floor checks.
        "page_compile_speedup": page_compile["speedup"],
        "script_ast_speedup": script_ast["speedup"],
        "scenario_speedup": scenarios["speedup"],
        "scenario_steady_speedup": scenarios["steady_speedup"],
        # Headline throughput: the warm worker at steady state (the pinned
        # PR-3 baseline is compared against this).
        "scenarios_per_second": scenarios["steady_scenarios_per_second"],
        "verdict_parity": bool(
            scenarios["verdict_parity"]
            and page_compile["parity"]
            and script_ast["parity"]
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
    scenarios = payload["scenarios"]
    lines = [
        "compile caches (cold vs warm):",
        f"  page compile: {page['cold_loads_per_second']:,.0f} -> "
        f"{page['warm_loads_per_second']:,.0f} loads/s "
        f"({page['speedup']:.2f}x, template hit rate {page['template_hit_rate'] * 100.0:.1f}%)",
        f"  script front end: {script['cold_runs_per_second']:,.0f} -> "
        f"{script['warm_runs_per_second']:,.0f} runs/s ({script['speedup']:.2f}x)",
        f"  scenarios (1 worker): {scenarios['cold_scenarios_per_second']:,.1f} cold -> "
        f"{scenarios['warm_scenarios_per_second']:,.1f} first warm pass -> "
        f"{scenarios['steady_scenarios_per_second']:,.1f} steady scenarios/s "
        f"({scenarios['speedup']:.2f}x / {scenarios['steady_speedup']:.2f}x)",
        f"  verdict parity with caches enabled: {payload['verdict_parity']}",
    ]
    if "speedup_vs_seed" in payload:
        lines.append(
            f"  vs pinned PR-3 baseline: {payload['scenarios_per_second_seed']:,.1f} -> "
            f"{payload['scenarios_per_second']:,.1f} scenarios/s "
            f"({payload['speedup_vs_seed']:.2f}x)"
        )
    return "\n".join(lines)
