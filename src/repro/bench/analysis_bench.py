"""Static-analysis workload: analyzer throughput and screened-suite overhead.

Three measurements back the ISSUE's performance claims for the analysis
tier:

* **cold throughput** -- scripts analyzed per second with no memoisation,
  over a corpus mixing every attack family's payloads, the webapps' own
  head/chrome scripts and synthetic variants;
* **memoised throughput** -- the same corpus served through
  :meth:`~repro.scripting.cache.ScriptCache.report_for`, with its hit
  rate (re-serving a script must cost a digest, not a dataflow fixpoint);
* **screened-suite overhead** -- wall-clock of a scenario suite with the
  soundness screen attached vs. detached, plus the digest-parity bit
  proving observation is passive.  The CI gate pins overhead < 10%.

The JSON artifact lands in ``benchmarks/results/BENCH_analysis.json``; the
CI ``static-analysis`` job regenerates it and uploads it.
"""

from __future__ import annotations

import re
import time

from repro.scenarios.generator import ScenarioGenerator
from repro.scenarios.runner import ScenarioRunner
from repro.scripting.analysis import analyze_source, script_digest
from repro.scripting.cache import ScriptCache

from .reporting import format_table

#: Default artifact location (relative to the repository root).
ANALYSIS_RESULTS_NAME = "BENCH_analysis.json"

_SCRIPT_RE = re.compile(r"<script>(.*?)</script>", re.S)


def _attack_scripts() -> list[str]:
    from repro.attacks import csrf, node_splitting, privilege_escalation, toctou, xss

    payloads = [
        xss.payload_post_as_victim("/posting?mode=reply"),
        xss.payload_steal_cookie(),
        xss.payload_modify_element("post-body-1", "pwned"),
        xss.payload_deface_chrome("whoami", "haha"),
        csrf._lure_with_xhr("http://app.example.com", "/posting"),
        toctou.payload_deferred_post("/posting?mode=reply"),
        node_splitting.node_splitting_payload(),
        privilege_escalation.payload_remap_own_scope(),
        privilege_escalation.payload_create_privileged_child(),
    ]
    scripts = []
    for payload in payloads:
        match = _SCRIPT_RE.search(payload)
        if match:
            scripts.append(match.group(1))
    return scripts


def _benign_scripts() -> list[str]:
    from repro.webapps.blog import DEFAULT_AD_SCRIPT

    poller = (
        "var xhr = new XMLHttpRequest();"
        "xhr.open('GET', '/api/unread');"
        "xhr.send();"
        "var badge = document.getElementById('unread-count');"
        "if (badge != null && xhr.status == 200) { badge.textContent = xhr.responseText; }"
    )
    return ["var forumVersion = 'miniBB 1.0';", poller, DEFAULT_AD_SCRIPT]


def build_corpus(variants: int = 20) -> list[str]:
    """Attack + benign scripts plus synthetic variants for volume.

    Variants tweak identifier names so every script is a distinct digest --
    the cold path must pay the full fixpoint for each.
    """
    base = _attack_scripts() + _benign_scripts()
    scripts = list(base)
    for index in range(variants):
        scripts.append(
            f"var c{index} = document.cookie;"
            f"var e{index} = document.getElementById('slot{index}');"
            f"if (e{index} != null) {{ e{index}.textContent = c{index}; }}"
            f"setTimeout(function () {{ document.cookie = 'seen{index}=1'; }}, {5 + index});"
        )
    return scripts


def _measure_cold(corpus: list[str], repeats: int) -> dict:
    start = time.perf_counter()
    for _ in range(repeats):
        for source in corpus:
            analyze_source(source)
    elapsed = time.perf_counter() - start
    analyzed = repeats * len(corpus)
    return {
        "analyzed": analyzed,
        "seconds": round(elapsed, 6),
        "scripts_per_second": round(analyzed / elapsed, 1) if elapsed else 0.0,
    }


def _measure_memoised(corpus: list[str], repeats: int) -> dict:
    cache = ScriptCache(maxsize=max(len(corpus) * 2, 64))
    start = time.perf_counter()
    for _ in range(repeats):
        for source in corpus:
            cache.report_for(source)
    elapsed = time.perf_counter() - start
    analyzed = repeats * len(corpus)
    counters = cache.as_dict()["reports"]
    return {
        "analyzed": analyzed,
        "seconds": round(elapsed, 6),
        "scripts_per_second": round(analyzed / elapsed, 1) if elapsed else 0.0,
        "hit_rate": counters["hit_rate"],
        "cache": counters,
    }


def _run_suite(runner: ScenarioRunner, scenarios) -> tuple[float, list[str]]:
    digests: list[str] = []
    start = time.perf_counter()
    for scenario in scenarios:
        runs = runner.run(scenario)
        digests.extend(runs[model].digest for model in sorted(runs))
    return time.perf_counter() - start, digests


def measure_analysis(*, variants: int = 20, repeats: int = 5, scenario_count: int = 12) -> dict:
    """Run all three measurements and return the merged report."""
    corpus = build_corpus(variants)
    distinct = len({script_digest(source) for source in corpus})

    cold = _measure_cold(corpus, repeats)
    memoised = _measure_memoised(corpus, repeats)

    scenarios = ScenarioGenerator(seed="42", attack_ratio=0.5).generate(scenario_count)
    # Steady-state comparison: one long-lived runner per mode (that is how
    # the suite actually runs -- the script cache memoises analysis after
    # the first sighting), a warmup round each, then best-of-three timed
    # rounds; minima because the suite is short enough that scheduler
    # noise would otherwise dominate the ratio.
    plain_runner = ScenarioRunner(static_screen=False)
    screened_runner = ScenarioRunner(static_screen=True)
    _, plain_digests = _run_suite(plain_runner, scenarios)
    _, screened_digests = _run_suite(screened_runner, scenarios)
    plain_rounds: list[float] = []
    screened_rounds: list[float] = []
    for _ in range(5):
        plain_rounds.append(_run_suite(plain_runner, scenarios)[0])
        screened_rounds.append(_run_suite(screened_runner, scenarios)[0])
    plain_s = min(plain_rounds)
    screened_s = min(screened_rounds)

    soundness = screened_runner.screen.verify()
    overhead_pct = ((screened_s - plain_s) / plain_s * 100.0) if plain_s else 0.0
    return {
        "corpus": {"scripts": len(corpus), "distinct_digests": distinct},
        "cold": cold,
        "memoised": memoised,
        "suite": {
            "scenarios": scenario_count,
            "plain_seconds": round(plain_s, 4),
            "screened_seconds": round(screened_s, 4),
            "overhead_pct": round(overhead_pct, 2),
            "digest_parity": plain_digests == screened_digests,
            "soundness": soundness,
            "report_cache": screened_runner.caches.as_dict()["reports"]
            if screened_runner.caches is not None
            else None,
        },
    }


def format_analysis_report(report: dict) -> str:
    """Human-readable summary for the text artifact."""
    rows = [
        ["cold", report["cold"]["analyzed"], report["cold"]["scripts_per_second"], "-"],
        [
            "memoised",
            report["memoised"]["analyzed"],
            report["memoised"]["scripts_per_second"],
            f"{report['memoised']['hit_rate']:.3f}",
        ],
    ]
    table = format_table(
        ["path", "scripts", "scripts/s", "hit rate"],
        rows,
        title="Static analyzer throughput",
    )
    suite = report["suite"]
    lines = [
        table,
        "",
        f"screened suite: {suite['scenarios']} scenarios, "
        f"plain {suite['plain_seconds']}s vs screened {suite['screened_seconds']}s "
        f"({suite['overhead_pct']:+.2f}% overhead, digest parity: {suite['digest_parity']})",
        f"soundness: {suite['soundness']['scripts']} scripts, "
        f"fp_rate {suite['soundness']['false_positive_rate']}, "
        f"0 false negatives (verified)",
    ]
    return "\n".join(lines)
