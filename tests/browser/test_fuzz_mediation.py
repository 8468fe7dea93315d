"""Differential fuzzing of the mediation layer: warm caches decide like cold ones.

A seeded generator composes MiniScript programs from templates covering
every mediated surface (cookie reads/writes, element lookups and property
traffic, XHR in both modes, timers, listeners, helper functions, loops and
dead code).  The whole corpus runs on a real phpBB page twice: once cold
(no compile caches) and once through a :class:`CompileCaches` stack that
an earlier pass over the same corpus already warmed.  Both runs must make
the same reference-monitor decisions in the same order, compared as
``(operation, object_label, allowed)``, and leave the same serialized DOM.

Scripts are self-contained (each ``run_script`` call gets a fresh script
environment), so templates only reference variables minted earlier in the
same program.
"""

from __future__ import annotations

import random

import pytest

from repro.attacks.harness import build_environment, login_victim, visit
from repro.browser.compile_cache import CompileCaches
from repro.html.serializer import serialize

SEED_COUNT = 60
_ELEMENT_IDS = ("whoami", "unread-count", "post-body-1", "no-such-node")


def _simple_inner(rng: random.Random, i: int) -> str:
    """A body statement for callbacks (timers, listeners, onload)."""
    return rng.choice(
        [
            f"var z{i} = document.cookie;",
            f"document.cookie = 'cb{i}=1';",
            f"var n{i} = document.getElementById('whoami');"
            f"if (n{i} != null) {{ n{i}.textContent = 'cb{i}'; }}",
            f"var q{i} = {i} * 2;",
        ]
    )


def _statement(rng: random.Random, i: int, elements: list[str], taints: list[str]) -> str:
    kind = rng.randrange(12)
    if kind == 0:
        taints.append(f"c{i}")
        return f"var c{i} = document.cookie;"
    if kind == 1:
        return f"document.cookie = 'k{i}=v{i}';"
    if kind == 2:
        name = f"e{i}"
        elements.append(name)
        return f"var {name} = document.getElementById('{rng.choice(_ELEMENT_IDS)}');"
    if kind == 3 and elements:
        target = rng.choice(elements)
        taints.append(f"t{i}")
        return f"var t{i} = ''; if ({target} != null) {{ t{i} = {target}.innerHTML; }}"
    if kind == 4 and elements:
        target = rng.choice(elements)
        value = rng.choice(taints) if taints and rng.random() < 0.5 else f"'text{i}'"
        return f"if ({target} != null) {{ {target}.textContent = {value}; }}"
    if kind == 5:
        url = rng.choice(["/api/unread", "/viewtopic?t=1"])
        suffix = f" + {rng.choice(taints)}" if taints and rng.random() < 0.5 else ""
        return (
            f"var x{i} = new XMLHttpRequest();"
            f"x{i}.open('GET', '{url}'{suffix});"
            f"x{i}.send();"
        )
    if kind == 6:
        return (
            f"var a{i} = new XMLHttpRequest();"
            f"a{i}.open('GET', '/api/unread', true);"
            f"a{i}.onload = function () {{ {_simple_inner(rng, i)} }};"
            f"a{i}.send();"
        )
    if kind == 7:
        return f"setTimeout(function () {{ {_simple_inner(rng, i)} }}, {rng.randrange(5, 50)});"
    if kind == 8:
        return (
            f"var s{i} = 0;"
            f"for (var k{i} = 0; k{i} < {rng.randrange(2, 6)}; k{i} = k{i} + 1) "
            f"{{ s{i} = s{i} + k{i}; }}"
        )
    if kind == 9:
        return rng.choice(
            [
                f"function unused{i}() {{ var dead{i} = document.cookie; }}",
                f"if (false) {{ document.cookie = 'dead{i}=1'; }}",
            ]
        )
    if kind == 10:
        argument = rng.choice(taints) if taints else f"'plain{i}'"
        return (
            f"function f{i}(v) {{ return v + '!'; }}"
            f"var r{i} = f{i}({argument});"
        )
    if kind == 11 and elements:
        target = rng.choice(elements)
        return (
            f"if ({target} != null) {{ "
            f"{target}.addEventListener('click', function (ev) {{ {_simple_inner(rng, i)} }});"
            f" }}"
        )
    return f"var pad{i} = {i};"


def generate_script(seed: int) -> str:
    """One program of 3 to 8 template statements, fixed by ``seed``."""
    rng = random.Random(seed)
    elements: list[str] = []
    taints: list[str] = []
    statements = [
        _statement(rng, seed * 100 + offset, elements, taints)
        for offset in range(rng.randrange(3, 9))
    ]
    return "\n".join(statements)


def run_corpus(corpus: list[str], caches: CompileCaches | None):
    """Run ``corpus`` on a logged-in phpBB topic page; return its decisions and DOM.

    After each program the page's event loop is drained (``run_script``
    does it) and every element a program can address is clicked, so timer,
    async-XHR and listener decisions are recorded too.
    """
    # A fixed nonce seed makes repeated responses byte-identical, so the
    # warm run's page loads are template-cache hits.
    env = build_environment("phpbb", "escudo", app_kwargs={"nonce_seed": "fuzz"}, caches=caches)
    with env:
        login_victim(env)
        loaded = visit(env, "/viewtopic?t=1")
        monitor = loaded.page.monitor
        monitor.reset()
        for index, source in enumerate(corpus):
            env.browser.run_script(loaded, source, description=f"fuzz seed {index}")
            for element_id in _ELEMENT_IDS[:-1]:
                loaded.events.fire_by_id(element_id, "click")
            loaded.page.event_loop.drain()
        assert monitor.stats.total == len(monitor.audit), "the audit log dropped decisions"
        decisions = [
            (decision.operation, decision.object_label, decision.allowed) for decision in monitor.audit
        ]
        return decisions, serialize(loaded.page.document)


@pytest.fixture(scope="module")
def corpus():
    scripts = [generate_script(seed) for seed in range(SEED_COUNT)]
    assert len(set(scripts)) == SEED_COUNT, "generated scripts must be distinct"
    return scripts


def test_warm_caches_record_the_cold_decisions_and_dom(corpus):
    cold_decisions, cold_dom = run_corpus(corpus, None)

    caches = CompileCaches.build()
    run_corpus(corpus, caches)  # warm-up pass
    caches.scripts.reset_counters()
    caches.templates.reset_counters()
    warm_decisions, warm_dom = run_corpus(corpus, caches)

    assert caches.scripts.misses["scripts"] == 0
    assert caches.scripts.hits["scripts"] >= SEED_COUNT
    assert caches.templates.hits > 0
    assert warm_decisions == cold_decisions
    assert warm_dom == cold_dom
    # The corpus reaches cookies and elements with both verdicts, and the
    # ring-1 XHR API, which every ring-3 program is denied.
    def verdicts(prefix: str) -> set[bool]:
        return {allowed for _, label, allowed in cold_decisions if label.startswith(prefix)}

    assert verdicts("cookie:") == verdicts("<") == {True, False}
    assert verdicts("XMLHttpRequest") == {False}
