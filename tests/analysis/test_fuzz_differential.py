"""Differential fuzzing: static predictions vs. dynamically audited accesses.

A seeded generator composes MiniScript programs from templates covering
every mediated surface (cookie reads/writes, element lookups and property
traffic, XHR in both modes, timers, listeners, helper functions, loops and
dead code).  Each program runs on a real screened page, cold and through a
warm compile-cache stack; the :class:`StaticScreen` then checks the
soundness contract -- every audited access category must have been
statically predicted.  A false negative fails the suite loudly; the
false-positive rate is merely reported.

Scripts are self-contained (each ``run_script`` call gets a fresh script
environment), so templates only reference variables minted earlier in the
same program.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.soundness import StaticScreen
from repro.attacks.harness import build_environment, visit
from repro.browser.compile_cache import CompileCaches

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
    rng = random.Random(seed)
    elements: list[str] = []
    taints: list[str] = []
    statements = [
        _statement(rng, seed * 100 + offset, elements, taints)
        for offset in range(rng.randrange(3, 9))
    ]
    return "\n".join(statements)


@pytest.fixture(scope="module")
def corpus():
    scripts = [generate_script(seed) for seed in range(SEED_COUNT)]
    assert len(set(scripts)) == SEED_COUNT, "generated scripts must be distinct"
    return scripts


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_fuzz_corpus_has_no_false_negatives(warm, corpus):
    caches = CompileCaches.build() if warm else None
    screen = StaticScreen(caches.scripts if warm else None)
    env = build_environment("phpbb", "escudo", caches=caches, static_screen=screen)
    loaded = visit(env, "/viewtopic?t=1")
    for index, source in enumerate(corpus):
        env.browser.run_script(loaded, source, description=f"fuzz seed {index}")
    # Every generated script must have been observed and analyzed.
    assert len(screen._records) >= SEED_COUNT
    stats = screen.verify()  # raises SoundnessViolation on any false negative
    assert stats["scripts"] >= SEED_COUNT
    assert stats["false_positive_rate"] < 1.0
    print(
        f"\n[fuzz/{'warm' if warm else 'cold'}] scripts={stats['scripts']} "
        f"predicted={stats['predicted_sinks']} observed={stats['observed_sinks']} "
        f"fp_rate={stats['false_positive_rate']:.3f} exact={stats['exact_scripts']}"
    )

