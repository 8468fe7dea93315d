"""End-to-end soundness oracle: static predictions cover every audited access.

A screened :class:`ScenarioRunner` executes a generated scenario suite and
the pinned regression corpus under both storage backends, with the warm
compile-cache stack and with the cold pipeline (``compile_caches=False``,
where every script is parsed per run and the screen keeps its own cache).  ``StaticScreen.verify()`` then enforces the contract::

    dynamically audited access categories  ⊆  statically predicted sinks

per script digest.  Any false negative raises, failing the suite loudly;
false positives only shape the reported rate.  A final check pins that
attaching the screen never changes scenario verdicts.
"""

from __future__ import annotations

import pytest

from repro.scenarios import load_corpus
from repro.scenarios.generator import ScenarioGenerator
from repro.scenarios.runner import ScenarioRunner

_BACKENDS = ["dict", "sqlite"]
_CACHES = pytest.mark.parametrize("compile_caches", [True, False], ids=["warm", "cold"])


def _suite(count: int = 20):
    return ScenarioGenerator(seed="42", attack_ratio=0.5).generate(count)


@_CACHES
@pytest.mark.parametrize("storage", _BACKENDS)
def test_generated_suite_is_sound(storage, compile_caches):
    runner = ScenarioRunner(storage=storage, compile_caches=compile_caches, static_screen=True)
    for scenario in _suite():
        runner.run(scenario)
    stats = runner.screen.verify()  # raises on any false negative
    assert stats["scripts"] > 0
    assert stats["observed_sinks"] > 0
    # Attribution must be near-total: only the warm-start preloads and page
    # fetch mediations are allowed to fall outside a script scope.
    assert not runner.screen.unclassified


@_CACHES
@pytest.mark.parametrize("storage", _BACKENDS)
def test_pinned_corpus_is_sound(storage, compile_caches):
    entries = load_corpus()
    assert entries
    for _, entry in entries:
        runner = ScenarioRunner(
            models=entry.models,
            storage=storage,
            compile_caches=compile_caches,
            static_screen=True,
        )
        runner.run(entry.scenario())
        stats = runner.screen.verify()
        assert stats["scripts"] > 0


def test_screen_report_cache_is_exercised():
    """The screen memoises reports in the shared cache stack's script cache."""
    runner = ScenarioRunner(static_screen=True)
    for scenario in _suite(6):
        runner.run(scenario)
    assert runner.caches is not None
    counters = runner.caches.as_dict()["reports"]
    assert counters["misses"] > 0
    # Scenarios re-serve the same head/chrome scripts: the tier must hit.
    assert counters["hits"] > counters["misses"]
    runner.screen.verify()


def test_screen_does_not_change_verdicts():
    scenarios = _suite(6)
    plain = ScenarioRunner(static_screen=False)
    screened = ScenarioRunner(static_screen=True)
    for scenario in scenarios:
        runs_plain = plain.run(scenario)
        runs_screened = screened.run(scenario)
        assert set(runs_plain) == set(runs_screened)
        for model, run in runs_plain.items():
            # Byte-identical run digests: observation is strictly passive.
            assert run.digest == runs_screened[model].digest, (
                f"screen changed the {model} run digest for {scenario.name}"
            )
            assert run.mediations == runs_screened[model].mediations
            assert run.denied == runs_screened[model].denied
    screened.screen.verify()
