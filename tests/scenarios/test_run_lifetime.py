"""A scenario run leaves nothing for the cyclic garbage collector.

Every run closes its environment when it ends, so reference counting frees
the browsers, pages and documents it built the moment ``run`` returns, and
the runner pauses the collector for the run's duration.  These tests pin
both halves: with the collector disabled around ``run``, every object the
run created is already dead afterwards, and a following collection finds
none of the run's machinery in a cycle.  Deterministic: nothing depends on
timing or on when the collector would have run.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.browser.browser import Browser, LoadedPage
from repro.browser.event_loop import EventLoop
from repro.browser.page import Page
from repro.browser.script_runtime import ScriptRuntime
from repro.browser.xhr import XmlHttpRequest
from repro.core.monitor import ReferenceMonitor
from repro.faults.plan import FaultConfig
from repro.http.network import Network
from repro.scenarios import Actor, Scenario, ScenarioRunner, make_step
from repro.scenarios.generator import ScenarioGenerator
from repro.webapps.framework import WebApplication
from repro.webapps.storage import StorageBackend

SEED = 42
COUNT = 30

#: Types no closed run may leave in a reference cycle.
RUN_MACHINERY = (
    Browser,
    Page,
    LoadedPage,
    ScriptRuntime,
    EventLoop,
    ReferenceMonitor,
    XmlHttpRequest,
    WebApplication,
    StorageBackend,
    Network,
)

SETUPS = {
    "vm-dict": {},
    "walker-sqlite": {"storage": "sqlite"},
    "faults": {"faults": FaultConfig.uniform(seed=7, rate=0.2)},
}


@pytest.fixture(scope="module")
def scenarios():
    generator = ScenarioGenerator(seed=SEED)
    return [generator.scenario(index) for index in range(COUNT)]


@pytest.fixture
def created(monkeypatch):
    """Weakrefs to every browser, page and page document built meanwhile."""
    refs: list[weakref.ref] = []
    browser_init = Browser.__init__
    browser_load = Browser.load

    def init(self, *args, **kwargs):
        browser_init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    def load(self, *args, **kwargs):
        loaded = browser_load(self, *args, **kwargs)
        refs.extend((weakref.ref(loaded.page), weakref.ref(loaded.page.document)))
        return loaded

    monkeypatch.setattr(Browser, "__init__", init)
    monkeypatch.setattr(Browser, "load", load)
    return refs


@pytest.fixture
def collector():
    """Start from an empty collector; restore its state and debug flags after."""
    enabled = gc.isenabled()
    gc.collect()
    yield
    gc.set_debug(0)
    gc.garbage.clear()
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _cyclic_garbage() -> list:
    """Everything a full collection would free right now (kept for inspection)."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_the_scenarios_cover_every_deferred_step_kind(scenarios):
    actions = {step.action for scenario in scenarios for step in scenario.steps}
    assert {"attack_plant", "xhr_async", "advance_time", "drain"} <= actions


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_runs_are_freed_by_reference_counting(setup, scenarios, created, collector):
    runner = ScenarioRunner(**SETUPS[setup])
    gc.disable()
    for scenario in scenarios:
        runner.run(scenario)
    assert created
    alive = [ref() for ref in created if ref() is not None]
    assert alive == []
    leftovers = [obj for obj in _cyclic_garbage() if isinstance(obj, RUN_MACHINERY)]
    assert leftovers == []


def _bad_tab_scenario() -> Scenario:
    return Scenario(
        name="bad-tab",
        app_key="phpbb",
        kind="benign",
        actors=[Actor("carol")],
        steps=[make_step("carol", "visit", path="/"), make_step("carol", "visit", path="/", tab=0)],
    )


class TestCollectorState:
    def test_enabled_after_a_run(self, scenarios, collector):
        gc.enable()
        ScenarioRunner(models=("escudo",)).run(scenarios[0])
        assert gc.isenabled()

    def test_enabled_after_a_failing_step(self, created, collector):
        gc.enable()
        with pytest.raises(ValueError, match="does not act on a tab"):
            ScenarioRunner(models=("escudo",)).run(_bad_tab_scenario())
        assert gc.isenabled()

    def test_failing_run_is_closed_too(self, created, collector):
        gc.disable()
        with pytest.raises(ValueError, match="does not act on a tab"):
            ScenarioRunner(models=("escudo",)).run(_bad_tab_scenario())
        assert [ref() for ref in created if ref() is not None] == []

    def test_stays_disabled_when_disabled_on_entry(self, scenarios, collector):
        gc.disable()
        ScenarioRunner(models=("escudo",)).run(scenarios[0])
        assert not gc.isenabled()
