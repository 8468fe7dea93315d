"""Tests of the benchmark itself.

Not collected by the repository's test run (the file name does not match
``test_*.py``); run them explicitly from the checkout root::

    python -m pytest perfbench/tests/check_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import layers, tracer
from perfbench.measure import percentile
from perfbench.tracer import Boundary, Tracer
from perfbench.workloads import (
    BLOCK,
    E2E,
    WRITES,
    ForumRW,
    Pool,
    Suite,
    measure,
    measure_traced,
)

CHECKOUT = Path(__file__).resolve().parent.parent.parent


# -- the tracer ----------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


@pytest.fixture
def fake_module(monkeypatch):
    """A ``repro.*`` module whose functions advance a fake clock."""
    clock = FakeClock()
    module = types.ModuleType("repro._perfbench_fake")

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 3.0
        module.inner()
        clock.now += 1.0
        module.Worker().step()

    class Worker:
        def step(self):
            clock.now += 0.5
            module.inner()

    module.inner, module.outer, module.Worker = inner, outer, Worker
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(tracer, "time", clock)
    return module


def test_self_time_is_duration_minus_wrapped_children(fake_module):
    name = fake_module.__name__
    spans = Tracer(
        [
            Boundary("outer", (f"{name}:outer",)),
            Boundary("inner", (f"{name}:inner",)),
            Boundary("step", (f"{name}:Worker.step",)),
        ],
        samples={"inner"},
    )
    with spans.installed():
        fake_module.outer()
    stats = spans.snapshot()["stats"]
    assert stats["outer"] == {"calls": 1, "self_s": 4.0, "total_s": 8.5, "count": 0}
    assert stats["step"] == {"calls": 1, "self_s": 0.5, "total_s": 2.5, "count": 0}
    assert stats["inner"]["calls"] == 2
    assert stats["inner"]["self_s"] == stats["inner"]["total_s"] == 4.0
    assert stats["inner"]["samples"] == [2.0, 2.0]
    assert spans.covered_s == 8.5
    assert spans.snapshot()["root_self_s"] == 4.0  # outer is the only root


def test_unattributed_time_excludes_the_root_spans():
    snapshot = {"covered_s": 9.0, "root_self_s": 2.0, "stats": {}}
    metrics = layers.per_layer_metrics(snapshot, ops=1, traced_s=10.0, untraced_s=10.0, caches={})
    # 1 s outside every span plus the roots' own 2 s.
    assert metrics["trace.unattributed_share"] == pytest.approx(0.3)


def test_missing_targets_are_reported_not_fatal(fake_module):
    spans = Tracer([Boundary("gone", (f"{fake_module.__name__}:absent", "no.such.module:f"))])
    with spans.installed():
        pass
    assert spans.missing == [f"{fake_module.__name__}:absent", "no.such.module:f"]


def test_traced_run_restores_every_wrapper():
    targets = [t for b in layers.full_tracer().boundaries for t in b.targets]
    before = {target: tracer._resolve(target) for target in targets}
    workload = Suite(5, CHECKOUT)
    workload.setup_seconds = 0.0
    _, metrics, details = measure_traced(workload, seconds=0.6)
    assert details["missing_targets"] == []
    for target, (original, owners) in before.items():
        for owner, attribute in owners:
            assert getattr(owner, attribute) is original, target
    assert metrics["scenarios.runner.run.calls"] == 1.0


def test_functions_are_counted_at_their_use_site():
    from repro.attacks import harness
    from repro.scenarios import runner as runner_module
    from repro.scenarios.generator import ScenarioGenerator
    from repro.scenarios.runner import ScenarioRunner

    scenario = ScenarioGenerator(seed=7).scenario(0)
    boundary = Boundary("attacks.harness.build_environment", ("repro.attacks.harness:build_environment",))

    # Patching the defining module alone misses the runner's calls ...
    definition_only = Tracer([boundary])
    wrapper = definition_only._wrap(boundary, harness.build_environment)
    original = harness.build_environment
    harness.build_environment = wrapper
    try:
        ScenarioRunner(compile_caches=False).run(scenario)
    finally:
        harness.build_environment = original
    assert definition_only.stats[boundary.name].calls == 0

    # ... the use-site patch counts one environment per model.
    use_site = Tracer([boundary])
    with use_site.installed():
        assert runner_module.build_environment is not original
        ScenarioRunner(compile_caches=False).run(scenario)
    assert runner_module.build_environment is original
    assert use_site.stats[boundary.name].calls == 3


# -- the workloads -------------------------------------------------------------------


def _tiny(name: str):
    """A small workload with one set-up, and the seconds to run it for."""
    if name == "suite":
        workload, seconds = Suite(3, CHECKOUT), 0.5
    elif name == "forum-rw":
        workload, seconds = ForumRW(3, CHECKOUT, topics=20, posts=400, profiles=2), 1.0
    else:
        workload, seconds = Pool(3, CHECKOUT, count=12), 0.1
    workload.setup_seconds = 0.0
    return workload, seconds


@pytest.mark.parametrize("name", ["suite", "forum-rw", "pool"])
def test_end_to_end_smoke(name):
    workload, seconds = _tiny(name)
    result, metrics, _ = measure(workload, seconds=seconds)
    assert result.failed == 0, result.problems
    assert result.attempted >= 1
    assert list(metrics) == [metric for metric, _, _ in E2E]
    for metric in ("setup_s", "ops_per_s", "op_p50_ms", "read_p50_ms", "write_p50_ms", "peak_rss_mb"):
        assert metrics[metric] > 0, metric


@pytest.mark.parametrize("name", ["forum-rw", "pool"])
def test_traced_smoke(name):
    workload, seconds = _tiny(name)
    result, metrics, details = measure_traced(workload, seconds=seconds * 3)
    assert result.failed == 0, result.problems
    assert sorted(metrics) == sorted(metric for metric, _, _ in layers.catalogue())
    assert details["missing_targets"] == []
    assert metrics["browser.browser.load.calls"] > 0
    if name == "pool":
        assert metrics["pool.busy_share"] > 0
        assert metrics["scenarios.runner.run.calls"] == 1.0
    else:
        assert metrics["storage.rows_read"] > 0
        assert metrics["trace.unattributed_share"] <= 0.1


def test_forum_check_catches_a_lost_reply():
    workload = ForumRW(4, CHECKOUT, topics=5, posts=50, profiles=1)
    forum = workload.setup()
    result = workload.run_pass(forum, Tracer(()), steps=BLOCK)
    assert sum(map(len, forum.replies.values())) == WRITES
    forum.replies[forum.topic_ids[0]] = ["a reply the forum never saw"]
    workload.check(forum, result)
    assert result.failed == 2  # the post count and the stored texts both disagree


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 0.5) == 5
    assert percentile(values, 0.9) == 9
    assert percentile([3.0], 0.9) == 3.0


# -- the contract ----------------------------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _, _ in E2E]
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in layers.catalogue()]
    # forum-rw stays runnable but is not gated (see perfbench/README.md).
    assert [w["name"] for w in spec["workloads"]] == ["suite", "pool"]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(CHECKOUT / "perfbench", tmp_path / "perfbench")
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
