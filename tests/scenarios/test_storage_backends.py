"""Differential suite: the scenario matrix is backend-transparent.

The persistence tier must be invisible to the oracle: running the same
seeded scenario matrix over the dict backend and over SQLite must produce
identical verdicts and byte-identical per-model state digests.  Anything
less would mean the storage layer leaks into application-visible state.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3

import pytest

from repro.scenarios.engine import run_suite
from repro.scenarios.generator import ScenarioGenerator
from repro.scenarios.runner import ScenarioRunner
from repro.webapps import framework

SEED = "storage-differential"
COUNT = 18


def digests_of(result) -> list[dict[str, str]]:
    return [{model: run.digest for model, run in verdict.runs.items()}
            for verdict in result.verdicts]


class TestDifferentialSuite:
    def test_dict_and_sqlite_produce_identical_reports(self):
        on_dict = run_suite(seed=SEED, count=COUNT, storage="dict")
        on_sql = run_suite(seed=SEED, count=COUNT, storage="sqlite")
        assert on_dict.ok and on_sql.ok
        assert on_dict.parity_dict() == on_sql.parity_dict()
        assert digests_of(on_dict) == digests_of(on_sql)
        assert [(v.ok, v.kind, v.reason) for v in on_dict.verdicts] == [
            (v.ok, v.kind, v.reason) for v in on_sql.verdicts
        ]

    def test_attack_scenarios_classify_identically(self):
        on_dict = run_suite(seed=SEED, count=8, attack_ratio=1.0, storage="dict")
        on_sql = run_suite(seed=SEED, count=8, attack_ratio=1.0, storage="sqlite")
        assert on_dict.parity_dict() == on_sql.parity_dict()
        assert digests_of(on_dict) == digests_of(on_sql)


class TestRunnerWiring:
    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown storage backend"):
            ScenarioRunner(storage="redis")

    def test_sqlite_runner_builds_sqlite_apps(self):
        runner = ScenarioRunner(storage="sqlite", compile_caches=False)
        scenario = ScenarioGenerator(seed=SEED).scenario(0)
        kwargs = runner._app_kwargs(scenario.app_key, runner.specs[0])
        assert kwargs == {"storage": "sqlite"}

    def test_dict_runner_forwards_the_storage_kwarg(self):
        runner = ScenarioRunner(storage="dict", compile_caches=False)
        assert runner._app_kwargs("phpbb", runner.specs[0]) == {"storage": "dict"}
        cached = ScenarioRunner(storage="dict", compile_caches=True)
        assert cached._app_kwargs("phpbb", cached.specs[0])["storage"] == "dict"

    def test_single_replay_matches_across_backends(self):
        scenario = ScenarioGenerator(seed=SEED, attack_ratio=0.5).scenario(3)
        runs_dict = ScenarioRunner(storage="dict").run(scenario)
        runs_sql = ScenarioRunner(storage="sqlite").run(scenario)
        assert {m: r.digest for m, r in runs_dict.items()} == {
            m: r.digest for m, r in runs_sql.items()
        }

    def test_each_run_closes_its_sqlite_connection(self, monkeypatch):
        # Each application opens one connection; the run must close it when
        # it ends instead of leaving it open until a garbage collection.
        backends = []
        make_backend = framework.make_backend

        def recording(storage):
            backend = make_backend(storage)
            backends.append(backend)
            return backend

        monkeypatch.setattr(framework, "make_backend", recording)
        scenario = ScenarioGenerator(seed=SEED).scenario(0)
        ScenarioRunner(storage="sqlite").run(scenario)
        assert backends and all(backend.kind == "sqlite" for backend in backends)
        for backend in backends:
            with pytest.raises(sqlite3.ProgrammingError):
                backend.all("sessions")


class TestRunDigest:
    """A run's digest is the canonical SHA-256 of the snapshot it records."""

    @pytest.mark.parametrize("storage", ["dict", "sqlite"])
    @pytest.mark.parametrize("kind", ["benign", "attack"])
    def test_run_digest_is_the_digest_of_its_snapshot(self, storage, kind):
        if kind == "benign":
            scenario = ScenarioGenerator(seed=SEED).benign(0)
        else:
            scenario = ScenarioGenerator(seed=SEED, attack_ratio=1.0).scenario(0)
        assert scenario.kind == kind
        runs = ScenarioRunner(storage=storage).run(scenario)
        assert len(runs) == 3
        for run in runs.values():
            canonical = json.dumps(run.snapshot, sort_keys=True, separators=(",", ":"))
            assert run.digest == hashlib.sha256(canonical.encode()).hexdigest()
            assert set(run.snapshot) == {"app", "origin", "sessions", "content"}


class TestCliBackendFlag:
    def test_backend_sqlite_suite_run(self, tmp_path, capsys):
        from repro.scenarios.__main__ import main

        rc = main(
            [
                "--seed", "42",
                "--count", "4",
                "--workers", "1",
                "--backend", "sqlite",
                "--no-corpus",
                "--corpus", str(tmp_path / "corpus"),
            ]
        )
        assert rc == 0
        assert "scenario suite" in capsys.readouterr().out
