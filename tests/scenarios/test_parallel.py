"""Sharded execution: serial-vs-parallel parity, merging, corpus persistence.

The acceptance property for the parallel executor is *byte-identical
merging*: a sharded run of a seed range must produce exactly the report a
serial run of the same range produces -- every verdict, every aggregate
counter.  These tests lock that in at 2 workers over 50 scenarios, exercise
the steal-queue chunking, and drive the failure path end to end (a run with the
protected column removed must pin its failing specs into the regression
corpus, deduplicated, and the pinned entries must replay).
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.faults.plan import FaultConfig
from repro.scenarios import (
    ScenarioGenerator,
    default_steal_chunk,
    load_corpus,
    resolve_mp_context,
    run_suite,
    run_suite_parallel,
    steal_chunks,
)
from repro.scenarios.engine import SuiteResult
from repro.scenarios.model import canonical_spec_json
from repro.scenarios.oracle import Verdict
from repro.scenarios.parallel import _build_worker_runner, _verdict_entries
from repro.scenarios.runner import ScenarioRunner

SEED = 42
ATTACK_RATIO = 0.25


class TestStealScheduling:
    def test_chunks_cover_index_space_exactly_once_in_order(self):
        for count in (0, 1, 7, 50, 101):
            for chunk_size in (1, 3, 16, 200):
                chunks = steal_chunks(count, chunk_size)
                flattened = [index for chunk in chunks for index in chunk]
                assert flattened == list(range(count))

    def test_chunks_are_contiguous_and_bounded(self):
        chunks = steal_chunks(10, 4)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            steal_chunks(-1, 2)
        with pytest.raises(ValueError):
            steal_chunks(10, 0)
        with pytest.raises(ValueError):
            default_steal_chunk(10, 0)

    def test_default_chunk_targets_four_pulls_per_worker(self):
        assert default_steal_chunk(100, 4) == 7  # ceil(100/16)
        assert default_steal_chunk(3, 8) == 1  # never zero
        assert default_steal_chunk(10_000, 2) == 16  # capped so tails rebalance

    def test_resolve_mp_context_pins_an_available_method(self):
        available = multiprocessing.get_all_start_methods()
        assert resolve_mp_context(None) in available
        assert resolve_mp_context("spawn") == "spawn"  # spawn exists everywhere
        with pytest.raises(ValueError, match="unavailable"):
            resolve_mp_context("no-such-start-method")


class TestSerialParallelParity:
    def test_two_worker_run_matches_serial_report(self):
        """The satellite lock-in: 50 scenarios, --workers 2, merged == serial.

        The range deliberately contains *async* scenarios -- deferred XHRs,
        timers, advance_time/drain steps, seeded task interleavings -- so the
        parity claim covers event-loop work, not just the synchronous paths.
        """
        mix = ScenarioGenerator(seed=SEED, attack_ratio=ATTACK_RATIO).generate(50)
        async_actions = {"xhr_async", "advance_time", "drain"}
        assert any(
            step.action in async_actions for scenario in mix for step in scenario.steps
        ), "the parity range must include event-loop scenarios"
        assert all(scenario.interleave for scenario in mix)

        serial = run_suite(seed=SEED, count=50, attack_ratio=ATTACK_RATIO)
        parallel = run_suite_parallel(
            seed=SEED, count=50, attack_ratio=ATTACK_RATIO, workers=2, persist_failures=False
        )
        assert serial.ok, serial.summary()
        assert serial.tasks_run > 0, "event-loop tasks must be part of the report"
        # Byte-identical, not merely equal: compare the canonical encodings.
        assert canonical_spec_json(parallel.parity_dict()) == canonical_spec_json(
            serial.parity_dict()
        )

    def test_worker_sweep_parity_with_async_scenarios(self):
        """Same seed => byte-identical parity at 1, 2 and 4 workers."""
        serial = run_suite(seed=SEED, count=24, attack_ratio=ATTACK_RATIO)
        baseline = canonical_spec_json(serial.parity_dict())
        for workers in (1, 2, 4):
            sharded = run_suite_parallel(
                seed=SEED,
                count=24,
                attack_ratio=ATTACK_RATIO,
                workers=workers,
                persist_failures=False,
            )
            assert canonical_spec_json(sharded.parity_dict()) == baseline, (
                f"parity broke at {workers} workers"
            )

    def test_repeated_serial_runs_are_byte_identical(self):
        """Two runs of the same seed reproduce verdicts *and* task counts."""
        first = run_suite(seed=SEED, count=12, attack_ratio=ATTACK_RATIO)
        second = run_suite(seed=SEED, count=12, attack_ratio=ATTACK_RATIO)
        assert canonical_spec_json(first.parity_dict()) == canonical_spec_json(
            second.parity_dict()
        )

    def test_single_worker_runs_in_process_and_matches(self):
        serial = run_suite(seed=SEED, count=12, attack_ratio=ATTACK_RATIO)
        parallel = run_suite_parallel(
            seed=SEED, count=12, attack_ratio=ATTACK_RATIO, workers=1, persist_failures=False
        )
        assert parallel.parity_dict() == serial.parity_dict()
        assert parallel.workers == 1
        assert len(parallel.shard_stats) == 1
        chunks = steal_chunks(12, parallel.steal_chunk)
        assert sum(stat["chunks_stolen"] for stat in parallel.shard_stats) == len(chunks)

    def test_more_workers_than_scenarios_collapses_shards(self):
        parallel = run_suite_parallel(
            seed=SEED, count=3, attack_ratio=0.0, workers=8, persist_failures=False
        )
        assert len(parallel.shard_stats) == 3
        assert sum(stat["scenarios"] for stat in parallel.shard_stats) == 3

    def test_shard_stats_sum_to_merged_totals(self):
        parallel = run_suite_parallel(
            seed=SEED, count=20, attack_ratio=ATTACK_RATIO, workers=2, persist_failures=False
        )
        assert sum(stat["scenarios"] for stat in parallel.shard_stats) == 20
        assert sum(stat["mediations"] for stat in parallel.shard_stats) == parallel.mediations
        assert sum(stat["denied"] for stat in parallel.shard_stats) == parallel.denied

    def test_as_dict_extends_the_serial_schema(self):
        parallel = run_suite_parallel(
            seed=SEED, count=6, attack_ratio=0.0, workers=2, persist_failures=False
        )
        data = parallel.as_dict()
        # The serial BENCH_scenarios.json keys survive...
        for key in ("seed", "count", "models", "ok", "scenarios_per_second", "mediations"):
            assert key in data
        # ...and the sharded run contributes its worker statistics.
        assert data["workers"] == 2
        assert len(data["shards"]) == 2
        # The work-stealing executor's knobs are part of the payload.
        assert data["requested_workers"] == 2
        assert data["steal_chunk"] >= 1
        assert data["mp_start_method"] in multiprocessing.get_all_start_methods()
        json.dumps(data)  # the payload must stay JSON-serialisable


class TestWorkStealing:
    """The steal queue and the start method never change the merged report."""

    def test_fine_grained_stealing_matches_serial(self):
        """steal_chunk=1 maximises queue contention; parity must survive it."""
        serial = run_suite(seed=SEED, count=16, attack_ratio=ATTACK_RATIO)
        baseline = canonical_spec_json(serial.parity_dict())
        for workers in (2, 4):
            sharded = run_suite_parallel(
                seed=SEED,
                count=16,
                attack_ratio=ATTACK_RATIO,
                workers=workers,
                steal_chunk=1,
                persist_failures=False,
            )
            assert canonical_spec_json(sharded.parity_dict()) == baseline, (
                f"parity broke at {workers} workers with steal_chunk=1"
            )
            assert sharded.steal_chunk == 1
            # All 16 single-index chunks were pulled by someone.
            stolen = [stat["chunks_stolen"] for stat in sharded.shard_stats]
            assert sum(stolen) == 16

    def test_repeated_sharded_runs_are_byte_identical(self):
        """Chunk->worker assignment is timing-dependent; the report is not."""
        runs = [
            run_suite_parallel(
                seed=SEED,
                count=14,
                attack_ratio=ATTACK_RATIO,
                workers=2,
                steal_chunk=1,
                persist_failures=False,
            )
            for _ in range(2)
        ]
        assert canonical_spec_json(runs[0].parity_dict()) == canonical_spec_json(
            runs[1].parity_dict()
        )

    def test_empty_suite_is_ok(self):
        result = run_suite_parallel(
            seed=SEED, count=0, attack_ratio=ATTACK_RATIO, workers=4,
            persist_failures=False,
        )
        assert result.ok
        assert result.verdicts == []
        assert result.workers == 1  # nothing to shard; runs in-process
        assert result.requested_workers == 4
        assert result.parity_dict() == run_suite(
            seed=SEED, count=0, attack_ratio=ATTACK_RATIO
        ).parity_dict()

    def test_effective_worker_count_is_recorded(self):
        """The result records what ran, not what was asked for."""
        result = run_suite_parallel(
            seed=SEED, count=3, attack_ratio=0.0, workers=8, persist_failures=False
        )
        assert result.workers == 3
        assert result.requested_workers == 8
        assert len(result.shard_stats) == 3
        assert result.as_dict()["workers"] == 3

    def test_spawn_context_parity(self):
        """Pinning spawn must reproduce the serial report (no fork-only state).

        Under spawn the worker re-imports the package from scratch and
        builds its runner from the plain-data config alone, so this
        regresses any fork-only assumption.
        """
        serial = run_suite(seed=SEED, count=6, attack_ratio=ATTACK_RATIO)
        sharded = run_suite_parallel(
            seed=SEED,
            count=6,
            attack_ratio=ATTACK_RATIO,
            workers=2,
            mp_context="spawn",
            persist_failures=False,
        )
        assert sharded.mp_start_method == "spawn"
        assert canonical_spec_json(sharded.parity_dict()) == canonical_spec_json(
            serial.parity_dict()
        )

    def test_cacheless_workers_match_serial(self):
        """``compile_caches=False`` workers reproduce the cached serial report."""
        serial = run_suite(seed=SEED, count=8, attack_ratio=ATTACK_RATIO)
        cacheless = run_suite_parallel(
            seed=SEED,
            count=8,
            attack_ratio=ATTACK_RATIO,
            workers=2,
            compile_caches=False,
            persist_failures=False,
        )
        assert all(stat["compile_cache"] is None for stat in cacheless.shard_stats)
        assert canonical_spec_json(cacheless.parity_dict()) == canonical_spec_json(
            serial.parity_dict()
        )


class TestWorkerRunner:
    """Workers build their runner from plain data and warm it lazily."""

    def test_worker_config_is_plain_data(self, monkeypatch):
        """A JSON round trip of the worker config loses nothing a worker needs."""
        import repro.scenarios.parallel as parallel_mod

        real_worker = parallel_mod._steal_worker
        shipped = []

        def round_trip(worker_id, config, task_queue, result_queue):
            shipped.append(config)
            real_worker(worker_id, json.loads(json.dumps(config)), task_queue, result_queue)

        monkeypatch.setattr(parallel_mod, "_steal_worker", round_trip)
        faults = FaultConfig.uniform(seed=7, rate=0.2)
        result = run_suite_parallel(
            seed=SEED,
            count=5,
            attack_ratio=ATTACK_RATIO,
            workers=1,
            faults=faults,
            persist_failures=False,
        )
        assert len(shipped) == 1
        assert not any(isinstance(value, bytes) for value in shipped[0].values())
        serial = run_suite(seed=SEED, count=5, attack_ratio=ATTACK_RATIO, faults=faults)
        assert canonical_spec_json(result.parity_dict()) == canonical_spec_json(
            serial.parity_dict()
        )

    def test_worker_runner_starts_cold_and_warms_on_first_scenario(self):
        runner = _build_worker_runner(
            {
                "models": ("escudo", "sop", "none"),
                "compile_caches": True,
                "storage": "dict",
                "faults": None,
            }
        )
        assert runner._warmed_apps == set()
        assert runner.caches.as_dict()["templates"]["size"] == 0
        scenario = ScenarioGenerator(seed=SEED, attack_ratio=ATTACK_RATIO).scenario(0)
        runner.run(scenario)
        assert runner._warmed_apps == {scenario.app_key}
        assert runner.caches.as_dict()["templates"]["size"] > 0

    def test_warm_for_is_idempotent_and_inert_without_caches(self):
        runner = ScenarioRunner()
        runner.warm_for(("phpbb",))
        warmed = runner.caches.as_dict()["templates"]["size"]
        assert warmed > 0
        runner.warm_for(("phpbb",))
        assert runner.caches.as_dict()["templates"]["size"] == warmed
        cacheless = ScenarioRunner(compile_caches=False)
        cacheless.warm_for(("phpbb",))
        assert cacheless._warmed_apps == set()

    def test_lazy_warm_up_matches_pre_warmed_runner(self):
        """Warming up front (``warm_for``) and on demand give the same report."""
        pre_warmed = ScenarioRunner()
        pre_warmed.warm_for(ScenarioGenerator(seed=SEED, attack_ratio=ATTACK_RATIO).apps)
        reports = [
            run_suite(
                generator=ScenarioGenerator(seed=SEED, attack_ratio=ATTACK_RATIO),
                runner=runner,
                count=10,
            ).parity_dict()
            for runner in (ScenarioRunner(), pre_warmed)
        ]
        assert canonical_spec_json(reports[0]) == canonical_spec_json(reports[1])


class TestVerdictAccounting:
    """A shard that drops verdicts must fail loudly, never merge short."""

    def _suite(self, indices):
        suite = SuiteResult(seed=SEED, count=len(indices), models=("escudo",))
        for index in indices:
            suite.indices.append(index)
            suite.verdicts.append(
                Verdict(scenario=f"s{index}", kind="benign", ok=True, reason="ok")
            )
        return suite

    def test_matching_slice_pairs_verdicts_with_global_indices(self):
        entries = _verdict_entries(0, [4, 5, 6], self._suite([4, 5, 6]))
        assert [entry["index"] for entry in entries] == [4, 5, 6]

    def test_short_suite_names_shard_and_first_missing_index(self):
        with pytest.raises(RuntimeError, match=r"shard 3: 2 verdict\(s\) for 3"):
            _verdict_entries(3, [7, 8, 9], self._suite([7, 8]))
        with pytest.raises(RuntimeError, match="first unaccounted index is 9"):
            _verdict_entries(3, [7, 8, 9], self._suite([7, 8]))

    def test_reordered_suite_is_rejected(self):
        with pytest.raises(RuntimeError, match="shard 1"):
            _verdict_entries(1, [2, 3], self._suite([3, 2]))

    def test_in_process_shard_mismatch_propagates(self, monkeypatch):
        """The single-worker run goes through the same loud check.

        ``steal_chunk=3`` puts the whole range in one chunk, so the dropped
        verdict is the chunk's last.
        """
        import repro.scenarios.parallel as parallel_mod

        real_run_suite = parallel_mod.run_suite

        def drop_last(**kwargs):
            suite = real_run_suite(**kwargs)
            if suite.verdicts:
                suite.verdicts.pop()
                suite.indices.pop()
            return suite

        monkeypatch.setattr(parallel_mod, "run_suite", drop_last)
        with pytest.raises(RuntimeError, match=r"shard 0: 2 verdict\(s\) for 3"):
            run_suite_parallel(
                seed=SEED,
                count=3,
                attack_ratio=0.0,
                workers=1,
                steal_chunk=3,
                persist_failures=False,
            )


class TestOneWorkerRun:
    """One worker runs the pool's worker loop in-process, under the same checks."""

    def test_negative_steal_chunk_is_rejected(self):
        with pytest.raises(ValueError):
            run_suite_parallel(seed=SEED, count=5, workers=1, steal_chunk=-3)

    def test_out_of_range_crash_schedule_is_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            run_suite_parallel(seed=SEED, count=5, workers=1, crash_schedule=(99,))

    def test_crash_schedule_needs_a_pool(self):
        with pytest.raises(ValueError, match="at least two workers"):
            run_suite_parallel(seed=SEED, count=5, workers=1, crash_schedule=(0,))

    def test_steal_chunk_is_honoured_and_reported(self):
        result = run_suite_parallel(
            seed=SEED,
            count=5,
            attack_ratio=ATTACK_RATIO,
            workers=1,
            steal_chunk=2,
            persist_failures=False,
        )
        assert result.steal_chunk == 2
        assert result.shard_stats[0]["chunks_stolen"] == 3
        assert result.mp_start_method == ""
        serial = run_suite(seed=SEED, count=5, attack_ratio=ATTACK_RATIO)
        assert result.parity_dict() == serial.parity_dict()

    def test_interrupt_stays_an_interrupt(self, monkeypatch):
        import repro.scenarios.parallel as parallel_mod

        def interrupted(**kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel_mod, "run_suite", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_suite_parallel(seed=SEED, count=2, workers=1, persist_failures=False)


class TestFailurePersistence:
    def _failing_run(self, tmp_path, *, count=3, workers=2):
        # Removing the protected column makes every attack scenario violate
        # the differential invariant deterministically -- a synthetic failure
        # source that needs no broken implementation.
        return run_suite_parallel(
            seed=SEED,
            count=count,
            attack_ratio=1.0,
            models=("sop", "none"),
            workers=workers,
            corpus_dir=tmp_path,
        )

    def test_failing_specs_land_in_the_corpus(self, tmp_path):
        result = self._failing_run(tmp_path)
        assert not result.ok
        assert len(result.failures) == 3
        assert len(result.corpus_paths) == 3
        entries = load_corpus(tmp_path)
        assert len(entries) == 3
        for _, entry in entries:
            assert entry.expect_ok is False
            assert entry.models == ("sop", "none")
            assert "escudo" in entry.reason
            # The pinned spec replays and still reproduces the violation.
            verdict = entry.replay_verdict()
            assert not verdict.ok

    def test_reruns_deduplicate_corpus_entries(self, tmp_path):
        first = self._failing_run(tmp_path)
        second = self._failing_run(tmp_path, workers=1)
        assert sorted(first.corpus_paths) == sorted(second.corpus_paths)
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_persistence_can_be_disabled(self, tmp_path):
        result = run_suite_parallel(
            seed=SEED,
            count=2,
            attack_ratio=1.0,
            models=("sop", "none"),
            workers=2,
            corpus_dir=tmp_path,
            persist_failures=False,
        )
        assert not result.ok
        assert result.corpus_paths == []
        assert list(tmp_path.glob("*.json")) == []
