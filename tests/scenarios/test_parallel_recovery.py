"""Worker-crash recovery in the sharded executor.

Crashed workers (``os._exit`` mid-run, injected by the fault plane's
``worker.crash`` site or an explicit ``crash_schedule``) must be detected,
their claimed-but-unreported chunks requeued, and a replacement respawned
-- with the merged result staying byte-identical to the serial run under
exactly-once verdict accounting.

A crash schedule names steal-queue chunk ordinals, not workers: whichever
worker claims a scheduled chunk dies.  Every chunk is claimed exactly once
(a requeued remainder carries no ordinal), so the crash count equals the
schedule length however the steals fall; which worker dies does not, so
the assertions count crashes instead of naming worker ids.
"""

from __future__ import annotations

import json

import pytest

from repro.faults.plan import FaultConfig
from repro.scenarios.engine import run_suite
from repro.scenarios.parallel import run_suite_parallel


def canon(result) -> str:
    return json.dumps(result.parity_dict(), sort_keys=True)


class TestExplicitCrashSchedule:
    def test_single_crash_recovers_with_serial_parity(self):
        serial = run_suite(seed=7, count=18)
        crashed = run_suite_parallel(
            seed=7, count=18, workers=3, persist_failures=False,
            crash_schedule=(2,),
        )
        assert canon(serial) == canon(crashed)
        assert len(crashed.crashed_workers) == 1
        assert crashed.respawns == 1

    def test_multiple_crashes_recover_with_serial_parity(self):
        serial = run_suite(seed=7, count=24)
        crashed = run_suite_parallel(
            seed=7, count=24, workers=3, persist_failures=False,
            crash_schedule=(0, 3),
        )
        assert canon(serial) == canon(crashed)
        assert len(crashed.crashed_workers) == 2
        assert crashed.respawns == 2

    def test_shard_stats_mark_the_dead_and_the_replacements(self):
        result = run_suite_parallel(
            seed=7, count=18, workers=3, persist_failures=False,
            crash_schedule=(2,),
        )
        by_worker = {stat["shard"]: stat for stat in result.shard_stats}
        assert [stat["crashed"] for stat in result.shard_stats].count(True) == 1
        # The replacement gets a fresh id past the initial pool.
        assert any(worker >= 3 for worker in by_worker)
        # Exactly-once: every scenario counted in exactly one shard, the
        # crashed worker keeping only what it reported before dying.
        assert sum(s["scenarios"] for s in result.shard_stats) == 18

    def test_crash_telemetry_stays_out_of_parity(self):
        result = run_suite_parallel(
            seed=7, count=18, workers=3, persist_failures=False,
            crash_schedule=(2,),
        )
        parity = result.parity_dict()
        assert "respawns" not in parity
        assert "crashed_workers" not in parity
        payload = result.as_dict()
        assert payload["respawns"] == 1
        assert len(payload["crashed_workers"]) == 1


class TestFaultPlanDerivedCrashes:
    def test_worker_rate_crashes_and_recovers_with_parity(self):
        faults = FaultConfig(seed=11, worker=1.0)
        serial = run_suite(seed=7, count=18)
        crashed = run_suite_parallel(
            seed=7, count=18, workers=3, persist_failures=False, faults=faults,
        )
        # 18 scenarios over 3 workers: auto chunk size 2, nine chunks.
        schedule = faults.crash_schedule(3, 9)
        assert schedule, "rate 1.0 must schedule crashes"
        assert canon(serial) == canon(crashed)
        assert crashed.respawns == len(schedule)
        assert len(crashed.crashed_workers) == len(schedule)

    def test_combined_fault_sites_preserve_parity_and_telemetry(self):
        # Faults in the run (network/storage/xhr) *and* worker crashes at
        # once: parity must hold and the merged fault telemetry must be
        # identical to the serial faulted run -- sharding cannot change
        # what was injected.
        faults = FaultConfig(seed=11, network=0.2, storage=0.2, xhr=0.2, worker=0.5)
        serial = run_suite(seed=7, count=16, faults=faults)
        pool = run_suite_parallel(
            seed=7, count=16, workers=3, persist_failures=False, faults=faults,
        )
        assert serial.ok
        assert canon(serial) == canon(pool)
        assert pool.faults == serial.faults

    def test_summary_mentions_the_recovery(self):
        result = run_suite_parallel(
            seed=7, count=18, workers=3, persist_failures=False,
            crash_schedule=(2,),
        )
        assert "worker crash" in result.summary()

    def test_crash_on_the_last_chunk_recovers(self):
        serial = run_suite(seed=7, count=18)
        crashed = run_suite_parallel(
            seed=7, count=18, workers=3, persist_failures=False,
            crash_schedule=(8,),
        )
        assert canon(serial) == canon(crashed)
        assert crashed.respawns == 1

    def test_out_of_range_chunk_is_rejected(self):
        with pytest.raises(ValueError, match=r"chunks 0\.\.8"):
            run_suite_parallel(
                seed=7, count=18, workers=3, persist_failures=False,
                crash_schedule=(9,),
            )
