"""Tests for the deterministic fault plan: schedules, caps, accounting."""

from __future__ import annotations

import pytest

from repro.faults.plan import (
    DEFAULT_BURST_CAP,
    SITE_KINDS,
    SITE_NETWORK,
    SITE_STORAGE,
    SITE_WORKER,
    SITE_XHR,
    FaultConfig,
    FaultPlan,
    FaultStats,
    merge_fault_stats,
)


def decisions(plan: FaultPlan, site: str, n: int) -> list:
    return [plan.decide(site) for _ in range(n)]


class TestDeterminism:
    def test_same_config_and_key_give_identical_schedules(self):
        config = FaultConfig.uniform(seed=7, rate=0.5)
        a = config.plan_for("scenario-3", "escudo")
        b = config.plan_for("scenario-3", "escudo")
        assert decisions(a, SITE_NETWORK, 64) == decisions(b, SITE_NETWORK, 64)

    def test_different_keys_give_independent_schedules(self):
        config = FaultConfig.uniform(seed=7, rate=0.5)
        a = decisions(config.plan_for("scenario-3", "escudo"), SITE_NETWORK, 64)
        b = decisions(config.plan_for("scenario-4", "escudo"), SITE_NETWORK, 64)
        c = decisions(config.plan_for("scenario-3", "sop"), SITE_NETWORK, 64)
        assert a != b
        assert a != c

    def test_different_seeds_give_independent_schedules(self):
        a = FaultConfig.uniform(seed=1, rate=0.5).plan_for("s", "m")
        b = FaultConfig.uniform(seed=2, rate=0.5).plan_for("s", "m")
        assert decisions(a, SITE_NETWORK, 64) != decisions(b, SITE_NETWORK, 64)

    def test_kinds_come_from_the_site_vocabulary(self):
        plan = FaultConfig.uniform(seed=3, rate=1.0).plan_for("s", "m")
        for site in (SITE_NETWORK, SITE_STORAGE, SITE_XHR):
            kinds = {kind for kind in decisions(plan, site, 30) if kind is not None}
            assert kinds and kinds <= set(SITE_KINDS[site])


class TestPassivity:
    def test_zero_rate_site_never_fires_and_touches_nothing(self):
        plan = FaultConfig.empty().plan_for("s", "m")
        assert decisions(plan, SITE_NETWORK, 20) == [None] * 20
        assert plan._counters == {}
        assert plan._streaks == {}
        assert plan.stats.as_dict() == {}

    def test_wants_reflects_site_rates(self):
        plan = FaultConfig(seed=1, network=0.5).plan_for("s", "m")
        assert plan.wants(SITE_NETWORK)
        assert not plan.wants(SITE_XHR)
        assert not FaultConfig.empty().plan_for("s", "m").wants(SITE_NETWORK)

    def test_empty_config_is_empty(self):
        assert FaultConfig.empty().is_empty
        assert not FaultConfig.uniform(seed=1, rate=0.1).is_empty


class TestBurstCap:
    def test_no_streak_ever_exceeds_the_cap_even_at_rate_one(self):
        plan = FaultConfig.uniform(seed=5, rate=1.0).plan_for("s", "m")
        streak = longest = 0
        for kind in decisions(plan, SITE_STORAGE, 50):
            streak = streak + 1 if kind is not None else 0
            longest = max(longest, streak)
        assert longest == DEFAULT_BURST_CAP

    def test_bounded_retry_loops_always_converge(self):
        # The resilience contract: after any fault, at most burst_cap more
        # draws are needed to find a clean slot -- so every bounded retry
        # loop with > burst_cap attempts deterministically succeeds.
        plan = FaultConfig.uniform(seed=5, rate=1.0).plan_for("s", "m")
        for _ in range(20):
            if plan.decide(SITE_STORAGE) is None:
                continue
            assert any(
                plan.decide(SITE_STORAGE) is None
                for _ in range(plan.burst_cap)
            ), "no clean slot within burst_cap draws after a fault"


class TestConfig:
    def test_round_trips_through_dict(self):
        config = FaultConfig(
            seed="s1", network=0.1, storage=0.2, xhr=0.3, worker=0.4,
            burst_cap=3, retries=False,
        )
        assert FaultConfig.from_dict(config.to_dict()) == config

    def test_uniform_arms_in_run_sites_only(self):
        config = FaultConfig.uniform(seed=1, rate=0.2)
        assert config.network == config.storage == config.xhr == 0.2
        assert config.worker == 0.0

    def test_rate_for_rejects_unknown_sites(self):
        with pytest.raises(KeyError):
            FaultConfig.empty().rate_for("no.such.site")


class TestCrashSchedule:
    def test_zero_worker_rate_schedules_nothing(self):
        assert FaultConfig.uniform(seed=1, rate=0.5).crash_schedule(4, 16) == ()

    def test_deterministic_and_within_the_chunk_count(self):
        config = FaultConfig(seed=13, worker=0.9)
        schedule = config.crash_schedule(4, 16)
        assert schedule == config.crash_schedule(4, 16)
        assert schedule, "a 0.9 worker rate should schedule at least one crash"
        assert list(schedule) == sorted(set(schedule))
        assert all(0 <= ordinal < 16 for ordinal in schedule)

    def test_never_schedules_the_whole_pool(self):
        # Even at rate 1.0 at most workers - 1 chunks crash (SITE_WORKER
        # models a worker fault, not a cluster outage).
        for workers in (2, 3, 5):
            schedule = FaultConfig(seed=13, worker=1.0).crash_schedule(workers, 20)
            assert 1 <= len(schedule) <= workers - 1

    def test_single_worker_pools_are_never_crashed(self):
        assert FaultConfig(seed=13, worker=1.0).crash_schedule(1, 8) == ()

    def test_empty_queue_is_never_crashed(self):
        assert FaultConfig(seed=13, worker=1.0).crash_schedule(3, 0) == ()


class TestStats:
    def test_empty_stats_serialise_to_empty_dict(self):
        assert FaultStats().as_dict() == {}

    def test_accounting_and_merge(self):
        a = FaultStats()
        a.note_injected(SITE_NETWORK, "drop")
        a.note_retry(SITE_NETWORK)
        a.note_retry(SITE_XHR, latency_ms=4.0)
        a.note_recovery()
        b = FaultStats()
        b.note_injected(SITE_NETWORK, "drop")
        b.note_injected(SITE_STORAGE, "busy")
        b.note_suppressed()

        merged: dict = {}
        merge_fault_stats(merged, a.as_dict())
        merge_fault_stats(merged, b.as_dict())
        assert merged["injected"] == {"network.request:drop": 2, "storage.write:busy": 1}
        assert merged["retries"] == {"network.request": 1, "xhr.completion": 1}
        assert merged["recoveries"] == 1
        assert merged["suppressed_duplicates"] == 1
        assert merged["recovery_latency_ms"] == 4.0

    def test_merge_into_empty_target_copies(self):
        stats = FaultStats()
        stats.note_injected(SITE_WORKER, "crash")
        target: dict = {}
        merge_fault_stats(target, stats.as_dict())
        assert target == stats.as_dict()
