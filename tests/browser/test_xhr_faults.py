"""XHR completion under the fault plane: lost/duplicated tasks, retries.

The ``xhr.completion`` fault site intercepts the completion task at
post time: ``lose`` cancels it (the resilience layer re-posts with capped
virtual-clock exponential backoff), ``duplicate`` posts a second copy (the
generation guard suppresses it).  The security claim threaded through all
of it: every completion that *delivers* still runs the completion-time USE
mediation, so no fault schedule can turn a denied request into a served
one.
"""

from __future__ import annotations

import pytest

from repro.browser.browser import Browser
from repro.faults.plan import SITE_XHR, FaultConfig, FaultPlan

from .test_xhr import make_xhr


@pytest.fixture
def faulted_forum(forum_network, forum_url):
    """Browser + loaded forum with a fault-plan slot ready to arm."""
    network, server = forum_network
    browser = Browser(network)
    loaded = browser.load(forum_url)
    return browser, server, loaded


def arm(browser, loaded, config: FaultConfig) -> FaultPlan:
    """Arm ``config`` on an already-loaded page (as the runner does pre-load)."""
    plan = config.plan_for("test", "escudo")
    browser.network.fault_plan = plan
    if plan.wants(SITE_XHR):
        loaded.page.event_loop.task_interceptor = browser._xhr_task_interceptor
    return plan


class ScriptedPlan(FaultPlan):
    """A plan whose xhr.completion site follows an explicit script."""

    def __init__(self, kinds, *, retries: bool = True):
        super().__init__(
            FaultConfig(seed=0, xhr=1.0, retries=retries), key="scripted"
        )
        self._script = list(kinds)

    def decide(self, site: str):
        if site != SITE_XHR or not self._script:
            return None
        kind = self._script.pop(0)
        if kind is not None:
            self.stats.note_injected(site, kind)
        return kind


def arm_scripted(browser, loaded, kinds, *, retries: bool = True) -> ScriptedPlan:
    plan = ScriptedPlan(kinds, retries=retries)
    browser.network.fault_plan = plan
    loaded.page.event_loop.task_interceptor = browser._xhr_task_interceptor
    return plan


class TestLostCompletions:
    def test_sync_send_retries_a_lost_completion_in_place(self, faulted_forum):
        browser, _, loaded = faulted_forum
        plan = arm_scripted(browser, loaded, ["lose"])
        xhr = make_xhr(browser, loaded, ring=1)
        xhr.js_call("open", ["GET", "/api/unread"])
        xhr.js_call("send", [])
        assert xhr.js_get("status") == 200
        assert xhr.js_get("responseText") == "3"
        assert plan.stats.retries.get(SITE_XHR) == 1

    def test_async_send_recovers_via_backoff_timer(self, faulted_forum):
        browser, _, loaded = faulted_forum
        plan = arm_scripted(browser, loaded, ["lose"])
        xhr = make_xhr(browser, loaded, ring=1)
        xhr.js_call("open", ["GET", "/api/unread", True])
        xhr.js_call("send", [])
        assert xhr.js_get("status") == 0, "completion was lost, nothing ran yet"
        loaded.page.event_loop.drain()
        assert xhr.js_get("status") == 200
        assert plan.stats.recoveries == 1
        assert plan.stats.recovery_latency_ms > 0, "backoff is paid in virtual ms"

    def test_repeated_losses_eventually_recover_within_the_cap(self, faulted_forum):
        browser, _, loaded = faulted_forum
        plan = arm_scripted(browser, loaded, ["lose", "lose", "lose"])
        xhr = make_xhr(browser, loaded, ring=1)
        xhr.js_call("open", ["GET", "/api/unread", True])
        xhr.js_call("send", [])
        loaded.page.event_loop.drain()
        assert xhr.js_get("status") == 200
        assert plan.stats.retries.get(SITE_XHR) == 3

    def test_without_retries_a_lost_completion_stays_lost(self, faulted_forum):
        browser, server, loaded = faulted_forum
        before = len(server.requests)
        arm_scripted(browser, loaded, ["lose"], retries=False)
        xhr = make_xhr(browser, loaded, ring=1)
        xhr.js_call("open", ["GET", "/api/unread"])
        xhr.js_call("send", [])
        assert xhr.js_get("status") == 0
        assert xhr.js_get("responseText") == ""
        assert len(server.requests) == before, "the request never went out"


class TestDuplicatedCompletions:
    def test_duplicate_delivery_is_suppressed_exactly_once(self, faulted_forum):
        browser, server, loaded = faulted_forum
        plan = arm_scripted(browser, loaded, ["duplicate"])
        before = len(server.requests)
        xhr = make_xhr(browser, loaded, ring=1)
        xhr.js_call("open", ["GET", "/api/unread", True])
        xhr.js_call("send", [])
        loaded.page.event_loop.drain()
        assert xhr.js_get("status") == 200
        assert plan.stats.suppressed_duplicates == 1
        assert len(server.requests) == before + 1, "one network request, not two"

    def test_duplication_cannot_bypass_a_denial(self, faulted_forum):
        # Fail-closed under duplication: the delivered completion runs the
        # completion-time USE mediation, and the duplicate is suppressed --
        # a denied XHR stays denied whatever the schedule does.
        browser, server, loaded = faulted_forum
        before = len(server.requests)
        arm_scripted(browser, loaded, ["duplicate"])
        xhr = make_xhr(browser, loaded, ring=3)
        xhr.js_call("open", ["GET", "/api/unread", True])
        xhr.js_call("send", [])
        loaded.page.event_loop.drain()
        assert xhr.denied
        assert xhr.js_get("status") == 0
        assert len(server.requests) == before, "no copy ever reached the network"


class TestRealScheduleIntegration:
    def test_seeded_plan_at_full_rate_still_completes(self, faulted_forum):
        browser, _, loaded = faulted_forum
        plan = arm(browser, loaded, FaultConfig(seed=9, xhr=1.0))
        xhr = make_xhr(browser, loaded, ring=1)
        xhr.js_call("open", ["GET", "/api/unread", True])
        xhr.js_call("send", [])
        loaded.page.event_loop.drain()
        assert xhr.js_get("status") == 200
        assert plan.stats.total_injected > 0

    @pytest.mark.parametrize("asynchronous", [False, True], ids=["sync", "async"])
    def test_a_recovered_send_counts_one_recovery_in_either_mode(self, faulted_forum, asynchronous):
        # Seed 8 loses the first two completions; the third re-post survives.
        browser, _, loaded = faulted_forum
        plan = arm(browser, loaded, FaultConfig(seed=8, xhr=1.0))
        xhr = make_xhr(browser, loaded, ring=1)
        xhr.js_call("open", ["GET", "/api/unread", asynchronous])
        xhr.js_call("send", [])
        loaded.page.event_loop.drain()
        assert xhr.js_get("status") == 200
        assert plan.stats.retries.get(SITE_XHR) == 2
        assert plan.stats.recoveries == 1

    def test_zero_rate_plan_never_installs_the_interceptor(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network)
        browser.network.fault_plan = FaultConfig.empty().plan_for("test", "escudo")
        loaded = browser.load(forum_url)
        assert loaded.page.event_loop.task_interceptor is None
