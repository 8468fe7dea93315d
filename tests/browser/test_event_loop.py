"""The deterministic event loop: ordering, timers, interleaving, TOCTOU.

The loop is the substrate for every deferred behaviour the scenario engine
exercises, so its contract is pinned tightly:

* virtual-clock ordering is total and deterministic (due time, then the
  FIFO or seeded-interleave tiebreak, then sequence);
* ``setTimeout`` / ``clearTimeout`` have real semantics (ids, cancellation,
  positive delays deferring past the current script);
* ``advance`` runs exactly the tasks due in the window, ``drain`` runs to
  quiescence, ``settle`` only clears the time-zero horizon;
* an async XHR completion queued behind a policy swap is decided against
  the policy *at completion time* and the denial is attributable in the
  page's audit log (the TOCTOU rule).
"""

from __future__ import annotations

import pytest

from repro.browser.browser import Browser
from repro.browser.event_loop import (
    EventLoop,
    EventLoopBudgetExceeded,
    XHR_COMPLETION_LATENCY_MS,
)
from repro.core.config import ResourcePolicy
from repro.core.decision import Operation

from .conftest import ForumServer


class TestSchedulingOrder:
    def test_fifo_among_same_due_tasks(self):
        loop = EventLoop(record_trace=True)
        order: list[str] = []
        for name in ("a", "b", "c"):
            loop.post(lambda name=name: order.append(name), label=name)
        loop.drain()
        assert order == ["a", "b", "c"]
        # The opt-in trace records executed labels in order (what the
        # determinism comparisons read).
        assert loop.trace == ["a", "b", "c"]

    def test_drain_runs_each_posted_task_exactly_once(self):
        loop = EventLoop()
        ran: list[int] = []
        for index in range(500):
            loop.post(lambda index=index: ran.append(index))
        assert loop.drain() == 500
        assert ran == list(range(500))
        assert loop.drain() == 0

    def test_trace_is_off_by_default(self):
        loop = EventLoop()
        loop.post(lambda: None)
        loop.drain()
        assert loop.trace == []  # no unbounded label accumulation on pages

    def test_due_time_dominates_enqueue_order(self):
        loop = EventLoop()
        order: list[str] = []
        loop.set_timeout(lambda: order.append("late"), 10)
        loop.set_timeout(lambda: order.append("early"), 1)
        loop.post(lambda: order.append("now"))
        loop.drain()
        assert order == ["now", "early", "late"]

    def test_advance_runs_only_tasks_due_in_the_window(self):
        loop = EventLoop()
        order: list[str] = []
        loop.set_timeout(lambda: order.append("at-5"), 5)
        loop.set_timeout(lambda: order.append("at-50"), 50)
        assert loop.advance(10) == 1
        assert order == ["at-5"]
        assert loop.now == 10.0
        assert not loop.quiescent
        loop.drain()
        assert order == ["at-5", "at-50"]
        assert loop.quiescent

    def test_zero_delay_timer_chains_within_one_advance(self):
        loop = EventLoop()
        order: list[str] = []

        def first():
            order.append("first")
            loop.set_timeout(lambda: order.append("chained"), 0)

        loop.set_timeout(first, 0)
        loop.settle()
        assert order == ["first", "chained"]

    def test_settle_leaves_deferred_timers_queued(self):
        loop = EventLoop()
        order: list[str] = []
        loop.post(lambda: order.append("now"))
        loop.set_timeout(lambda: order.append("later"), 3)
        loop.settle()
        assert order == ["now"]
        assert loop.pending_count == 1

    def test_microtasks_drain_after_every_macrotask(self):
        loop = EventLoop()
        order: list[str] = []

        def macro(name):
            order.append(name)
            loop.enqueue_microtask(lambda: order.append(f"micro-after-{name}"))

        loop.post(lambda: macro("m1"))
        loop.post(lambda: macro("m2"))
        loop.drain()
        assert order == ["m1", "micro-after-m1", "m2", "micro-after-m2"]

    def test_runaway_scheduler_hits_the_budget(self):
        loop = EventLoop(task_budget=100)

        def reschedule():
            loop.set_timeout(reschedule, 0)

        loop.set_timeout(reschedule, 0)
        with pytest.raises(EventLoopBudgetExceeded):
            loop.drain()


class TestTimers:
    def test_clear_timeout_cancels(self):
        loop = EventLoop()
        fired: list[int] = []
        timer = loop.set_timeout(lambda: fired.append(1), 5)
        assert loop.clear_timeout(timer) is True
        assert loop.clear_timeout(timer) is False  # already cancelled
        loop.drain()
        assert fired == []
        assert loop.stats.cancelled == 1

    def test_clear_timeout_cannot_cancel_non_timer_tasks(self):
        """A guessed id must not let a script cancel queued XHR/dispatch work.

        Cancelling another principal's pending completion would silently
        skip its completion-time mediation -- no decision, no audit record
        -- so the script-facing clearTimeout only touches timer tasks.
        """
        loop = EventLoop()
        fired: list[str] = []
        xhr_task = loop.post(lambda: fired.append("xhr"), delay=1.0, kind="xhr")
        assert loop.clear_timeout(xhr_task.task_id) is False
        loop.drain()
        assert fired == ["xhr"], "the non-timer task must survive clearTimeout"
        # Host code cancelling its own task (XHR abort) still works.
        other = loop.post(lambda: fired.append("again"), delay=1.0, kind="xhr")
        assert loop.cancel(other.task_id) is True

    def test_deferred_timers_each_mediate_exactly_once(self, loaded_forum):
        _, _, loaded = loaded_forum
        page = loaded.page
        document = page.document
        principal = page.principal_context_for(document.get_element_by_id("message-1"))
        targets = [
            page.principal_context_for(document.get_element_by_id("banner")),
            page.principal_context_for(document.get_element_by_id("message-1")),
        ]
        decisions: list[bool] = []
        before = page.monitor.stats.total
        for index in range(40):
            target = targets[index % len(targets)]
            page.event_loop.set_timeout(
                lambda target=target: decisions.append(
                    page.monitor.authorize(principal, target, Operation.READ).allowed
                ),
                float(index % 7),
            )
        assert page.monitor.stats.total == before, "no timer may fire inline"
        assert page.event_loop.drain() == 40
        assert len(decisions) == 40
        assert page.monitor.stats.total - before == 40

    def test_budget_allows_exactly_the_budgeted_number_of_tasks(self):
        loop = EventLoop(task_budget=3)
        ran: list[int] = []
        for index in range(3):
            loop.post(lambda index=index: ran.append(index))
        assert loop.drain() == 3  # exactly the budget is fine
        assert ran == [0, 1, 2]

    def test_run_task_executes_out_of_band_without_moving_the_clock(self):
        loop = EventLoop()
        fired: list[int] = []
        task = loop.post(lambda: fired.append(1), delay=100)
        assert loop.run_task(task) is True
        assert fired == [1]
        assert loop.now == 0.0
        assert loop.quiescent
        assert loop.run_task(task) is False  # cannot run twice


class TestInterleaving:
    def _trace(self, key):
        loop = EventLoop(interleave_key=key)
        order: list[int] = []
        for index in range(12):
            loop.post(lambda index=index: order.append(index))
        loop.drain()
        return order

    def test_same_key_reproduces_the_same_order(self):
        assert self._trace(1234) == self._trace(1234)

    def test_interleaving_permutes_same_due_tasks(self):
        fifo = self._trace(None)
        assert fifo == list(range(12))
        shuffled = {tuple(self._trace(key)) for key in (1, 2, 3, 4, 5)}
        assert any(order != tuple(fifo) for order in shuffled), (
            "a seeded interleave key should reorder at least one schedule"
        )

    def test_interleaving_respects_due_times(self):
        loop = EventLoop(interleave_key=99)
        order: list[str] = []
        loop.set_timeout(lambda: order.append("late"), 50)
        loop.post(lambda: order.append("now-a"))
        loop.post(lambda: order.append("now-b"))
        loop.drain()
        assert order[-1] == "late"


@pytest.fixture
def loaded_forum(forum_network, forum_url):
    network, server = forum_network
    browser = Browser(network)
    loaded = browser.load(forum_url)
    return browser, server, loaded


def _xhr_api_policy(page, policy: ResourcePolicy) -> None:
    """Simulate a server-side relabel of the XMLHttpRequest API object."""
    page.set_api_policy("XMLHttpRequest", policy)


class TestAsyncXhrThroughTheLoop:
    @pytest.mark.parametrize("sends", [1, 3])
    def test_async_send_completes_on_drain_not_inline(self, loaded_forum, sends):
        browser, server, loaded = loaded_forum
        before = len([r for r in server.requests if r.url.path == "/api/unread"])
        for _ in range(sends):
            run = browser.run_script(
                loaded,
                "var xhr = new XMLHttpRequest();"
                "xhr.open('GET', '/api/unread', true);"
                "xhr.send();"
                "xhr.readyState;",
                ring=1,
                drain=False,
            )
            assert run.succeeded
            assert run.result.value == 2  # sent, completion still queued
        assert len([r for r in server.requests if r.url.path == "/api/unread"]) == before
        # Each queued send completes exactly once, as one task.
        assert browser.drain(loaded) == sends
        after = len([r for r in server.requests if r.url.path == "/api/unread"])
        assert after == before + sends

    def test_async_completion_latency_is_virtual(self, loaded_forum):
        browser, _, loaded = loaded_forum
        browser.run_script(
            loaded,
            "var xhr = new XMLHttpRequest(); xhr.open('GET', '/api/unread', true); xhr.send();",
            ring=1,
            drain=False,
        )
        loop = loaded.page.event_loop
        assert loop.next_due() == pytest.approx(loop.now + XHR_COMPLETION_LATENCY_MS)

    def test_toctou_policy_swap_is_decided_at_completion_time(self, loaded_forum):
        """Permissive at send, restrictive at completion => denied (escudo)."""
        browser, server, loaded = loaded_forum
        page = loaded.page
        _xhr_api_policy(page, ResourcePolicy.uniform(3))  # ring-3 scripts may use XHR
        before = len(server.requests)
        browser.run_script(
            loaded,
            "var xhr = new XMLHttpRequest(); xhr.open('GET', '/api/unread', true); xhr.send();",
            ring=3,
            drain=False,
        )
        denied_before = page.monitor.stats.denied
        _xhr_api_policy(page, ResourcePolicy.ring_zero())  # the swap lands in-flight
        browser.drain(loaded)
        assert len(server.requests) == before, "the swapped-in policy must block delivery"
        assert page.monitor.stats.denied == denied_before + 1
        # Attributable: the completion-time denial is in the audit log.
        denial = page.monitor.audit.denials()[-1]
        assert denial.object_label == "XMLHttpRequest (native-api)"
        assert denial.denying_rule is not None

    def test_toctou_swap_toward_permissive_allows_at_completion(self, loaded_forum):
        """Restrictive at send, permissive at completion => allowed."""
        browser, server, loaded = loaded_forum
        page = loaded.page
        before = len(server.requests)
        browser.run_script(
            loaded,
            "var xhr = new XMLHttpRequest(); xhr.open('GET', '/api/unread', true); xhr.send();",
            ring=3,
            drain=False,
        )
        _xhr_api_policy(page, ResourcePolicy.uniform(3))
        browser.drain(loaded)
        assert len(server.requests) == before + 1


class TestLoadSettlesTheLoop:
    def test_inline_zero_delay_timer_runs_during_load(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network)
        loaded = browser.load(forum_url)
        # Document scripts already ran and the loop settled: whatever they
        # scheduled at time zero is done, the page is at a stable state.
        assert loaded.page.event_loop.now == 0.0

    def test_browser_interleave_seed_reaches_the_page_loop(self, forum_network, forum_url):
        network, _ = forum_network
        browser = Browser(network, interleave_seed=777)
        loaded = browser.load(forum_url)
        assert loaded.page.event_loop.interleave_key == 777
