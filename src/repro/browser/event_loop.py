"""A deterministic browser event loop driven by a virtual clock.

Until this module existed the runtime faked asynchrony: ``setTimeout``
callbacks ran inside the registering script and ``XMLHttpRequest``
completed inline, so no paper-relevant *deferred* behaviour -- a callback
firing after a policy relabel, an XHR completing after the page finished
loading, two principals' timers interleaving -- was reachable.  The event
loop makes those behaviours real while keeping every run exactly
reproducible:

* **Virtual clock.**  Time is a float of virtual milliseconds advanced only
  by :meth:`EventLoop.advance` / :meth:`EventLoop.drain`.  No wall clock is
  ever consulted, so the same schedule replays identically in any process.
* **Macrotasks and microtasks.**  Timers, queued XHR completions and event
  dispatches are macrotasks ordered by ``(due time, order key, sequence)``;
  after every macrotask the microtask queue is drained to empty, mirroring
  the HTML event-loop contract.
* **Real timer semantics.**  ``set_timeout`` returns a timer id,
  ``clear_timeout`` cancels it, and a callback scheduled with a positive
  delay does *not* run until the clock reaches its due time -- page load
  only settles the time-zero horizon (:meth:`advance` of 0), so deferred
  work survives the load and races later policy changes, which is exactly
  what the TOCTOU scenarios exercise.
* **Seeded interleaving.**  Tasks sharing a due time normally run in FIFO
  order.  An ``interleave_key`` replaces the FIFO tiebreak with a
  deterministic pseudo-random permutation of the sequence numbers, so the
  scenario generator can explore *different but replayable* task orderings
  from the scenario seed.

The loop is intentionally unaware of mediation: callbacks consult the
reference monitor themselves when they run, which is what makes every
task-phase access a *completion-time* decision (and every denial
attributable in the page's audit log).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

#: Virtual latency of an asynchronous XMLHttpRequest: ``send()`` enqueues the
#: completion this far in the future, so an async response never lands inside
#: the load's time-zero settle -- the caller must advance or drain the loop.
XHR_COMPLETION_LATENCY_MS = 1.0

#: Default runaway guard: one drain/advance may run at most this many tasks.
DEFAULT_TASK_BUDGET = 100_000


class EventLoopBudgetExceeded(RuntimeError):
    """A drain ran more tasks than the budget allows (a runaway scheduler)."""


@dataclass
class ScheduledTask:
    """One queued macrotask."""

    task_id: int
    kind: str  # "timer" | "xhr" | "dispatch" | "task"
    callback: Callable[[], None]
    due: float
    seq: int
    label: str = ""
    cancelled: bool = False


@dataclass
class EventLoopStats:
    """Counters the benchmarks and determinism tests read."""

    tasks_run: int = 0
    timers_fired: int = 0
    cancelled: int = 0


def _mix(key: int, seq: int) -> int:
    """Deterministic 32-bit mix of ``(interleave key, sequence number)``.

    Pure integer arithmetic -- no hashing, no RNG state -- so the induced
    permutation of same-due tasks is identical in every process and under
    every ``PYTHONHASHSEED``.
    """
    x = (seq ^ (key & 0xFFFFFFFF)) & 0xFFFFFFFF
    x = (x * 0x9E3779B1) & 0xFFFFFFFF
    x ^= x >> 16
    return x


class EventLoop:
    """Deterministic macrotask/microtask scheduler for one page."""

    def __init__(
        self,
        *,
        interleave_key: int | None = None,
        task_budget: int = DEFAULT_TASK_BUDGET,
        record_trace: bool = False,
    ) -> None:
        self.now = 0.0
        self.interleave_key = interleave_key
        self.task_budget = task_budget
        self.record_trace = record_trace
        self.stats = EventLoopStats()
        #: Labels of executed tasks, in execution order.  Opt-in via
        #: ``record_trace`` (the determinism tests compare traces across
        #: runs); a long-lived page must not accumulate label strings.
        self.trace: list[str] = []
        self._seq = 0
        self._heap: list[tuple[float, int, int, ScheduledTask]] = []
        self._pending: dict[int, ScheduledTask] = {}
        self._microtasks: deque[Callable[[], None]] = deque()
        self._next_id = 1
        #: Fault-plane seam: when set, called as ``interceptor(loop, task)``
        #: after every :meth:`post` while the task is still pending.  The
        #: interceptor may cancel the task (a lost completion) or post a
        #: duplicate.  ``None`` (the default) is the exact pre-existing
        #: behaviour -- task ids and sequence numbers are unaffected by an
        #: interceptor that declines to act, so an armed-but-empty fault
        #: plan stays byte-passive.
        self.task_interceptor: Callable[["EventLoop", ScheduledTask], None] | None = None

    # -- scheduling -----------------------------------------------------------------

    def post(
        self,
        callback: Callable[[], None],
        *,
        delay: float = 0.0,
        kind: str = "task",
        label: str = "",
    ) -> ScheduledTask:
        """Enqueue a macrotask ``delay`` virtual milliseconds from now."""
        task = ScheduledTask(
            task_id=self._next_id,
            kind=kind,
            callback=callback,
            due=self.now + max(0.0, float(delay)),
            seq=self._seq,
            label=label or kind,
        )
        self._next_id += 1
        self._seq += 1
        order = task.seq if self.interleave_key is None else _mix(self.interleave_key, task.seq)
        heapq.heappush(self._heap, (task.due, order, task.seq, task))
        self._pending[task.task_id] = task
        if self.task_interceptor is not None:
            self.task_interceptor(self, task)
        return task

    def set_timeout(self, callback: Callable[[], None], delay: float = 0.0, *, label: str = "") -> int:
        """``setTimeout``: schedule ``callback`` and return its timer id."""
        return self.post(callback, delay=delay, kind="timer", label=label or "timer").task_id

    def clear_timeout(self, timer_id: int) -> bool:
        """``clearTimeout``: cancel a pending *timer* (False when unknown/run).

        Only ``timer`` tasks are cancellable through this script-facing
        entry point: task ids share one sequence with queued XHR completions
        and event dispatches, and a guessed id must not let a script cancel
        another principal's pending work -- that would silently skip the
        completion-time mediation (no decision, no audit record).  Host code
        cancelling its own task (XHR abort) uses :meth:`cancel` directly.
        """
        task = self._pending.get(timer_id)
        if task is None or task.kind != "timer":
            return False
        return self.cancel(timer_id)

    def cancel(self, task_id: int) -> bool:
        """Cancel any pending macrotask by id."""
        task = self._pending.pop(task_id, None)
        if task is None:
            return False
        task.cancelled = True
        self.stats.cancelled += 1
        return True

    def enqueue_microtask(self, callback: Callable[[], None]) -> None:
        """Queue a microtask (drained to empty after every macrotask)."""
        self._microtasks.append(callback)

    # -- inspection -----------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Live (non-cancelled) macrotasks plus queued microtasks."""
        return len(self._pending) + len(self._microtasks)

    @property
    def quiescent(self) -> bool:
        """True when nothing is queued at any future time."""
        return self.pending_count == 0

    def next_due(self) -> float | None:
        """Due time of the next live macrotask (None when quiescent)."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][3].due if self._heap else None

    # -- execution ------------------------------------------------------------------

    def run_task(self, task: ScheduledTask | int) -> bool:
        """Run one specific pending task immediately, out of band.

        The synchronous XHR path uses this: ``send()`` still enqueues its
        completion (so sync and async share one code path and one mediation
        point), then executes that single task in place.  The virtual clock
        does not move.  Returns False when the task is unknown or cancelled.
        """
        task_id = task.task_id if isinstance(task, ScheduledTask) else int(task)
        found = self._pending.pop(task_id, None)
        if found is None:
            return False
        found.cancelled = True  # the lazy heap entry must not run again
        self._execute(found)
        return True

    def advance(self, ms: float) -> int:
        """Advance the virtual clock by ``ms``, running every task due on the way.

        Tasks scheduled *during* the advance also run if they fall due within
        the window (a zero-delay timer chains at the same instant).  Returns
        the number of macrotasks executed; the clock always lands on
        ``now + ms`` even if fewer tasks were due.
        """
        target = self.now + max(0.0, float(ms))
        executed = self._run_due(target)
        self.now = target
        return executed

    def drain(self) -> int:
        """Run every queued task to quiescence, advancing the clock as needed.

        Equivalent to advancing past the last due time repeatedly until the
        queue is empty.  Returns the number of macrotasks executed.
        """
        return self._run_due(None)

    def _run_due(self, limit: float | None) -> int:
        """The scheduler core: run live tasks due within ``limit`` (None = all)."""
        executed = 0
        self._drain_microtasks()
        while True:
            due = self.next_due()
            if due is None or (limit is not None and due > limit):
                break
            if executed >= self.task_budget:
                raise EventLoopBudgetExceeded(
                    f"event loop ran {executed} tasks without quiescing (budget {self.task_budget})"
                )
            entry = heapq.heappop(self._heap)[3]
            self._pending.pop(entry.task_id, None)
            self.now = max(self.now, entry.due)
            self._execute(entry)
            executed += 1
        return executed

    def settle(self) -> int:
        """Run everything already due *now* (the page-load horizon).

        Unlike :meth:`drain`, timers with a positive delay stay queued --
        deferred work deliberately survives the load so later steps can race
        policy changes against it.
        """
        return self.advance(0.0)

    def close(self) -> None:
        """Drop every queued task and microtask, callbacks included.

        Page teardown: a queued callback closes over its page's objects
        (an XHR completion over the XHR that holds the task), so the tasks
        are emptied as well as unqueued.  The counters stay readable; the
        loop must not be run again.
        """
        for entry in self._heap:
            task = entry[3]
            task.cancelled = True
            task.callback = None
        self._heap.clear()
        self._pending.clear()
        self._microtasks.clear()
        self.task_interceptor = None

    # -- internals ------------------------------------------------------------------

    def _execute(self, task: ScheduledTask) -> None:
        self.stats.tasks_run += 1
        if task.kind == "timer":
            self.stats.timers_fired += 1
        if self.record_trace:
            self.trace.append(task.label)
        task.callback()
        self._drain_microtasks()

    def _drain_microtasks(self) -> None:
        guard = 0
        while self._microtasks:
            if guard >= self.task_budget:
                raise EventLoopBudgetExceeded(
                    f"microtask queue did not drain within {self.task_budget} steps"
                )
            callback = self._microtasks.popleft()
            callback()
            guard += 1
