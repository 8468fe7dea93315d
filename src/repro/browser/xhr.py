"""The ``XMLHttpRequest`` native API.

``XMLHttpRequest`` is one of the native-code objects of Table 1: web
applications may assign it a ring via the ``X-Escudo-Api-Policy`` header
(default: ring 0, fail-safe), and a script may only *use* it when its ring
passes the ACL's ``use`` entry.  A denied ``send()`` is neutralised -- the
request never reaches the network, ``status`` stays 0 and ``responseText``
stays empty -- mirroring how the prototype blocks unauthorised AJAX.

Completion goes through the page's event loop.  ``send()`` always enqueues
a completion task; for the default synchronous mode (two-argument
``open()``) the task runs in place, while ``open(method, url, true)``
leaves it queued until the loop is advanced or drained.  The ``use``
mediation lives inside the completion task, so the decision is made against
the policy *at completion time* -- a policy swapped between ``send()`` and
completion governs the outcome (the TOCTOU rule the deferred-attack
scenarios pin down), and either way the decision lands in the page's audit
log.

Requests that are allowed go through the browser's common request path, so
cookie attachment is mediated exactly like for form submissions and links.

The ``XMLHttpRequest`` table of :mod:`repro.scripting.host_members` is the
single declaration of the members a script sees; this class holds only the
handlers it names.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable

from repro.core.context import SecurityContext
from repro.core.decision import Operation
from repro.faults.plan import (
    SITE_XHR,
    XHR_BACKOFF_BASE_MS,
    XHR_BACKOFF_CAP_MS,
    XHR_RETRY_ATTEMPTS,
)
from repro.http.headers import Headers
from repro.scripting.errors import RuntimeScriptError
from repro.scripting.host_members import XHR
from repro.scripting.interpreter import HostObject

from .event_loop import XHR_COMPLETION_LATENCY_MS, ScheduledTask
from .page import Page


class XmlHttpRequest(HostObject):
    """Script-visible XHR object bound to one principal on one page."""

    host_name = XHR

    def __init__(
        self,
        browser,
        page: Page,
        principal: SecurityContext,
        *,
        invoke: Callable[[object, list], object] | None = None,
    ) -> None:
        self._browser = browser
        self._page = page
        self._principal = principal
        self._invoke = invoke
        self._method = "GET"
        self._url_text: str | None = None
        self._async = False
        #: Built by ``open()``: the completion task's label and the
        #: request's initiator label.
        self._task_label = ""
        self._initiator_label = ""
        # No header map until a script sets a request header or a response
        # is delivered (most XHRs do neither before they are read).
        self._request_headers: Headers | None = None
        self._response_headers: Headers | None = None
        self._pending: ScheduledTask | None = None
        self.status = 0.0
        self.response_text = ""
        self.ready_state = 0.0
        self._onload = None
        self._onreadystatechange = None
        self.denied = False
        # Exactly-once completion accounting under the fault plane: every
        # send() gets a fresh generation; only the completion carrying the
        # *current* generation may deliver, and only once.  Without a fault
        # plan the counters are inert (one send, one completion).
        self._send_generation = 0
        self._delivered_generation = 0

    # -- script-facing state -------------------------------------------------------

    _get_status = attrgetter("status")
    _get_response_text = attrgetter("response_text")
    _get_ready_state = attrgetter("ready_state")
    _get_onload = attrgetter("_onload")
    _get_onreadystatechange = attrgetter("_onreadystatechange")

    def _set_onload(self, value) -> None:
        self._onload = value

    def _set_onreadystatechange(self, value) -> None:
        self._onreadystatechange = value

    # -- behaviour ----------------------------------------------------------------------

    def _open(self, method, url, async_flag=None, *_ignored) -> None:
        """``open()``: (re)arm the object, clearing every per-request field.

        A reused object must not carry state from a previous request: an
        earlier denial, status, response body or buffered response headers
        would otherwise misreport the new request (the sticky-``denied``
        bug this reset fixes).  A completion still queued from a previous
        ``send()`` is cancelled outright.
        """
        self._reset_request_state(clear_request_headers=True)
        self._method = str(method).upper()
        self._url_text = str(url)
        self._async = bool(async_flag)
        self._task_label = f"xhr:{self._method} {self._url_text}"
        self._initiator_label = f"xhr:{self._principal.label}"
        self.ready_state = 1.0

    def _set_request_header(self, name, value) -> None:
        if self._request_headers is None:
            self._request_headers = Headers()
        self._request_headers.set(str(name), str(value))

    def _get_response_header(self, name) -> str | None:
        headers = self._response_headers
        return headers.get(str(name)) if headers is not None else None

    def _abort(self) -> None:
        """``abort()``: cancel any queued completion and reset the object.

        The author request headers, buffered response headers and the
        ``denied`` flag are cleared too, so an aborted object can be reused
        for a fresh request without carrying the aborted one's state.  The
        object is fully *disarmed*: the method/URL are dropped as well, so
        a ``send()`` without a fresh ``open()`` fails like on a new object
        instead of silently replaying the aborted request.
        """
        self._reset_request_state(clear_request_headers=True)
        self._method = "GET"
        self._url_text = None
        self._async = False
        self.ready_state = 0.0

    def _send(self, body=None) -> None:
        if self._url_text is None:
            raise RuntimeScriptError("XMLHttpRequest.send() called before open()")

        # Re-sending on the same object keeps the author request headers
        # (the caller configured them for this request); everything else
        # from the previous request is dropped.
        self._reset_request_state(clear_request_headers=False)

        payload = str(body) if body is not None else ""
        self._send_generation += 1
        generation = self._send_generation
        loop = self._page.event_loop
        task = self._post_completion(payload, generation)
        if self._async:
            self.ready_state = 2.0
            if task.cancelled:
                # The fault plane lost the queued completion; schedule the
                # first backoff retry (a no-op without retries armed).
                self._pending = None
                self._schedule_retry(payload, generation, attempt=1)
            return
        # Synchronous path: re-post in place when the plane keeps losing the
        # completion.  Bounded; the burst cap guarantees convergence well
        # inside the cap when retries are armed.
        for attempt in range(XHR_RETRY_ATTEMPTS):
            if not task.cancelled:
                self._pending = None
                if attempt:
                    # A re-posted completion survived: the send recovered.
                    self._fault_plan().stats.note_recovery()
                loop.run_task(task)
                return
            plan = self._fault_plan()
            if plan is None or not plan.retries:
                # Lost for good: the request never completes (status stays 0).
                self._pending = None
                return
            plan.stats.note_retry(SITE_XHR)
            task = self._post_completion(payload, generation)
        self._pending = None

    def _post_completion(self, payload: str, generation: int) -> ScheduledTask:
        """Enqueue the completion task for ``generation`` (shared by retries)."""
        task = self._page.event_loop.post(
            lambda: self._complete(payload, generation),
            delay=XHR_COMPLETION_LATENCY_MS if self._async else 0.0,
            kind="xhr",
            label=self._task_label,
        )
        self._pending = task
        return task

    def _fault_plan(self):
        return self._browser.network.fault_plan

    def _schedule_retry(self, payload: str, generation: int, attempt: int) -> None:
        """Capped exponential virtual-clock backoff for a lost async completion."""
        plan = self._fault_plan()
        if plan is None or not plan.retries or attempt > XHR_RETRY_ATTEMPTS:
            return
        delay = min(XHR_BACKOFF_CAP_MS, XHR_BACKOFF_BASE_MS * (2 ** (attempt - 1)))
        plan.stats.note_retry(SITE_XHR, latency_ms=delay)
        self._page.event_loop.set_timeout(
            lambda: self._retry_send(payload, generation, attempt),
            delay,
            label=f"xhr-retry:{attempt}",
        )

    def _retry_send(self, payload: str, generation: int, attempt: int) -> None:
        """Backoff timer body: re-post the completion unless superseded."""
        if generation != self._send_generation or self._delivered_generation >= generation:
            return
        task = self._post_completion(payload, generation)
        if task.cancelled:
            self._pending = None
            self._schedule_retry(payload, generation, attempt + 1)
        else:
            plan = self._fault_plan()
            if plan is not None:
                plan.stats.note_recovery()

    def _complete(self, body: str, generation: int) -> None:
        """The queued completion: mediation *and* delivery happen here.

        Running the ``use`` check at completion time (not at ``send()``)
        is what makes the decision reflect policy changes that landed while
        the task was queued.

        Exactly-once guard: a completion whose generation was superseded by
        a newer ``send()``/``open()``, or already delivered (the fault
        plane's duplicated task), is suppressed before any state or callback
        is touched.  Every completion that *does* deliver runs the full
        mediation below -- duplication can never bypass the USE check, so a
        denied request stays denied under any fault schedule (fail-closed).
        """
        if generation != self._send_generation or self._delivered_generation >= generation:
            plan = self._fault_plan()
            if plan is not None:
                plan.stats.note_suppressed()
            return
        self._delivered_generation = generation
        self._pending = None

        # Mediation: the principal must be allowed to *use* the XHR API
        # object, decided against the API's policy at completion time.
        api_context = self._page.api_context("XMLHttpRequest")
        if not self._page.monitor.authorize(
            self._principal,
            api_context,
            Operation.USE,
            object_label="XMLHttpRequest (native-api)",
        ).allowed:
            self.denied = True
            self.status = 0.0
            self.response_text = ""
            self.ready_state = 4.0
            self._fire_callbacks()
            return

        target = self._page.url.resolve(self._url_text)
        response = self._browser.issue_request(
            page=self._page,
            principal=self._principal,
            method=self._method,
            url=target,
            body=body,
            headers=self._request_headers,
            initiator_label=self._initiator_label,
        )
        self.status = float(response.status)
        self.response_text = response.body
        self._response_headers = response.headers
        self.ready_state = 4.0
        self._fire_callbacks()

    def _reset_request_state(self, *, clear_request_headers: bool) -> None:
        """Drop every per-request field so a reused object starts clean.

        The one deliberate asymmetry: ``send()`` without a fresh ``open()``
        keeps the author request headers (they were set for the request
        being resent), while ``open()`` and ``abort()`` clear them.  Any
        field missed here recreates the sticky-state bug class this method
        exists to prevent.
        """
        self._cancel_pending()
        if clear_request_headers:
            self._request_headers = None
        self._response_headers = None
        self.status = 0.0
        self.response_text = ""
        self.denied = False

    def _cancel_pending(self) -> None:
        if self._pending is not None:
            self._page.event_loop.cancel(self._pending.task_id)
            self._pending = None

    def _fire_callbacks(self) -> None:
        for callback in (self._onreadystatechange, self._onload):
            if callback is None or self._invoke is None:
                continue
            self._invoke(callback, [])
