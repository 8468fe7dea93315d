"""The browser.

:class:`Browser` ties the substrates together the way the Lobo prototype
does in the paper: it fetches pages over the in-process network, stores
cookies (with their ESCUDO labels), runs the load pipeline (parse → extract
configuration → label → render), executes script principals, fires UI
events, and -- crucially -- routes *every* principal-initiated HTTP request
through a single mediation point so cookie attachment honours the ``use``
permission.

The protection model is selected per browser instance:

* ``model="escudo"`` -- the full ESCUDO policy; cookie attachment, DOM
  access, XHR use and event delivery are all mediated.
* ``model="sop"`` -- the legacy baseline.  DOM/cookie/script accesses are
  checked only against the origin rule, and cookies are attached to
  outgoing requests *unconditionally* (the legacy browser behaviour whose
  abuse is the CSRF attack).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.acl import Acl
from repro.core.config import PageConfiguration
from repro.core.context import SecurityContext
from repro.core.decision import Operation
from repro.core.origin import Origin
from repro.core.rings import Ring
from repro.dom.element import Element
from repro.faults.plan import NETWORK_RETRY_ATTEMPTS, SITE_NETWORK, SITE_XHR
from repro.http.cookies import Cookie, CookieJar, authorized_cookies, format_cookie_header
from repro.http.headers import Headers
from repro.http.messages import HttpRequest, HttpResponse
from repro.http.network import Network
from repro.http.url import Url

from .compile_cache import CompileCaches
from .event_loop import EventLoop
from .history import BrowserHistory
from .loader import LoaderOptions, load_page
from .page import Page
from .script_runtime import ScriptRuntime
from .ui_events import UiEventLayer, UiEventResult

#: Tags whose ``src`` is fetched automatically while loading a page.
SUBRESOURCE_TAGS = ("img", "iframe", "embed")

#: Maximum redirects followed for a top-level navigation.
MAX_REDIRECTS = 5


@dataclass
class LoadedPage:
    """A page together with its runtime machinery (scripts + events)."""

    page: Page
    runtime: ScriptRuntime
    events: UiEventLayer
    response: HttpResponse
    subresource_requests: list[str] = field(default_factory=list)

    def close(self) -> None:
        """Close the page's script environments, then the page itself."""
        self.runtime.close()
        self.page.close()


class Browser:
    """One browser instance (profile): cookie jar, history, protection model."""

    def __init__(
        self,
        network: Network,
        *,
        model: str = "escudo",
        max_script_steps: int = 500_000,
        enforce_scoping: bool = True,
        interleave_seed: int | None = None,
        caches: CompileCaches | None = None,
    ) -> None:
        if model not in ("escudo", "sop", "same-origin"):
            raise ValueError(f"unknown protection model {model!r}")
        self.network = network
        self.model = "sop" if model in ("sop", "same-origin") else "escudo"
        self.max_script_steps = max_script_steps
        # Disabling the scoping rule is exclusively for the ablation
        # benchmark; the real model always enforces it.
        self.enforce_scoping = enforce_scoping
        # Seeds the deterministic permutation of same-due tasks in each
        # page's event loop (None = FIFO).  The scenario generator derives it
        # from the scenario seed, so replays reproduce the interleaving.
        self.interleave_seed = interleave_seed
        # Optional shared compile-cache stack (templates and scripts).
        # Several browsers -- e.g. all the actors of one scenario worker --
        # may share one stack; warm loads are observably identical to cold
        # ones.
        self.caches = caches
        self.cookie_jar = CookieJar()
        self.history = BrowserHistory()
        self.loaded: list[LoadedPage] = []

    # -- tabs -------------------------------------------------------------------------

    @property
    def tabs(self) -> list[LoadedPage]:
        """Every page this browser has loaded, oldest first (its open tabs).

        The scenario engine replays one session spec across protection
        models and addresses earlier pages by tab index, so the loaded list
        doubles as the browser's tab strip.
        """
        return self.loaded

    def close(self) -> None:
        """Close every open tab.

        A page, its scripts and this browser reference one another, so
        only closing breaks the cycles and lets reference counting free
        them.  The browser has no tabs afterwards.
        """
        for loaded in self.loaded:
            loaded.close()
        self.loaded.clear()

    def tab(self, index: int = -1) -> LoadedPage:
        """One open tab by index (``-1`` is the most recent)."""
        if not self.loaded:
            raise IndexError("browser has no open tabs")
        return self.loaded[index]

    # -- top-level navigation ---------------------------------------------------------

    def load(self, url: Url | str, *, method: str = "GET", form: dict[str, str] | None = None) -> LoadedPage:
        """Navigate to ``url`` as the user and return the loaded page."""
        target = url if isinstance(url, Url) else Url.parse(url)
        response, configuration = self._navigate(target, method=method, form=form)
        final_url = target
        redirects = 0
        while response.is_redirect and redirects < MAX_REDIRECTS:
            final_url = final_url.resolve(response.headers.get("Location", "/"))
            response, configuration = self._navigate(final_url, method="GET", form=None)
            redirects += 1

        options = LoaderOptions(model=self.model, enforce_scoping=self.enforce_scoping)
        page = load_page(
            response.body,
            final_url,
            configuration=configuration,
            options=options,
            event_loop=EventLoop(interleave_key=self.interleave_seed),
            caches=self.caches,
        )
        self.history.record_visit(final_url, title=_page_title(page))

        plan = self.network.fault_plan
        if plan is not None and plan.wants(SITE_XHR):
            # Arm the XHR-completion fault site on this page's loop before
            # any script can send an XHR.  Zero-rate plans skip the hook --
            # a per-posted-task call that could never fire -- which is part
            # of the armed-but-empty passivity/overhead contract.
            page.event_loop.task_interceptor = self._xhr_task_interceptor

        runtime = ScriptRuntime(
            self,
            page,
            max_steps=self.max_script_steps,
            scripts=self.caches.scripts if self.caches is not None else None,
        )
        events = UiEventLayer(page, runtime)
        loaded = LoadedPage(page=page, runtime=runtime, events=events, response=response)
        self.loaded.append(loaded)

        loaded.subresource_requests = self._fetch_subresources(page)
        runtime.run_document_scripts()
        # Settle the load's time-zero horizon: immediate tasks (zero-delay
        # timers, synchronously-drained dispatches) complete before load()
        # returns, while positively-delayed timers and queued async XHR
        # completions survive -- that deferred work is what advance_time /
        # drain steps (and the TOCTOU attacks) later race against policy
        # changes.
        page.event_loop.settle()
        return loaded

    def _navigate(
        self, url: Url, *, method: str, form: dict[str, str] | None
    ) -> tuple[HttpResponse, PageConfiguration]:
        """User-initiated fetch: all eligible cookies are attached.

        The user (browser chrome) is a trusted principal in both models, so
        this mirrors how real browsers attach cookies on address-bar
        navigations.  Each hop's cookies are stored here, once, and its
        parsed ESCUDO configuration is returned with the response.
        """
        request = HttpRequest(method=method, url=url, form=form or {}, initiator="user")
        cookies = self.cookie_jar.cookies_for(url.origin, url.path)
        header = format_cookie_header(cookies)
        if header:
            request.attach_cookie_header(header)
        response = self._dispatch(request)
        configuration = response.escudo_configuration()
        self.cookie_jar.store_from_response(url.origin, response.set_cookie_values, configuration)
        return response, configuration

    def _dispatch(self, request: HttpRequest) -> HttpResponse:
        """Dispatch with bounded retry against injected network faults.

        With no plan armed this is one plain dispatch.  With retries armed,
        a fault-marked response (drop / timeout / injected 5xx) is re-sent
        up to the attempt cap; the burst cap guarantees one of those
        attempts lands, so benign traffic converges to the fault-free
        outcome.  With retries disarmed, the fault-marked response
        propagates -- degraded availability, never extra authority.
        """
        response = self.network.dispatch(request)
        if not response.fault:
            return response
        plan = self.network.fault_plan
        if plan is None or not plan.retries:
            return response
        for _attempt in range(NETWORK_RETRY_ATTEMPTS - 1):
            plan.stats.note_retry(SITE_NETWORK)
            response = self.network.dispatch(request)
            if not response.fault:
                plan.stats.note_recovery()
                break
        return response

    def _xhr_task_interceptor(self, loop: EventLoop, task) -> None:
        """Fault-plane seam on each page's event loop (kind ``xhr`` only).

        ``lose`` cancels the just-posted completion (the XHR layer notices
        synchronously and arms its backoff retry); ``duplicate`` posts a
        second task with the same callback -- delivery stays exactly-once
        through the XHR generation guard, and a delivered duplicate would
        still re-run the completion-time USE mediation, so duplication can
        never widen authority.
        """
        if task.kind != "xhr":
            return
        plan = self.network.fault_plan
        if plan is None:
            return
        kind = plan.decide(SITE_XHR)
        if kind == "lose":
            loop.cancel(task.task_id)
        elif kind == "duplicate":
            loop.post(
                task.callback,
                delay=max(0.0, task.due - loop.now),
                kind="xhr-dup",
                label=f"{task.label}:dup",
            )

    # -- mediated request path (everything initiated by page principals) -------------------

    def issue_request(
        self,
        *,
        page: Page,
        principal: SecurityContext,
        method: str,
        url: Url,
        form: dict[str, str] | None = None,
        body: str = "",
        headers: Headers | None = None,
        initiator_label: str = "principal",
    ) -> HttpResponse:
        """Issue an HTTP request on behalf of a page principal.

        Cookie attachment is the ESCUDO-relevant step: each cookie destined
        for the target origin is attached only if the principal passes its
        ``use`` check.  Under the SOP baseline cookies are attached
        unconditionally (the legacy behaviour the paper calls out).
        """
        request = HttpRequest(
            method=method,
            url=url,
            form=form or {},
            body=body,
            headers=Headers(headers) if headers is not None else Headers(),
            initiator=initiator_label,
            initiator_page=str(page.url),
        )
        eligible = self.cookie_jar.cookies_for(url.origin, url.path)
        if self.model == "sop":
            attached: list[Cookie] = eligible
        else:
            # Batched ``use`` sweep: one principal coercion, one decision per
            # distinct cookie context, one recorded decision per cookie.
            attached = authorized_cookies(page.monitor, principal, eligible, Operation.USE)
        header = format_cookie_header(attached)
        if header:
            request.attach_cookie_header(header)

        response = self._dispatch(request)
        configuration = response.escudo_configuration()
        self.cookie_jar.store_from_response(url.origin, response.set_cookie_values, configuration)
        return response

    # -- subresources ------------------------------------------------------------------------

    def _fetch_subresources(self, page: Page) -> list[str]:
        """Fetch ``img``/``iframe``/``embed`` targets (HTTP-request principals).

        The tag lists are read from the document's load manifest up front
        (grouped per tag, in document order), so a page served from the
        template cache issues its requests without walking the DOM.
        """
        fetched: list[str] = []
        document = page.document
        by_tag = {tag: document.get_elements_by_tag_name(tag) for tag in SUBRESOURCE_TAGS}
        for tag in SUBRESOURCE_TAGS:
            for element in by_tag[tag]:
                src = element.get_attribute("src")
                if not src:
                    continue
                principal = page.principal_context_for(element)
                target = page.url.resolve(src)
                self.issue_request(
                    page=page,
                    principal=principal,
                    method="GET",
                    url=target,
                    initiator_label=f"<{tag} src={src!r}> on {page.url}",
                )
                fetched.append(str(target))
        return fetched

    # -- actions on loaded pages -----------------------------------------------------------------

    def submit_form(
        self,
        loaded: LoadedPage,
        form_id_or_element,
        fields: dict[str, str] | None = None,
        *,
        as_user: bool = False,
    ) -> HttpResponse:
        """Submit a form found on ``loaded.page``.

        The acting principal is the *form element itself* (an HTTP-request
        issuing principal), unless ``as_user`` is set, in which case the
        trusted browser principal submits it (a real user pressing the
        button on the legitimate page).
        """
        page = loaded.page
        form = (
            page.document.get_element_by_id(form_id_or_element)
            if isinstance(form_id_or_element, str)
            else form_id_or_element
        )
        if form is None:
            raise ValueError(f"form {form_id_or_element!r} not found")
        method = (form.get_attribute("method") or "GET").upper()
        action = form.get_attribute("action") or str(page.url)
        target = page.url.resolve(action)

        # One walk over the form; a textarea's text wins over an input's
        # value under a shared name.
        data: dict[str, str] = {}
        texts: dict[str, str] = {}
        for node in form.descendants():
            if isinstance(node, Element):
                tag = node.tag_name
                if tag == "input":
                    name = node.get_attribute("name")
                    if name:
                        data[name] = node.get_attribute("value") or ""
                elif tag == "textarea":
                    name = node.get_attribute("name")
                    if name:
                        texts[name] = node.text_content
        data.update(texts)
        if fields:
            data.update(fields)

        if method == "GET":
            # As in HTML, the fields replace the action's query; no body.
            target, data = target.with_params(data), {}
        principal = page.browser_principal() if as_user else page.principal_context_for(form)
        return self.issue_request(
            page=page,
            principal=principal,
            method=method,
            url=target,
            form=data,
            initiator_label=f"form action={action!r} on {page.url}",
        )

    def click_link(self, loaded: LoadedPage, link_id_or_element, *, as_user: bool = True) -> HttpResponse:
        """Follow an ``<a>`` link on the page (GET request)."""
        page = loaded.page
        link = (
            page.document.get_element_by_id(link_id_or_element)
            if isinstance(link_id_or_element, str)
            else link_id_or_element
        )
        if link is None:
            raise ValueError(f"link {link_id_or_element!r} not found")
        href = link.get_attribute("href") or "/"
        target = page.url.resolve(href)
        principal = page.browser_principal() if as_user else page.principal_context_for(link)
        return self.issue_request(
            page=page,
            principal=principal,
            method="GET",
            url=target,
            initiator_label=f"<a href={href!r}> on {page.url}",
        )

    def fire_event(self, loaded: LoadedPage, element_id: str, event_type: str, **kwargs) -> UiEventResult:
        """Fire a UI event on an element of a loaded page."""
        return loaded.events.fire_by_id(element_id, event_type, **kwargs)

    def run_script(self, loaded: LoadedPage, source: str, *, ring: int | None = None,
                   description: str = "injected script", drain: bool = True):
        """Run an ad-hoc script on a loaded page (used by tests and examples).

        ``ring`` pins the principal's ring; the default is the page's
        least-privileged ring for ESCUDO pages and ring 0 for legacy pages.
        ``drain`` (default) runs the page's event loop to quiescence after
        the script, so timers and async XHRs it scheduled complete before
        this returns; pass ``drain=False`` to leave deferred work queued
        (the async scenario steps do, so later steps control the clock).
        """
        page = loaded.page
        if ring is None:
            principal_ring = (
                page.rings.least_privileged() if page.escudo_enabled else Ring(0)
            )
        else:
            principal_ring = Ring(ring)
        principal = SecurityContext(
            origin=page.origin,
            ring=principal_ring,
            acl=Acl.uniform(principal_ring),
            label=f"adhoc script ring {principal_ring.level}",
        )
        run = loaded.runtime.execute(source, principal, description=description)
        if drain:
            loaded.page.event_loop.drain()
        return run

    # -- virtual clock ------------------------------------------------------------------------

    def advance_time(self, loaded: LoadedPage, ms: float) -> int:
        """Advance a page's virtual clock, running every task due on the way."""
        return loaded.page.event_loop.advance(ms)

    def drain(self, loaded: LoadedPage) -> int:
        """Run a page's event loop to quiescence (timers, async XHRs, all)."""
        return loaded.page.event_loop.drain()

    # -- cookie access from scripts ------------------------------------------------------------------

    def read_cookie_string(self, page: Page, principal: SecurityContext) -> str:
        """``document.cookie`` getter: only cookies the principal may read.

        A batched ``read`` sweep over the origin's script-visible cookies.
        """
        readable = [
            cookie
            for cookie in self.cookie_jar.cookies_for(page.origin, page.url.path)
            if not cookie.http_only
        ]
        visible = authorized_cookies(page.monitor, principal, readable, Operation.READ)
        return format_cookie_header(visible)

    def write_cookie_string(self, page: Page, principal: SecurityContext, cookie_string: str) -> bool:
        """``document.cookie`` setter: mediated write/creation."""
        name, _, rest = cookie_string.partition("=")
        name = name.strip()
        if not name:
            return False
        value = rest.split(";", 1)[0].strip()
        existing = self.cookie_jar.get(page.origin, name)
        if existing is not None:
            if not page.monitor.authorize(principal, existing.security_context, Operation.WRITE).allowed:
                return False
            self.cookie_jar.set(existing.with_value(value))
            return True
        # Creating a new cookie: it can never be more privileged than its creator.
        ring = principal.ring if page.escudo_enabled else Ring(0)
        new_cookie = Cookie(
            name=name,
            value=value,
            origin=page.origin,
            ring=ring,
            acl=Acl.uniform(ring),
        )
        if not page.monitor.authorize(principal, new_cookie.security_context, Operation.WRITE).allowed:
            return False
        self.cookie_jar.set(new_cookie)
        return True

    # -- browser state ------------------------------------------------------------------------------------

    def history_for_script(self, page: Page, principal: SecurityContext) -> list[str] | None:
        """Expose browsing history to a script, subject to mediation.

        Browser state is mandatorily ring 0; only ring-0 principals of the
        same origin can read it.
        """
        state = self.history.protected_objects(page.origin)["history"]
        if not page.monitor.authorize(principal, state, Operation.READ).allowed:
            return None
        return [str(entry.url) for entry in self.history.entries]


def _page_title(page: Page) -> str:
    titles = page.document.get_elements_by_tag_name("title")
    return titles[0].text_content if titles else ""


#: Convenience re-export so callers can build an Origin without importing core.
__all__ = ["Browser", "LoadedPage", "Origin"]
