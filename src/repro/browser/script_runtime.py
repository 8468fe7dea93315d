"""Script runtime: binds MiniScript programs to the mediated browser APIs.

Every script principal on a page -- a ``<script>`` element, an inline UI
event handler, a callback registered with ``addEventListener`` -- executes
in an environment built by :class:`ScriptRuntime`.  The environment exposes:

* ``document`` -- a :class:`DocumentBinding` whose lookups hand out
  :class:`ElementBinding` objects; each element handler asks the
  environment's :class:`~repro.dom.dom_api.DomApi`, bound to *that
  principal's* security context, before it touches the element (the same
  way :class:`~repro.browser.xhr.XmlHttpRequest` mediates its own ``send``),
  plus ``document.cookie`` whose reads and writes are mediated against each
  cookie's ring/ACL;
* ``window`` -- ``alert``, ``location`` (navigation attempts are recorded,
  which the XSS experiments use to detect exfiltration), ``setTimeout`` /
  ``clearTimeout`` (real deferred semantics: callbacks are queued on the
  page's deterministic event loop and run when it is advanced or drained,
  under the principal that registered them); every Window member is a
  global too;
* ``console.log``;
* ``XMLHttpRequest`` -- the mediated native API from
  :mod:`repro.browser.xhr`.

The member tables of :mod:`repro.scripting.host_members` are the single
declaration of what each binding exposes; the classes here hold only the
handlers the tables name.

Because the bindings are built per principal, two scripts on the same page
in different rings see the *same* DOM but with different privileges -- the
heart of the ESCUDO model.

Every environment closes over its page (bindings, bound methods, queued
callbacks), so each one sits in a reference cycle.  The runtime keeps the
environments it created and :meth:`ScriptRuntime.close` closes them all,
which lets reference counting free a closed page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.core.config import PROTECTED_ATTRIBUTES
from repro.core.context import SecurityContext
from repro.core.decision import Operation
from repro.dom.dom_api import DomApi
from repro.dom.element import Element
from repro.dom.node import TextNode
from repro.dom.traversal import query_selector, query_selector_all
from repro.html.parser import parse_fragment
from repro.html.serializer import serialize_children
from repro.scripting.cache import ScriptCache
from repro.scripting.errors import RuntimeScriptError, ScriptError
from repro.scripting.host_members import CONSOLE, DOCUMENT, ELEMENT, LOCATION, WINDOW, WINDOW_GLOBALS
from repro.scripting.interpreter import (
    ExecutionResult,
    HostObject,
    Interpreter,
    NativeConstructor,
    _to_string,
)

from .page import Page, ScriptRun
from .xhr import XmlHttpRequest


def _navigate(binding: HostObject, target) -> None:
    """Handler of every navigation member: the attempt is recorded, not performed."""
    environment = binding._runtime
    environment.runtime.observations.navigations.append((environment.principal.label, str(target)))


class ElementBinding(HostObject):
    """Script-visible element: every handler is mediated for its principal.

    A handler runs the tamper check (attribute members only), then the
    principal's :meth:`~repro.dom.dom_api.DomApi.authorize`, and only then
    acts on the element.  A denied read yields ``null``; a denied write
    yields ``false`` and leaves the tree untouched.
    """

    host_name = ELEMENT
    read_noun = write_noun = "element"

    def __init__(self, element: Element, runtime: "_PrincipalEnvironment") -> None:
        self._element = element
        self._runtime = runtime

    def _allowed(self, operation: Operation) -> bool:
        return self._runtime.dom_api.authorize(self._element, operation)

    # -- reads -----------------------------------------------------------------------

    def _get_inner_html(self):
        return serialize_children(self._element) if self._allowed(Operation.READ) else None

    def _get_text_content(self):
        return self._element.text_content if self._allowed(Operation.READ) else None

    _get_inner_text = _get_text_content

    def _get_tag_name(self):
        return self._element.tag_name.upper()

    def _get_id(self):
        return self._get_attribute("id")

    def _get_value(self):
        return self._get_attribute("value")

    def _get_attribute(self, attr):
        name = str(attr)
        if name.lower() in PROTECTED_ATTRIBUTES:
            self._runtime.dom_api.record_tamper_attempt(self._element, name, operation=Operation.READ)
            return None
        return self._element.get_attribute(name) if self._allowed(Operation.READ) else None

    def _query_selector(self, selector):
        return self._runtime.wrap(query_selector(self._element, str(selector)))

    def _query_selector_all(self, selector):
        return self._runtime.wrap_all(query_selector_all(self._element, str(selector)))

    # -- writes ------------------------------------------------------------------------

    def _set_inner_html(self, value) -> bool:
        """Replace the children with parsed markup, labelled under the scoping rule.

        Nothing inside the fragment can exceed the privilege of this
        element's ring, no matter what ``ring`` attributes the markup claims.
        """
        if not self._allowed(Operation.WRITE):
            return False
        element = self._element
        markup = str(value) if value is not None else ""
        element.replace_children(parse_fragment(markup, owner=element.owner_document))
        for child in element.element_children():
            self._runtime.dom_api.label_created_subtree(child, parent=element)
        return True

    def _set_text_content(self, value) -> None:
        if self._allowed(Operation.WRITE):
            self._element.replace_children([TextNode(str(value) if value is not None else "")])

    _set_inner_text = _set_text_content

    def _set_value(self, value) -> None:
        self._set_attribute("value", value)

    def _set_id(self, value) -> None:
        self._set_attribute("id", value)

    def _set_class_name(self, value) -> None:
        self._set_attribute("class", value)

    def _set_on_prefix(self, name: str, value) -> None:
        """``on<type> = callback``: register the callback as a listener."""
        if not callable(value):
            raise self.not_writable(name)
        self._add_event_listener(name[2:], value)

    def _set_attribute(self, attr, value) -> bool:
        name = str(attr)
        if name.lower() in PROTECTED_ATTRIBUTES:
            self._runtime.dom_api.record_tamper_attempt(self._element, name, operation=Operation.WRITE)
            return False
        if not self._allowed(Operation.WRITE):
            return False
        self._element.set_attribute(name, str(value))
        return True

    def _append_child(self, child) -> bool:
        if not isinstance(child, ElementBinding):
            raise RuntimeScriptError("appendChild expects an element")
        if not self._allowed(Operation.WRITE):
            return False
        self._element.append_child(child._element)
        self._runtime.dom_api.label_created_subtree(child._element, parent=self._element)
        return True

    def _remove_child(self, child) -> bool:
        if not isinstance(child, ElementBinding):
            raise RuntimeScriptError("removeChild expects an element")
        if not self._allowed(Operation.WRITE):
            return False
        try:
            self._element.remove_child(child._element)
        except ValueError:
            return False
        return True

    def _add_event_listener(self, event_type, callback) -> bool:
        """Register ``callback`` (a ``write``); it later runs under this principal."""
        if not self._allowed(Operation.WRITE):
            return False
        self._runtime.add_listener(self._element, str(event_type), callback)
        return True


class DocumentBinding(HostObject):
    """The ``document`` global: lookups hand out mediated element bindings."""

    host_name = DOCUMENT
    read_noun = write_noun = "document"

    def __init__(self, runtime: "_PrincipalEnvironment") -> None:
        self._runtime = runtime
        self._document = runtime.page.document

    def _get_element_by_id(self, element_id):
        return self._runtime.wrap(self._document.get_element_by_id(str(element_id)))

    def _query_selector(self, selector):
        return self._runtime.wrap(query_selector(self._document, str(selector)))

    def _query_selector_all(self, selector):
        return self._runtime.wrap_all(query_selector_all(self._document, str(selector)))

    def _get_elements_by_tag_name(self, tag_name):
        return self._runtime.wrap_all(self._document.get_elements_by_tag_name(str(tag_name)))

    def _create_element(self, tag_name):
        """The new element is detached; it is labelled when inserted."""
        return self._runtime.wrap(self._document.create_element(str(tag_name)))

    def _get_body(self):
        return self._runtime.wrap(self._document.body)

    def _get_head(self):
        return self._runtime.wrap(self._document.head)

    def _get_title(self):
        """Unmediated: the title is page chrome."""
        titles = self._document.get_elements_by_tag_name("title")
        return titles[0].text_content if titles else ""

    _get_location = attrgetter("_runtime.window.location")

    def _get_cookie(self):
        env = self._runtime
        return env.runtime.browser.read_cookie_string(env.page, env.principal)

    def _set_cookie(self, value) -> None:
        env = self._runtime
        env.runtime.browser.write_cookie_string(env.page, env.principal, str(value))

    _set_location = _navigate

    def _write(self, markup) -> bool:
        """``document.write``: append markup to the body (a read, then a write)."""
        body = self._get_body()
        if body is None:
            return False
        current = body._get_inner_html()
        if current is None:
            return False
        return body._set_inner_html(current + str(markup))


class LocationBinding(HostObject):
    """``window.location``: navigation attempts are recorded, not performed."""

    host_name = LOCATION
    read_noun = write_noun = "location"

    def __init__(self, runtime: "_PrincipalEnvironment") -> None:
        self._runtime = runtime

    _get_host = attrgetter("_runtime.page.url.host")
    _get_pathname = attrgetter("_runtime.page.url.path")

    def _get_href(self):
        return str(self._runtime.page.url)

    def _get_protocol(self):
        return self._runtime.page.url.scheme + ":"

    def _get_search(self):
        query = self._runtime.page.url.query
        return f"?{query}" if query else ""

    _set_href = _assign = _replace = _navigate


class WindowBinding(HostObject):
    """The ``window`` global."""

    host_name = WINDOW
    read_noun = write_noun = "window"

    def __init__(self, runtime: "_PrincipalEnvironment") -> None:
        self._runtime = runtime
        self.location = LocationBinding(runtime)

    _get_location = attrgetter("location")
    _get_document = attrgetter("_runtime.document_binding")
    _get_console = attrgetter("_runtime.console_binding")

    _set_location = _navigate

    def _alert(self, *parts) -> None:
        self._runtime.runtime.observations.alerts.append(" ".join(_to_string(p) for p in parts))

    def _set_timeout(self, callback, delay=0.0):
        """``setTimeout``: queue the callback on the page's event loop.

        The callback runs under the registering principal when the loop
        reaches its due time -- *after* the current script, which is the
        deferred-execution window the async attack scenarios exercise.
        Returns the timer id for ``clearTimeout``.
        """
        environment = self._runtime
        try:
            delay_ms = float(delay)
        except (TypeError, ValueError):
            delay_ms = 0.0

        def fire() -> None:
            # The id is spent either way (fired or cleared); dropping it
            # keeps the registry bounded on pages that re-arm polling timers.
            environment.own_timers.discard(timer_id)
            environment.invoke(callback, [])

        timer_id = environment.page.event_loop.set_timeout(
            fire,
            delay_ms,
            label=f"timer:{environment.principal.label}",
        )
        environment.own_timers.add(timer_id)
        return float(timer_id)

    def _clear_timeout(self, timer_id) -> bool:
        """``clearTimeout``: cancel one of *this environment's own* timers.

        Timer ids share the page loop's sequence across every principal, so
        a guessed id must not let a script cancel another principal's
        deferred callback -- an unmediated, unaudited interference channel.
        Only ids this environment registered are honoured.
        """
        try:
            task_id = int(timer_id)
        except (TypeError, ValueError):
            return False
        if task_id not in self._runtime.own_timers:
            return False
        self._runtime.own_timers.discard(task_id)
        return self._runtime.page.event_loop.clear_timeout(task_id)


class ConsoleBinding(HostObject):
    """``console.log`` (collected per runtime for tests and examples)."""

    host_name = CONSOLE
    read_noun = "console"

    def __init__(self, sink: list[str]) -> None:
        self._sink = sink

    def _log(self, *parts) -> None:
        self._sink.append(" ".join(_to_string(part) for part in parts))

    _info = _warn = _error = _log


@dataclass
class RuntimeObservations:
    """Side effects collected across every script run on a page."""

    alerts: list[str] = field(default_factory=list)
    console: list[str] = field(default_factory=list)
    navigations: list[tuple[str, str]] = field(default_factory=list)  # (principal label, target URL)

    def navigation_targets(self) -> list[str]:
        """Just the attempted navigation URLs."""
        return [target for _, target in self.navigations]


#: The Window members a script also reads as globals (``alert``, ``document``
#: ...); each environment resolves one on its first lookup.
_WINDOW_GLOBAL_NAMES = frozenset(member.name for member in WINDOW_GLOBALS)


class _PrincipalEnvironment:
    """Everything one principal's script execution needs.

    Only the interpreter is built up front.  The host globals are bound on
    their first lookup, through the interpreter's global resolver: the
    first Window global (``window``, ``document``, ``alert`` ...) builds the
    DOM mediator and the window, document and console bindings, and
    ``XMLHttpRequest`` builds its constructor, so a script that reads no
    host global builds none of them.
    """

    def __init__(self, runtime: "ScriptRuntime", principal: SecurityContext) -> None:
        self.runtime = runtime
        self.page = runtime.page
        self.principal = principal
        self.interpreter = Interpreter(max_steps=runtime.max_steps, resolve_global=self._global)
        self.dom_api: DomApi | None = None
        self.document_binding: DocumentBinding | None = None
        self.console_binding: ConsoleBinding | None = None
        self.window: WindowBinding | None = None
        #: Timer ids this environment registered -- the only ones its
        #: clearTimeout may cancel (cross-principal cancellation would be an
        #: unmediated interference channel).
        self.own_timers: set[int] = set()
        runtime.environments.append(self)

    # -- environment ------------------------------------------------------------------

    def _global(self, name: str):
        """A host global, resolved on its first lookup."""
        if name == "XMLHttpRequest":
            return NativeConstructor(self._new_xhr, "XMLHttpRequest")
        if name != "window" and name not in _WINDOW_GLOBAL_NAMES:
            raise KeyError(name)
        window = self.window
        if window is None:
            window = self._bind_window()
        return window if name == "window" else window.js_get(name)

    def _bind_window(self) -> "WindowBinding":
        """Build the DOM mediator and the bindings a Window global reaches."""
        self.dom_api = DomApi(self.page.monitor, self.principal, api_object=self.runtime.dom_api_object)
        self.document_binding = DocumentBinding(self)
        self.console_binding = ConsoleBinding(self.runtime.observations.console)
        self.window = WindowBinding(self)
        return self.window

    def _new_xhr(self, *_args) -> XmlHttpRequest:
        return XmlHttpRequest(self.runtime.browser, self.page, self.principal, invoke=self.invoke)

    def close(self) -> None:
        """Drop the globals and the bindings.

        Each of them links back to this environment (bound methods, the
        bindings' ``_runtime``, the globals' resolver), so they form its
        reference cycles.
        """
        self.interpreter.globals.values.clear()
        self.interpreter.globals.resolver = None
        self.document_binding = self.window = None

    # -- listeners & callbacks ---------------------------------------------------------------

    def wrap(self, element: Element | None) -> ElementBinding | None:
        """The binding through which this principal's script sees ``element``."""
        return ElementBinding(element, self) if element is not None else None

    def wrap_all(self, elements: list[Element]) -> list[ElementBinding]:
        """Bindings for a lookup's results (each later access is mediated)."""
        return [ElementBinding(element, self) for element in elements]

    def add_listener(self, element: Element, event_type: str, callback) -> None:
        """Hook ``callback`` into the page's dispatcher; it runs in this environment.

        Called by the element binding once the ``write`` check passed.
        """
        environment = self

        def dispatcher_callback(event) -> None:
            payload = {
                "type": event.event_type,
                "targetId": event.target.id if event.target is not None else None,
            }
            environment.invoke(callback, [payload])

        self.page.dispatcher.add_listener(element, event_type, dispatcher_callback)

    def invoke(self, callback, args: list):
        """Invoke a script function (or native callable) in this environment.

        This is how *deferred* work re-enters the engine: timer callbacks,
        event listeners and XHR completion handlers all fire through here,
        long after the originating script's top-level execution returned.
        """
        try:
            return self.interpreter.call_function(callback, args)
        except Exception as error:  # noqa: BLE001 - script faults must not kill the browser
            self.runtime.observations.console.append(f"[script error] {error}")
            return None


class ScriptRuntime:
    """Runs all the script principals of one page."""

    def __init__(
        self,
        browser,
        page: Page,
        *,
        max_steps: int = 500_000,
        scripts: ScriptCache | None = None,
    ) -> None:
        self.browser = browser
        self.page = page
        self.max_steps = max_steps
        #: Optional shared script cache: repeated executions of the same
        #: source (re-loaded pages, replayed handlers, re-armed timers) skip
        #: lexing and parsing entirely.
        self.scripts = scripts
        self.observations = RuntimeObservations()
        # Resolved once per runtime: every principal's DOM mediator shares the
        # same API object context, and building it per script execution costs
        # more than the cached ``use`` checks it gates.  Frozen value, so
        # sharing is safe across environments.
        self.dom_api_object = page.dom_api_context()
        #: Every principal environment built on this page, closed with it.
        self.environments: list[_PrincipalEnvironment] = []

    # -- execution entry points ----------------------------------------------------------

    def run_document_scripts(self) -> list[ScriptRun]:
        """Execute every ``<script>`` element in document order."""
        runs: list[ScriptRun] = []
        for index, script_element in enumerate(self.page.document.scripts()):
            source = self._script_source(script_element)
            if not source.strip():
                continue
            principal = self.page.principal_context_for(script_element)
            description = f"script#{index} ring {principal.ring.level}"
            runs.append(self.execute(source, principal, description=description))
        return runs

    def execute(self, source: str, principal: SecurityContext, *, description: str = "inline script") -> ScriptRun:
        """Execute one script under ``principal`` and record the run."""
        environment = _PrincipalEnvironment(self, principal)
        result = self._run_source(environment.interpreter, source)
        run = ScriptRun(description=description, principal=principal, result=result)
        self.page.script_runs.append(run)
        return run

    def execute_handler(self, source: str, principal: SecurityContext, event_payload: dict, *,
                        description: str = "inline handler") -> ScriptRun:
        """Execute an inline event handler with ``event`` bound."""
        environment = _PrincipalEnvironment(self, principal)
        environment.interpreter.globals.define("event", event_payload)
        result = self._run_source(environment.interpreter, source)
        run = ScriptRun(description=description, principal=principal, result=result)
        self.page.script_runs.append(run)
        return run

    def close(self) -> None:
        """Close every environment this runtime built (page teardown)."""
        for environment in self.environments:
            environment.close()
        self.environments.clear()

    # -- helpers --------------------------------------------------------------------------------

    def _run_source(self, interpreter: Interpreter, source: str) -> ExecutionResult:
        """Run ``source``, through the script cache when there is one.

        The cached path is observably identical to ``interpreter.run(source)``
        (the no-cache reference): a (possibly memoised) front-end error
        yields the same failed :class:`ExecutionResult` a cold parse would,
        and cached programs re-execute through the same mediated host calls.
        """
        if self.scripts is None:
            return interpreter.run(source)
        try:
            program = self.scripts.parse(source)
        except ScriptError as error:
            return ExecutionResult(error=error, completed=False)
        return interpreter.run(program)

    def _script_source(self, script_element: Element) -> str:
        """Inline source, or the fetched body of a ``src`` script."""
        src = script_element.get_attribute("src")
        if not src:
            return script_element.text_content
        principal = self.page.principal_context_for(script_element)
        target = self.page.url.resolve(src)
        response = self.browser.issue_request(
            page=self.page,
            principal=principal,
            method="GET",
            url=target,
            initiator_label=f"script-src:{src}",
        )
        return response.body if response.ok else ""
