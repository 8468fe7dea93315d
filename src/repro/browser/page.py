"""The Page: one loaded web page, ESCUDO's unit of protection.

The paper treats each web page as a "system" with its own independent set of
rings.  :class:`Page` bundles everything belonging to that system: the
parsed and labelled DOM, the page's ESCUDO configuration, its reference
monitor (each page gets its own, so audit trails and statistics are
per-system), the native-API contexts, the event dispatcher holding every
script-registered listener and the results of scripts that have run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import PageConfiguration
from repro.core.context import SecurityContext
from repro.core.monitor import ReferenceMonitor
from repro.core.nonce import NonceValidator
from repro.core.origin import Origin
from repro.core.principal import PrincipalKind
from repro.core.rings import RingSet
from repro.dom.document import Document
from repro.dom.element import Element
from repro.dom.events import EventDispatcher
from repro.http.url import Url
from repro.scripting.interpreter import ExecutionResult

from .event_loop import EventLoop
from .labeler import LabelingStats
from .renderer import RenderStats


@dataclass
class ScriptRun:
    """Outcome of executing one script principal on this page."""

    description: str
    principal: SecurityContext
    result: ExecutionResult

    @property
    def succeeded(self) -> bool:
        """True when the script ran to completion without an error."""
        return not self.result.failed


@dataclass
class Page:
    """One loaded, labelled, rendered web page."""

    url: Url
    document: Document
    configuration: PageConfiguration
    monitor: ReferenceMonitor
    escudo_enabled: bool
    labeling: LabelingStats = field(default_factory=LabelingStats)
    rendering: RenderStats = field(default_factory=RenderStats)
    nonce_validator: NonceValidator = field(default_factory=NonceValidator)
    ignored_end_tags: int = 0
    dispatcher: EventDispatcher = field(default_factory=EventDispatcher)
    script_runs: list[ScriptRun] = field(default_factory=list)
    #: Per-page task scheduler: timers, queued XHR completions, dispatches.
    event_loop: EventLoop = field(default_factory=EventLoop)
    #: Resolved principal contexts, keyed by (element context, tag, kind).
    _principals: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    #: API name -> (the policy it was resolved from, its context).
    _api_contexts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _browser_principal: SecurityContext | None = field(default=None, init=False, repr=False, compare=False)

    # -- identity ----------------------------------------------------------------------

    @property
    def origin(self) -> Origin:
        """The page's origin."""
        return self.url.origin

    @property
    def rings(self) -> RingSet:
        """The ring universe this page uses."""
        return self.configuration.rings

    # -- principals -----------------------------------------------------------------------

    def principal_context_for(self, element: Element, *, kind: PrincipalKind | None = None) -> SecurityContext:
        """Security context under which ``element`` acts as a principal.

        The element's own labelled context is the principal context -- that
        is the essence of the model: a script (or ``img``/``form``/...) has
        exactly the privileges of the ring its enclosing scope gave it.
        The result is a pure function of the element's context, tag and
        ``kind``, so the page resolves each distinct triple once.
        """
        context = element.security_context
        if context is not None:
            key = (context, element.tag_name, kind)
            principal = self._principals.get(key)
            if principal is None:
                descriptor = f"<{element.tag_name}>"
                if kind is not None:
                    descriptor += f" {kind.value}"
                principal = self._principals[key] = context.with_label(descriptor)
            return principal
        # Elements created outside the labelling pass without a context fall
        # back to the page's least-privileged default.
        from .labeler import PageLabeler

        labeler = PageLabeler(self.origin, self.configuration, escudo_enabled=self.escudo_enabled)
        return labeler.page_default_context().with_label(f"<{element.tag_name}> (unlabelled)")

    def browser_principal(self) -> SecurityContext:
        """Trusted principal for actions the browser performs for the user."""
        if self._browser_principal is None:
            self._browser_principal = SecurityContext.for_infrastructure(self.origin, "browser/user")
        return self._browser_principal

    # -- native API objects --------------------------------------------------------------------

    def api_context(self, api_name: str) -> SecurityContext:
        """Security context of a native API object (``XMLHttpRequest`` ...).

        Defaults to ring 0 (fail-safe) unless the page's configuration says
        otherwise.
        """
        policy = self.configuration.api_policy(api_name)
        resolved = self._api_contexts.get(api_name)
        # Policies are canonical, so an unchanged policy is the same object
        # and a relabel (``set_api_policy`` or a direct write) is a new one.
        if resolved is not None and resolved[0] is policy:
            return resolved[1]
        context = SecurityContext(
            origin=self.origin,
            ring=policy.ring,
            acl=policy.acl,
            label=f"native-api:{api_name}",
        )
        self._api_contexts[api_name] = (policy, context)
        return context

    def set_api_policy(self, api_name: str, policy) -> None:
        """Relabel a native API object mid-session (a server-pushed update).

        The next mediated use of the API is decided against the new policy,
        including deferred work already queued on the event loop (the
        completion-time TOCTOU rule).
        """
        self.configuration.api_policies[api_name] = policy

    def dom_api_context(self) -> SecurityContext | None:
        """Context for the DOM API object, only when explicitly configured."""
        if "DOM API" in self.configuration.api_policies:
            return self.api_context("DOM API")
        return None

    # -- teardown ------------------------------------------------------------------------------------

    def close(self) -> None:
        """End the page: drop its queued work and listeners, release its DOM.

        The monitor's and the event loop's counters stay readable, which is
        all a finished scenario run reads; nothing else may be used after.
        """
        self.event_loop.close()
        self.dispatcher.clear()
        self.document.release()

    # -- summaries -----------------------------------------------------------------------------------

    def ring_histogram(self) -> dict[int, int]:
        """Elements per ring (from the labelling pass)."""
        return dict(self.labeling.ring_histogram)

    def denied_accesses(self) -> int:
        """Total accesses denied by this page's reference monitor so far."""
        return self.monitor.stats.denied

    def summary(self) -> dict[str, object]:
        """Compact description used by examples and benchmark reports."""
        return {
            "url": str(self.url),
            "escudo": self.escudo_enabled,
            "model": self.monitor.model_name,
            "elements": self.document.count_elements(),
            "ac_tags": self.labeling.ac_tags,
            "rings": self.ring_histogram(),
            "scripts_run": len(self.script_runs),
            "mediated_accesses": self.monitor.stats.total,
            "denied_accesses": self.monitor.stats.denied,
            "ignored_end_tags": self.ignored_end_tags,
            "tasks_run": self.event_loop.stats.tasks_run,
        }
