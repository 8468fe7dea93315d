"""UI event delivery.

The paper treats delivering a UI event to a DOM element as a ``use`` access
on that element.  Events triggered by the real user are delivered by the
browser itself (a trusted, ring-0 principal), so they reach any element;
events synthesised by a script are delivered *as that script*, so a
low-privilege script cannot poke handlers attached to high-privilege
content.

Once an element legitimately receives an event, two kinds of handlers run:

* inline ``on<type>`` attributes execute with the *element's* security
  context (the handler text is part of that element's scope);
* listeners registered through ``addEventListener`` execute with the context
  of the principal that registered them (captured at registration time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.context import SecurityContext
from repro.core.decision import Operation
from repro.dom.element import Element
from repro.dom.events import Event

from .page import Page
from .script_runtime import ScriptRuntime


@dataclass
class UiEventResult:
    """What happened when one event was fired."""

    event_type: str
    target_description: str
    delivered_to: list[str] = field(default_factory=list)
    blocked_at: list[str] = field(default_factory=list)
    inline_handlers_run: int = 0
    listeners_run: int = 0

    @property
    def delivered(self) -> bool:
        """True when at least one element received the event."""
        return bool(self.delivered_to)


class UiEventLayer:
    """Mediated event firing for one page."""

    def __init__(self, page: Page, runtime: ScriptRuntime) -> None:
        self.page = page
        self.runtime = runtime

    def fire(
        self,
        element: Element,
        event_type: str,
        *,
        user_initiated: bool = True,
        synthesizing_principal: SecurityContext | None = None,
        detail: dict | None = None,
    ) -> UiEventResult:
        """Fire ``event_type`` at ``element`` and run the authorised handlers.

        Dispatch is routed through the page's event loop: the delivery is
        posted as a macrotask due *now* and the loop's time-zero horizon is
        settled before returning.  Tasks already due -- zero-delay timers,
        under a seeded interleave possibly ordered ahead of the dispatch --
        genuinely run in queue order around it, and immediate follow-up work
        a handler schedules completes too, while positively-delayed timers
        stay queued for the caller to advance.
        """
        result = UiEventResult(
            event_type=event_type,
            target_description=f"<{element.tag_name}>" + (f"#{element.id}" if element.id else ""),
        )
        self.page.event_loop.post(
            lambda: self._dispatch(element, event_type, user_initiated,
                                   synthesizing_principal, detail, result),
            kind="dispatch",
            label=f"event:{event_type}",
        )
        self.page.event_loop.settle()
        return result

    def _dispatch(
        self,
        element: Element,
        event_type: str,
        user_initiated: bool,
        synthesizing_principal: SecurityContext | None,
        detail: dict | None,
        result: UiEventResult,
    ) -> None:
        """The queued delivery task: mediate the path and run handlers."""
        if user_initiated or synthesizing_principal is None:
            principal = self.page.browser_principal()
        else:
            principal = synthesizing_principal
        if user_initiated:
            principal = principal.with_label("user/browser")

        event = Event(event_type=event_type, target=element, detail=detail or {})

        # Label the whole propagation path up front; each element is still
        # mediated only when dispatch reaches it, so elements the event never
        # reaches (stopPropagation) produce no audited access.
        labeled_targets: dict[int, SecurityContext] = {}
        for candidate in self.page.dispatcher.propagation_path(element):
            context = candidate.security_context
            if context is not None:
                labeled_targets[id(candidate)] = context.with_label(
                    f"<{candidate.tag_name}> (event target)"
                )

        def deliverable(candidate: Element) -> bool:
            target_context = labeled_targets.get(id(candidate))
            if target_context is None:
                context = candidate.security_context
                if context is None:
                    return True
                target_context = context.with_label(f"<{candidate.tag_name}> (event target)")
            decision = self.page.monitor.authorize(principal, target_context, Operation.USE)
            label = f"<{candidate.tag_name}>" + (f"#{candidate.id}" if candidate.id else "")
            if decision.allowed:
                result.delivered_to.append(label)
            else:
                result.blocked_at.append(label)
            return decision.allowed

        delivered_elements = self.page.dispatcher.dispatch(event, deliverable=deliverable)
        result.listeners_run = sum(
            len(self.page.dispatcher.listeners_for(el, event_type)) for el in delivered_elements
        )

        # Inline handlers on the delivered elements.
        handler_attribute = event.handler_attribute
        for candidate in delivered_elements:
            source = candidate.event_handlers.get(handler_attribute)
            if not source:
                continue
            handler_principal = self.page.principal_context_for(candidate)
            payload = {"type": event_type, "targetId": element.id}
            self.runtime.execute_handler(
                source,
                handler_principal,
                payload,
                description=f"{handler_attribute} on <{candidate.tag_name}>",
            )
            result.inline_handlers_run += 1

    def fire_by_id(self, element_id: str, event_type: str, **kwargs) -> UiEventResult:
        """Convenience: fire at the element with ``id`` (raises if missing)."""
        element = self.page.document.get_element_by_id(element_id)
        if element is None:
            raise ValueError(f"no element with id {element_id!r}")
        return self.fire(element, event_type, **kwargs)
