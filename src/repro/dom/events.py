"""UI events.

The paper treats the delivery of a UI event to a DOM element as a ``use``
access: the principal behind the event (the handler that will run, or the
browser acting for the user) must be allowed to use the target element.
This module provides the event value type and a small dispatcher with
capture-free bubbling; the *mediation* of delivery is done by the browser's
UI event layer (:mod:`repro.browser.ui_events`), which consults the
reference monitor before invoking handlers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .element import Element
from .node import Node

#: Event types the reproduction exercises.
SUPPORTED_EVENT_TYPES = (
    "load",
    "click",
    "mouseover",
    "mouseout",
    "submit",
    "change",
    "focus",
    "blur",
    "keydown",
    "keyup",
)


@dataclass
class Event:
    """One UI event travelling through the DOM."""

    event_type: str
    target: Element | None = None
    bubbles: bool = True
    default_prevented: bool = False
    propagation_stopped: bool = False
    detail: dict = field(default_factory=dict)

    def prevent_default(self) -> None:
        """Mark the event's default action as cancelled."""
        self.default_prevented = True

    def stop_propagation(self) -> None:
        """Stop the event from bubbling further."""
        self.propagation_stopped = True

    @property
    def handler_attribute(self) -> str:
        """The inline-handler attribute corresponding to this event type."""
        return f"on{self.event_type}"


Listener = Callable[[Event], None]


class EventDispatcher:
    """Registers listeners on elements and bubbles events to them.

    Listener registration is keyed by the element itself (identity hash), so
    the dispatcher holds every element that carries a listener: a detached
    one stays alive and its ``id()`` is never handed to a new element.  It is
    intentionally unaware of ESCUDO; the browser's UI event layer decides
    *whether* an event may be delivered to a given element before calling
    :meth:`dispatch`.
    """

    def __init__(self) -> None:
        self._listeners: dict[Element, dict[str, list[Listener]]] = {}

    def add_listener(self, element: Element, event_type: str, listener: Listener) -> None:
        """Register ``listener`` for ``event_type`` events on ``element``."""
        per_element = self._listeners.setdefault(element, {})
        per_element.setdefault(event_type, []).append(listener)

    def remove_listener(self, element: Element, event_type: str, listener: Listener) -> None:
        """Remove a previously registered listener (no error if absent)."""
        per_element = self._listeners.get(element, {})
        listeners = per_element.get(event_type, [])
        if listener in listeners:
            listeners.remove(listener)

    def listeners_for(self, element: Element, event_type: str) -> list[Listener]:
        """Listeners registered directly on ``element`` for ``event_type``."""
        return list(self._listeners.get(element, {}).get(event_type, []))

    def propagation_path(self, target: Element) -> list[Element]:
        """The target followed by its element ancestors (bubble order)."""
        path: list[Element] = [target]
        for ancestor in target.ancestors():
            if isinstance(ancestor, Element):
                path.append(ancestor)
        return path

    def dispatch(self, event: Event, *, deliverable: Callable[[Element], bool] | None = None) -> list[Element]:
        """Deliver ``event`` along the bubble path.

        ``deliverable`` is the mediation hook: when provided, each element in
        the path is delivered the event only if the callback returns true
        (the browser passes a closure that consults the reference monitor).
        Returns the list of elements that actually received the event.
        """
        if event.target is None:
            return []
        delivered: list[Element] = []
        path: Iterable[Element] = self.propagation_path(event.target)
        if not event.bubbles:
            path = [event.target]
        for element in path:
            if event.propagation_stopped:
                break
            if deliverable is not None and not deliverable(element):
                continue
            delivered.append(element)
            for listener in self.listeners_for(element, event.event_type):
                listener(event)
                if event.propagation_stopped:
                    break
        return delivered

    def clear(self) -> None:
        """Drop every registered listener (page teardown)."""
        self._listeners.clear()


def nodes_with_inline_handlers(root: Node) -> list[tuple[Element, dict[str, str]]]:
    """Find every element carrying inline ``on*`` handler attributes."""
    found = []
    for node in root.descendants():
        if isinstance(node, Element):
            handlers = node.event_handlers
            if handlers:
                found.append((node, handlers))
    return found
