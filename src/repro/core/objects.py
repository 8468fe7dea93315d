"""Objects: the resources access control guards.

Table 1 of the paper lists the objects inside the web browser:

* the **DOM** (every HTML element, which may simultaneously be a principal),
* **cookies**,
* **native code APIs** exposed to scripts (``XMLHttpRequest``, the DOM API),
* **browser state** (history, visited-link information).

This module holds the :class:`ObjectKind` taxonomy only: an object reaches
the reference monitor as its :class:`~repro.core.context.SecurityContext`
(a DOM element's or cookie's ``security_context``, a page's API context, the
ring-0 browser-state contexts of :mod:`repro.browser.history`).
"""

from __future__ import annotations

import enum


class ObjectKind(str, enum.Enum):
    """Classification of protected objects per Table 1."""

    DOM_ELEMENT = "dom-element"
    COOKIE = "cookie"
    NATIVE_API = "native-api"
    BROWSER_STATE = "browser-state"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Native APIs the reproduction models, with the paper's default ring (0).
NATIVE_APIS = ("XMLHttpRequest", "DOM API")

#: Browser-state objects, mandatorily assigned to ring 0 and not configurable.
BROWSER_STATE_OBJECTS = ("history", "visited-links", "cache")


def taxonomy() -> dict[str, dict[str, object]]:
    """Machine-readable rendering of the object half of Table 1."""
    return {
        ObjectKind.DOM_ELEMENT.value: {
            "examples": ["div", "p", "form", "script (as object)"],
            "dual_role": True,
            "configurable": True,
        },
        ObjectKind.COOKIE.value: {
            "examples": ["session cookie", "preference cookie"],
            "dual_role": False,
            "configurable": True,
        },
        ObjectKind.NATIVE_API.value: {
            "examples": list(NATIVE_APIS),
            "dual_role": False,
            "configurable": True,
        },
        ObjectKind.BROWSER_STATE.value: {
            "examples": list(BROWSER_STATE_OBJECTS),
            "dual_role": False,
            "configurable": False,
        },
    }
