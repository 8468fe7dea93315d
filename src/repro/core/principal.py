"""Principals: the acting entities inside a web page.

Table 1 of the paper classifies the principals a web application can control:

* **HTTP-request issuing principals** -- HTML tags (``a``, ``img``, ``form``,
  ``embed``, ``iframe``) that instruct the browser to issue an HTTP request.
* **Script-invoking principals** -- ``script`` elements, CSS expressions and
  UI event handler attributes (``onload``, ``onclick``, ...), all of which
  invoke the script interpreter.
* **Plugins** -- content-specific runtimes (Flash, PDF, ...).  They have
  their own security models and cannot be controlled by the web application,
  so the paper (and this reproduction) place them outside the model; the
  enum value exists so the taxonomy is complete and so the benchmark that
  regenerates Table 1 can print the full picture.

The browser itself also acts (fetching pages, writing history); such actions
use a trusted context (:data:`PrincipalKind.BROWSER` names that class).

This module holds the classification only: an acting principal reaches the
reference monitor as its :class:`~repro.core.context.SecurityContext`.
"""

from __future__ import annotations

import enum
from typing import Mapping


class PrincipalKind(str, enum.Enum):
    """Classification of principals per Table 1."""

    HTTP_REQUEST_ISSUER = "http-request-issuing"
    SCRIPT = "script-invoking"
    UI_EVENT_HANDLER = "ui-event-handler"
    PLUGIN = "plugin"
    BROWSER = "browser-internal"

    @property
    def controllable(self) -> bool:
        """Whether the web application can control this class of principal."""
        return self is not PrincipalKind.PLUGIN

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: HTML tag names that act as HTTP-request issuing principals (Table 1).
HTTP_REQUEST_ISSUING_TAGS = frozenset({"a", "img", "form", "embed", "iframe"})

#: HTML constructs that act as script-invoking principals (Table 1).
SCRIPT_INVOKING_TAGS = frozenset({"script"})

#: Attribute names treated as UI event handlers.
UI_EVENT_ATTRIBUTES = frozenset(
    {
        "onload",
        "onclick",
        "onmouseover",
        "onmouseout",
        "onsubmit",
        "onchange",
        "onfocus",
        "onblur",
        "onkeydown",
        "onkeyup",
    }
)


def classify_tag(tag_name: str) -> PrincipalKind | None:
    """Classify an HTML tag as a principal kind, if it is one.

    Returns ``None`` for tags that are purely objects (ordinary content).
    """
    name = tag_name.lower()
    if name in SCRIPT_INVOKING_TAGS:
        return PrincipalKind.SCRIPT
    if name in HTTP_REQUEST_ISSUING_TAGS:
        return PrincipalKind.HTTP_REQUEST_ISSUER
    return None


def event_handler_attributes(attributes: Mapping[str, str]) -> dict[str, str]:
    """Extract UI event-handler attributes (name → handler source) from a tag."""
    return {
        name.lower(): value
        for name, value in attributes.items()
        if name.lower() in UI_EVENT_ATTRIBUTES
    }


def taxonomy() -> dict[str, dict[str, object]]:
    """Machine-readable rendering of the principal half of Table 1.

    Used by ``benchmarks/bench_table1_taxonomy.py`` and by documentation
    tests to keep the implemented taxonomy aligned with the paper.
    """
    return {
        PrincipalKind.HTTP_REQUEST_ISSUER.value: {
            "examples": sorted(HTTP_REQUEST_ISSUING_TAGS),
            "controllable": True,
        },
        PrincipalKind.SCRIPT.value: {
            "examples": sorted(SCRIPT_INVOKING_TAGS) + ["css-expression"],
            "controllable": True,
        },
        PrincipalKind.UI_EVENT_HANDLER.value: {
            "examples": sorted(UI_EVENT_ATTRIBUTES),
            "controllable": True,
        },
        PrincipalKind.PLUGIN.value: {
            "examples": ["flash", "silverlight", "pdf"],
            "controllable": False,
        },
    }
