"""Member tables: the one declaration of every script-visible host member.

Each host object a script can touch -- the browser bindings, ``XMLHttpRequest``
and the ``Math``/``JSON`` builtins -- exposes exactly the members listed here.
:class:`~repro.scripting.interpreter.HostObject` dispatches through the
table, and ``tests/browser/test_mediation_census.py`` checks complete
mediation over it.  An entry names the sink categories the reference
monitor records when a script uses the member, or says why the member is
deliberately unmediated.  This module is a leaf, so the interpreter and
:mod:`repro.browser` can both import it without a cycle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# -- sink categories (what the reference monitor can record) ---------------------------

#: Mediated element read (``innerHTML`` / ``getAttribute`` / ...).
DOM_READ = "dom_read"
#: Mediated element write (``innerHTML =`` / ``setAttribute`` / ``appendChild`` / ...).
DOM_WRITE = "dom_write"
#: ``use`` check on the DOM API native object (runs before element ops).
DOM_USE = "dom_use"
#: ``document.cookie`` read (one decision per readable cookie).
COOKIE_READ = "cookie_read"
#: ``document.cookie`` assignment.
COOKIE_WRITE = "cookie_write"
#: Cookie *use* sweep when a mediated request attaches cookies.
COOKIE_USE = "cookie_use"
#: ``use`` check on the XMLHttpRequest native object at completion time.
XHR_USE = "xhr_use"

# -- member kinds -----------------------------------------------------------------------

#: A property read; the handler takes no argument.
GET = "get"
#: A property write; the handler takes the value.
SET = "set"
#: A method; the handler takes the call's arguments.
CALL = "call"
#: A write to any property starting with the entry's name; the handler
#: takes the property name and the value.
SET_PREFIX = "set-prefix"


@dataclass(frozen=True)
class Member:
    """One script-visible member of one host object."""

    host: str
    name: str
    kind: str
    #: Categories the monitor records when a script uses the member.
    sinks: frozenset[str] = frozenset()
    #: Why no monitor check guards the member (required when ``sinks`` is empty).
    unmediated: str = ""

    def __post_init__(self) -> None:
        if bool(self.sinks) == bool(self.unmediated):
            raise ValueError(f"{self.host}.{self.name}: declare either sinks or why it is unmediated")

    @property
    def handler(self) -> str:
        """The host-class attribute implementing the member, named by kind:
        ``_get_inner_html`` / ``_set_inner_html`` (get / set ``innerHTML``),
        ``_append_child`` (call) and ``_set_on_prefix`` (the ``on`` prefix)."""
        snake = re.sub(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])", "_", self.name).lower()
        pattern = {GET: "_get_{}", SET: "_set_{}", CALL: "_{}", SET_PREFIX: "_set_{}_prefix"}[self.kind]
        return pattern.format(snake)


ELEMENT = "Element"
DOCUMENT = "Document"
LOCATION = "Location"
WINDOW = "Window"
CONSOLE = "Console"
XHR = "XMLHttpRequest"
MATH = "Math"
JSON = "JSON"

_READS = frozenset({DOM_READ, DOM_USE})
_WRITES = frozenset({DOM_WRITE, DOM_USE})

_LOOKUP = "lookup only: every access through the returned handle is mediated"
_NAVIGATION = "navigation is recorded, not performed"
_OBSERVATION = "an observation, not a protected object"
_REQUEST_STATE = "the request's own state, set only by the mediated completion"
_ARMING = "configures the request; the completion is mediated"
_CALLBACK = "stores a callback the completion runs under the same principal"
_GLOBAL = "a binding of this principal's own environment"
_PURE = "pure computation on script values"


def _group(host: str, kind: str, names: str, **fields) -> tuple[Member, ...]:
    """One entry per space-separated name, all with the same fields."""
    return tuple(Member(host, name, kind, **fields) for name in names.split())


MEMBERS: tuple[Member, ...] = (
    # -- Element ------------------------------------------------------------------------
    *_group(ELEMENT, GET, "innerHTML textContent innerText id value", sinks=_READS),
    *_group(ELEMENT, GET, "tagName", unmediated="addresses the node; never protected"),
    *_group(ELEMENT, CALL, "getAttribute", sinks=_READS),
    *_group(ELEMENT, CALL, "setAttribute appendChild removeChild addEventListener", sinks=_WRITES),
    *_group(ELEMENT, CALL, "querySelector querySelectorAll", unmediated=_LOOKUP),
    *_group(ELEMENT, SET, "innerHTML textContent innerText value id className", sinks=_WRITES),
    *_group(ELEMENT, SET_PREFIX, "on", sinks=_WRITES),
    # -- Document -----------------------------------------------------------------------
    *_group(DOCUMENT, CALL, "getElementById querySelector querySelectorAll getElementsByTagName createElement",
            unmediated=_LOOKUP),
    *_group(DOCUMENT, GET, "body head", unmediated=_LOOKUP),
    *_group(DOCUMENT, CALL, "write", sinks=frozenset({DOM_READ, DOM_WRITE, DOM_USE})),
    *_group(DOCUMENT, GET, "title", unmediated="the title is page chrome"),
    *_group(DOCUMENT, GET, "cookie", sinks=frozenset({COOKIE_READ})),
    *_group(DOCUMENT, SET, "cookie", sinks=frozenset({COOKIE_WRITE})),
    *_group(DOCUMENT, GET, "location", unmediated=_GLOBAL),
    *_group(DOCUMENT, SET, "location", unmediated=_NAVIGATION),
    # -- Location -----------------------------------------------------------------------
    *_group(LOCATION, GET, "href host pathname protocol search", unmediated="the page's own URL"),
    *_group(LOCATION, CALL, "assign replace", unmediated=_NAVIGATION),
    *_group(LOCATION, SET, "href", unmediated=_NAVIGATION),
    # -- Window (every get and call member is a global too) ----------------------------
    *_group(WINDOW, CALL, "alert", unmediated=_OBSERVATION),
    *_group(WINDOW, CALL, "setTimeout", unmediated="the callback later runs, mediated, under the registering principal"),
    *_group(WINDOW, CALL, "clearTimeout", unmediated="cancels only this environment's own timers"),
    *_group(WINDOW, GET, "location", unmediated=_GLOBAL),
    *_group(WINDOW, GET, "document", unmediated=_GLOBAL),
    *_group(WINDOW, GET, "console", unmediated=_GLOBAL),
    *_group(WINDOW, SET, "location", unmediated=_NAVIGATION),
    # -- Console ------------------------------------------------------------------------
    *_group(CONSOLE, CALL, "log info warn error", unmediated=_OBSERVATION),
    # -- XMLHttpRequest -----------------------------------------------------------------
    *_group(XHR, GET, "status responseText readyState", unmediated=_REQUEST_STATE),
    *_group(XHR, GET, "onload onreadystatechange", unmediated=_REQUEST_STATE),
    *_group(XHR, CALL, "open setRequestHeader", unmediated=_ARMING),
    *_group(XHR, CALL, "send", sinks=frozenset({XHR_USE, COOKIE_USE})),
    *_group(XHR, CALL, "getResponseHeader", unmediated=_REQUEST_STATE),
    *_group(XHR, CALL, "abort", unmediated=_ARMING),
    *_group(XHR, SET, "onload onreadystatechange", unmediated=_CALLBACK),
    # -- Math and JSON (standard library) ----------------------------------------------
    *_group(MATH, CALL, "floor ceil round abs max min pow sqrt", unmediated=_PURE),
    *_group(MATH, GET, "PI E", unmediated=_PURE),
    *_group(JSON, CALL, "stringify parse", unmediated=_PURE),
)

#: Host name -> its entries, in table order.
TABLES: dict[str, tuple[Member, ...]] = {}
for _member in MEMBERS:
    TABLES[_member.host] = TABLES.get(_member.host, ()) + (_member,)

#: The Window members every principal environment also installs as globals.
WINDOW_GLOBALS: tuple[Member, ...] = tuple(m for m in TABLES[WINDOW] if m.kind in (GET, CALL))
