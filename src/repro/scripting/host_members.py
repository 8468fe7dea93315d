"""Member tables: the one declaration of every script-visible host member.

Each host object a script can touch -- the browser bindings, ``XMLHttpRequest``
and the ``Math``/``JSON`` builtins -- exposes exactly the members listed here.
:class:`~repro.scripting.interpreter.HostObject` dispatches through the
table, the static analyzer (:mod:`repro.scripting.analysis`) reads each
member's effects from it, and ``tests/browser/test_mediation_census.py``
checks complete mediation over it.  An entry names the sink categories the
reference monitor records when a script uses the member, or says why the
member is deliberately unmediated.  This module is a leaf, so the analyzer
and :mod:`repro.browser` can both import it without a cycle.
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

#: Every category the monitor can attribute to a script.
ALL_SINKS = frozenset({DOM_READ, DOM_WRITE, DOM_USE, COOKIE_READ, COOKIE_WRITE, COOKIE_USE, XHR_USE})

# -- taint sources ----------------------------------------------------------------------

#: Value derived from ``document.cookie``.
SOURCE_COOKIE = "cookie"
#: Value derived from the DOM (lookups, attribute/text reads).
SOURCE_DOM = "dom"
#: Value derived from an XHR response (``responseText`` / ``status`` / headers).
SOURCE_XHR = "xhr_response"
#: Value derived from an event-handler parameter or the ``event`` global.
SOURCE_EVENT = "event"

#: Every taint mark the analysis tracks.
TAINTS = frozenset({SOURCE_COOKIE, SOURCE_DOM, SOURCE_XHR, SOURCE_EVENT})

# -- member kinds and abstract values ----------------------------------------------------

#: A property read; the handler takes no argument.
GET = "get"
#: A property write; the handler takes the value.
SET = "set"
#: A method; the handler takes the call's arguments.
CALL = "call"
#: A write to any property starting with the entry's name; the handler
#: takes the property name and the value.
SET_PREFIX = "set-prefix"

#: Abstract value of a host object (``obj:<host>``).
OBJECT_PREFIX = "obj:"
#: Abstract value of a host constructor (``ctor:<host>``).
CONSTRUCTOR_PREFIX = "ctor:"
#: Abstract value of a bound method with static effects (``call:<host>.<name>``).
CALL_PREFIX = "call:"


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
    #: Abstract value of a read (get) or of the returned value (call).
    result: frozenset[str] = frozenset()
    #: Sink the written value, or the call's arguments, flow into.
    flow: str | None = None
    #: The written value, or the call's arguments, may be kept as a callback.
    escapes: bool = False
    #: The call's arguments configure a request a later flowing call sends.
    arms: bool = False

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

    @property
    def tag(self) -> str:
        """Abstract value of this member's bound method."""
        return f"{CALL_PREFIX}{self.host}.{self.name}"

    @property
    def value(self) -> frozenset[str]:
        """What a read of the member yields to the analyzer.

        A method without static effects reads as a plain native helper (no
        value), so a call of it returns values derived from its inputs.
        """
        if self.kind != CALL:
            return self.result
        effects = self.sinks or self.result or self.flow or self.escapes or self.arms
        return frozenset({self.tag}) if effects else frozenset()


ELEMENT = "Element"
DOCUMENT = "Document"
LOCATION = "Location"
WINDOW = "Window"
CONSOLE = "Console"
XHR = "XMLHttpRequest"
MATH = "Math"
JSON = "JSON"

#: The one member through which a script rewrites an element attribute
#: (the analyzer's tamper marker looks for it).
SET_ATTRIBUTE = "setAttribute"

_ELEMENT_OBJECT = frozenset({OBJECT_PREFIX + ELEMENT, SOURCE_DOM})
_DOM_VALUE = frozenset({SOURCE_DOM})
_XHR_VALUE = frozenset({SOURCE_XHR})
_READS = frozenset({DOM_READ, DOM_USE})
_WRITES = frozenset({DOM_WRITE, DOM_USE})
_LOCATION_OBJECT = frozenset({OBJECT_PREFIX + LOCATION})

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
    *_group(ELEMENT, GET, "innerHTML textContent innerText id value", sinks=_READS, result=_DOM_VALUE),
    *_group(ELEMENT, GET, "tagName", unmediated="addresses the node; never protected", result=_DOM_VALUE),
    *_group(ELEMENT, CALL, "getAttribute", sinks=_READS, result=_DOM_VALUE),
    *_group(ELEMENT, CALL, f"{SET_ATTRIBUTE} appendChild removeChild addEventListener",
            sinks=_WRITES, flow=DOM_WRITE, escapes=True),
    *_group(ELEMENT, CALL, "querySelector querySelectorAll", unmediated=_LOOKUP, result=_ELEMENT_OBJECT),
    *_group(ELEMENT, SET, "innerHTML textContent innerText value id className", sinks=_WRITES, flow=DOM_WRITE),
    *_group(ELEMENT, SET_PREFIX, "on", sinks=_WRITES, escapes=True),
    # -- Document -----------------------------------------------------------------------
    *_group(DOCUMENT, CALL, "getElementById querySelector querySelectorAll getElementsByTagName createElement",
            unmediated=_LOOKUP, result=_ELEMENT_OBJECT),
    *_group(DOCUMENT, GET, "body head", unmediated=_LOOKUP, result=_ELEMENT_OBJECT),
    *_group(DOCUMENT, CALL, "write", sinks=frozenset({DOM_READ, DOM_WRITE, DOM_USE}), flow=DOM_WRITE),
    *_group(DOCUMENT, GET, "title", unmediated="the title is page chrome"),
    *_group(DOCUMENT, GET, "cookie", sinks=frozenset({COOKIE_READ}), result=frozenset({SOURCE_COOKIE})),
    *_group(DOCUMENT, SET, "cookie", sinks=frozenset({COOKIE_WRITE}), flow=COOKIE_WRITE),
    *_group(DOCUMENT, GET, "location", unmediated=_GLOBAL, result=_LOCATION_OBJECT),
    *_group(DOCUMENT, SET, "location", unmediated=_NAVIGATION),
    # -- Location -----------------------------------------------------------------------
    *_group(LOCATION, GET, "href host pathname protocol search", unmediated="the page's own URL"),
    *_group(LOCATION, CALL, "assign replace", unmediated=_NAVIGATION),
    *_group(LOCATION, SET, "href", unmediated=_NAVIGATION),
    # -- Window (every get and call member is a global too) ----------------------------
    *_group(WINDOW, CALL, "alert", unmediated=_OBSERVATION),
    *_group(WINDOW, CALL, "setTimeout", escapes=True,
            unmediated="the callback later runs, mediated, under the registering principal"),
    *_group(WINDOW, CALL, "clearTimeout", unmediated="cancels only this environment's own timers"),
    *_group(WINDOW, GET, "location", unmediated=_GLOBAL, result=_LOCATION_OBJECT),
    *_group(WINDOW, GET, "document", unmediated=_GLOBAL, result=frozenset({OBJECT_PREFIX + DOCUMENT})),
    *_group(WINDOW, GET, "console", unmediated=_GLOBAL, result=frozenset({OBJECT_PREFIX + CONSOLE})),
    *_group(WINDOW, SET, "location", unmediated=_NAVIGATION),
    # -- Console ------------------------------------------------------------------------
    *_group(CONSOLE, CALL, "log info warn error", unmediated=_OBSERVATION),
    # -- XMLHttpRequest -----------------------------------------------------------------
    *_group(XHR, GET, "status responseText readyState", unmediated=_REQUEST_STATE, result=_XHR_VALUE),
    *_group(XHR, GET, "onload onreadystatechange", unmediated=_REQUEST_STATE),
    *_group(XHR, CALL, "open setRequestHeader", unmediated=_ARMING, arms=True),
    *_group(XHR, CALL, "send", sinks=frozenset({XHR_USE, COOKIE_USE}), flow=XHR_USE),
    *_group(XHR, CALL, "getResponseHeader", unmediated=_REQUEST_STATE, result=_XHR_VALUE),
    *_group(XHR, CALL, "abort", unmediated=_ARMING),
    *_group(XHR, SET, "onload onreadystatechange", unmediated=_CALLBACK, escapes=True),
    # -- Math and JSON (standard library) ----------------------------------------------
    *_group(MATH, CALL, "floor ceil round abs max min pow sqrt", unmediated=_PURE),
    *_group(MATH, GET, "PI E", unmediated=_PURE),
    *_group(JSON, CALL, "stringify parse", unmediated=_PURE),
)

#: Host name -> its entries, in table order.
TABLES: dict[str, tuple[Member, ...]] = {}
for _member in MEMBERS:
    TABLES[_member.host] = TABLES.get(_member.host, ()) + (_member,)

#: Bound-method value (:attr:`Member.tag`) -> its entry.
CALLABLES: dict[str, Member] = {member.tag: member for member in MEMBERS if member.kind == CALL}

#: The Window members every principal environment also installs as globals.
WINDOW_GLOBALS: tuple[Member, ...] = tuple(m for m in TABLES[WINDOW] if m.kind in (GET, CALL))

#: Abstract value of every global a principal environment installs.
GLOBAL_VALUES: dict[str, frozenset[str]] = {
    **{member.name: member.value for member in WINDOW_GLOBALS},
    "window": frozenset({OBJECT_PREFIX + WINDOW}),
    "XMLHttpRequest": frozenset({CONSTRUCTOR_PREFIX + XHR}),
    # Bound by inline event handlers: a plain payload dict derived from the event.
    "event": frozenset({SOURCE_EVENT}),
}


def reachable(host: str, name: str | None, kinds: tuple[str, ...]) -> list[Member]:
    """Entries of ``host`` of the given kinds an access to member ``name`` reaches.

    A computed access (``obj[expr]``, ``name is None``) may reach every one.
    """
    return [
        m for m in TABLES.get(host, ())
        if m.kind in kinds
        and (name is None or m.name == name or (m.kind == SET_PREFIX and name.startswith(m.name)))
    ]
