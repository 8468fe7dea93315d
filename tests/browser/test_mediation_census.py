"""Complete-mediation census over every script-visible host member.

ESCUDO's security argument is complete mediation: the reference monitor
decides every script access to a DOM element, a cookie or a native API.
The member tables (:mod:`repro.scripting.host_members`) are the only way a
script reaches a host object, so this census walks them:

* every mediated entry is driven from a principal the policy denies -- the
  monitor must record at least one decision, every decision must be denied
  and fall in a category the entry declares, the script must see the
  neutralised result, and no protected state may leak or change;
* the same entry is driven from an allowed principal, so the census cannot
  pass on a member that records nothing;
* the unmediated entries must equal the reviewed allowlist below.

Both checks run twice: once with the DOM API unlabelled (element ACLs
deny) and once with the DOM API at ring 1 (its ``use`` check denies first).
"""

from __future__ import annotations

import pytest

import repro.browser  # noqa: F401 - defines every browser host class
from repro.browser.browser import Browser
from repro.core.acl import Acl
from repro.core.config import PageConfiguration, ResourcePolicy
from repro.core.decision import AccessDecision, Operation
from repro.core.rings import Ring, RingSet
from repro.html.serializer import serialize
from repro.http.messages import HttpResponse
from repro.http.network import Network
from repro.scripting.host_members import (
    CALL,
    COOKIE_READ,
    COOKIE_USE,
    COOKIE_WRITE,
    DOM_READ,
    DOM_USE,
    DOM_WRITE,
    GET,
    MEMBERS,
    SET,
    SET_PREFIX,
    TABLES,
    XHR_USE,
    Member,
)
from repro.scripting.interpreter import HostObject

ORIGIN = "http://census.example.com"
SECRET = "TOP-SECRET"
SESSION = "victim-session"

#: A ring-1 vault (readable and writable from rings 0-1 only) holding the
#: protected text; everything a denied ring-3 script targets lives in it.
BODY = (
    "<!DOCTYPE html><html><head><title>Census</title></head><body>"
    '<div ring="1" r="1" w="1" x="1" id="vault">'
    f'<p id="secret" title="{SECRET}" value="{SECRET}">{SECRET}</p>'
    '<p id="child">child</p>'
    "</div>"
    "</body></html>"
)

_ELEMENT = "document.getElementById('secret')"
_VAULT = "document.getElementById('vault')"

#: How the census drives each mediated entry: a script whose completion
#: value is what the script observed.
DRIVERS: dict[tuple[str, str, str], str] = {
    ("Element", GET, "innerHTML"): f"{_ELEMENT}.innerHTML",
    ("Element", GET, "textContent"): f"{_ELEMENT}.textContent",
    ("Element", GET, "innerText"): f"{_ELEMENT}.innerText",
    ("Element", GET, "id"): f"{_ELEMENT}.id",
    ("Element", GET, "value"): f"{_ELEMENT}.value",
    ("Element", CALL, "getAttribute"): f"{_ELEMENT}.getAttribute('title')",
    ("Element", CALL, "setAttribute"): f"{_ELEMENT}.setAttribute('title', 'owned')",
    ("Element", CALL, "appendChild"): f"{_VAULT}.appendChild(document.createElement('b'))",
    ("Element", CALL, "removeChild"): f"{_VAULT}.removeChild(document.getElementById('child'))",
    ("Element", CALL, "addEventListener"): f"{_ELEMENT}.addEventListener('click', alert)",
    ("Element", SET, "innerHTML"): f"{_ELEMENT}.innerHTML = 'owned'",
    ("Element", SET, "textContent"): f"{_ELEMENT}.textContent = 'owned'",
    ("Element", SET, "innerText"): f"{_ELEMENT}.innerText = 'owned'",
    ("Element", SET, "value"): f"{_ELEMENT}.value = 'owned'",
    ("Element", SET, "id"): f"{_ELEMENT}.id = 'owned'",
    ("Element", SET, "className"): f"{_ELEMENT}.className = 'owned'",
    ("Element", SET_PREFIX, "on"): f"{_ELEMENT}.onclick = alert",
    ("Document", CALL, "write"): "document.write('<b>owned</b>')",
    ("Document", GET, "cookie"): "document.cookie",
    ("Document", SET, "cookie"): "document.cookie = 'sid=owned'",
    ("XMLHttpRequest", CALL, "send"): (
        "var x = new XMLHttpRequest(); x.open('GET', '/api/secret'); x.send(); x.responseText"
    ),
}

#: Reviewed allowlist: members no monitor check guards, on purpose (each
#: table entry says why).  Adding a member here is a security review.
UNMEDIATED: set[tuple[str, str, str]] = {
    ("Element", GET, "tagName"),
    ("Element", CALL, "querySelector"),
    ("Element", CALL, "querySelectorAll"),
    ("Document", CALL, "getElementById"),
    ("Document", CALL, "querySelector"),
    ("Document", CALL, "querySelectorAll"),
    ("Document", CALL, "getElementsByTagName"),
    ("Document", CALL, "createElement"),
    ("Document", GET, "body"),
    ("Document", GET, "head"),
    ("Document", GET, "title"),
    ("Document", GET, "location"),
    ("Document", SET, "location"),
    *(("Location", GET, name) for name in ("href", "host", "pathname", "protocol", "search")),
    ("Location", CALL, "assign"),
    ("Location", CALL, "replace"),
    ("Location", SET, "href"),
    ("Window", CALL, "alert"),
    ("Window", CALL, "setTimeout"),
    ("Window", CALL, "clearTimeout"),
    ("Window", GET, "location"),
    ("Window", GET, "document"),
    ("Window", GET, "console"),
    ("Window", SET, "location"),
    *(("Console", CALL, name) for name in ("log", "info", "warn", "error")),
    *(("XMLHttpRequest", GET, name) for name in ("status", "responseText", "readyState")),
    ("XMLHttpRequest", GET, "onload"),
    ("XMLHttpRequest", GET, "onreadystatechange"),
    ("XMLHttpRequest", CALL, "open"),
    ("XMLHttpRequest", CALL, "setRequestHeader"),
    ("XMLHttpRequest", CALL, "getResponseHeader"),
    ("XMLHttpRequest", CALL, "abort"),
    ("XMLHttpRequest", SET, "onload"),
    ("XMLHttpRequest", SET, "onreadystatechange"),
    *(("Math", CALL, name) for name in ("floor", "ceil", "round", "abs", "max", "min", "pow", "sqrt")),
    ("Math", GET, "PI"),
    ("Math", GET, "E"),
    ("JSON", CALL, "stringify"),
    ("JSON", CALL, "parse"),
}

#: What a neutralised access hands the script.
DENIED_VALUES = (None, False, "", 0.0)


def _key(member: Member) -> tuple[str, str, str]:
    return (member.host, member.kind, member.name)


MEDIATED = [member for member in MEMBERS if member.sinks]


def classify_decision(decision: AccessDecision) -> str | None:
    """The sink category of a monitor decision, from its operation and label.

    The mediation layer labels its targets ``cookie:<name>`` (cookie jar
    entries), ``XMLHttpRequest (native-api)`` / ``DOM API (native-api)``
    (native API use checks) and ``<tag> ...`` (elements, including tamper
    denials labelled with the bare ``<tag>``).  Any other label is outside
    the script-reachable surface and classifies as ``None``, which no entry
    declares, so a new mediation path fails the census.
    """
    label = decision.object_label
    operation = decision.operation
    if label.startswith("cookie:"):
        if operation is Operation.READ:
            return COOKIE_READ
        if operation is Operation.WRITE:
            return COOKIE_WRITE
        return COOKIE_USE
    if label == "XMLHttpRequest (native-api)":
        return XHR_USE
    if label == "DOM API (native-api)":
        return DOM_USE
    if label.startswith("<"):
        if operation is Operation.READ:
            return DOM_READ
        if operation is Operation.WRITE:
            return DOM_WRITE
        return DOM_USE
    return None


def _host_classes() -> list[type]:
    found, pending = [], [HostObject]
    while pending:
        for subclass in pending.pop().__subclasses__():
            pending.append(subclass)
            if subclass.__module__.startswith("repro."):
                found.append(subclass)
    return found


class _CensusServer:
    def __init__(self, configuration: PageConfiguration) -> None:
        self.configuration = configuration

    def handle_request(self, request):
        if request.url.path == "/api/secret":
            return HttpResponse.text(SECRET)
        response = HttpResponse.html(BODY)
        response.set_cookie("sid", SESSION)
        response.apply_escudo_headers(self.configuration)
        return response


def _configuration(dom_api_ring: int | None) -> PageConfiguration:
    configuration = PageConfiguration(rings=RingSet(3))
    configuration.cookie_policies["sid"] = ResourcePolicy(ring=Ring(1), acl=Acl.uniform(1))
    configuration.api_policies["XMLHttpRequest"] = ResourcePolicy.uniform(1)
    if dom_api_ring is not None:
        configuration.api_policies["DOM API"] = ResourcePolicy.uniform(dom_api_ring)
    return configuration


def _drive(member: Member, dom_api_ring: int | None, ring: int):
    """Run the member's driver on a fresh page; return what it left behind."""
    network = Network()
    network.register(ORIGIN, _CensusServer(_configuration(dom_api_ring)))
    browser = Browser(network)
    loaded = browser.load(f"{ORIGIN}/page")
    page = loaded.page
    before = (serialize(page.document), browser.cookie_jar.get(page.origin, "sid").value)
    audited = len(page.monitor.audit)
    run = browser.run_script(loaded, DRIVERS[_key(member)], ring=ring)
    decisions = page.monitor.audit.entries[audited:]
    after = (serialize(page.document), browser.cookie_jar.get(page.origin, "sid").value)
    return run, decisions, before, after


def test_every_host_class_has_exactly_its_table():
    classes = _host_classes()
    assert {cls.host_name for cls in classes} == set(TABLES)
    for cls in classes:
        assert set(cls.handlers) == {(m.kind, m.name) for m in TABLES[cls.host_name]}, cls.__name__


def test_a_declared_member_without_a_handler_fails_at_class_creation():
    with pytest.raises(AttributeError, match="has no attribute '_get_"):
        type("HandlerlessElement", (HostObject,), {"host_name": "Element"})


def test_unmediated_entries_equal_the_reviewed_allowlist():
    unmediated = {_key(member) for member in MEMBERS if not member.sinks}
    assert unmediated == UNMEDIATED


def test_every_mediated_entry_has_a_driver():
    assert {_key(member) for member in MEDIATED} == set(DRIVERS)


@pytest.mark.parametrize("dom_api_ring", [None, 1], ids=["element-acl", "dom-api-ring"])
@pytest.mark.parametrize("member", MEDIATED, ids=lambda m: f"{m.host}.{m.name}:{m.kind}")
def test_denied_principal_is_neutralised(member, dom_api_ring):
    run, decisions, before, after = _drive(member, dom_api_ring, ring=3)
    assert run.succeeded, run.result.error
    assert decisions, "no monitor decision recorded"
    assert all(decision.denied for decision in decisions), [str(d) for d in decisions]
    categories = {classify_decision(decision) for decision in decisions}
    assert categories <= member.sinks, f"undeclared categories {categories - member.sinks}"
    if member.kind in (GET, CALL):
        assert run.result.value in DENIED_VALUES
    assert SECRET not in str(run.result.value) and SESSION not in str(run.result.value)
    assert after == before, "a denied access changed protected state"


@pytest.mark.parametrize("dom_api_ring", [None, 1], ids=["element-acl", "dom-api-ring"])
@pytest.mark.parametrize("member", MEDIATED, ids=lambda m: f"{m.host}.{m.name}:{m.kind}")
def test_allowed_principal_is_mediated_too(member, dom_api_ring):
    run, decisions, _, _ = _drive(member, dom_api_ring, ring=0)
    assert run.succeeded, run.result.error
    assert decisions, "no monitor decision recorded"
    assert any(decision.allowed for decision in decisions)
    assert {classify_decision(decision) for decision in decisions} <= member.sinks
