"""Shared URLs and origins against the frozen reference resolver.

``Url.resolve`` serves a repeated reference from a memo on its base, and
``Url.origin`` / ``Origin.parse`` / ``Origin.of`` hand out one origin per
``(scheme, host, port)``.  Over a table of references and bases this
checks that every resolution equals what the reference resolver
(``reference_url.py``) builds, that a repeat returns the same instance,
that copies and pickles carry only the fields, and that equal origins are
one object.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core import origin as origin_module
from repro.core.origin import Origin
from repro.http import url as url_module
from repro.http.url import Url
from tests.http.reference_url import reference_resolve, reference_text

BASES = (
    "http://forum.example.com/",
    "http://forum.example.com",
    "http://forum.example.com:8080/dir/page.php?x=1#top",
    "http://FORUM.Example.COM/a/b/c",
    "https://secure.example.com:443/deep/er/",
    "https://secure.example.com:8443/x",
)

REFERENCES = (
    "http://other.example.net/collect?c=1#f",
    "HTTPS://Other.Example.net:444",
    "//cdn.example.net/lib.js",
    "//cdn.example.net",
    "#frag",
    "#",
    "?q=1&r=two",
    "?",
    "../up",
    "../../../../escape",
    "./here",
    ".",
    "..",
    "a/./b/../c/",
    "post.php?id=3#c",
    "/api/unread",
    "/abs//path/",
    "",
    "   ",
    "  /padded?x=1  ",
    "\tsub/dir/\n",
)

CASES = [(base, reference) for base in BASES for reference in REFERENCES]


@pytest.mark.parametrize(("base_text", "reference"), CASES)
def test_resolve_equals_the_reference_and_repeats_the_instance(base_text, reference):
    base = Url.parse(base_text)
    expected = reference_resolve(base, reference)
    resolved = base.resolve(reference)
    assert resolved == expected
    assert str(resolved) == reference_text(expected)
    assert resolved.origin == expected.origin
    assert resolved.path_and_query == expected.path_and_query
    assert base.resolve(reference) is resolved


def test_an_empty_reference_is_the_base_and_is_not_memoised():
    base = Url.parse("http://forum.example.com/page")
    assert base.resolve("") is base
    assert base.resolve("   ") is base
    assert "" not in base._resolved


def test_the_memo_is_bounded_and_still_correct_past_its_bound():
    base = Url._parse_text("http://forum.example.com/topics/")
    references = [f"t{index}" for index in range(3 * url_module._RESOLVE_MEMO_SIZE)]
    for reference in references:
        assert base.resolve(reference) == reference_resolve(base, reference)
        assert len(base._resolved) <= url_module._RESOLVE_MEMO_SIZE


def test_a_page_url_is_shared_so_its_resolutions_are_too():
    page = Url.parse("http://forum.example.com/index.php")
    poller = page.resolve("/api/unread")
    assert Url.parse("http://forum.example.com/index.php").resolve("/api/unread") is poller
    assert poller.origin is page.origin


def _derive_everything(url: Url) -> None:
    url.origin, url.path_and_query, str(url), url.resolve("next"), hash(url)


@pytest.mark.parametrize("base_text", BASES)
@pytest.mark.parametrize(
    "round_trip",
    [lambda u: pickle.loads(pickle.dumps(u)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_copies_and_pickles_are_equal_and_carry_no_memo(base_text, round_trip):
    url = Url.parse(base_text)
    _derive_everything(url)
    restored = round_trip(url)
    assert restored == url and hash(restored) == hash(url)
    assert vars(restored) == {
        "scheme": url.scheme,
        "host": url.host,
        "port": url.port,
        "path": url.path,
        "query": url.query,
        "fragment": url.fragment,
    }
    assert str(restored) == str(url) and restored.origin is url.origin


def test_a_pickle_holds_only_the_fields():
    url = Url.parse("http://forum.example.com:8080/dir/page.php?x=1#top")
    _derive_everything(url)
    payload = pickle.dumps(url)
    for derived in (b"_resolved", b"_text", b"origin", b"path_and_query", b"next"):
        assert derived not in payload


@pytest.mark.parametrize("text", BASES + ("http://user@forum.example.com:80/x", "HTTP://Forum.Example.com?q#f"))
def test_equal_origins_are_one_instance(text):
    origin = Url.parse(text).origin
    assert Origin.parse(text) == origin
    assert Origin.parse(text) is origin
    assert Origin.of(origin.scheme.upper(), origin.host.upper(), origin.port) is origin
    assert Url.parse(text).resolve("/elsewhere").origin is origin
    # A directly built origin is equal, not shared.
    assert Origin(origin.scheme, origin.host, origin.port) == origin


def test_the_origin_table_is_bounded_and_equality_stays_by_value(monkeypatch):
    monkeypatch.setattr(origin_module, "_ORIGIN_TABLE_SIZE", 4)
    monkeypatch.setattr(origin_module, "_ORIGINS", {})
    first = Origin.of("http", "a0.example")
    for index in range(10):
        Origin.of("http", f"a{index}.example")
        assert len(origin_module._ORIGINS) <= 4
    again = Origin.of("http", "a0.example")
    assert again == first and hash(again) == hash(first)


@pytest.mark.parametrize("port", [True, 80.0, 0, -1, "80"])
def test_an_invalid_port_never_reaches_a_shared_origin(port):
    Origin.of("http", "valid.example", 80)
    Origin.of("http", "valid.example", 1)
    with pytest.raises(Exception) as raised:
        Origin.of("http", "valid.example", port)
    assert type(raised.value).__name__ == "ConfigurationError"
