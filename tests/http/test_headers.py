"""Tests for the case-insensitive header multimap."""

from __future__ import annotations

import pytest

from repro.http.headers import Headers


class TestHeadersBasics:
    def test_empty_by_default(self):
        headers = Headers()
        assert len(headers) == 0
        assert headers.get("Anything") is None

    def test_construct_from_mapping(self):
        headers = Headers({"Content-Type": "text/html", "X-Escudo-Rings": "3"})
        assert headers["content-type"] == "text/html"
        assert headers["X-ESCUDO-RINGS"] == "3"

    def test_construct_from_pairs_keeps_duplicates(self):
        headers = Headers([("Set-Cookie", "a=1"), ("Set-Cookie", "b=2")])
        assert headers.get_all("set-cookie") == ["a=1", "b=2"]

    def test_construct_from_headers_copies(self):
        original = Headers({"A": "1"})
        copy = Headers(original)
        copy.set("A", "2")
        assert original["A"] == "1"

    def test_case_insensitive_lookup_preserves_original_casing(self):
        headers = Headers()
        headers.add("X-Escudo-Cookie-Policy", "sid; ring=1")
        assert headers.get("x-escudo-cookie-policy") == "sid; ring=1"
        assert headers.items() == [("X-Escudo-Cookie-Policy", "sid; ring=1")]


class TestHeadersMutation:
    def test_add_keeps_existing_values(self):
        headers = Headers()
        headers.add("Set-Cookie", "sid=abc")
        headers.add("Set-Cookie", "theme=dark")
        assert headers.get("Set-Cookie") == "sid=abc"
        assert headers.get_all("Set-Cookie") == ["sid=abc", "theme=dark"]

    def test_set_replaces_all_same_named_headers(self):
        headers = Headers([("Accept", "a"), ("accept", "b")])
        headers.set("ACCEPT", "c")
        assert headers.get_all("accept") == ["c"]

    def test_remove_is_case_insensitive_and_silent_when_absent(self):
        headers = Headers({"Cookie": "sid=1"})
        headers.remove("COOKIE")
        headers.remove("COOKIE")
        assert "cookie" not in headers

    def test_update_from_dict_replaces(self):
        headers = Headers({"A": "1", "B": "2"})
        headers.update({"a": "10", "C": "3"})
        assert headers.get("A") == "10"
        assert headers.get("B") == "2"
        assert headers.get("C") == "3"

    def test_setitem_replaces(self):
        headers = Headers()
        headers["Location"] = "/first"
        headers["location"] = "/second"
        assert headers.get_all("Location") == ["/second"]


class TestHeadersQueries:
    def test_getitem_raises_for_missing(self):
        with pytest.raises(KeyError):
            Headers()["Missing"]

    def test_contains_only_accepts_strings(self):
        headers = Headers({"A": "1"})
        assert "a" in headers
        assert 42 not in headers

    def test_to_dict_first_value_wins(self):
        headers = Headers([("Set-Cookie", "first"), ("Set-Cookie", "second")])
        assert headers.to_dict() == {"Set-Cookie": "first"}

    def test_iteration_yields_pairs_in_insertion_order(self):
        pairs = [("A", "1"), ("B", "2"), ("A", "3")]
        headers = Headers(pairs)
        assert list(headers) == pairs

    def test_equality_ignores_name_case(self):
        assert Headers({"Content-Type": "x"}) == Headers({"content-type": "x"})
        assert Headers({"A": "1"}) != Headers({"A": "2"})

    def test_equality_with_non_headers_is_not_implemented(self):
        assert (Headers() == {"A": "1"}) is False


def test_from_pairs_keeps_the_stored_pairs():
    original = Headers([("Set-Cookie", "a=1"), ("X-Escudo-Rings", "3"), ("set-cookie", "b=2")])
    copied = Headers.from_pairs(tuple(original))
    assert copied == original
    assert copied.items() == original.items()
    copied.add("X-Extra", "1")
    assert "X-Extra" not in original
