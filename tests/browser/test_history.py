"""Tests for browser state (history, visited links) and its ring-0 mandate."""

from __future__ import annotations

from repro.browser.history import BrowserHistory
from repro.core.decision import Operation
from repro.core.monitor import ReferenceMonitor
from repro.core.origin import Origin
from repro.core.rings import Ring
from repro.http.url import Url
from tests.conftest import make_context

ORIGIN = Origin.parse("http://app.example.com")


def url(path: str) -> Url:
    return Url.parse(f"http://app.example.com{path}")


class TestNavigation:
    def test_record_visit_appends_and_marks_visited(self):
        history = BrowserHistory()
        history.record_visit(url("/a"), title="A")
        history.record_visit(url("/b"), title="B")
        assert len(history) == 2
        assert history.current.title == "B"
        assert history.is_visited(url("/a"))
        assert not history.is_visited(url("/never"))

    def test_back_and_forward(self):
        history = BrowserHistory()
        history.record_visit(url("/a"))
        history.record_visit(url("/b"))
        history.record_visit(url("/c"))
        assert history.back().url.path == "/b"
        assert history.back().url.path == "/a"
        assert history.back() is None
        assert history.forward().url.path == "/b"
        assert history.forward().url.path == "/c"
        assert history.forward() is None

    def test_new_visit_truncates_forward_history(self):
        history = BrowserHistory()
        history.record_visit(url("/a"))
        history.record_visit(url("/b"))
        history.back()
        history.record_visit(url("/c"))
        assert [entry.url.path for entry in history.entries] == ["/a", "/c"]
        assert history.forward() is None

    def test_empty_history(self):
        history = BrowserHistory()
        assert history.current is None
        assert history.back() is None
        assert history.forward() is None
        assert len(history) == 0

    def test_sequence_numbers_are_monotonic(self):
        history = BrowserHistory()
        first = history.record_visit(url("/a"))
        second = history.record_visit(url("/b"))
        assert second.sequence > first.sequence

    def test_is_visited_accepts_strings(self):
        history = BrowserHistory()
        history.record_visit(url("/a"))
        assert history.is_visited("http://app.example.com/a")


class TestRingZeroMandate:
    """The paper: browser state is mandatorily ring 0 and not configurable."""

    def test_protected_objects_are_ring_zero(self):
        history = BrowserHistory()
        objects = history.protected_objects(ORIGIN)
        assert set(objects) == {"history", "visited-links"}
        for protected in objects.values():
            assert protected.ring == Ring(0)

    def test_only_ring_zero_same_origin_principals_may_read(self):
        history = BrowserHistory()
        state = history.protected_objects(ORIGIN)["history"]
        monitor = ReferenceMonitor()
        assert monitor.authorize(make_context(ORIGIN, 0), state, Operation.READ).allowed
        assert monitor.authorize(make_context(ORIGIN, 1), state, Operation.READ).denied
        assert monitor.authorize(make_context(ORIGIN, 3), state, Operation.READ).denied

    def test_cross_origin_principals_cannot_read_browser_state(self):
        history = BrowserHistory()
        state = history.protected_objects(ORIGIN)["visited-links"]
        monitor = ReferenceMonitor()
        other = Origin.parse("http://tracker.example.net")
        assert monitor.authorize(make_context(other, 0), state, Operation.READ).denied
