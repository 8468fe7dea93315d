"""Tests for the PHP-Calendar miniature and its Table-5 ESCUDO configuration."""

from __future__ import annotations

import pytest

from repro.browser.browser import Browser
from repro.core.rings import Ring
from repro.http.messages import HttpRequest
from repro.http.network import Network
from repro.webapps.phpcalendar import SESSION_COOKIE, PhpCalendar


@pytest.fixture
def calendar() -> PhpCalendar:
    return PhpCalendar(input_validation=False)


@pytest.fixture
def browser_on_calendar(calendar):
    network = Network()
    network.register(calendar.origin, calendar)
    return Browser(network), calendar


def load(browser, calendar, path: str):
    return browser.load(f"{calendar.origin}{path}")


class TestTable5Configuration:
    """Table 5: session cookie ring 1, XHR ring 1, events ring 3 with ACL <= 2."""

    def test_cookie_and_api_policies(self, calendar):
        config = calendar.escudo_configuration()
        assert config.cookie_policy(SESSION_COOKIE).ring == Ring(1)
        assert config.cookie_policy(SESSION_COOKIE).acl.use == Ring(1)
        assert config.api_policy("XMLHttpRequest").ring == Ring(1)
        assert config.rings.highest_level == 3

    def test_month_view_labels_chrome_and_events(self, browser_on_calendar):
        browser, calendar = browser_on_calendar
        loaded = load(browser, calendar, "/")
        page = loaded.page
        header = page.document.get_element_by_id("calendar-header")
        assert header.security_context.ring == Ring(1)
        event_body = page.document.get_element_by_id("event-body-1")
        assert event_body.security_context.ring == Ring(3)
        assert event_body.security_context.acl.write == Ring(2)

    def test_events_are_isolated_from_each_other(self, browser_on_calendar):
        """Table 5's point: a script in one event cannot rewrite another event."""
        browser, calendar = browser_on_calendar
        calendar.create_event(
            "mallory",
            "2010-04-20",
            "Innocent gathering",
            "<script>var other = document.getElementById('event-body-1');"
            "if (other != null) { other.textContent = 'CANCELLED'; }</script>bring snacks",
        )
        loaded = load(browser, calendar, "/")
        assert "CANCELLED" not in loaded.page.document.get_element_by_id("event-body-1").text_content
        assert loaded.page.denied_accesses() >= 1


class TestCalendarBehaviour:
    def test_seeded_events(self, calendar):
        assert len(calendar.state.events) == 2
        assert calendar.state.event(1).title == "Reading group"
        assert calendar.state.events_in_month("2010-04") == calendar.state.events
        assert calendar.state.events_in_month("2010-05") == []

    def test_create_event(self, calendar):
        event = calendar.create_event("carol", "2010-04-22", "Standup", "daily sync")
        assert calendar.state.event(event.event_id) == event

    def test_event_count_api(self, calendar):
        response = calendar.handle_request(
            HttpRequest(method="GET", url=f"{calendar.origin}/api/event_count")
        )
        assert response.body == "2"

    def test_trusted_counter_script_updates_the_badge(self, browser_on_calendar):
        browser, calendar = browser_on_calendar
        loaded = load(browser, calendar, "/")
        assert loaded.page.document.get_element_by_id("event-count").text_content == "2"

    def test_event_detail_view(self, browser_on_calendar):
        browser, calendar = browser_on_calendar
        loaded = load(browser, calendar, "/view?id=1")
        assert "Multics" in loaded.page.document.get_element_by_id("event-body-1").text_content

    def test_unknown_event_is_404(self, calendar):
        response = calendar.handle_request(HttpRequest(method="GET", url=f"{calendar.origin}/view?id=99"))
        assert response.status == 404

    def test_event_creation_requires_login(self, calendar):
        response = calendar.handle_request(
            HttpRequest(method="POST", url=f"{calendar.origin}/event/create",
                        form={"date": "2010-04-30", "title": "x", "description": "y"})
        )
        assert response.status == 403
        assert len(calendar.state.events) == 2

    def test_login_and_create_event_through_the_browser(self, browser_on_calendar):
        browser, calendar = browser_on_calendar
        loaded = load(browser, calendar, "/")
        browser.submit_form(loaded, "login-form", {"username": "victim"}, as_user=True)
        month = load(browser, calendar, "/")
        browser.submit_form(
            month, "create-form",
            {"date": "2010-04-25", "title": "Retro", "description": "what went well"},
            as_user=True,
        )
        assert any(event.title == "Retro" for event in calendar.state.events)


class TestLegacyVariant:
    def test_legacy_calendar_collapses_to_a_single_ring(self):
        calendar = PhpCalendar(escudo_enabled=False)
        network = Network()
        network.register(calendar.origin, calendar)
        browser = Browser(network)
        loaded = browser.load(f"{calendar.origin}/")
        assert not loaded.page.escudo_enabled
        assert loaded.page.document.get_element_by_id("event-body-1").security_context.ring == Ring(0)
