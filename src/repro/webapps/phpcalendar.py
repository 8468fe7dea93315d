"""PHP-Calendar case study: a multi-user shared calendar.

A functional miniature of PHP-Calendar matching the paper's second case
study (Section 6.2, Tables 4 and 5): a group shares a calendar; every event
has a date, a title and a description supplied by a user; the month view and
the event view mix application chrome with that user-supplied text.

ESCUDO configuration (Table 5)
------------------------------
===================  ====  =======================
resource             ring  ACL (outermost ring)
===================  ====  =======================
session cookie       1     read ≤ 1, write ≤ 1, use ≤ 1
XMLHttpRequest       1     use ≤ 1
application content  1     read/write ≤ 1
calendar events      3     read/write ≤ 2
===================  ====  =======================

Events are therefore isolated from one another and from the application
chrome: a script smuggled into one event's description runs as a ring-3
principal and cannot modify other events (ACL limit 2), the chrome (ring 1),
the session cookie (ring 1) or the XHR API (ring 1).

Events are read by primary key; only the month view scans the (small)
table.  Nothing is cached between requests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.acl import Acl
from repro.core.config import PageConfiguration, ResourcePolicy
from repro.core.rings import Ring, RingSet
from repro.http.messages import HttpResponse

from .framework import RequestContext, WebApplication
from .storage import StorageBackend, TableSpec
from .templates import EscudoPageTemplate, render_template

#: Ring assignments from Table 5.
APPLICATION_RING = 1
EVENT_RING = 3
EVENT_ACL_LIMIT = 2
COOKIE_RING = 1
XHR_RING = 1

SESSION_COOKIE = "phpc_session"

#: Storage schema, modeled on PHP-Calendar's events table (threaded like
#: the twisted forum's ``posts`` table: one row per user-authored entry).
EVENTS_TABLE = TableSpec(
    "phpc_events", ("event_id", "event_date", "event_title", "event_description", "event_author")
)


@dataclass
class CalendarEvent:
    """One calendar entry."""

    event_id: int
    date: str  # ISO "YYYY-MM-DD"
    title: str
    description: str
    author: str


def _event(row: dict) -> CalendarEvent:
    return CalendarEvent(row["event_id"], row["event_date"], row["event_title"],
                         row["event_description"], row["event_author"])


class CalendarState:
    """Queries over the events table; every call reads the backend."""

    def __init__(self, storage: StorageBackend) -> None:
        self._storage = storage
        storage.create_table(EVENTS_TABLE)

    @property
    def events(self) -> list[CalendarEvent]:
        """Every event, id order (a whole-table read)."""
        return [_event(row) for row in self._storage.all("phpc_events")]

    def event(self, event_id: int) -> CalendarEvent | None:
        """Look up an event by id."""
        row = self._storage.get("phpc_events", event_id)
        return _event(row) if row is not None else None

    def events_in_month(self, month: str) -> list[CalendarEvent]:
        """Events whose date starts with ``month`` ("YYYY-MM")."""
        return [event for event in self.events if event.date.startswith(month)]


class PhpCalendar(WebApplication):
    """The PHP-Calendar miniature."""

    session_cookie_name = SESSION_COOKIE

    def __init__(self, origin: str = "http://calendar.example.com", **kwargs) -> None:
        super().__init__(origin, **kwargs)
        self.state = CalendarState(self.storage)
        if not self.storage.count("phpc_events"):
            self._seed_content()

    # -- configuration -----------------------------------------------------------------------

    def escudo_configuration(self) -> PageConfiguration:
        """Cookie and native-API ring mappings from Table 5."""
        config = PageConfiguration(rings=RingSet(3))
        config.cookie_policies[SESSION_COOKIE] = ResourcePolicy(
            ring=Ring(COOKIE_RING), acl=Acl.uniform(COOKIE_RING)
        )
        config.api_policies["XMLHttpRequest"] = ResourcePolicy(
            ring=Ring(XHR_RING), acl=Acl.uniform(XHR_RING)
        )
        return config

    def register_routes(self) -> None:
        self.route("GET", "/", self.month_view)
        self.route("GET", "/view", self.event_view)
        self.route("GET", "/api/event_count", self.api_event_count)
        self.route("POST", "/login", self.do_login)
        self.route("POST", "/event/create", self.do_create, requires_login=True)
        self.route("POST", "/event/edit", self.do_edit, requires_login=True)
        self.route("POST", "/event/delete", self.do_delete, requires_login=True)

    def _seed_content(self) -> None:
        self.create_event("alice", "2010-04-12", "Reading group",
                          "Discussing protection rings in Multics.")
        self.create_event("bob", "2010-04-15", "Lab meeting",
                          "Quarterly planning for the browser project.")

    # -- domain operations -----------------------------------------------------------------------

    def create_event(self, author: str, date: str, title: str, description: str) -> CalendarEvent:
        """Add an event to the calendar."""
        event_id = self.storage.insert(
            "phpc_events",
            {"event_date": date, "event_title": title,
             "event_description": description, "event_author": author},
        )
        return CalendarEvent(event_id, date, title, description, author)

    def snapshot_content(self) -> dict:
        """Every calendar event (the scenario oracle's view)."""
        return {
            "events": [
                {
                    "id": event.event_id,
                    "date": event.date,
                    "title": event.title,
                    "description": event.description,
                    "author": event.author,
                }
                for event in self.state.events
            ],
        }

    # -- page scaffolding ----------------------------------------------------------------------------

    def _page(self, title: str, context: RequestContext) -> EscudoPageTemplate:
        page = EscudoPageTemplate(
            title=title,
            escudo_enabled=self.escudo_enabled,
            nonces=self.nonce_generator(),
            head_ring=Ring(0),
            chrome_ring=Ring(APPLICATION_RING),
        )
        page.add_head_style(".event { border: 1px solid #999; margin: 4px; }")
        user = context.username or "guest"
        counter_script = (
            "var xhr = new XMLHttpRequest();"
            "xhr.open('GET', '/api/event_count');"
            "xhr.send();"
            "var badge = document.getElementById('event-count');"
            "if (badge != null && xhr.status == 200) { badge.textContent = xhr.responseText; }"
        )
        page.add_chrome(
            render_template(
                '<h1>Group calendar</h1><p id="calendar-user">User: {{ user }}</p>'
                '<p>Total events: <span id="event-count">?</span></p>'
                "<script>{{ script|safe }}</script>",
                {"user": user, "script": counter_script},
            ),
            element_id="calendar-header",
        )
        return page

    def _event_scope_kwargs(self) -> dict[str, int]:
        """ACL limits for event scopes (Table 5: rings 0-2 may manipulate)."""
        return {
            "ring": EVENT_RING,
            "read": EVENT_ACL_LIMIT,
            "write": EVENT_ACL_LIMIT,
            "use": EVENT_ACL_LIMIT,
        }

    # -- route handlers -----------------------------------------------------------------------------------

    def month_view(self, context: RequestContext) -> HttpResponse:
        """The month view: every event rendered in its own ring-3 scope."""
        month = context.param("month", "2010-04")
        page = self._page(f"Calendar {month}", context)
        for event in self.state.events_in_month(month):
            description = context.clean(event.description)
            title = context.clean(event.title)
            page.add_content(
                render_template(
                    '<div class="event" id="event-{{ id }}">'
                    '<span class="date">{{ date }}</span> '
                    '<a href="/view?id={{ id }}">{{ title|safe }}</a>'
                    '<div class="event-body" id="event-body-{{ id }}">{{ body|safe }}</div>'
                    "<span class=\"owner\">by {{ author }}</span></div>",
                    {"id": event.event_id, "date": event.date, "title": title,
                     "body": description, "author": event.author},
                ),
                element_id=f"event-scope-{event.event_id}",
                **self._event_scope_kwargs(),
            )
        page.add_chrome(
            render_template(
                '<form id="create-form" method="POST" action="/event/create">'
                "{{ csrf|safe }}"
                '<input name="date" value="{{ month }}-20">'
                '<input name="title" value="">'
                '<textarea name="description"></textarea>'
                '<input type="submit" value="Add event"></form>'
                '<form id="login-form" method="POST" action="/login">'
                '<input name="username" value=""><input type="submit" value="Log in"></form>',
                {"month": month, "csrf": self.hidden_csrf_field(context)},
            ),
            element_id="calendar-forms",
        )
        return HttpResponse.html(page.render())

    def event_view(self, context: RequestContext) -> HttpResponse:
        """Detail view of a single event."""
        try:
            event_id = int(context.param("id", "0"))
        except ValueError:
            event_id = 0
        event = self.state.event(event_id)
        if event is None:
            return HttpResponse.not_found("no such event")
        page = self._page(f"Event: {event.title}", context)
        page.add_content(
            render_template(
                '<div class="event" id="event-{{ id }}"><h2>{{ title|safe }}</h2>'
                '<p class="date">{{ date }}</p>'
                '<div class="event-body" id="event-body-{{ id }}">{{ body|safe }}</div></div>',
                {"id": event.event_id, "title": context.clean(event.title),
                 "date": event.date, "body": context.clean(event.description)},
            ),
            element_id=f"event-scope-{event.event_id}",
            **self._event_scope_kwargs(),
        )
        page.add_chrome(
            render_template(
                '<form id="edit-form" method="POST" action="/event/edit">'
                "{{ csrf|safe }}"
                '<input type="hidden" name="id" value="{{ id }}">'
                '<textarea name="description"></textarea>'
                '<input type="submit" value="Save"></form>',
                {"id": event.event_id, "csrf": self.hidden_csrf_field(context)},
            ),
            element_id="edit",
        )
        return HttpResponse.html(page.render())

    def api_event_count(self, context: RequestContext) -> HttpResponse:
        """Total number of events (consumed by the trusted XHR script)."""
        return HttpResponse.text(str(self.storage.count("phpc_events")))

    def do_login(self, context: RequestContext) -> HttpResponse:
        """Create a session for the supplied user name."""
        username = context.param("username").strip() or "anonymous"
        response = HttpResponse.redirect("/")
        self.login(context, username, response)
        return response

    def do_create(self, context: RequestContext) -> HttpResponse:
        """Create an event on behalf of the logged-in user."""
        self.create_event(
            author=context.username or "anonymous",
            date=context.param("date", "2010-04-01"),
            title=context.param("title", "(untitled)"),
            description=context.param("description", ""),
        )
        return HttpResponse.redirect("/")

    def do_edit(self, context: RequestContext) -> HttpResponse:
        """Modify an existing event (only by its author)."""
        try:
            event_id = int(context.param("id", "0"))
        except ValueError:
            event_id = 0
        event = self.state.event(event_id)
        if event is None:
            return HttpResponse.not_found("no such event")
        if event.author != (context.username or ""):
            return HttpResponse.forbidden("only the author may edit an event")
        fields = {"event_description": context.param("description", event.description)}
        if context.param("title"):
            fields["event_title"] = context.param("title")
        self.storage.update("phpc_events", event_id, **fields)
        return HttpResponse.redirect(f"/view?id={event_id}")

    def do_delete(self, context: RequestContext) -> HttpResponse:
        """Delete an event (only by its author)."""
        try:
            event_id = int(context.param("id", "0"))
        except ValueError:
            event_id = 0
        event = self.state.event(event_id)
        if event is None:
            return HttpResponse.not_found("no such event")
        if event.author != (context.username or ""):
            return HttpResponse.forbidden("only the author may delete an event")
        self.storage.delete("phpc_events", event_id)
        return HttpResponse.redirect("/")
