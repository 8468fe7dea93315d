"""phpBB case study: a multi-user message board.

A functional miniature of phpBB with the structure the paper's case study
needs (Section 6.2, Tables 2 and 3): users log in, post topics and replies,
exchange private messages; the web pages mix application chrome (navigation,
forms, trusted scripts) with user-supplied message bodies.

ESCUDO configuration (Table 3)
------------------------------
==================  ====  =======================
resource            ring  ACL (outermost ring)
==================  ====  =======================
session cookies     1     read ≤ 1, write ≤ 1, use ≤ 1
XMLHttpRequest      1     use ≤ 1
application chrome  1     read/write ≤ 1
topics & replies    3     read/write ≤ 2
private messages    3     read/write ≤ 2
==================  ====  =======================

The head section (styles plus the trusted unread-message poller script) is
assigned to ring 0.  Messages are isolated from *each other* because a
script hidden inside one ring-3 message is a ring-3 principal, while every
message object's ACL only admits rings 0–2 for writes.

Construction flags mirror the paper's experimental setup:

* ``escudo_enabled=False`` renders the same pages without any ESCUDO
  markup or headers (the legacy variant);
* ``input_validation=False`` removes the HTML-escaping of user text
  ("we removed the input validation routines to facilitate XSS attacks");
* ``csrf_protection=False`` (the default) removes secret-token validation
  ("we removed the secret-token validation protection").

Each request queries only what its page renders, through primary-key gets
and the declared ``topic_id``/``privmsgs_to`` indexes; nothing is cached
between requests, so a reply costs the same at any board size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.acl import Acl
from repro.core.config import PageConfiguration, ResourcePolicy
from repro.core.rings import Ring, RingSet
from repro.http.messages import HttpResponse

from .framework import RequestContext, WebApplication
from .storage import StorageBackend, TableSpec
from .templates import EscudoPageTemplate, render_template

#: Ring assignments from Table 3.
APPLICATION_RING = 1
MESSAGE_RING = 3
MESSAGE_ACL_LIMIT = 2
COOKIE_RING = 1
XHR_RING = 1

#: The two cookies phpBB creates.
SID_COOKIE = "phpbb2mysql_sid"
DATA_COOKIE = "phpbb2mysql_data"

#: Storage schema, modeled on the real phpBB tables (the column names come
#: from ``phpbb_posts.sql``; the miniature keeps the columns its pages
#: render, and ``KEY topic_id`` as the posts index).  ``phpbb_users``
#: mirrors the twisted forum's ``users`` table and exists for bulk seeding
#: -- login itself stays open, as in the paper's experimental setup.
TOPICS_TABLE = TableSpec("phpbb_topics", ("topic_id", "topic_title", "topic_poster"))
POSTS_TABLE = TableSpec(
    "phpbb_posts",
    ("post_id", "topic_id", "post_username", "post_subject", "post_text"),
    indexes=("topic_id",),
)
PRIVMSGS_TABLE = TableSpec(
    "phpbb_privmsgs",
    ("privmsgs_id", "privmsgs_from", "privmsgs_to", "privmsgs_subject", "privmsgs_text"),
    indexes=("privmsgs_to",),
)
USERS_TABLE = TableSpec("phpbb_users", ("user_id", "username"))


@dataclass
class Post:
    """One message inside a topic."""

    post_id: int
    author: str
    body: str


@dataclass
class Topic:
    """A discussion thread."""

    topic_id: int
    title: str
    author: str
    posts: list[Post] = field(default_factory=list)


@dataclass
class PrivateMessage:
    """A user-to-user private message."""

    message_id: int
    sender: str
    recipient: str
    subject: str
    body: str


def _post(row: dict) -> Post:
    return Post(post_id=row["post_id"], author=row["post_username"], body=row["post_text"])


def _topic(row: dict, posts: list[Post]) -> Topic:
    return Topic(topic_id=row["topic_id"], title=row["topic_title"],
                 author=row["topic_poster"], posts=posts)


def _message(row: dict) -> PrivateMessage:
    return PrivateMessage(row["privmsgs_id"], row["privmsgs_from"], row["privmsgs_to"],
                          row["privmsgs_subject"], row["privmsgs_text"])


class ForumState:
    """Queries over the board's tables; every call reads the backend.

    Only the whole-board views behind the oracle's snapshot scan tables.
    """

    def __init__(self, storage: StorageBackend) -> None:
        self._storage = storage
        for spec in (TOPICS_TABLE, POSTS_TABLE, PRIVMSGS_TABLE, USERS_TABLE):
            storage.create_table(spec)

    @property
    def topics(self) -> list[Topic]:
        """Every topic with its posts, id order (two whole-table reads)."""
        posts: dict[int, list[Post]] = {}
        for row in self._storage.all("phpbb_posts"):
            posts.setdefault(row["topic_id"], []).append(_post(row))
        return [
            _topic(row, posts.get(row["topic_id"], []))
            for row in self._storage.all("phpbb_topics")
        ]

    @property
    def private_messages(self) -> list[PrivateMessage]:
        """Every private message, id order (a whole-table read)."""
        return [_message(row) for row in self._storage.all("phpbb_privmsgs")]

    def topic_index(self) -> list[tuple[Topic, int]]:
        """Every topic (posts not loaded) with its post count from the index."""
        return [
            (_topic(row, []), self._storage.count("phpbb_posts", topic_id=row["topic_id"]))
            for row in self._storage.all("phpbb_topics")
        ]

    def topic(self, topic_id: int) -> Topic | None:
        """Look up a topic by id, with its posts."""
        row = self._storage.get("phpbb_topics", topic_id)
        if row is None:
            return None
        posts = self._storage.select("phpbb_posts", topic_id=topic_id)
        return _topic(row, [_post(post) for post in posts])

    def post(self, post_id: int) -> Post | None:
        """Look up a post by id."""
        row = self._storage.get("phpbb_posts", post_id)
        return _post(row) if row is not None else None

    def messages_for(self, username: str) -> list[PrivateMessage]:
        """Private messages addressed to ``username``, id order."""
        rows = self._storage.select("phpbb_privmsgs", privmsgs_to=username)
        return [_message(row) for row in rows]


class PhpBB(WebApplication):
    """The phpBB miniature."""

    session_cookie_name = SID_COOKIE

    def __init__(self, origin: str = "http://forum.example.com", **kwargs) -> None:
        super().__init__(origin, **kwargs)
        self.state = ForumState(self.storage)
        # A pre-seeded backend (the bulk-seed benchmark, a reopened WAL
        # database) already has content; only a fresh one gets the fixtures.
        if not self.storage.count("phpbb_topics"):
            self._seed_content()

    # -- configuration --------------------------------------------------------------------

    def escudo_configuration(self) -> PageConfiguration:
        """Cookie and native-API ring mappings from Table 3."""
        config = PageConfiguration(rings=RingSet(3))
        cookie_policy = ResourcePolicy(ring=Ring(COOKIE_RING), acl=Acl.uniform(COOKIE_RING))
        config.cookie_policies[SID_COOKIE] = cookie_policy
        config.cookie_policies[DATA_COOKIE] = cookie_policy
        config.api_policies["XMLHttpRequest"] = ResourcePolicy(
            ring=Ring(XHR_RING), acl=Acl.uniform(XHR_RING)
        )
        return config

    def register_routes(self) -> None:
        self.route("GET", "/", self.index)
        self.route("GET", "/viewtopic", self.view_topic)
        self.route("GET", "/privmsg", self.private_messages, requires_login=True)
        self.route("GET", "/api/unread", self.api_unread)
        self.route("POST", "/login", self.do_login)
        self.route("POST", "/posting", self.do_post, requires_login=True)
        self.route("POST", "/edit", self.do_edit, requires_login=True)
        self.route("POST", "/privmsg_send", self.do_send_message, requires_login=True)

    def _seed_content(self) -> None:
        """Pre-populate the board so pages have content before any attack runs."""
        welcome = self.create_topic("admin", "Welcome to the board",
                                    "Please keep the discussion civil.")
        self.add_reply(welcome.topic_id, "alice", "Happy to be here!")
        self.create_topic("bob", "Weekly meetup", "We meet on Thursdays at 6pm.")
        self.send_private_message("admin", "alice", "Moderation",
                                  "Thanks for helping moderate the forum.")

    # -- domain operations (also used directly by tests) -----------------------------------------

    def create_topic(self, author: str, title: str, body: str) -> Topic:
        """Create a topic with its opening post."""
        topic_id = self.storage.insert(
            "phpbb_topics", {"topic_title": title, "topic_poster": author}
        )
        post_id = self.storage.insert(
            "phpbb_posts",
            {"topic_id": topic_id, "post_username": author,
             "post_subject": title, "post_text": body},
        )
        return Topic(topic_id, title, author, [Post(post_id, author, body)])

    def add_reply(self, topic_id: int, author: str, body: str) -> Post | None:
        """Append a reply to a topic."""
        if self.storage.get("phpbb_topics", topic_id) is None:
            return None
        post_id = self.storage.insert(
            "phpbb_posts",
            {"topic_id": topic_id, "post_username": author,
             "post_subject": "", "post_text": body},
        )
        return Post(post_id, author, body)

    def edit_post(self, post_id: int, body: str) -> Post | None:
        """Rewrite a post's body (authorisation is the route handler's job)."""
        if not self.storage.update("phpbb_posts", post_id, post_text=body):
            return None
        return self.state.post(post_id)

    def send_private_message(self, sender: str, recipient: str, subject: str, body: str) -> PrivateMessage:
        """Store a private message."""
        message_id = self.storage.insert(
            "phpbb_privmsgs",
            {"privmsgs_from": sender, "privmsgs_to": recipient,
             "privmsgs_subject": subject, "privmsgs_text": body},
        )
        return PrivateMessage(message_id, sender, recipient, subject, body)

    def snapshot_content(self) -> dict:
        """Topics, posts and private messages (the scenario oracle's view)."""
        return {
            "topics": [
                {
                    "id": topic.topic_id,
                    "title": topic.title,
                    "author": topic.author,
                    "posts": [
                        {"id": post.post_id, "author": post.author, "body": post.body}
                        for post in topic.posts
                    ],
                }
                for topic in self.state.topics
            ],
            "private_messages": [
                {
                    "id": m.message_id,
                    "sender": m.sender,
                    "recipient": m.recipient,
                    "subject": m.subject,
                    "body": m.body,
                }
                for m in self.state.private_messages
            ],
        }

    # -- shared page scaffolding ----------------------------------------------------------------------

    def _page(self, title: str, context: RequestContext) -> EscudoPageTemplate:
        page = EscudoPageTemplate(
            title=title,
            escudo_enabled=self.escudo_enabled,
            nonces=self.nonce_generator(),
            head_ring=Ring(0),
            chrome_ring=Ring(APPLICATION_RING),
        )
        page.add_head_style("body { font-family: sans-serif; } .post { margin: 8px; }")
        page.add_head_script("var forumVersion = 'miniBB 1.0';")
        user = context.username or "guest"
        # Trusted application script (ring 1 chrome): polls the unread-message
        # counter over XHR and updates the navigation bar.  Each script runs in
        # its own environment, so the poller is self-contained.
        poller = (
            "var xhr = new XMLHttpRequest();"
            "xhr.open('GET', '/api/unread');"
            "xhr.send();"
            "var badge = document.getElementById('unread-count');"
            "if (badge != null && xhr.status == 200) { badge.textContent = xhr.responseText; }"
        )
        page.add_chrome(
            render_template(
                '<h1>miniBB forum</h1><p id="whoami">Logged in as {{ user }}</p>'
                '<p>Unread private messages: <span id="unread-count">?</span></p>'
                "<script>{{ poller|safe }}</script>",
                {"user": user, "poller": poller},
            ),
            element_id="forum-header",
        )
        return page

    def _message_scope_kwargs(self) -> dict[str, int]:
        """ACL limits for message scopes (Table 3: rings 0-2 may manipulate)."""
        return {
            "ring": MESSAGE_RING,
            "read": MESSAGE_ACL_LIMIT,
            "write": MESSAGE_ACL_LIMIT,
            "use": MESSAGE_ACL_LIMIT,
        }

    # -- route handlers -------------------------------------------------------------------------------------

    def index(self, context: RequestContext) -> HttpResponse:
        """Topic list plus the new-topic form."""
        page = self._page("Forum index", context)
        rows = "".join(
            render_template(
                '<li><a id="topic-link-{{ id }}" href="/viewtopic?t={{ id }}">{{ title }}</a>'
                " ({{ count }} posts, by {{ author }})</li>",
                {
                    "id": topic.topic_id,
                    "title": topic.title,
                    "count": count,
                    "author": topic.author,
                },
            )
            for topic, count in self.state.topic_index()
        )
        page.add_chrome(f'<ul id="topic-list">{rows}</ul>', element_id="topics")
        page.add_chrome(
            render_template(
                '<form id="new-topic-form" method="POST" action="/posting">'
                '<input type="hidden" name="mode" value="newtopic">'
                "{{ csrf|safe }}"
                '<input name="subject" value="">'
                '<textarea name="message"></textarea>'
                '<input type="submit" value="Post topic"></form>'
                '<form id="login-form" method="POST" action="/login">'
                '<input name="username" value=""><input type="submit" value="Log in"></form>',
                {"csrf": self.hidden_csrf_field(context)},
            ),
            element_id="forms",
        )
        return HttpResponse.html(page.render())

    def view_topic(self, context: RequestContext) -> HttpResponse:
        """One topic with all its posts and the reply form."""
        try:
            topic_id = int(context.param("t", "0"))
        except ValueError:
            topic_id = 0
        topic = self.state.topic(topic_id)
        if topic is None:
            return HttpResponse.not_found("no such topic")
        page = self._page(f"Topic: {topic.title}", context)
        page.add_chrome(
            render_template('<h2 id="topic-title">{{ title }}</h2>', {"title": topic.title}),
            element_id="topic-head",
        )
        for post in topic.posts:
            body = context.clean(post.body)
            page.add_content(
                render_template(
                    '<div class="post" id="post-{{ id }}">'
                    '<span class="author">{{ author }}</span>'
                    '<div class="post-body" id="post-body-{{ id }}">{{ body|safe }}</div></div>',
                    {"id": post.post_id, "author": post.author, "body": body},
                ),
                element_id=f"post-scope-{post.post_id}",
                **self._message_scope_kwargs(),
            )
        page.add_chrome(
            render_template(
                '<form id="reply-form" method="POST" action="/posting">'
                '<input type="hidden" name="mode" value="reply">'
                '<input type="hidden" name="t" value="{{ id }}">'
                "{{ csrf|safe }}"
                '<textarea name="message"></textarea>'
                '<input type="submit" value="Reply"></form>',
                {"id": topic.topic_id, "csrf": self.hidden_csrf_field(context)},
            ),
            element_id="reply",
        )
        return HttpResponse.html(page.render())

    def private_messages(self, context: RequestContext) -> HttpResponse:
        """The logged-in user's private inbox."""
        page = self._page("Private messages", context)
        messages = self.state.messages_for(context.username or "")
        for message in messages:
            body = context.clean(message.body)
            subject = context.clean(message.subject)
            page.add_content(
                render_template(
                    '<div class="pm" id="pm-{{ id }}"><b>{{ subject|safe }}</b> from {{ sender }}'
                    '<div class="pm-body" id="pm-body-{{ id }}">{{ body|safe }}</div></div>',
                    {"id": message.message_id, "subject": subject,
                     "sender": message.sender, "body": body},
                ),
                element_id=f"pm-scope-{message.message_id}",
                **self._message_scope_kwargs(),
            )
        page.add_chrome(
            render_template(
                '<form id="pm-form" method="POST" action="/privmsg_send">'
                "{{ csrf|safe }}"
                '<input name="to" value=""><input name="subject" value="">'
                '<textarea name="body"></textarea>'
                '<input type="submit" value="Send"></form>',
                {"csrf": self.hidden_csrf_field(context)},
            ),
            element_id="pm-compose",
        )
        return HttpResponse.html(page.render())

    def api_unread(self, context: RequestContext) -> HttpResponse:
        """Unread private-message count (consumed by the trusted XHR script)."""
        count = self.storage.count("phpbb_privmsgs", privmsgs_to=context.username or "")
        return HttpResponse.text(str(count))

    def do_login(self, context: RequestContext) -> HttpResponse:
        """Create a session and set the two phpBB cookies."""
        username = context.param("username").strip() or "anonymous"
        response = HttpResponse.redirect("/")
        session = self.login(context, username, response)
        response.set_cookie(DATA_COOKIE, f"user={username}", http_only=False)
        session.set("prefs", {"theme": "default"})
        return response

    def do_post(self, context: RequestContext) -> HttpResponse:
        """Create a topic or a reply on behalf of the logged-in user."""
        mode = context.param("mode", "reply")
        author = context.username or "anonymous"
        if mode == "newtopic":
            subject = context.param("subject", "(no subject)")
            self.create_topic(author, subject, context.param("message", ""))
            return HttpResponse.redirect("/")
        try:
            topic_id = int(context.param("t", "0"))
        except ValueError:
            topic_id = 0
        post = self.add_reply(topic_id, author, context.param("message", ""))
        if post is None:
            return HttpResponse.not_found("no such topic")
        return HttpResponse.redirect(f"/viewtopic?t={topic_id}")

    def do_edit(self, context: RequestContext) -> HttpResponse:
        """Modify an existing post (only by its author)."""
        try:
            post_id = int(context.param("post_id", "0"))
        except ValueError:
            post_id = 0
        post = self.state.post(post_id)
        if post is None:
            return HttpResponse.not_found("no such post")
        if post.author != (context.username or ""):
            return HttpResponse.forbidden("only the author may edit a post")
        self.edit_post(post_id, context.param("message", post.body))
        return HttpResponse.redirect("/")

    def do_send_message(self, context: RequestContext) -> HttpResponse:
        """Send a private message from the logged-in user."""
        self.send_private_message(
            sender=context.username or "anonymous",
            recipient=context.param("to", ""),
            subject=context.param("subject", "(no subject)"),
            body=context.param("body", ""),
        )
        return HttpResponse.redirect("/privmsg")
