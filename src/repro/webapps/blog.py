"""The blog example (Figure 3 and the advertising scenario from Section 1).

A small publishing application that demonstrates the three trust levels the
paper's introduction motivates on one page:

* the publisher's own content -- the blog post body and the application
  chrome (rings 1-2, writable only by the most trusted rings);
* *semi-trusted* third-party content -- an advertising slot whose script is
  supplied by an ad network (ring 2: it may do its job inside its slot but
  cannot touch the post, the cookies or the XHR API);
* *untrusted* content -- reader comments (ring 3, isolated from everything
  including each other).

The configuration mirrors Figure 3: the post scope is ``ring=2`` with an ACL
admitting only ring 0, comments are ``ring=3``, and every AC tag carries a
markup-randomisation nonce.

Comments are read through the declared ``parent_id`` index; nothing is
cached between requests.
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

SESSION_COOKIE = "blog_session"

#: Storage schema, modeled on the twisted forum's ``posts`` table
#: (``forum.sql``): articles are top-level entries, comments thread under
#: them via ``parent_id``.  Separate tables keep each id sequence intact.
BLOG_POSTS_TABLE = TableSpec("blog_posts", ("post_id", "subject", "body"))
BLOG_COMMENTS_TABLE = TableSpec(
    "blog_comments", ("comment_id", "parent_id", "author", "body"), indexes=("parent_id",)
)

#: Ring assignments for the blog (Figure 3 plus the ad-slot scenario).
CHROME_RING = 1
POST_RING = 2
AD_RING = 2
COMMENT_RING = 3


@dataclass
class Comment:
    """A reader comment."""

    comment_id: int
    author: str
    body: str


@dataclass
class BlogPost:
    """One article."""

    post_id: int
    title: str
    body: str
    comments: list[Comment] = field(default_factory=list)


def _comment(row: dict) -> Comment:
    return Comment(comment_id=row["comment_id"], author=row["author"], body=row["body"])


def _article(row: dict, comments: list[Comment]) -> BlogPost:
    return BlogPost(post_id=row["post_id"], title=row["subject"], body=row["body"],
                    comments=comments)


class BlogState:
    """Queries over the blog's tables; only :attr:`posts` scans them."""

    def __init__(self, storage: StorageBackend) -> None:
        self._storage = storage
        for spec in (BLOG_POSTS_TABLE, BLOG_COMMENTS_TABLE):
            storage.create_table(spec)

    @property
    def posts(self) -> list[BlogPost]:
        """Every article with its comments, id order (two whole-table reads)."""
        comments: dict[int, list[Comment]] = {}
        for row in self._storage.all("blog_comments"):
            comments.setdefault(row["parent_id"], []).append(_comment(row))
        return [
            _article(row, comments.get(row["post_id"], []))
            for row in self._storage.all("blog_posts")
        ]

    def post_index(self) -> list[tuple[BlogPost, int]]:
        """Every article (comments not loaded) with its comment count."""
        return [
            (_article(row, []), self._storage.count("blog_comments", parent_id=row["post_id"]))
            for row in self._storage.all("blog_posts")
        ]

    def post(self, post_id: int) -> BlogPost | None:
        """Look up an article by id, with its comments."""
        row = self._storage.get("blog_posts", post_id)
        if row is None:
            return None
        comments = self._storage.select("blog_comments", parent_id=post_id)
        return _article(row, [_comment(c) for c in comments])


#: The ad network's script: legitimate behaviour is to fill its own slot.
DEFAULT_AD_SCRIPT = (
    "var slot = document.getElementById('ad-slot');"
    "if (slot != null) { slot.innerHTML = '<a href=\"http://ads.example.net/click\">Great offers!</a>'; }"
)


class Blog(WebApplication):
    """The blog application."""

    session_cookie_name = SESSION_COOKIE

    def __init__(self, origin: str = "http://blog.example.com", *, ad_script: str | None = None, **kwargs) -> None:
        self.ad_script = ad_script if ad_script is not None else DEFAULT_AD_SCRIPT
        super().__init__(origin, **kwargs)
        self.state = BlogState(self.storage)
        if not self.storage.count("blog_posts"):
            self._seed_content()

    def memo_identity(self) -> tuple:
        """The framework's identity plus the ad script every page embeds."""
        return (*super().memo_identity(), self.ad_script)

    # -- configuration -------------------------------------------------------------------------

    def escudo_configuration(self) -> PageConfiguration:
        """Session cookie at ring 1, XHR at ring 1."""
        config = PageConfiguration(rings=RingSet(3))
        config.cookie_policies[SESSION_COOKIE] = ResourcePolicy(ring=Ring(1), acl=Acl.uniform(1))
        config.api_policies["XMLHttpRequest"] = ResourcePolicy(ring=Ring(1), acl=Acl.uniform(1))
        return config

    def register_routes(self) -> None:
        self.route("GET", "/", self.index)
        self.route("GET", "/post", self.view_post)
        self.route("POST", "/login", self.do_login)
        self.route("POST", "/comment", self.do_comment)
        self.route("POST", "/publish", self.do_publish, requires_login=True)

    def _seed_content(self) -> None:
        self.publish("Why browsers need rings",
                     "The same-origin policy treats every script on a page as equally trusted. "
                     "This post argues for hierarchical protection rings inside the browser.")

    # -- domain operations -------------------------------------------------------------------------

    def publish(self, title: str, body: str) -> BlogPost:
        """Publish a new article."""
        post_id = self.storage.insert("blog_posts", {"subject": title, "body": body})
        return BlogPost(post_id, title, body)

    def add_comment(self, post_id: int, author: str, body: str) -> Comment | None:
        """Attach a reader comment to an article."""
        if self.storage.get("blog_posts", post_id) is None:
            return None
        comment_id = self.storage.insert(
            "blog_comments", {"parent_id": post_id, "author": author, "body": body}
        )
        return Comment(comment_id, author, body)

    def snapshot_content(self) -> dict:
        """Articles and their comments (the scenario oracle's view)."""
        return {
            "posts": [
                {
                    "id": post.post_id,
                    "title": post.title,
                    "body": post.body,
                    "comments": [
                        {"id": c.comment_id, "author": c.author, "body": c.body}
                        for c in post.comments
                    ],
                }
                for post in self.state.posts
            ],
        }

    # -- route handlers ----------------------------------------------------------------------------------

    def index(self, context: RequestContext) -> HttpResponse:
        """List of articles."""
        page = self._page("The protection-rings blog", context)
        rows = "".join(
            render_template(
                '<li><a href="/post?id={{ id }}">{{ title }}</a> ({{ comments }} comments)</li>',
                {"id": post.post_id, "title": post.title, "comments": count},
            )
            for post, count in self.state.post_index()
        )
        page.add_chrome(f'<ul id="post-list">{rows}</ul>', element_id="posts")
        page.add_chrome(
            '<form id="login-form" method="POST" action="/login">'
            '<input name="username" value=""><input type="submit" value="Log in"></form>',
            element_id="login",
        )
        return HttpResponse.html(page.render())

    def view_post(self, context: RequestContext) -> HttpResponse:
        """One article: publisher content, the ad slot, and reader comments."""
        try:
            post_id = int(context.param("id", "1"))
        except ValueError:
            post_id = 1
        post = self.state.post(post_id)
        if post is None:
            return HttpResponse.not_found("no such post")
        page = self._page(post.title, context)

        # The publisher's article: ring 2, manipulable only from ring 0 (Figure 3).
        page.add_content(
            render_template(
                '<article id="post-{{ id }}"><h2 id="post-title">{{ title }}</h2>'
                '<div id="post-body">{{ body }}</div></article>',
                {"id": post.post_id, "title": post.title, "body": post.body},
            ),
            ring=POST_RING,
            read=0, write=0, use=0,
            element_id=f"post-scope-{post.post_id}",
        )

        # The advertising slot: a semi-trusted third-party script in ring 2.
        page.add_content(
            render_template(
                '<div id="ad-slot">loading ad...</div><script>{{ script|safe }}</script>',
                {"script": self.ad_script},
            ),
            ring=AD_RING,
            read=AD_RING, write=AD_RING, use=AD_RING,
            element_id="ad-scope",
        )

        # Reader comments: ring 3, each isolated (manipulable only by rings 0-2).
        for comment in post.comments:
            page.add_content(
                render_template(
                    '<div class="comment" id="comment-{{ id }}">'
                    '<span class="comment-author">{{ author }}</span>'
                    '<div class="comment-body" id="comment-body-{{ id }}">{{ body|safe }}</div></div>',
                    {"id": comment.comment_id, "author": comment.author,
                     "body": context.clean(comment.body)},
                ),
                ring=COMMENT_RING,
                read=2, write=2, use=2,
                element_id=f"comment-scope-{comment.comment_id}",
            )

        page.add_chrome(
            render_template(
                '<form id="comment-form" method="POST" action="/comment">'
                '<input type="hidden" name="id" value="{{ id }}">'
                '<input name="author" value=""><textarea name="body"></textarea>'
                '<input type="submit" value="Comment"></form>',
                {"id": post.post_id},
            ),
            element_id="comment-compose",
        )
        return HttpResponse.html(page.render())

    def do_login(self, context: RequestContext) -> HttpResponse:
        """Log the publisher in."""
        username = context.param("username").strip() or "publisher"
        response = HttpResponse.redirect("/")
        self.login(context, username, response)
        return response

    def do_comment(self, context: RequestContext) -> HttpResponse:
        """Accept a reader comment (no login required)."""
        try:
            post_id = int(context.param("id", "1"))
        except ValueError:
            post_id = 1
        comment = self.add_comment(
            post_id,
            author=context.param("author", "anonymous") or "anonymous",
            body=context.param("body", ""),
        )
        if comment is None:
            return HttpResponse.not_found("no such post")
        return HttpResponse.redirect(f"/post?id={post_id}")

    def do_publish(self, context: RequestContext) -> HttpResponse:
        """Publish a new article (publisher only)."""
        self.publish(context.param("title", "(untitled)"), context.param("body", ""))
        return HttpResponse.redirect("/")

    # -- page scaffolding ------------------------------------------------------------------------------------

    def _page(self, title: str, context: RequestContext) -> EscudoPageTemplate:
        page = EscudoPageTemplate(
            title=title,
            escudo_enabled=self.escudo_enabled,
            nonces=self.nonce_generator(),
            head_ring=Ring(0),
            chrome_ring=Ring(CHROME_RING),
        )
        page.add_head_style("article { max-width: 40em; } .comment { margin-left: 2em; }")
        page.add_chrome(
            render_template(
                '<h1 id="blog-banner">The protection-rings blog</h1>'
                '<p id="blog-reader">Reading as {{ user }}</p>',
                {"user": context.username or "guest"},
            ),
            element_id="blog-header",
        )
        return page
