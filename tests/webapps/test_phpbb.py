"""Tests for the phpBB miniature and its Table-3 ESCUDO configuration."""

from __future__ import annotations

import pytest

from repro.browser.browser import Browser
from repro.core.context import SecurityContext
from repro.core.rings import Ring
from repro.http.messages import HttpRequest
from repro.http.network import Network
from repro.webapps.phpbb import DATA_COOKIE, SID_COOKIE, PhpBB


@pytest.fixture
def forum() -> PhpBB:
    return PhpBB(input_validation=False)


@pytest.fixture
def browser_on_forum(forum):
    network = Network()
    network.register(forum.origin, forum)
    return Browser(network), forum


def load(browser, forum, path: str):
    return browser.load(f"{forum.origin}{path}")


class TestTable3Configuration:
    """Table 3: cookies ring 1, XHR ring 1, messages ring 3 with ACL <= 2."""

    def test_cookie_policies(self, forum):
        config = forum.escudo_configuration()
        for cookie_name in (SID_COOKIE, DATA_COOKIE):
            policy = config.cookie_policy(cookie_name)
            assert policy.ring == Ring(1)
            assert policy.acl.read == Ring(1)
            assert policy.acl.write == Ring(1)
            assert policy.acl.use == Ring(1)

    def test_xhr_policy(self, forum):
        policy = forum.escudo_configuration().api_policy("XMLHttpRequest")
        assert policy.ring == Ring(1)
        assert policy.acl.use == Ring(1)

    def test_ring_universe_is_0_to_3(self, forum):
        assert forum.escudo_configuration().rings.highest_level == 3

    def test_rendered_topic_page_labels_chrome_and_messages(self, browser_on_forum):
        browser, forum = browser_on_forum
        loaded = load(browser, forum, "/viewtopic?t=1")
        page = loaded.page
        assert page.escudo_enabled
        header = page.document.get_element_by_id("forum-header")
        assert header.security_context.ring == Ring(1)
        post = page.document.get_element_by_id("post-body-1")
        assert post.security_context.ring == Ring(3)
        assert post.security_context.acl.write == Ring(2)

    def test_head_content_is_ring_zero(self, browser_on_forum):
        browser, forum = browser_on_forum
        loaded = load(browser, forum, "/")
        head_scopes = [el for el in loaded.page.document.head.element_descendants()
                       if el.security_context is not None]
        assert any(el.security_context.ring == Ring(0) for el in head_scopes)


class TestForumBehaviour:
    def test_seeded_content(self, forum):
        assert len(forum.state.topics) == 2
        assert forum.state.topic(1).title == "Welcome to the board"
        assert len(forum.state.messages_for("alice")) == 1

    def test_create_topic_and_reply(self, forum):
        topic = forum.create_topic("carol", "New thread", "first!")
        assert forum.state.topic(topic.topic_id) == topic
        reply = forum.add_reply(topic.topic_id, "dave", "second!")
        assert forum.state.topic(topic.topic_id).posts == topic.posts + [reply]
        assert forum.add_reply(999, "dave", "lost") is None

    def test_index_lists_topics(self, browser_on_forum):
        browser, forum = browser_on_forum
        loaded = load(browser, forum, "/")
        topic_list = loaded.page.document.get_element_by_id("topic-list")
        assert "Welcome to the board" in topic_list.text_content
        assert "Weekly meetup" in topic_list.text_content

    def test_viewtopic_unknown_topic_is_404(self, forum):
        response = forum.handle_request(HttpRequest(method="GET", url=f"{forum.origin}/viewtopic?t=99"))
        assert response.status == 404

    def test_trusted_unread_poller_runs_via_xhr(self, browser_on_forum):
        browser, forum = browser_on_forum
        loaded = load(browser, forum, "/")
        badge = loaded.page.document.get_element_by_id("unread-count")
        assert badge.text_content.isdigit()

    def test_login_and_posting_flow(self, browser_on_forum):
        browser, forum = browser_on_forum
        loaded = load(browser, forum, "/")
        browser.submit_form(loaded, "login-form", {"username": "victim"}, as_user=True)
        assert forum.sessions.sessions_for("victim")
        index = load(browser, forum, "/")
        browser.submit_form(
            index, "new-topic-form", {"subject": "From the browser", "message": "posted via form"}, as_user=True
        )
        assert any(topic.title == "From the browser" for topic in forum.state.topics)

    def test_a_second_logged_in_index_load_relabels_nothing_for_the_badge(self, browser_on_forum, monkeypatch):
        browser, forum = browser_on_forum
        browser.submit_form(load(browser, forum, "/"), "login-form", {"username": "alice"}, as_user=True)
        first = load(browser, forum, "/")
        badge_context = first.page.document.get_element_by_id("unread-count").security_context
        labels = []
        with_label = SecurityContext.with_label

        def recording(self, label):
            labels.append(label)
            return with_label(self, label)

        monkeypatch.setattr(SecurityContext, "with_label", recording)
        second = load(browser, forum, "/")
        badge = second.page.document.get_element_by_id("unread-count")
        assert badge.text_content.isdigit()
        assert badge.security_context == badge_context
        assert f"<span> {badge_context.label}" not in labels
        # The write still reached the policy: the poller's decision on the badge is logged.
        badge_label = f"<span> {badge_context.label}"
        assert any(decision.object_label == badge_label for decision in second.page.monitor.audit.entries)

    def test_private_messages_require_login(self, forum):
        response = forum.handle_request(HttpRequest(method="GET", url=f"{forum.origin}/privmsg"))
        assert response.status == 403

    def test_private_messages_render_for_the_recipient(self, browser_on_forum):
        browser, forum = browser_on_forum
        loaded = load(browser, forum, "/")
        browser.submit_form(loaded, "login-form", {"username": "alice"}, as_user=True)
        inbox = load(browser, forum, "/privmsg")
        assert "Thanks for helping moderate" in inbox.page.document.body.text_content

    def test_message_isolation_between_rings(self, browser_on_forum):
        """A script hidden in one reply cannot rewrite another user's post."""
        browser, forum = browser_on_forum
        forum.add_reply(
            1,
            "mallory",
            "<script>var other = document.getElementById('post-body-1');"
            "if (other != null) { other.textContent = 'DEFACED'; }</script>nice thread",
        )
        loaded = load(browser, forum, "/viewtopic?t=1")
        assert "DEFACED" not in loaded.page.document.get_element_by_id("post-body-1").text_content
        assert loaded.page.denied_accesses() >= 1


class TestLegacyVariant:
    def test_legacy_pages_have_no_escudo_markup(self):
        forum = PhpBB(escudo_enabled=False)
        network = Network()
        network.register(forum.origin, forum)
        browser = Browser(network)
        loaded = browser.load(f"{forum.origin}/viewtopic?t=1")
        assert not loaded.page.escudo_enabled
        assert "ring=" not in loaded.response.body
        assert loaded.page.document.get_element_by_id("post-body-1").security_context.ring == Ring(0)

    def test_input_validation_escapes_replies_when_enabled(self):
        forum = PhpBB(input_validation=True)
        forum.add_reply(1, "mallory", "<script>evil()</script>")
        network = Network()
        network.register(forum.origin, forum)
        browser = Browser(network)
        loaded = browser.load(f"{forum.origin}/viewtopic?t=1")
        assert "<script>evil()" not in loaded.response.body
        assert not any("evil" in s.text_content for s in loaded.page.document.scripts())
