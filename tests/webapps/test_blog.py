"""Tests for the blog example (Figure 3 + the advertising scenario from the intro)."""

from __future__ import annotations

import pytest

from repro.browser.browser import Browser
from repro.core.rings import Ring
from repro.http.network import Network
from repro.webapps.blog import AD_RING, COMMENT_RING, POST_RING, Blog


@pytest.fixture
def blog() -> Blog:
    return Blog(input_validation=False)


def browser_for(blog: Blog) -> Browser:
    network = Network()
    network.register(blog.origin, blog)
    return Browser(network)


class TestFigure3Structure:
    def test_ring_constants_match_the_paper_example(self):
        assert POST_RING == 2
        assert AD_RING == 2
        assert COMMENT_RING == 3

    def test_post_page_labels_article_ad_and_comments(self, blog):
        blog.add_comment(1, "reader", "great post!")
        browser = browser_for(blog)
        loaded = browser.load(f"{blog.origin}/post?id=1")
        page = loaded.page

        article = page.document.get_element_by_id("post-body")
        assert article.security_context.ring == Ring(POST_RING)
        # Figure 3: the blog post is manipulable only from ring 0.
        assert article.security_context.acl.write == Ring(0)

        ad_slot = page.document.get_element_by_id("ad-slot")
        assert ad_slot.security_context.ring == Ring(AD_RING)

        comment = page.document.get_element_by_id("comment-body-1")
        assert comment.security_context.ring == Ring(COMMENT_RING)
        assert comment.security_context.acl.write == Ring(2)

    def test_comment_script_cannot_touch_the_post_or_banner(self, blog):
        blog.add_comment(
            1,
            "mallory",
            "<script>"
            "var post = document.getElementById('post-body');"
            "if (post != null) { post.innerHTML = 'DEFACED'; }"
            "var banner = document.getElementById('blog-banner');"
            "if (banner != null) { banner.textContent = 'Owned'; }"
            "</script>nice write-up",
        )
        browser = browser_for(blog)
        loaded = browser.load(f"{blog.origin}/post?id=1")
        assert "DEFACED" not in loaded.page.document.get_element_by_id("post-body").text_content
        assert loaded.page.document.get_element_by_id("blog-banner").text_content != "Owned"
        assert loaded.page.denied_accesses() >= 1

    def test_a_comment_calling_a_builtin_with_extra_arguments_loads(self, blog):
        blog.add_comment(1, "reader", "<script>Math.floor(1, 2);</script>hi")
        loaded = browser_for(blog).load(f"{blog.origin}/post?id=1")
        comment_runs = [
            run for run in loaded.page.script_runs if run.principal.ring == Ring(COMMENT_RING)
        ]
        assert len(comment_runs) == 1
        assert comment_runs[0].succeeded and comment_runs[0].result.value == 1.0

    def test_same_attack_succeeds_under_the_same_origin_policy(self, blog):
        blog.add_comment(
            1,
            "mallory",
            "<script>"
            "var post = document.getElementById('post-body');"
            "if (post != null) { post.innerHTML = 'DEFACED'; }"
            "</script>nice write-up",
        )
        network = Network()
        network.register(blog.origin, blog)
        browser = Browser(network, model="sop")
        loaded = browser.load(f"{blog.origin}/post?id=1")
        assert "DEFACED" in loaded.page.document.get_element_by_id("post-body").text_content


class TestAdvertisingScenario:
    """The intro's motivating example: a leased ad slot with a third-party script."""

    def test_default_ad_script_populates_only_its_slot(self, blog):
        browser = browser_for(blog)
        loaded = browser.load(f"{blog.origin}/post?id=1")
        ad_slot = loaded.page.document.get_element_by_id("ad-slot")
        assert ad_slot.text_content != "loading ad..."

    def test_malicious_ad_cannot_rewrite_the_publisher_content(self):
        malicious = (
            "var post = document.getElementById('post-body');"
            "if (post != null) { post.innerHTML = 'BUY CHEAP WATCHES'; }"
            "var slot = document.getElementById('ad-slot');"
            "if (slot != null) { slot.textContent = 'ad loaded'; }"
        )
        blog = Blog(ad_script=malicious, input_validation=False)
        browser = browser_for(blog)
        loaded = browser.load(f"{blog.origin}/post?id=1")
        assert "BUY CHEAP WATCHES" not in loaded.page.document.get_element_by_id("post-body").text_content
        # Within its own ring-2 scope the ad script works normally.
        assert loaded.page.document.get_element_by_id("ad-slot").text_content == "ad loaded"


class TestBlogBehaviour:
    def test_seeded_post_and_index(self, blog):
        browser = browser_for(blog)
        loaded = browser.load(f"{blog.origin}/")
        assert "Why browsers need rings" in loaded.page.document.get_element_by_id("post-list").text_content

    def test_publish_and_comment(self, blog):
        post = blog.publish("Second post", "more thoughts")
        assert blog.state.post(post.post_id) == post
        comment = blog.add_comment(post.post_id, "reader", "thanks")
        assert blog.state.post(post.post_id).comments == [comment]
        assert blog.add_comment(999, "reader", "lost") is None

    def test_comment_form_round_trip(self, blog):
        browser = browser_for(blog)
        loaded = browser.load(f"{blog.origin}/post?id=1")
        browser.submit_form(loaded, "comment-form", {"author": "reader", "body": "via the form"}, as_user=True)
        assert any(comment.body == "via the form" for comment in blog.state.post(1).comments)

    def test_unknown_post_is_404(self, blog):
        browser = browser_for(blog)
        loaded = browser.load(f"{blog.origin}/post?id=42")
        assert loaded.response.status == 404
