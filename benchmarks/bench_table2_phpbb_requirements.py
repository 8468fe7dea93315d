"""Table 2: phpBB security requirements, measured against the live monitor.

The paper states which principal classes may modify messages, access cookies
and access XMLHttpRequest.  The benchmark loads the configured phpBB topic
and private-message pages in an ESCUDO browser and asks the reference
monitor the nine questions of the table directly.
"""

from __future__ import annotations

from repro.attacks import build_environment, login_victim, visit
from repro.bench import format_table
from repro.core import Operation


def _measure_requirements():
    env = build_environment("phpbb", "escudo")
    login_victim(env)
    topic = visit(env, "/viewtopic?t=1")
    page = topic.page

    chrome = page.document.get_element_by_id("forum-header")
    post_body = page.document.get_element_by_id("post-body-1")
    reply_body = page.document.get_element_by_id("post-body-2")
    cookie = env.browser.cookie_jar.get(page.origin, env.app.session_cookie_name)
    xhr = page.api_context("XMLHttpRequest")

    env.app.send_private_message("alice", env.victim, "hi", "see you at the meetup")
    inbox = visit(env, "/privmsg")
    pm_body = inbox.page.document.get_elements_by_class_name("pm-body")[0]

    principals = {
        "Application contents": topic.page.principal_context_for(chrome),
        "Topics and replies": topic.page.principal_context_for(reply_body),
        "Private messages": inbox.page.principal_context_for(pm_body),
    }

    def verdict(principal, target, operation):
        return "Yes" if page.monitor.authorize(principal, target, operation).allowed else "No"

    rows = []
    for name, principal in principals.items():
        rows.append(
            (
                name,
                verdict(principal, post_body.security_context, Operation.WRITE),
                verdict(principal, cookie.security_context, Operation.READ),
                verdict(principal, xhr, Operation.USE),
            )
        )
    return rows


def test_table2_requirements(benchmark, report_writer):
    """Regenerate Table 2 and assert it matches the paper."""
    rows = benchmark.pedantic(_measure_requirements, rounds=1, iterations=1)
    table = format_table(
        ("Principal", "Modify messages (DOM)", "Access cookies", "Access XMLHttpRequest"),
        rows,
        title="Table 2 (measured): phpBB security requirements under ESCUDO",
    )
    report_writer("table2_phpbb_requirements", table)

    expected = {
        "Application contents": ("Yes", "Yes", "Yes"),
        "Topics and replies": ("No", "No", "No"),
        "Private messages": ("No", "No", "No"),
    }
    for name, *verdicts in rows:
        assert tuple(verdicts) == expected[name], f"{name}: {verdicts}"
