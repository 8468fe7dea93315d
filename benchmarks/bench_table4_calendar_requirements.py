"""Table 4: PHP-Calendar security requirements, measured against the monitor.

Application content may modify events, access cookies and use
XMLHttpRequest; calendar events may do none of those.
"""

from __future__ import annotations

from repro.attacks import build_environment, login_victim, visit
from repro.bench import format_table
from repro.core import Operation


def _measure_requirements():
    env = build_environment("phpcalendar", "escudo")
    login_victim(env)
    loaded = visit(env, "/")
    page = loaded.page

    chrome = page.document.get_element_by_id("calendar-header")
    first_event = page.document.get_element_by_id("event-body-1")
    second_event = page.document.get_element_by_id("event-body-2")
    cookie = env.browser.cookie_jar.get(page.origin, env.app.session_cookie_name)
    xhr = page.api_context("XMLHttpRequest")

    principals = {
        "Application content": page.principal_context_for(chrome),
        "Calendar events": page.principal_context_for(second_event),
    }

    def verdict(principal, target, operation):
        return "Yes" if page.monitor.authorize(principal, target, operation).allowed else "No"

    rows = []
    for name, principal in principals.items():
        rows.append(
            (
                name,
                verdict(principal, first_event.security_context, Operation.WRITE),
                verdict(principal, cookie.security_context, Operation.READ),
                verdict(principal, xhr, Operation.USE),
            )
        )
    return rows


def test_table4_requirements(benchmark, report_writer):
    """Regenerate Table 4 and assert it matches the paper."""
    rows = benchmark.pedantic(_measure_requirements, rounds=1, iterations=1)
    table = format_table(
        ("Principal", "Modify events (DOM)", "Access cookies", "Access XMLHttpRequest"),
        rows,
        title="Table 4 (measured): PHP-Calendar security requirements under ESCUDO",
    )
    report_writer("table4_calendar_requirements", table)

    expected = {
        "Application content": ("Yes", "Yes", "Yes"),
        "Calendar events": ("No", "No", "No"),
    }
    for name, *verdicts in rows:
        assert tuple(verdicts) == expected[name], f"{name}: {verdicts}"
