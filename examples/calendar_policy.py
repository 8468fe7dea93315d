#!/usr/bin/env python3
"""PHP-Calendar policy walkthrough (Tables 4 and 5).

Loads the calendar miniature, prints its ESCUDO configuration as the paper's
Table 5 presents it, and then evaluates the Table 4 requirements matrix
(which principal classes may modify events / access cookies / use
XMLHttpRequest) directly against the reference monitor.

Run with::

    python examples/calendar_policy.py
"""

from __future__ import annotations

from repro.attacks import build_environment, login_victim, visit
from repro.bench import format_policy_table, format_table
from repro.core import Operation
from repro.webapps.phpcalendar import EVENT_ACL_LIMIT, EVENT_RING


def print_table5() -> None:
    print(format_policy_table(
        "Table 5: ESCUDO configuration for PHP-Calendar",
        ("Cookies", "XMLHttpRequest", "Application content", "Calendar events"),
        (1, 1, 1, EVENT_RING),
        {
            "Read": (1, 1, 1, EVENT_ACL_LIMIT),
            "Write": (1, 1, 1, EVENT_ACL_LIMIT),
        },
    ))
    print()


def print_table4_measured() -> None:
    """Evaluate the Table 4 requirements against a live, loaded page."""
    env = build_environment("phpcalendar", "escudo")
    login_victim(env)
    loaded = visit(env, "/")
    page = loaded.page

    chrome = page.document.get_element_by_id("calendar-header")
    event_body = page.document.get_element_by_id("event-body-1")
    cookie = env.browser.cookie_jar.get(page.origin, env.app.session_cookie_name)
    xhr_context = page.api_context("XMLHttpRequest")

    principals = {
        "Application content": page.principal_context_for(chrome),
        "Calendar events": page.principal_context_for(event_body),
    }
    rows = []
    for name, principal in principals.items():
        can_modify = page.monitor.authorize(principal, event_body.security_context, Operation.WRITE).allowed
        can_cookie = page.monitor.authorize(principal, cookie.security_context, Operation.READ).allowed
        can_xhr = page.monitor.authorize(principal, xhr_context, Operation.USE).allowed
        rows.append((name, "Yes" if can_modify else "No",
                     "Yes" if can_cookie else "No", "Yes" if can_xhr else "No"))
    print(format_table(
        ("Principal", "Modify events (DOM)", "Access cookies", "Access XMLHttpRequest"),
        rows,
        title="Table 4 (measured): what each principal class may do under ESCUDO",
    ))
    print("\nPaper's Table 4: application content = Yes/Yes/Yes, calendar events = No/No/No.")


def main() -> None:
    print_table5()
    print_table4_measured()


if __name__ == "__main__":
    main()
