"""Deferred (TOCTOU) attacks: a payload races a policy change in flight.

These attacks only exist because the runtime has a real event loop: the
injected script defers its malicious work with ``setTimeout``, so the work
is still *queued* when the page finishes loading.  The choreography then
changes the page's API policy while the XHR completion sits in the queue --
the classic time-of-check/time-of-use window.

The rule the corpus pins down: mediation happens **at completion time**.
A policy that was permissive when ``send()`` ran but restrictive when the
completion task drains must deny the request (and record the denial in the
page's audit log, so the block is attributable).  A runtime that checked at
send time would let the forged request through under ESCUDO and flip the
golden defense matrix.

Under the legacy models the deferred request goes through regardless (the
same-origin policy ignores rings, and the legacy browser attaches the
victim's cookies unconditionally), so the differential oracle's
blocked-under-escudo / succeeds-under-legacy invariant applies unchanged.
"""

from __future__ import annotations

from repro.core.config import ResourcePolicy

from .harness import Attack, AttackEnvironment, visit

#: Virtual delay of the deferred payload: long enough to survive the page
#: load's time-zero settle, short enough that one advance reaches it.
DEFER_MS = 5


def payload_deferred_post(action_query: str, delay_ms: int = DEFER_MS) -> str:
    """A reply that forges an authenticated POST *after* the page loads."""
    return (
        "<script>"
        "setTimeout(function () {"
        "  var xhr = new XMLHttpRequest();"
        f"  xhr.open('POST', '{action_query}', true);"
        "  xhr.send();"
        f"}}, {delay_ms});"
        "</script>see you all there!"
    )


def _set_xhr_policy(env: AttackEnvironment, policy: ResourcePolicy) -> None:
    """Relabel the loaded page's XMLHttpRequest API object mid-session.

    Stands in for a server-pushed ``X-Escudo-Api-Policy`` update landing
    while deferred work is queued; every later use of the API is decided
    against the new policy.
    """
    if env.loaded is None:
        return
    env.loaded.page.set_api_policy("XMLHttpRequest", policy)


def _toctou_victim_action(env: AttackEnvironment) -> None:
    """The TOCTOU choreography, driven on the victim's virtual clock.

    1. The victim views the poisoned topic; the payload's timer is queued.
    2. The server relabels XHR to permit ring 3 (the *check*-time policy).
    3. The clock advances to the timer: ``send()`` runs while the policy is
       permissive, queueing the completion task.
    4. The server revokes the grant while the completion is in flight.
    5. The loop drains: the completion is mediated against the *use*-time
       policy -- denied under ESCUDO, delivered under the legacy models.
    """
    loaded = visit(env, "/viewtopic?t=1")
    _set_xhr_policy(env, ResourcePolicy.uniform(3))
    loaded.page.event_loop.advance(DEFER_MS)  # the deferred send() fires here
    _set_xhr_policy(env, ResourcePolicy.ring_zero())  # the swap lands in flight
    loaded.page.event_loop.drain()  # completion: decided against ring 0


def _forged_post_exists(env: AttackEnvironment) -> bool:
    return any(topic.title == "PWNED" for topic in env.app.state.topics)


def phpbb_toctou_attacks() -> list[Attack]:
    """The phpBB deferred-XHR TOCTOU attack."""
    return [
        Attack(
            name="phpbb-xss-toctou-deferred-post",
            app_key="phpbb",
            category="xss",
            description=(
                "reply hides a deferred script whose forged POST races a policy "
                "revocation; mediation at completion time must block it"
            ),
            plant=lambda env: env.app.add_reply(
                1,
                "mallory",
                payload_deferred_post(
                    "/posting?mode=newtopic&subject=PWNED&message=forged+after+load"
                ),
            ),
            victim_action=_toctou_victim_action,
            succeeded=_forged_post_exists,
        ),
    ]


def all_toctou_attacks() -> list[Attack]:
    """The deferred/TOCTOU corpus."""
    return phpbb_toctou_attacks()
