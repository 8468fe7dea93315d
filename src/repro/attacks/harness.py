"""Attack harness: builds victim environments and classifies attack outcomes.

The defence-effectiveness evaluation (Section 6.4) runs the same attacks
against the same applications twice -- once in an ESCUDO browser and once in
a legacy (same-origin-policy) browser -- and reports which attacks succeed.
The harness encapsulates the shared choreography:

1. stand up the target application (with its first-line defences removed,
   exactly as the paper does), the attacker's site and an in-process network;
2. log the victim into the target application so a session cookie exists;
3. *plant* the attack (post the malicious content, or publish the lure page);
4. have the victim browse the relevant page;
5. classify the outcome with the attack's own success predicate.

The applications and the attack corpus are fixed at import:
:data:`APPLICATIONS` maps each application key to its class, and
:func:`registered_attacks` concatenates the category modules' attacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.browser.browser import Browser, LoadedPage
from repro.core.origin import Origin
from repro.http.network import Network
from repro.webapps.blog import Blog
from repro.webapps.framework import WebApplication
from repro.webapps.phpbb import PhpBB
from repro.webapps.phpcalendar import PhpCalendar

from .attacker import AttackerSite

#: The target applications by key.
APPLICATIONS: dict[str, type[WebApplication]] = {
    "phpbb": PhpBB,
    "phpcalendar": PhpCalendar,
    "blog": Blog,
}

APP_KEYS = tuple(APPLICATIONS)


def registered_attacks() -> "list[Attack]":
    """The full attack corpus, every category module in order.

    Imported lazily to avoid a cycle (the corpus modules import this one).
    """
    from .csrf import all_csrf_attacks
    from .node_splitting import all_node_splitting_attacks
    from .privilege_escalation import all_privilege_escalation_attacks
    from .toctou import all_toctou_attacks
    from .xss import all_xss_attacks

    return (
        all_xss_attacks()
        + all_csrf_attacks()
        + all_node_splitting_attacks()
        + all_privilege_escalation_attacks()
        + all_toctou_attacks()
    )


@dataclass
class AttackEnvironment:
    """Everything an attack definition gets to inspect and manipulate.

    The environment owns what it holds: :meth:`close` (or leaving a
    ``with`` block) closes the victim's browser and every browser
    registered in :attr:`browsers`, closes the application and drops the
    network's logs, so reference counting frees the whole run.
    """

    model: str
    network: Network
    app: WebApplication
    attacker: AttackerSite
    browser: Browser
    victim: str = "victim"
    victim_session_id: str | None = None
    loaded: LoadedPage | None = None
    #: Browsers of the session's actors by name, closed with the
    #: environment (the victim's ``browser`` is closed either way).
    browsers: dict[str, Browser] = field(default_factory=dict)

    def close(self) -> None:
        """Close every browser, close the application, drop the network logs."""
        # Closing is idempotent, so the victim's browser may be listed too.
        for browser in (self.browser, *self.browsers.values()):
            browser.close()
        self.app.close()
        self.network.clear_log()

    def __enter__(self) -> "AttackEnvironment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def target_origin(self) -> str:
        """Origin of the application under attack."""
        return self.app.origin

    def victim_cookie_value(self) -> str | None:
        """The victim's session-cookie value (None before login)."""
        return self.victim_session_id

    def forged_requests_with_session(self) -> list:
        """*Cross-site* requests to the target that carried the victim's
        session cookie.

        This is the paper's CSRF success criterion: the browser attached the
        session cookie to a request the victim never intended.  A request is
        forged when it was issued by page content (not the user) **and** the
        issuing page belongs to a different origin than the target -- the
        application's own trusted requests (its XHR pollers, its forms
        submitted on its own pages) are the victim's intended traffic, no
        matter how the session cookie got attached.
        """
        if self.victim_session_id is None:
            return []
        from repro.http.url import Url

        app_origin = Origin.parse(self.app.origin)
        cookie_name = self.app.session_cookie_name
        matches = []
        for record in self.network.requests_to(self.app.origin):
            if record.initiator == "user":
                continue
            page_text = record.request.initiator_page
            if page_text and Url.parse(page_text).origin == app_origin:
                continue  # same-site: the application's own content
            if record.cookies_sent.get(cookie_name) == self.victim_session_id:
                matches.append(record)
        return matches


@dataclass
class AttackResult:
    """Outcome of running one attack under one protection model."""

    attack_name: str
    app_key: str
    category: str
    model: str
    succeeded: bool
    detail: str = ""

    @property
    def neutralized(self) -> bool:
        """True when the attack failed (the defence held)."""
        return not self.succeeded


def make_application(app_key: str, *, escudo_enabled: bool = True, **kwargs) -> WebApplication:
    """Instantiate a target application with the paper's experimental flags.

    Input validation is removed (as in the paper) and secret-token CSRF
    validation is off unless explicitly requested.
    """
    kwargs.setdefault("input_validation", False)
    kwargs.setdefault("csrf_protection", False)
    factory = APPLICATIONS.get(app_key)
    if factory is None:
        raise ValueError(f"unknown application key {app_key!r}; expected one of {APP_KEYS}")
    return factory(escudo_enabled=escudo_enabled, **kwargs)


def build_environment(
    app_key: str,
    model: str,
    *,
    escudo_app: bool = True,
    app_kwargs: dict | None = None,
    caches=None,
    static_screen=None,
) -> AttackEnvironment:
    """Create a fresh network, application, attacker site and victim browser.

    ``caches`` is an optional
    :class:`~repro.browser.compile_cache.CompileCaches` stack the victim
    browser reuses (the scenario runner shares one per worker); the
    environment itself -- application state, network, cookie jars -- stays
    share-nothing either way.  ``static_screen`` attaches a soundness screen
    (:class:`~repro.analysis.soundness.StaticScreen`) to the victim browser
    so every mediation decision is attributed to its causing script.
    """
    app = make_application(app_key, escudo_enabled=escudo_app, **(app_kwargs or {}))
    attacker = AttackerSite()
    network = Network()
    network.register(app.origin, app)
    network.register(attacker.origin, attacker)
    browser = Browser(network, model=model, caches=caches, static_screen=static_screen)
    return AttackEnvironment(model=model, network=network, app=app, attacker=attacker, browser=browser)


def login_user(
    browser: Browser,
    app: WebApplication,
    username: str,
    *,
    login_path: str = "/",
    form_id: str = "login-form",
) -> str | None:
    """Log ``username`` into ``app`` through ``browser``'s login form.

    The shared login choreography for the attack corpus and the scenario
    engine (one definition, so both always exercise the same flow).  Returns
    the new session id, or ``None`` when the login did not take.
    """
    loaded = browser.load(f"{app.origin}{login_path}")
    browser.submit_form(loaded, form_id, {"username": username}, as_user=True)
    sessions = app.sessions.sessions_for(username)
    return sessions[-1].session_id if sessions else None


def login_victim(env: AttackEnvironment, *, login_path: str = "/", form_id: str = "login-form") -> None:
    """Log the victim into the target application in their own browser."""
    env.victim_session_id = login_user(
        env.browser, env.app, env.victim, login_path=login_path, form_id=form_id
    )


def visit(env: AttackEnvironment, path: str) -> LoadedPage:
    """Have the victim browse a path on the target application."""
    env.loaded = env.browser.load(f"{env.app.origin}{path}")
    return env.loaded


def visit_attacker(env: AttackEnvironment, path: str) -> LoadedPage:
    """Have the victim browse a page on the attacker's site."""
    env.loaded = env.browser.load(f"{env.attacker.origin}{path}")
    return env.loaded


# -- generic attack runner -----------------------------------------------------------------------


@dataclass
class Attack:
    """A declarative attack description shared by the XSS and CSRF corpora.

    ``plant`` injects the malicious content (into the application state or
    onto the attacker's site), ``victim_action`` drives the victim's browser
    (visiting a page, optionally interacting with it), and ``succeeded``
    inspects the environment afterwards.
    """

    name: str
    app_key: str
    category: str  # "xss" | "csrf" | "node-splitting" | "privilege-escalation"
    description: str
    plant: Callable[[AttackEnvironment], None]
    victim_action: Callable[[AttackEnvironment], None]
    succeeded: Callable[[AttackEnvironment], bool]
    requires_login: bool = True

    def run(self, model: str, *, escudo_app: bool = True) -> AttackResult:
        """Execute the attack end-to-end under ``model`` and classify it."""
        with build_environment(self.app_key, model, escudo_app=escudo_app) as env:
            if self.requires_login:
                login_victim(env)
            return self.execute_in(env)

    def execute_in(self, env: AttackEnvironment) -> AttackResult:
        """Run plant + victim action against a pre-built environment.

        The scenario engine uses this entry point: the environment may already
        have hosted a whole multi-user session (other actors posting and
        browsing) before the attack is injected into it.  The caller is
        responsible for any required login choreography.
        """
        self.plant(env)
        self.victim_action(env)
        return self.classify(env)

    def classify(self, env: AttackEnvironment) -> AttackResult:
        """Evaluate the success predicate and wrap the outcome."""
        return AttackResult(
            attack_name=self.name,
            app_key=self.app_key,
            category=self.category,
            model=env.model,
            succeeded=bool(self.succeeded(env)),
            detail=self.description,
        )


def run_attacks(attacks: list[Attack], model: str, *, escudo_app: bool = True) -> list[AttackResult]:
    """Run a list of attacks under one protection model."""
    return [attack.run(model, escudo_app=escudo_app) for attack in attacks]


def defense_effectiveness_matrix(attacks: list[Attack]) -> dict[str, list[AttackResult]]:
    """Run every attack under both models (the Section 6.4 experiment)."""
    return {"escudo": run_attacks(attacks, "escudo"), "sop": run_attacks(attacks, "sop")}


def summarize(results: list[AttackResult]) -> dict[str, int]:
    """Count successes and neutralisations."""
    return {
        "total": len(results),
        "succeeded": sum(1 for r in results if r.succeeded),
        "neutralized": sum(1 for r in results if r.neutralized),
    }


# -- the README quick demo ------------------------------------------------------------------------


def quick_blog_demo() -> str:
    """Inject a malicious comment into the blog under both models and report.

    Returns a short human-readable report used by ``repro.quick_demo`` and
    ``examples/quickstart.py``.
    """
    payload = (
        "<script>"
        "var post = document.getElementById('post-body');"
        "if (post != null) { post.innerHTML = 'DEFACED by a comment'; }"
        "var banner = document.getElementById('blog-banner');"
        "if (banner != null) { banner.textContent = 'Owned!'; }"
        "</script>I totally agree with this post!"
    )
    lines = []
    for model in ("escudo", "sop"):
        with build_environment("blog", model) as env:
            env.app.add_comment(1, "mallory", payload)
            loaded = visit(env, "/post?id=1")
            post_body = loaded.page.document.get_element_by_id("post-body")
            banner = loaded.page.document.get_element_by_id("blog-banner")
            defaced = "DEFACED" in (post_body.text_content if post_body else "")
            banner_owned = "Owned" in (banner.text_content if banner else "")
            denied = loaded.page.monitor.stats.denied
        verdict = "attack SUCCEEDED" if (defaced or banner_owned) else "attack NEUTRALIZED"
        lines.append(
            f"[{model:>6}] malicious comment vs. blog post: {verdict} "
            f"(denied accesses: {denied})"
        )
    return "\n".join(lines)
