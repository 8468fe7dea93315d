"""Scenario execution under one protection model (or a whole matrix).

:class:`ScenarioRunner` replays one :class:`~repro.scenarios.model.Scenario`
spec against each column of the policy matrix.  Per column it stands up a
fresh :class:`~repro.attacks.harness.AttackEnvironment` (application +
attacker site + in-process network), gives every actor their own browser
profile, and drives the steps; attack steps delegate to the referenced
attack's plant / victim-action callables, so the same corpus the Section 6.4
experiments use is injected into the middle of a live multi-user session.

Each run collects everything the differential oracle needs:

* the application's deterministic state snapshot and digest (the
  transparency check);
* the attack outcome, when one was injected;
* the *attributable denials*: every mediation denial recorded by the
  victim's browser from the moment the attack was planted, each carrying the
  policy rule that produced it (so a blocked attack can be traced to a
  specific decision in the audit log);
* aggregate mediation statistics (total mediations, denials) for the
  throughput benchmark.

Run lifetime.  Almost everything a run builds sits in a reference cycle:
DOM nodes point at their parents and documents, script environments close
over their pages, queued event-loop callbacks over the XHRs that hold them,
applications over their bound-method routes.  Left alone, only CPython's
cyclic collector could free a run, and its full collections would keep
re-walking the tens of thousands of long-lived objects the compile caches
hold.  So every run closes its environment when it ends (browsers, tabs,
script environments, event loops, documents, the application and its
storage), reference counting frees the run at once, and the collector is
paused for the run's duration: it would find nothing to free.  This module
is the one place that touches :mod:`gc`; it never forces a collection and
never changes the thresholds.
"""

from __future__ import annotations

import gc
import secrets
from dataclasses import dataclass, field

from repro.attacks.harness import Attack, AttackEnvironment, AttackResult, build_environment, login_user
from repro.browser.browser import Browser, LoadedPage
from repro.browser.compile_cache import CompileCaches
from repro.faults.plan import FaultConfig, FaultPlan
from repro.webapps.framework import snapshot_digest

from .generator import attack_by_name
from .model import TAB_ACTIONS, ModelSpec, Scenario, Step, resolve_models


@dataclass(frozen=True)
class DenialRecord:
    """One mediation denial, attributable to a policy rule in the audit log."""

    rule: str
    operation: str
    principal: str
    object: str
    page: str

    def as_dict(self) -> dict[str, str]:
        return {
            "rule": self.rule,
            "operation": self.operation,
            "principal": self.principal,
            "object": self.object,
            "page": self.page,
        }


@dataclass
class ScenarioRun:
    """Everything observed while executing one scenario under one model."""

    scenario: str
    model: str
    digest: str
    snapshot: dict
    mediations: int = 0
    denied: int = 0
    pages_loaded: int = 0
    #: Event-loop macrotasks executed across every page of the run (timers,
    #: queued XHR completions, event dispatches) -- part of the parity
    #: report, so shards must reproduce the task schedule exactly.
    tasks_run: int = 0
    attack_result: AttackResult | None = None
    #: Denials recorded by the victim's browser since the attack was planted.
    attack_denials: list[DenialRecord] = field(default_factory=list)
    #: Fault-plane accounting for this run (``{}`` when no fault fired).
    #: Reporting only -- deliberately outside every parity comparison.
    faults: dict = field(default_factory=dict)


class ScenarioRunner:
    """Executes scenarios under a policy matrix.

    One runner is one *worker*: by default it carries a
    :class:`~repro.browser.compile_cache.CompileCaches` stack -- the HTML
    template cache and the script cache -- for its whole lifetime, so
    compilation work is paid once and amortised across every scenario the
    worker executes.  Verdicts are unaffected: templates and ASTs are served
    as aliasing-free clones / read-only trees, and every page's reference
    monitor decides each access against the policy.  ``compile_caches=False``
    restores the cold per-scenario pipeline (the benchmark baseline).

    With the stack enabled, applications are built with a markup-
    randomisation seed derived from a **per-runner random secret** plus
    ``(app_key, model)``: repeated responses of unchanged pages are
    byte-identical *within this worker* (template-cache hits survive
    scenario boundaries), while the nonces remain unpredictable to page
    content -- an attack payload cannot compute them, so the node-splitting
    defence is exercised exactly as before.  Nonce values never enter
    verdicts, digests or the parity report, so the per-worker secret cannot
    break serial-vs-parallel parity.
    """

    def __init__(
        self,
        models=("escudo", "sop", "none"),
        *,
        compile_caches: bool = True,
        storage: str = "dict",
        static_screen: bool = False,
        faults: "FaultConfig | dict | None" = None,
    ) -> None:
        self.specs = resolve_models(models)
        if storage not in ("dict", "sqlite") and not storage.startswith("sqlite:"):
            raise ValueError(f"unknown storage backend {storage!r}")
        #: Storage backend kind every application in the matrix is built on
        #: (``dict`` or ``sqlite``).  Verdict-neutral by the differential
        #: suite: both backends produce byte-identical digests.
        self.storage = storage
        self.caches: CompileCaches | None = CompileCaches.build() if compile_caches else None
        #: Optional soundness screen: when enabled every browser the runner
        #: builds analyzes each executed script (memoised in the cache
        #: stack's script cache) and attributes monitor decisions to it, so
        #: ``self.screen.verify()`` checks the static-vs-dynamic contract
        #: over everything this runner executed.
        if static_screen:
            from repro.analysis.soundness import StaticScreen

            scripts = self.caches.scripts if self.caches is not None else None
            self.screen: "StaticScreen | None" = StaticScreen(scripts)
        else:
            self.screen = None
        #: Applications whose index pages already pre-warmed the stack.
        self._warmed_apps: set[str] = set()
        #: Random per-runner component of the markup-randomisation seeds:
        #: deterministic within this worker (for template-cache hits), but
        #: never computable by page content.
        self._nonce_secret = secrets.token_hex(16)
        #: Fault-injection plane.  ``None`` = no plane (the default, zero
        #: overhead); a :class:`FaultConfig` -- even an all-zero-rate one --
        #: arms every fault site for each run.  Warm-up environments are
        #: never faulted: the plan is derived and attached per
        #: (scenario, model) run, after the environment is built and seeded.
        if isinstance(faults, dict):
            faults = FaultConfig.from_dict(faults)
        self.faults: FaultConfig | None = faults

    # -- warm start --------------------------------------------------------------------

    def warm_for(self, app_keys) -> None:
        """Pre-warm the cache stack for every application in ``app_keys``.

        A no-op without a cache stack, and per app after the first call --
        the same lazy warm-up scenario execution triggers, just paid up
        front.
        """
        for app_key in app_keys:
            self._warm_start(app_key)

    def _app_kwargs(self, app_key: str, spec: ModelSpec) -> dict:
        """Application construction flags for one matrix column.

        The worker-deterministic nonce seed makes unchanged pages
        byte-identical across responses (template-cache hits); the response
        cache then memoises side-effect-free GETs per state generation on
        top of it.  The seed embeds the runner's random secret so nonce
        sequences stay unpredictable to attack payloads.
        """
        kwargs: dict = {"storage": self.storage}
        if self.caches is not None:
            kwargs["nonce_seed"] = f"scenario:{self._nonce_secret}:{app_key}:{spec.name}"
            kwargs["response_cache"] = True
        return kwargs

    def _warm_start(self, app_key: str) -> None:
        """Seed the cache stack from the policy matrix for ``app_key``.

        Loads each column's index page once in a throwaway environment: the
        template and script caches then already hold the application's login
        page and head scripts before the first scenario runs.  Nothing from the throwaway environments leaks
        into scenario runs -- only cache entries, which are value-keyed.
        """
        if self.caches is None or app_key in self._warmed_apps:
            return
        self._warmed_apps.add(app_key)
        for spec in self.specs:
            with build_environment(
                app_key,
                spec.browser_model,
                escudo_app=spec.escudo_app,
                app_kwargs=self._app_kwargs(app_key, spec),
                caches=self.caches,
            ) as env:
                env.browser.load(f"{env.app.origin}/")

    # -- matrix execution --------------------------------------------------------------

    def run(self, scenario: Scenario) -> dict[str, ScenarioRun]:
        """Run ``scenario`` under every model of the matrix."""
        # Resolve the injected attack once for the whole matrix (the corpus
        # lookup rebuilds every attack definition).
        attack = attack_by_name(scenario.attack_name) if scenario.attack_name else None
        return {spec.name: self._run_with(scenario, spec, attack) for spec in self.specs}

    def run_under(self, scenario: Scenario, model_name: str) -> ScenarioRun:
        """Run ``scenario`` under one named model."""
        spec = resolve_models((model_name,))[0]
        attack = attack_by_name(scenario.attack_name) if scenario.attack_name else None
        return self._run_with(scenario, spec, attack)

    def _run_with(
        self, scenario: Scenario, spec: ModelSpec, attack: Attack | None
    ) -> ScenarioRun:
        """Run one column with the cyclic collector paused.

        The environment is closed once the run is assembled, also when a
        step raises, and the collector is re-enabled only if it was enabled
        on entry (see the module docstring).
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._warm_start(scenario.app_key)
            env = build_environment(
                scenario.app_key,
                spec.browser_model,
                escudo_app=spec.escudo_app,
                app_kwargs=self._app_kwargs(scenario.app_key, spec),
                caches=self.caches,
                static_screen=self.screen,
            )
            with env:
                return self._drive(scenario, spec, attack, env)
        finally:
            if collecting:
                gc.enable()

    def _drive(
        self, scenario: Scenario, spec: ModelSpec, attack: Attack | None, env: AttackEnvironment
    ) -> ScenarioRun:
        """Drive the steps in ``env`` and assemble the run (the caller closes ``env``)."""
        env.victim = scenario.victim.name
        env.browsers[scenario.victim.name] = env.browser
        # Every actor's browser seeds its pages' event loops with the
        # scenario's interleave key, so task orderings are part of the spec:
        # the same scenario replays the same schedule under every model.
        env.browser.interleave_seed = scenario.interleave or None
        plan: FaultPlan | None = None
        if self.faults is not None:
            # Arm the plane *after* build_environment: application seeding
            # is setup, not traffic, and must never be faulted.  One plan
            # instance per (scenario, model) run, shared by the network and
            # the app's storage tier; every actor's browser dispatches
            # through that network and reads the plan from it.
            plan = self.faults.plan_for(scenario.name, spec.name)
            env.network.fault_plan = plan
            env.app.storage.fault_plan = plan
        attack_result: AttackResult | None = None
        attack_denials: list[DenialRecord] = []
        plant_baseline: dict[int, int] = {}
        for step in scenario.steps:
            if step.action == "attack_plant":
                if attack is None:
                    raise ValueError(f"scenario {scenario.name!r} has attack steps but no attack")
                # Baseline the monotonic denial counters, not audit-log
                # positions: the audit log is a bounded deque, so an index
                # would drift as soon as eviction kicks in.
                plant_baseline = {
                    id(tab.page): tab.page.monitor.stats.denied for tab in env.browser.tabs
                }
                attack.plant(env)
            elif step.action == "attack_victim":
                if attack is None:
                    raise ValueError(f"scenario {scenario.name!r} has attack steps but no attack")
                attack.victim_action(env)
                attack_result = attack.classify(env)
                attack_denials = self._denials_since(env.browser, plant_baseline)
            else:
                self._execute(step, scenario, env, spec.browser_model)

        snapshot = env.app.snapshot_state()
        run = ScenarioRun(
            scenario=scenario.name,
            model=spec.name,
            digest=snapshot_digest(snapshot),
            snapshot=snapshot,
            attack_result=attack_result,
            attack_denials=attack_denials,
        )
        for browser in env.browsers.values():
            for tab in browser.tabs:
                run.pages_loaded += 1
                run.mediations += tab.page.monitor.stats.total
                run.denied += tab.page.monitor.stats.denied
                run.tasks_run += tab.page.event_loop.stats.tasks_run
        if plan is not None:
            run.faults = plan.stats.as_dict()
        return run

    # -- step execution -----------------------------------------------------------------

    def _execute(
        self,
        step: Step,
        scenario: Scenario,
        env: AttackEnvironment,
        browser_model: str,
    ) -> None:
        browser = env.browsers.get(step.actor)
        if browser is None:
            browser = Browser(
                env.network,
                model=browser_model,
                interleave_seed=scenario.interleave or None,
                caches=self.caches,
                static_screen=self.screen,
            )
            env.browsers[step.actor] = browser
        origin = env.app.origin
        action = step.action
        if step.tab != -1 and action not in TAB_ACTIONS:
            # Only the tab actions act on an existing tab; every other action
            # opens its own.  A spec that says otherwise is wrong -- fail
            # loudly instead of replaying an interaction the spec never
            # described.
            raise ValueError(
                f"step {action!r} does not act on a tab; remove tab={step.tab} from the spec"
            )

        if action == "login":
            username = step.param("username", step.actor)
            session_id = login_user(browser, env.app, username)
            if step.actor == scenario.victim.name:
                env.victim_session_id = session_id
        elif action == "visit":
            browser.load(f"{origin}{step.param('path', '/')}")
        elif action == "post_topic":
            loaded = browser.load(f"{origin}/")
            browser.submit_form(
                loaded,
                "new-topic-form",
                {"subject": step.param("subject"), "message": step.param("message")},
                as_user=True,
            )
        elif action == "reply":
            loaded = browser.load(f"{origin}/viewtopic?t={step.param('topic', '1')}")
            browser.submit_form(loaded, "reply-form", {"message": step.param("message")}, as_user=True)
        elif action == "send_pm":
            loaded = browser.load(f"{origin}/privmsg")
            browser.submit_form(
                loaded,
                "pm-form",
                {"to": step.param("to"), "subject": step.param("subject"), "body": step.param("body")},
                as_user=True,
            )
        elif action == "click_topic":
            loaded = browser.load(f"{origin}/")
            browser.click_link(loaded, f"topic-link-{step.param('topic', '1')}", as_user=True)
        elif action == "create_event":
            loaded = browser.load(f"{origin}/")
            browser.submit_form(
                loaded,
                "create-form",
                {
                    "date": step.param("date"),
                    "title": step.param("title"),
                    "description": step.param("description"),
                },
                as_user=True,
            )
        elif action == "comment":
            loaded = browser.load(f"{origin}/post?id={step.param('post', '1')}")
            browser.submit_form(
                loaded,
                "comment-form",
                {"author": step.param("author", step.actor), "body": step.param("body")},
                as_user=True,
            )
        elif action in TAB_ACTIONS:
            # One resolution for the whole tab-action group: the addressed
            # tab, or a fresh "/" tab when the actor has none open yet.
            loaded = self._pick_tab(browser, step.tab) or browser.load(f"{origin}/")
            if action == "xhr_get":
                path = step.param("path", "/")
                source = f"var xhr = new XMLHttpRequest(); xhr.open('GET', '{path}'); xhr.send();"
                # The sync probe completes inline through the loop's
                # run_task path; drain=False so deferred work other steps
                # queued stays queued until its advance_time/drain step.
                browser.run_script(
                    loaded, source, description=f"scenario xhr probe {path}", drain=False
                )
            elif action == "xhr_async":
                # The async probe's completion stays queued on the tab's
                # event loop; a later advance_time/drain step -- or nothing,
                # which is equally deterministic -- runs it.
                path = step.param("path", "/")
                source = (
                    f"var xhr = new XMLHttpRequest(); xhr.open('GET', '{path}', true); xhr.send();"
                )
                browser.run_script(
                    loaded, source, description=f"scenario async xhr probe {path}", drain=False
                )
            elif action == "advance_time":
                browser.advance_time(loaded, float(step.param("ms", "10")))
            else:  # "drain"
                browser.drain(loaded)
        else:  # pragma: no cover - the model validates actions up front
            raise ValueError(f"unhandled scenario action {action!r}")

    @staticmethod
    def _pick_tab(browser: Browser, index: int) -> LoadedPage | None:
        """The addressed tab, or ``None`` when the browser has no tabs yet.

        An explicit out-of-range index is a spec error and fails loudly --
        silently acting on a different tab would make the oracle's verdict
        describe an interaction the spec never stated.
        """
        if not browser.tabs:
            return None
        if -len(browser.tabs) <= index < len(browser.tabs):
            return browser.tab(index)
        raise IndexError(
            f"scenario step addresses tab {index}, but the actor's browser has "
            f"only {len(browser.tabs)} open tab(s)"
        )

    # -- denial attribution ------------------------------------------------------------------

    @staticmethod
    def _denials_since(browser: Browser, baseline: dict[int, int]) -> list[DenialRecord]:
        """Denials recorded by ``browser``'s pages after the plant baseline.

        Pages opened after the baseline was taken (the lure page, the
        poisoned application page) contribute every denial they recorded.
        The baseline is the page's monotonic ``stats.denied`` counter; the
        corresponding records are the *last* N denials retained in the
        (bounded) audit log, which survives log eviction -- at worst the
        oldest records are gone, never mis-attributed.
        """
        denials: list[DenialRecord] = []
        for tab in browser.tabs:
            monitor = tab.page.monitor
            new_denied = monitor.stats.denied - baseline.get(id(tab.page), 0)
            if new_denied <= 0:
                continue
            for decision in monitor.audit.denials()[-new_denied:]:
                rule = decision.denying_rule
                denials.append(
                    DenialRecord(
                        rule=rule.value if rule is not None else "",
                        operation=decision.operation.value,
                        principal=decision.principal_label,
                        object=decision.object_label,
                        page=str(tab.page.url),
                    )
                )
        return denials
