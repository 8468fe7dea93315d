"""Tests for the attack harness (environment setup and outcome classification)."""

from __future__ import annotations

import pytest

from repro.attacks.harness import (
    APP_KEYS,
    Attack,
    build_environment,
    defense_effectiveness_matrix,
    login_victim,
    make_application,
    quick_blog_demo,
    run_attacks,
    summarize,
    visit,
    visit_attacker,
)
from repro.core.origin import Origin
from repro.webapps.blog import Blog
from repro.webapps.phpbb import PhpBB
from repro.webapps.phpcalendar import PhpCalendar


class TestApplicationFactory:
    def test_every_app_key_builds_its_application(self):
        assert isinstance(make_application("phpbb"), PhpBB)
        assert isinstance(make_application("phpcalendar"), PhpCalendar)
        assert isinstance(make_application("blog"), Blog)
        assert set(APP_KEYS) == {"phpbb", "phpcalendar", "blog"}

    def test_unknown_key_is_rejected(self):
        with pytest.raises(ValueError):
            make_application("wordpress")

    def test_paper_experimental_flags_are_the_default(self):
        app = make_application("phpbb")
        assert app.input_validation is False, "input validation removed as in Section 6.4"
        assert app.csrf_protection is False, "secret-token validation removed as in Section 6.4"
        assert app.escudo_enabled is True

    def test_flags_can_be_overridden(self):
        app = make_application("phpbb", escudo_enabled=False, input_validation=True)
        assert not app.escudo_enabled
        assert app.input_validation


class TestScenarioChoreography:
    """The generalized entry points the scenario engine drives."""

    def test_execute_in_runs_against_a_prebuilt_environment(self):
        recorded = []
        attack = Attack(
            name="probe",
            app_key="phpbb",
            category="xss",
            description="choreography probe",
            plant=lambda env: recorded.append("plant"),
            victim_action=lambda env: recorded.append("victim"),
            succeeded=lambda env: True,
        )
        env = build_environment("phpbb", "sop")
        result = attack.execute_in(env)
        assert recorded == ["plant", "victim"]
        assert result.succeeded and result.model == "sop"

    def test_classify_uses_the_environment_model(self):
        attack = Attack(
            name="probe",
            app_key="phpbb",
            category="xss",
            description="",
            plant=lambda env: None,
            victim_action=lambda env: None,
            succeeded=lambda env: False,
        )
        env = build_environment("phpbb", "escudo")
        assert attack.classify(env).model == "escudo"


class TestEnvironment:
    def test_build_environment_wires_network_app_attacker_and_browser(self):
        env = build_environment("phpbb", "escudo")
        assert env.model == "escudo"
        assert env.network.server_for(Origin.parse(env.app.origin)) is env.app
        assert env.network.server_for(Origin.parse(env.attacker.origin)) is env.attacker
        assert env.browser.model == "escudo"
        assert env.victim_session_id is None

    def test_login_victim_establishes_a_session(self):
        env = build_environment("phpbb", "escudo")
        login_victim(env)
        assert env.victim_session_id
        assert env.app.sessions.get(env.victim_session_id).username == "victim"
        cookie = env.browser.cookie_jar.get(env.browser.network.origins[0], env.app.session_cookie_name) \
            or env.browser.cookie_jar.all_cookies()
        assert cookie, "the victim's browser holds the session cookie"

    def test_visit_and_visit_attacker_record_the_loaded_page(self):
        env = build_environment("phpbb", "escudo")
        loaded = visit(env, "/")
        assert env.loaded is loaded
        env.attacker.set_page("/lure", "<html><body>hi</body></html>")
        lure = visit_attacker(env, "/lure")
        assert env.loaded is lure
        assert lure.page.origin.host == "evil.example.net"

    def test_forged_requests_with_session_counts_only_cross_site_requests(self):
        env = build_environment("phpbb", "escudo")
        login_victim(env)
        visit(env, "/viewtopic?t=1")  # user navigation: carries the cookie but is not forged
        # The application's own trusted ring-1 XHR poller also carried the
        # session cookie, but it was issued by the app's own page (same-site)
        # -- the victim's intended traffic, not a forgery.
        poller_requests = env.network.requests_matching(path_prefix="/api/unread")
        assert any(
            record.cookies_sent.get(env.app.session_cookie_name) == env.victim_session_id
            for record in poller_requests
        )
        assert env.forged_requests_with_session() == []


class TestAttackRunner:
    @staticmethod
    def _benign_attack(outcome: bool) -> Attack:
        return Attack(
            name="noop",
            app_key="phpbb",
            category="xss",
            description="test attack",
            plant=lambda env: None,
            victim_action=lambda env: visit(env, "/"),
            succeeded=lambda env: outcome,
        )

    def test_run_classifies_success_and_neutralisation(self):
        success = self._benign_attack(True).run("sop")
        failure = self._benign_attack(False).run("escudo")
        assert success.succeeded and not success.neutralized
        assert failure.neutralized and not failure.succeeded
        assert success.model == "sop" and failure.model == "escudo"

    def test_run_attacks_and_summarize(self):
        results = run_attacks([self._benign_attack(True), self._benign_attack(False)], "escudo")
        summary = summarize(results)
        assert summary == {"total": 2, "succeeded": 1, "neutralized": 1}

    def test_defense_matrix_runs_both_models(self):
        matrix = defense_effectiveness_matrix([self._benign_attack(False)])
        assert set(matrix) == {"escudo", "sop"}
        assert len(matrix["escudo"]) == len(matrix["sop"]) == 1


class TestQuickDemo:
    def test_quick_blog_demo_shows_the_two_models_disagreeing(self):
        report = quick_blog_demo()
        assert "escudo" in report and "sop" in report
        assert "NEUTRALIZED" in report
        assert "SUCCEEDED" in report
