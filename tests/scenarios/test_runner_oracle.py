"""Tests for scenario execution and the differential oracle.

Covers the three invariants end to end on hand-written scenarios (so the
expectations are transparent), plus the oracle's failure modes on synthetic
runs -- the fuzzing-scale coverage lives in
``test_transparency_properties.py`` and the CLI/benchmark entry points.
"""

from __future__ import annotations

import pytest

from repro.scenarios import (
    Actor,
    DifferentialOracle,
    Scenario,
    ScenarioRunner,
    make_step,
    run_suite,
)
from repro.scenarios.runner import ScenarioRun


def _benign_forum_session() -> Scenario:
    """Two users: alice posts and replies, bob browses, clicks and polls."""
    return Scenario(
        name="handwritten-forum-session",
        app_key="phpbb",
        kind="benign",
        actors=[Actor("alice"), Actor("bob")],
        steps=[
            make_step("alice", "login", username="alice"),
            make_step("alice", "post_topic", subject="carpool plans", message="who drives?"),
            make_step("bob", "visit", path="/"),
            make_step("bob", "click_topic", topic="1"),
            make_step("alice", "reply", topic="1", message="I can drive thursday"),
            make_step("bob", "xhr_get", path="/api/unread", tab=0),
            make_step("alice", "send_pm", to="bob", subject="lunch ideas", body="tacos?"),
        ],
    )


def _attack_scenario(attack_name: str, *, category_csrf: bool = False) -> Scenario:
    steps = [
        make_step("victim", "login", username="victim"),
        make_step("mallory", "attack_plant"),
        make_step("victim", "attack_victim"),
    ]
    if not category_csrf:
        steps.insert(1, make_step("victim", "visit", path="/"))
    return Scenario(
        name=f"handwritten-{attack_name}",
        app_key=attack_name.split("-")[0] if attack_name.startswith("php") else "phpbb",
        kind="attack",
        actors=[Actor("victim", role="victim"), Actor("mallory", role="attacker")],
        steps=steps,
        attack_name=attack_name,
    )


class TestBenignTransparency:
    def test_state_digests_identical_across_the_matrix(self):
        runner = ScenarioRunner(models=("escudo", "sop", "none"))
        runs = runner.run(_benign_forum_session())
        digests = {model: run.digest for model, run in runs.items()}
        assert len(set(digests.values())) == 1, digests
        # The session actually did something on the server.
        snapshot = runs["escudo"].snapshot
        assert any(t["title"] == "carpool plans" for t in snapshot["content"]["topics"])
        assert snapshot["sessions"][0][0] == "alice"

    def test_escudo_run_is_mediated(self):
        runner = ScenarioRunner(models=("escudo",))
        run = runner.run_under(_benign_forum_session(), "escudo")
        assert run.mediations > 0
        assert run.pages_loaded >= 6  # every navigating step opens a tab; xhr_get reuses one

    def test_oracle_accepts_the_transparent_runs(self):
        scenario = _benign_forum_session()
        runs = ScenarioRunner().run(scenario)
        verdict = DifferentialOracle().classify(scenario, runs)
        assert verdict.ok
        assert "transparent" in verdict.reason

    def test_multi_tab_sessions_keep_earlier_tabs_addressable(self):
        runner = ScenarioRunner(models=("escudo",))
        scenario = Scenario(
            name="tabs",
            app_key="phpbb",
            kind="benign",
            actors=[Actor("carol")],
            steps=[
                make_step("carol", "visit", path="/"),
                make_step("carol", "visit", path="/viewtopic?t=1"),
                make_step("carol", "xhr_get", path="/api/unread", tab=0),
            ],
        )
        run = runner.run_under(scenario, "escudo")
        assert run.pages_loaded == 2  # the xhr step reused tab 0

    def test_tab_addressing_is_rejected_on_steps_that_open_their_own(self):
        runner = ScenarioRunner(models=("escudo",))
        scenario = Scenario(
            name="bad-tab",
            app_key="phpbb",
            kind="benign",
            actors=[Actor("carol")],
            steps=[make_step("carol", "visit", path="/", tab=0)],
        )
        with pytest.raises(ValueError, match="does not act on a tab"):
            runner.run_under(scenario, "escudo")

    def test_out_of_range_tab_fails_loudly(self):
        runner = ScenarioRunner(models=("escudo",))
        scenario = Scenario(
            name="bad-index",
            app_key="phpbb",
            kind="benign",
            actors=[Actor("carol")],
            steps=[
                make_step("carol", "visit", path="/"),
                make_step("carol", "xhr_get", path="/api/unread", tab=5),
            ],
        )
        with pytest.raises(IndexError, match="only 1 open tab"):
            runner.run_under(scenario, "escudo")


class TestAttackDifferential:
    @pytest.mark.parametrize(
        "attack_name,is_csrf",
        [
            ("phpbb-xss-deface-application-chrome", False),
            ("phpbb-csrf-form", True),
            ("phpbb-privilege-remap-own-ring", False),
        ],
    )
    def test_blocked_under_escudo_succeeds_under_legacy(self, attack_name, is_csrf):
        scenario = _attack_scenario(attack_name, category_csrf=is_csrf)
        runs = ScenarioRunner().run(scenario)
        assert runs["escudo"].attack_result.neutralized
        assert runs["sop"].attack_result.succeeded
        assert runs["none"].attack_result.succeeded
        verdict = DifferentialOracle().classify(scenario, runs)
        assert verdict.ok, verdict.reason

    def test_every_escudo_denial_is_attributable(self):
        scenario = _attack_scenario("phpbb-xss-post-as-victim")
        run = ScenarioRunner(models=("escudo",)).run_under(scenario, "escudo")
        assert run.attack_denials, "a blocked attack must leave an audit trail"
        for denial in run.attack_denials:
            assert denial.rule, denial
            assert denial.operation in ("read", "write", "use")
            assert denial.page

    def test_tamper_rule_shows_up_for_privilege_escalation(self):
        scenario = _attack_scenario("phpbb-privilege-remap-own-ring")
        run = ScenarioRunner(models=("escudo",)).run_under(scenario, "escudo")
        assert any(d.rule == "tamper-protection" for d in run.attack_denials), run.attack_denials


def _async_forum_session(interleave: int = 0) -> Scenario:
    """A session whose XHR work rides the event loop, not the load phase."""
    return Scenario(
        name="handwritten-async-session",
        app_key="phpbb",
        kind="benign",
        actors=[Actor("alice"), Actor("bob")],
        steps=[
            make_step("alice", "visit", path="/"),
            make_step("alice", "xhr_async", path="/api/unread", tab=0),
            make_step("bob", "visit", path="/viewtopic?t=1"),
            make_step("alice", "advance_time", ms="1", tab=0),
            make_step("bob", "xhr_async", path="/api/unread", tab=-1),
            make_step("bob", "drain", tab=-1),
        ],
        interleave=interleave,
    )


class TestAsyncSteps:
    def test_async_session_is_transparent_across_the_matrix(self):
        runner = ScenarioRunner(models=("escudo", "sop", "none"))
        scenario = _async_forum_session()
        runs = runner.run(scenario)
        verdict = DifferentialOracle().classify(scenario, runs)
        assert verdict.ok, verdict.reason
        for run in runs.values():
            assert run.tasks_run > 0, "the deferred XHRs must run as loop tasks"

    def test_interleave_seed_changes_nothing_semantic(self):
        runner = ScenarioRunner(models=("escudo",))
        plain = runner.run_under(_async_forum_session(0), "escudo")
        seeded = runner.run_under(_async_forum_session(12345), "escudo")
        assert plain.digest == seeded.digest
        assert plain.tasks_run == seeded.tasks_run

    def test_advance_without_pending_work_is_a_safe_noop(self):
        scenario = Scenario(
            name="handwritten-idle-clock",
            app_key="blog",
            kind="benign",
            actors=[Actor("carol")],
            steps=[
                make_step("carol", "visit", path="/"),
                make_step("carol", "advance_time", ms="10", tab=0),
                make_step("carol", "drain", tab=0),
            ],
        )
        runs = ScenarioRunner().run(scenario)
        verdict = DifferentialOracle().classify(scenario, runs)
        assert verdict.ok, verdict.reason


class TestToctouDifferential:
    """The acceptance scenario: a policy swap between send and completion."""

    def test_toctou_attack_holds_the_differential(self):
        scenario = _attack_scenario("phpbb-xss-toctou-deferred-post")
        runs = ScenarioRunner(models=("escudo", "sop", "none")).run(scenario)
        verdict = DifferentialOracle().classify(scenario, runs)
        assert verdict.ok, verdict.reason
        assert runs["escudo"].attack_result is not None
        assert not runs["escudo"].attack_result.succeeded
        assert runs["sop"].attack_result.succeeded
        assert runs["none"].attack_result.succeeded

    def test_toctou_denial_is_attributable_to_a_rule(self):
        scenario = _attack_scenario("phpbb-xss-toctou-deferred-post")
        run = ScenarioRunner(models=("escudo",)).run_under(scenario, "escudo")
        assert run.attack_denials, "the completion-time denial must reach the audit log"
        assert any(d.rule for d in run.attack_denials)
        assert any("XMLHttpRequest" in d.object for d in run.attack_denials)


class TestOracleFailureModes:
    def _fake_run(self, model: str, digest: str) -> ScenarioRun:
        return ScenarioRun(scenario="s", model=model, digest=digest, snapshot={"content": digest})

    def test_benign_divergence_is_flagged_with_a_diff_pointer(self):
        scenario = Scenario(name="s", app_key="phpbb", kind="benign", actors=[Actor("a")])
        runs = {"escudo": self._fake_run("escudo", "aaa"), "sop": self._fake_run("sop", "bbb")}
        verdict = DifferentialOracle().classify(scenario, runs)
        assert not verdict.ok
        assert "TRANSPARENCY VIOLATION" in verdict.reason
        assert "content" in verdict.reason  # points at the diverging key

    def test_attack_that_slips_past_escudo_is_flagged(self):
        from repro.attacks.harness import AttackResult

        scenario = Scenario(
            name="s", app_key="phpbb", kind="attack", actors=[Actor("victim")],
            attack_name="phpbb-csrf-img",
        )
        escudo = self._fake_run("escudo", "x")
        escudo.attack_result = AttackResult("a", "phpbb", "csrf", "escudo", succeeded=True)
        verdict = DifferentialOracle().classify(scenario, {"escudo": escudo})
        assert not verdict.ok and "must be blocked" in verdict.reason

    def test_blocked_attack_without_audit_trail_is_flagged(self):
        from repro.attacks.harness import AttackResult

        scenario = Scenario(
            name="s", app_key="phpbb", kind="attack", actors=[Actor("victim")],
            attack_name="phpbb-csrf-img",
        )
        escudo = self._fake_run("escudo", "x")
        escudo.attack_result = AttackResult("a", "phpbb", "csrf", "escudo", succeeded=False)
        verdict = DifferentialOracle().classify(scenario, {"escudo": escudo})
        assert not verdict.ok and "no denial" in verdict.reason

    def test_attack_matrix_without_protected_column_is_flagged(self):
        """A legacy-only matrix must not report 'differential held'."""
        from repro.attacks.harness import AttackResult

        scenario = Scenario(
            name="s", app_key="phpbb", kind="attack", actors=[Actor("victim")],
            attack_name="phpbb-csrf-img",
        )
        sop = self._fake_run("sop", "x")
        sop.attack_result = AttackResult("a", "phpbb", "csrf", "sop", succeeded=True)
        verdict = DifferentialOracle().classify(scenario, {"sop": sop})
        assert not verdict.ok and "never checked" in verdict.reason

    def test_attack_neutralised_by_legacy_model_is_flagged(self):
        from repro.attacks.harness import AttackResult

        scenario = Scenario(
            name="s", app_key="phpbb", kind="attack", actors=[Actor("victim")],
            attack_name="phpbb-csrf-img",
        )
        sop = self._fake_run("sop", "x")
        sop.attack_result = AttackResult("a", "phpbb", "csrf", "sop", succeeded=False)
        verdict = DifferentialOracle().classify(scenario, {"sop": sop})
        assert not verdict.ok and "must succeed unprotected" in verdict.reason


class TestSuiteFacade:
    def test_small_suite_runs_green_and_aggregates(self):
        result = run_suite(seed=42, count=8, attack_ratio=0.5)
        assert result.ok, result.summary()
        assert len(result.verdicts) == 8
        assert result.benign_count + result.attack_count == 8
        assert result.attack_count > 0, "the fixed seed must exercise attack injection"
        assert result.mediations > 0, "scenario execution must be mediated"
        assert result.scenarios_per_second > 0
        payload = result.as_dict()
        assert payload["ok"] is True
        assert payload["failures"] == []

    def test_pinned_regression_scenario_replays_from_its_dict(self):
        """The README workflow: pin a generated scenario verbatim in a test."""
        from repro.scenarios import ScenarioGenerator

        pinned = ScenarioGenerator(seed=42).scenario(3).to_dict()
        scenario = Scenario.from_dict(pinned)
        runs = ScenarioRunner().run(scenario)
        verdict = DifferentialOracle().classify(scenario, runs)
        assert verdict.ok, verdict.reason
