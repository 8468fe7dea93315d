"""Tests for the seeded scenario generator (determinism, vocabulary, shape)."""

from __future__ import annotations

import pytest

from repro.attacks.csrf import FORGED_TITLE
from repro.scenarios.generator import BYSTANDER_NAMES, ScenarioGenerator, attack_by_name, attack_corpus


class TestDeterminism:
    def test_same_seed_same_scenarios(self):
        a = ScenarioGenerator(seed=7).generate(40)
        b = ScenarioGenerator(seed=7).generate(40)
        assert [s.to_dict() for s in a] == [s.to_dict() for s in b]

    def test_scenario_index_is_independent_of_generation_order(self):
        generator = ScenarioGenerator(seed=7)
        direct = generator.scenario(13)
        via_batch = ScenarioGenerator(seed=7).generate(20)[13]
        assert direct.to_dict() == via_batch.to_dict()

    def test_different_seeds_differ(self):
        a = ScenarioGenerator(seed=1).generate(20)
        b = ScenarioGenerator(seed=2).generate(20)
        assert [s.to_dict() for s in a] != [s.to_dict() for s in b]

    def test_replay_token_reproduces_the_scenario(self):
        generator = ScenarioGenerator(seed=42)
        scenario = generator.scenario(17)
        assert scenario.replay == "42:17"
        assert generator.replay("42:17").to_dict() == scenario.to_dict()

    def test_benign_replay_token_round_trips_through_replay(self):
        """benign() tokens carry the :benign suffix so the CLI replays them."""
        generator = ScenarioGenerator(seed=42)
        scenario = generator.benign(3)
        assert scenario.replay == "42:3:benign"
        assert generator.replay("42:3:benign").to_dict() == scenario.to_dict()

    def test_benign_matches_scenario_when_the_gate_lands_benign(self):
        """Both paths consume the attack-gate draw, so the streams align."""
        generator = ScenarioGenerator(seed=42, attack_ratio=0.0)
        for index in range(6):
            via_gate = generator.scenario(index)
            forced = generator.benign(index)
            assert via_gate.steps == forced.steps
            assert via_gate.app_key == forced.app_key

    def test_replay_rejects_foreign_and_malformed_tokens(self):
        generator = ScenarioGenerator(seed=42)
        with pytest.raises(ValueError):
            generator.replay("99:17")
        with pytest.raises(ValueError):
            generator.replay("no-colon")


class TestAttackCorpus:
    def test_corpus_covers_every_category(self):
        categories = {attack.category for attack in attack_corpus().values()}
        assert categories == {"xss", "csrf", "node-splitting", "privilege-escalation"}

    def test_lookup_by_name(self):
        assert attack_by_name("phpbb-csrf-img").category == "csrf"
        with pytest.raises(KeyError):
            attack_by_name("phpbb-teapot")

    def test_the_corpus_is_built_once_and_read_only(self, monkeypatch):
        import repro.attacks.harness

        corpus = attack_corpus()
        monkeypatch.setattr(repro.attacks.harness, "registered_attacks", lambda: pytest.fail("rebuilt"))
        generator = ScenarioGenerator(seed=7, attack_ratio=1.0)
        for index in range(5):
            scenario = generator.scenario(index)
            assert attack_by_name(scenario.attack_name) is corpus[scenario.attack_name]
        assert attack_corpus() is corpus
        with pytest.raises(TypeError):
            corpus["extra"] = corpus["phpbb-csrf-img"]



class TestGeneratedShape:
    def test_benign_scenarios_avoid_attack_sentinels(self):
        scenarios = [ScenarioGenerator(seed=3).benign(i) for i in range(60)]
        for scenario in scenarios:
            for step in scenario.steps:
                blob = " ".join(value for _, value in step.params)
                assert "PWNED" not in blob
                assert FORGED_TITLE not in blob
                assert "<" not in blob, "benign bodies must not smuggle markup"

    def test_benign_actors_come_from_the_bystander_pool(self):
        scenarios = [ScenarioGenerator(seed=3).benign(i) for i in range(30)]
        for scenario in scenarios:
            for actor in scenario.actors:
                assert actor.name in BYSTANDER_NAMES
                assert actor.name not in ("victim", "mallory")

    def test_attack_scenarios_keep_the_corpus_choreography(self):
        generator = ScenarioGenerator(seed=11, attack_ratio=1.0)
        scenarios = generator.generate(40)
        assert all(s.kind == "attack" for s in scenarios)
        for scenario in scenarios:
            actions = [step.action for step in scenario.steps]
            assert actions.index("attack_plant") < actions.index("attack_victim")
            attack = attack_by_name(scenario.attack_name)
            assert scenario.app_key == attack.app_key
            if attack.requires_login:
                victim_steps = [s for s in scenario.steps if s.actor == scenario.victim.name]
                assert victim_steps[0].action == "login"

    def test_attack_ratio_zero_yields_only_benign(self):
        scenarios = ScenarioGenerator(seed=5, attack_ratio=0.0).generate(30)
        assert all(s.kind == "benign" for s in scenarios)

    def test_login_precedes_login_requiring_actions(self):
        scenarios = [ScenarioGenerator(seed=9).benign(i) for i in range(60)]
        needs_login = {"post_topic", "reply", "send_pm", "create_event"}
        for scenario in scenarios:
            logged_in: set[str] = set()
            for step in scenario.steps:
                if step.action == "login":
                    logged_in.add(step.actor)
                elif step.action in needs_login:
                    assert step.actor in logged_in, (
                        f"{scenario.name}: {step.actor} used {step.action} before login"
                    )
