"""Tests for node-splitting attacks and the markup-randomisation defence."""

from __future__ import annotations

from repro.attacks.harness import build_environment, login_victim
from repro.attacks.node_splitting import (
    all_node_splitting_attacks,
    injected_script_ring,
    node_splitting_payload,
    phpbb_node_splitting_attack,
)


def run_against_phpbb(*, markup_randomization: bool):
    attack = phpbb_node_splitting_attack()
    env = build_environment(
        "phpbb", "escudo", app_kwargs={"markup_randomization": markup_randomization}
    )
    login_victim(env)
    attack.plant(env)
    attack.victim_action(env)
    return env, attack


class TestPayload:
    def test_payload_contains_terminators_and_a_privileged_claim(self):
        payload = node_splitting_payload()
        assert payload.count("</div") == 4  # 3 break-out terminators + the attacker's own
        assert 'ring="0"' in payload

    def test_depth_is_configurable(self):
        assert node_splitting_payload(depth=1).count("</div") == 2

    def test_corpus_contents(self):
        attacks = all_node_splitting_attacks()
        assert len(attacks) == 1
        assert attacks[0].category == "node-splitting"


class TestMarkupRandomisationDefence:
    def test_with_nonces_the_attack_is_neutralised(self):
        env, attack = run_against_phpbb(markup_randomization=True)
        assert not attack.succeeded(env)
        # The injected terminators aimed at the AC tag were ignored...
        assert env.loaded.page.ignored_end_tags >= 1
        assert env.loaded.page.nonce_validator.rejected_count >= 1
        # ...so the injected "ring 0" script stayed confined in ring 3.
        assert injected_script_ring(env) == 3

    def test_without_nonces_the_attack_escapes_its_scope(self):
        """The nonce ablation: nonces are the load-bearing defence."""
        env, attack = run_against_phpbb(markup_randomization=False)
        assert attack.succeeded(env)
        assert env.loaded.page.ignored_end_tags == 0
        # The split landed the script in the ring-1 body scope.
        assert injected_script_ring(env) == 1

    def test_attack_also_fails_when_nonces_are_on_and_model_is_escudo_without_login(self):
        attack = phpbb_node_splitting_attack()
        env = build_environment("phpbb", "escudo")
        attack.plant(env)
        attack.victim_action(env)
        assert not attack.succeeded(env)
