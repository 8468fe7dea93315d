"""Ablation: markup randomisation (nonces) against node-splitting.

The per-AC-tag nonce is a load-bearing design choice: it
is what stops injected ``</div>`` terminators from splitting out of their
scope.  The ablation runs the node-splitting attack against the phpBB
miniature twice -- with markup randomisation on (the real system) and with
it disabled server-side -- and shows the attack flipping from neutralised to
successful while everything else stays the same (ESCUDO browser both times).
"""

from __future__ import annotations

import pytest

from repro.attacks import phpbb_node_splitting_attack
from repro.attacks.harness import build_environment, login_victim
from repro.bench import format_table


def _run(markup_randomization: bool):
    attack = phpbb_node_splitting_attack()
    env = build_environment(
        "phpbb",
        "escudo",
        app_kwargs={"markup_randomization": markup_randomization},
    )
    login_victim(env)
    attack.plant(env)
    attack.victim_action(env)
    return env, attack.succeeded(env)


@pytest.mark.parametrize("markup_randomization", [True, False], ids=["with-nonces", "without-nonces"])
def test_ablation_nonce_runtime(benchmark, markup_randomization):
    """Time the attack run under each variant (and record its outcome)."""
    env, succeeded = benchmark.pedantic(
        lambda: _run(markup_randomization), rounds=1, iterations=1
    )
    if markup_randomization:
        assert not succeeded
        assert env.loaded.page.ignored_end_tags >= 1
    else:
        assert succeeded


def test_ablation_nonce_report(report_writer):
    """Summarise the ablation as a table."""
    rows = []
    for markup_randomization in (True, False):
        env, succeeded = _run(markup_randomization)
        rows.append(
            (
                "on" if markup_randomization else "off",
                "SUCCEEDED" if succeeded else "neutralized",
                env.loaded.page.ignored_end_tags,
            )
        )
    table = format_table(
        ("markup randomisation", "node-splitting attack", "terminators ignored"),
        rows,
        title="Ablation: nonces are what stop node-splitting (ESCUDO browser in both rows)",
    )
    report_writer("ablation_nonce", table)
    assert rows[0][1] == "neutralized" and rows[1][1] == "SUCCEEDED"
