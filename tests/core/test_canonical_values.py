"""Canonical security values and the decision path built on them.

Rings, ACLs and resource policies are hash-consed: building a value that
already exists returns the existing instance.  Origins and security contexts
compute their hash and text once, and never ship either across a pickle.
The policy rules return interned outcomes keyed by their inputs, but no
verdict is cached: every access reaches the policy and gets its own
decision record.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from repro.core import (
    Acl,
    EscudoPolicy,
    Operation,
    Origin,
    PageConfiguration,
    ReferenceMonitor,
    ResourcePolicy,
    Ring,
    RingSet,
    SameOriginPolicy,
    SecurityContext,
    as_ring,
)

ORIGIN = Origin.parse("http://forum.example.com")
OTHER = Origin.parse("http://evil.example.net")


def context(ring: int, acl: Acl | None = None, origin: Origin = ORIGIN, label: str = "ctx") -> SecurityContext:
    return SecurityContext(origin=origin, ring=Ring(ring), acl=acl or Acl.uniform(ring), label=label)


class TestCanonicalIdentity:
    def test_equal_rings_are_one_instance(self):
        assert Ring(2) is Ring(2)
        assert as_ring(2) is Ring(2)
        assert RingSet(3).least_privileged() is Ring(3)
        assert list(RingSet(2)) == [Ring(0), Ring(1), Ring(2)]
        assert all(ring is Ring(ring.level) for ring in RingSet(2))

    def test_equal_acls_are_one_instance(self):
        assert Acl.uniform(1) is Acl.uniform(1)
        assert Acl() is Acl.default() is Acl.of()
        assert Acl.of(1, 2, 3) is Acl(Ring(1), Ring(2), Ring(3)) is Acl(read=1, write=2, use=3)
        assert Acl.uniform(3).restricted_to(1) is Acl.uniform(1)

    def test_resource_policies_are_shared(self):
        assert ResourcePolicy.ring_zero() is ResourcePolicy.ring_zero()
        assert ResourcePolicy.uniform(1) is ResourcePolicy(ring=Ring(1), acl=Acl.uniform(1))
        assert PageConfiguration().cookie_policy("sid") is ResourcePolicy.ring_zero()
        assert PageConfiguration().api_policy("XMLHttpRequest") is ResourcePolicy.ring_zero()

    def test_hashes_match_the_frozen_dataclass_values(self):
        # Set iteration order across processes depends on these, so they stay
        # what the frozen dataclasses computed.
        assert hash(Ring(2)) == hash((2,))
        acl = Acl.of(1, 2, 3)
        assert hash(acl) == hash((Ring(1), Ring(2), Ring(3)))
        policy = ResourcePolicy.uniform(1)
        assert hash(policy) == hash((Ring(1), Acl.uniform(1)))

    @pytest.mark.parametrize("value", [Ring(1), Acl.uniform(1), ResourcePolicy.uniform(1)], ids=repr)
    def test_canonical_values_are_immutable(self, value):
        name = "level" if isinstance(value, Ring) else "ring" if isinstance(value, ResourcePolicy) else "read"
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, Ring(0))
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)

    @pytest.mark.parametrize("value", [Ring(1), Acl.of(0, 1, 2), ResourcePolicy.uniform(2)], ids=repr)
    def test_copies_and_pickles_land_on_the_canonical_instance(self, value):
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value

    def test_invalid_levels_are_still_rejected(self):
        from repro.core.errors import ConfigurationError

        for bad in (True, 2.0, -1, "2"):
            with pytest.raises(ConfigurationError):
                Ring(bad)
        with pytest.raises(ConfigurationError):
            ResourcePolicy(ring=1, acl=Acl.uniform(1))


class TestCachedHashesAndTexts:
    def test_origin_text_and_hash(self):
        origin = Origin.parse("HTTP://Forum.Example.com:8080/x")
        assert str(origin) == origin.url_prefix() == "http://forum.example.com:8080"
        assert hash(origin) == hash(("http", "forum.example.com", 8080))
        assert str(Origin.of("https", "a.example")) == "https://a.example"

    def test_context_hash_and_text(self):
        ctx = context(2, Acl.of(1, 1, 2))
        assert hash(ctx) == hash((ctx.origin, ctx.ring, ctx.acl, ctx.label, ctx.trusted))
        assert hash(ctx) == hash(context(2, Acl.of(1, 1, 2)))
        assert str(ctx) == str(ctx) == "ctx@http://forum.example.com [ring 2, acl r<=1 w<=1 x<=2]"

    @pytest.mark.parametrize(
        "value, fields",
        [
            (ORIGIN, ("http", "forum.example.com", 80)),
            (context(1), (ORIGIN, Ring(1), Acl.uniform(1), "ctx", False)),
        ],
        ids=["origin", "context"],
    )
    def test_cached_hashes_and_texts_never_cross_a_pickle(self, value, fields):
        hash(value)
        str(value)
        assert value.__reduce__() == (type(value), fields)
        payload = pickle.dumps(value)
        assert b"_hash" not in payload and b"_text" not in payload
        restored = pickle.loads(payload)
        assert restored == value and hash(restored) == hash(value) and str(restored) == str(value)

    def test_derived_contexts_change_only_their_field(self):
        ctx = context(2, label="scope")
        assert ctx.with_label("x") == SecurityContext(ORIGIN, Ring(2), Acl.uniform(2), "x")
        assert ctx.with_ring(1).ring is Ring(1) and ctx.with_ring(1).label == "scope"
        assert ctx.with_acl(Acl.default()).acl is Acl.default()
        assert ctx.restricted_to(3).ring is Ring(3)
        assert ctx.restricted_to(1) == ctx


class TestDecisionPath:
    def test_equal_inputs_share_outcomes_but_not_decisions(self):
        monitor = ReferenceMonitor()
        first = monitor.authorize(context(1), context(2, Acl.of(1, 1, 2)), Operation.READ)
        second = monitor.authorize(context(1), context(2, Acl.of(1, 1, 2)), Operation.READ)
        assert first is not second
        assert first == second
        assert all(a is b for a, b in zip(first.outcomes, second.outcomes))
        assert [entry is first or entry is second for entry in monitor.audit] == [True, True]

    def test_outcomes_follow_their_inputs(self):
        policy = EscudoPolicy()
        allowed = policy.check(context(1), context(2, Acl.of(1, 1, 2)), Operation.WRITE)
        relabelled = policy.check(context(1), context(2, Acl.of(1, 0, 2)), Operation.WRITE)
        foreign = policy.check(context(1), context(2, Acl.of(1, 1, 2), origin=OTHER), Operation.WRITE)
        assert allowed.allowed and relabelled.denied and foreign.denied
        assert [o.detail for o in relabelled.outcomes] == [
            "http://forum.example.com vs http://forum.example.com",
            "R(P)=1 R(O)=2",
            "R(P)=1 acl(write)=0",
        ]
        assert foreign.outcomes[0].detail == "http://forum.example.com vs http://evil.example.net"

    @pytest.mark.parametrize("policy", [EscudoPolicy(), SameOriginPolicy()], ids=["escudo", "sop"])
    def test_every_access_reaches_the_policy(self, policy, monkeypatch):
        calls = []
        evaluate = type(policy).evaluate

        def counting(self, *args):
            calls.append(args)
            return evaluate(self, *args)

        monkeypatch.setattr(type(policy), "evaluate", counting)
        monitor = ReferenceMonitor(policy)
        target = context(2, Acl.of(1, 1, 2))
        for _ in range(5):
            monitor.authorize(context(1), target, Operation.READ)
        monitor.authorize_all(context(1), [target, target, target], Operation.USE)
        assert len(calls) == 8
        assert monitor.stats.total == len(monitor.audit) == 8

    def test_a_relabel_takes_effect_on_the_next_access(self):
        monitor = ReferenceMonitor()
        principal = context(1)
        assert monitor.authorize(principal, context(2, Acl.of(1, 1, 2)), Operation.WRITE).allowed
        assert monitor.authorize(principal, context(2, Acl.of(1, 0, 2)), Operation.WRITE).denied
        monitor.policy = SameOriginPolicy()
        assert monitor.authorize(principal, context(2, Acl.of(1, 0, 2)), Operation.WRITE).allowed
        assert monitor.audit.entries[-1].policy == "same-origin"

    def test_the_access_request_type_is_gone(self):
        import repro.core
        import repro.core.policy

        assert not hasattr(repro.core, "AccessRequest")
        assert not hasattr(repro.core.policy, "AccessRequest")


#: Upper bounds on the distinct values a fresh process builds over
#: ``run_suite(seed=42, count=50)``.  The run uses 4 rings, 4 ACLs, 3
#: resource policies and 18 rule outcomes; without canonical values it built
#: one of each per use -- thousands.
DISTINCT_BOUNDS = {"rings": 8, "acls": 8, "policies": 6, "rule_outcomes": 40}

_CENSUS_SCRIPT = """
import json
from repro.core import acl, config, decision, rings
built = [0]
init = decision.RuleOutcome.__init__
def counting(self, *args, **kwargs):
    built[0] += 1
    init(self, *args, **kwargs)
decision.RuleOutcome.__init__ = counting
from repro.scenarios import run_suite
run_suite(seed=42, count=50)
print(json.dumps({"rings": len(rings._RINGS), "acls": len(acl._ACLS),
                  "policies": len(config._POLICIES), "rule_outcomes": built[0]}))
"""


def test_a_suite_run_builds_few_distinct_security_values():
    src = Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", _CENSUS_SCRIPT],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=300,
    )
    counts = json.loads(completed.stdout.strip().splitlines()[-1])
    assert counts.keys() == DISTINCT_BOUNDS.keys()
    for name, bound in DISTINCT_BOUNDS.items():
        assert 0 < counts[name] <= bound, (name, counts)
