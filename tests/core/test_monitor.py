"""Tests for the ESCUDO reference monitor."""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro.core.acl import Acl
from repro.core.context import SecurityContext
from repro.core.decision import Operation, Rule
from repro.core.errors import AccessDenied
from repro.core.monitor import AuditLog, ReferenceMonitor
from repro.core.objects import ObjectKind, ProtectedObject
from repro.core.policy import EscudoPolicy
from repro.core.principal import Principal, PrincipalKind
from repro.core.sop import SameOriginPolicy
from tests.conftest import make_context


class TestAuthorize:
    def test_allows_and_records(self, origin):
        monitor = ReferenceMonitor()
        decision = monitor.authorize(make_context(origin, 1), make_context(origin, 3), "read")
        assert decision.allowed
        assert monitor.stats.total == 1
        assert monitor.stats.allowed == 1
        assert len(monitor.audit) == 1

    def test_denies_and_attributes_rule(self, origin):
        monitor = ReferenceMonitor()
        decision = monitor.authorize(make_context(origin, 3), make_context(origin, 1), "write")
        assert decision.denied
        assert monitor.stats.denied == 1
        assert monitor.stats.denied_by_rule["ring-rule"] == 1

    def test_accepts_principal_and_protected_object_wrappers(self, origin):
        monitor = ReferenceMonitor()
        principal = Principal(kind=PrincipalKind.SCRIPT, context=make_context(origin, 1))
        target = ProtectedObject(kind=ObjectKind.COOKIE, context=make_context(origin, 1))
        decision = monitor.authorize(principal, target, Operation.READ)
        assert decision.allowed
        assert "script-invoking" in decision.principal_label

    def test_accepts_objects_exposing_security_context_property(self, origin):
        class CookieLike:
            label = "cookie:sid"

            @property
            def security_context(self):
                return make_context(origin, 1, label="cookie:sid")

        monitor = ReferenceMonitor()
        assert monitor.authorize(make_context(origin, 0), CookieLike(), "use").allowed

    def test_rejects_entities_without_context(self):
        monitor = ReferenceMonitor()
        with pytest.raises(TypeError):
            monitor.authorize("not a context", "also not", "read")

    def test_operation_accepts_string_names(self, origin):
        monitor = ReferenceMonitor()
        decision = monitor.authorize(make_context(origin, 0), make_context(origin, 0), "x")
        assert decision.operation is Operation.USE

    def test_authorize_all_covers_every_target(self, origin):
        monitor = ReferenceMonitor()
        targets = [make_context(origin, ring) for ring in (1, 2, 3)]
        decisions = monitor.authorize_all(make_context(origin, 2), targets, "read")
        assert [d.allowed for d in decisions] == [False, True, True]


class TestStrictMode:
    def test_strict_mode_raises_on_denial(self, origin):
        monitor = ReferenceMonitor(strict=True)
        with pytest.raises(AccessDenied) as excinfo:
            monitor.authorize(make_context(origin, 3), make_context(origin, 0), "read")
        assert excinfo.value.decision.denied

    def test_strict_mode_still_returns_allowed_decisions(self, origin):
        monitor = ReferenceMonitor(strict=True)
        assert monitor.authorize(make_context(origin, 0), make_context(origin, 3), "read").allowed

    def test_strict_mode_raises_on_repeated_denial(self, origin):
        monitor = ReferenceMonitor(strict=True)
        principal = make_context(origin, 3)
        target = make_context(origin, 0)
        for _ in range(2):
            with pytest.raises(AccessDenied):
                monitor.authorize(principal, target, "read")
        assert monitor.stats.denied == 2

    def test_strict_authorize_all_raises_at_the_first_denial(self, origin):
        monitor = ReferenceMonitor(strict=True)
        targets = [make_context(origin, 3), make_context(origin, 0), make_context(origin, 3)]
        with pytest.raises(AccessDenied) as excinfo:
            monitor.authorize_all(make_context(origin, 2), targets, "read")
        assert excinfo.value.decision.denied
        # The allow before the denial and the denial itself are recorded;
        # the sweep stops there.
        assert monitor.stats.allowed == 1
        assert monitor.stats.denied == 1
        assert len(monitor.audit) == 2


class TestTamperDenials:
    def test_deny_tampering_records_tamper_rule(self, origin):
        monitor = ReferenceMonitor()
        decision = monitor.deny_tampering(make_context(origin, 3), make_context(origin, 3))
        assert decision.denied
        assert decision.denying_rule is Rule.TAMPER
        assert monitor.stats.denied_by_rule["tamper-protection"] == 1


class TestMonitorBookkeeping:
    def test_reset_clears_stats_and_audit(self, origin):
        monitor = ReferenceMonitor()
        monitor.authorize(make_context(origin, 0), make_context(origin, 0), "read")
        monitor.reset()
        assert monitor.stats.total == 0
        assert len(monitor.audit) == 0

    def test_model_name_follows_policy(self):
        assert ReferenceMonitor(EscudoPolicy()).model_name == "escudo"
        assert ReferenceMonitor(SameOriginPolicy()).model_name == "same-origin"

    def test_by_operation_counter(self, origin):
        monitor = ReferenceMonitor()
        monitor.authorize(make_context(origin, 0), make_context(origin, 0), "read")
        monitor.authorize(make_context(origin, 0), make_context(origin, 0), "write")
        monitor.authorize(make_context(origin, 0), make_context(origin, 0), "write")
        assert monitor.stats.by_operation["write"] == 2


class TestAuditLog:
    def test_capacity_evicts_oldest(self, origin):
        monitor = ReferenceMonitor(audit_capacity=3)
        for ring in (0, 1, 2, 3):
            monitor.authorize(make_context(origin, 0), make_context(origin, ring), "read")
        assert len(monitor.audit) == 3

    def test_denials_filter(self, origin):
        monitor = ReferenceMonitor()
        monitor.authorize(make_context(origin, 0), make_context(origin, 3), "read")
        monitor.authorize(make_context(origin, 3), make_context(origin, 0), "read")
        assert len(monitor.audit.denials()) == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            AuditLog(0)


def _matrix(origin, other_origin):
    """A principal/object grid covering allow and deny for every rule."""
    principals = [
        make_context(origin, ring, label=f"principal-r{ring}") for ring in (0, 1, 2, 3)
    ] + [make_context(other_origin, 0, label="foreign-principal")]
    objects = [
        make_context(origin, 0, label="ring0-object"),
        make_context(origin, 2, label="ring2-object"),
        make_context(origin, 3, read=1, write=0, use=2, label="tight-acl-object"),
        make_context(other_origin, 1, label="foreign-object"),
    ]
    return principals, objects


class TestMonitorFollowsPolicy:
    @pytest.mark.parametrize("policy", [EscudoPolicy(), SameOriginPolicy()], ids=["escudo", "sop"])
    def test_repeated_decisions_equal_the_policy_across_matrix(self, policy, origin, other_origin):
        monitor = ReferenceMonitor(policy)
        principals, objects = _matrix(origin, other_origin)
        for _ in range(2):
            for principal in principals:
                for target in objects:
                    for operation in Operation:
                        decision = monitor.authorize(principal, target, operation)
                        expected = policy.check(principal, target, operation)
                        assert decision.verdict is expected.verdict
                        assert decision.outcomes == expected.outcomes
                        assert decision.principal_label == expected.principal_label
                        assert decision.object_label == expected.object_label
        assert monitor.stats.total == len(monitor.audit) == 2 * 5 * 4 * len(Operation)

    def test_allows_is_authorize_as_a_bool_and_records_the_access(self, origin, other_origin):
        boolean = ReferenceMonitor()
        full = ReferenceMonitor()
        principals, objects = _matrix(origin, other_origin)
        for principal in principals:
            for target in objects:
                allowed = boolean.allows(principal, target, "write")
                assert allowed is full.authorize(principal, target, "write").allowed
        assert boolean.stats.total == len(boolean.audit) == len(principals) * len(objects)
        assert boolean.stats.denied == full.stats.denied

    def test_observer_sees_every_repeated_request(self, origin):
        monitor = ReferenceMonitor()
        seen = []
        monitor.observer = seen.append
        principal = make_context(origin, 1)
        target = make_context(origin, 3)
        for _ in range(3):
            monitor.authorize(principal, target, "read")
        monitor.authorize_all(principal, [target, target], "read")
        assert len(seen) == 5
        assert all(decision.allowed for decision in seen)

    def test_reset_clears_stats_and_audit_but_keeps_the_policy(self, origin):
        policy = SameOriginPolicy()
        monitor = ReferenceMonitor(policy)
        principal = make_context(origin, 3)
        target = make_context(origin, 1)
        before = monitor.authorize(principal, target, "write")
        monitor.reset()
        assert monitor.stats.total == 0
        assert len(monitor.audit) == 0
        assert monitor.policy is policy
        after = monitor.authorize(principal, target, "write")
        assert after.verdict is before.verdict
        assert after.policy == "same-origin"
        assert monitor.stats.total == 1


class TestBatchAuthorize:
    def test_authorize_all_decides_each_distinct_context_once(self, origin):
        policy = EscudoPolicy()
        monitor = ReferenceMonitor(policy)
        target = make_context(origin, 3, label="shared")
        with mock.patch.object(policy, "evaluate", wraps=policy.evaluate) as evaluate:
            decisions = monitor.authorize_all(make_context(origin, 1), [target] * 50, "read")
        assert len(decisions) == 50
        assert all(d.allowed for d in decisions)
        assert monitor.stats.total == 50  # complete mediation of the sweep
        assert evaluate.call_count == 1  # one policy evaluation for 50 targets

    def test_authorize_all_mixed_verdicts_match_single_calls(self, origin):
        batch_monitor = ReferenceMonitor()
        single_monitor = ReferenceMonitor()
        principal = make_context(origin, 2)
        targets = [make_context(origin, ring, label=f"t{ring}") for ring in (0, 1, 2, 3)] * 3
        batch = batch_monitor.authorize_all(principal, targets, "write")
        singles = [single_monitor.authorize(principal, t, "write") for t in targets]
        assert [d.verdict for d in batch] == [d.verdict for d in singles]
        assert [d.object_label for d in batch] == [d.object_label for d in singles]
        # One recorded decision per target, exactly as the per-target calls.
        assert batch_monitor.stats.total == single_monitor.stats.total == len(targets)
        assert [d.verdict for d in batch_monitor.audit] == [d.verdict for d in singles]

    def test_authorize_all_follows_a_policy_swap_between_calls(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 3)
        targets = [make_context(origin, 1)] * 3
        assert all(d.denied for d in monitor.authorize_all(principal, targets, "read"))
        monitor.policy = SameOriginPolicy()
        swapped = monitor.authorize_all(principal, targets, "read")
        assert all(d.allowed and d.policy == "same-origin" for d in swapped)

    def test_authorize_all_decides_a_relabelled_target_on_its_own(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 2)
        target = make_context(origin, 3, label="object")
        promoted = target.with_ring(0).with_acl(Acl.uniform(0))
        decisions = monitor.authorize_all(principal, [target, promoted, target], "read")
        assert [d.allowed for d in decisions] == [True, False, True]


class TestPrivilegeChanges:
    """A relabel or policy swap takes effect on the very next request."""

    def test_policy_swap_changes_verdict(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 3)
        target = make_context(origin, 1)
        assert monitor.authorize(principal, target, "read").denied  # ring rule
        monitor.policy = SameOriginPolicy()
        decision = monitor.authorize(principal, target, "read")
        assert decision.allowed  # SOP has no ring rule
        assert decision.policy == "same-origin"

    def test_swap_between_ablation_variants_sharing_a_name(self, origin):
        full = EscudoPolicy()
        no_ring = EscudoPolicy(enforce_ring_rule=False, enforce_acl_rule=False)
        assert full.name == no_ring.name
        monitor = ReferenceMonitor(full)
        principal = make_context(origin, 3)
        target = make_context(origin, 0)
        assert monitor.authorize(principal, target, "read").denied
        monitor.policy = no_ring
        assert monitor.authorize(principal, target, "read").allowed
        monitor.policy = full
        assert monitor.authorize(principal, target, "read").denied

    def test_ring_relabel_changes_verdict(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 2)
        target = make_context(origin, 3, label="object")
        assert monitor.authorize(principal, target, "read").allowed
        promoted = target.with_ring(0)  # object promoted above the principal
        assert monitor.authorize(principal, promoted, "read").denied

    def test_privilege_downgrade_denies_next_call(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 2)
        target = make_context(origin, 3, label="object")
        assert monitor.authorize(principal, target, "use").allowed
        tightened = target.with_acl(Acl.uniform(0))
        assert monitor.authorize(principal, tightened, "use").denied
        assert monitor.authorize(principal, target, "use").allowed

    def test_acl_relabel_changes_verdict(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 2)
        open_target = make_context(origin, 2, read=2, write=2, use=2, label="obj")
        assert monitor.authorize(principal, open_target, "write").allowed
        closed = open_target.with_acl(Acl.uniform(1))
        assert monitor.authorize(principal, closed, "write").denied

    def test_monitors_with_different_policies_decide_independently(self, origin):
        escudo = ReferenceMonitor(EscudoPolicy())
        sop = ReferenceMonitor(SameOriginPolicy())
        principal = make_context(origin, 3)
        target = make_context(origin, 1)
        assert escudo.authorize(principal, target, "write").denied  # ring rule
        decision = sop.authorize(principal, target, "write")
        assert decision.allowed  # SOP has no ring rule
        assert decision.policy == "same-origin"
        assert escudo.authorize(principal, target, "write").denied

    def test_ablation_variants_sharing_a_name_decide_independently(self, origin):
        full = ReferenceMonitor(EscudoPolicy())
        no_rules = ReferenceMonitor(EscudoPolicy(enforce_ring_rule=False, enforce_acl_rule=False))
        principal = make_context(origin, 3)
        target = make_context(origin, 0)
        for _ in range(2):
            assert full.authorize(principal, target, "read").denied
            assert no_rules.authorize(principal, target, "read").allowed


class TestScenarioChurn:
    """Privilege changes interleaved with authorizations, as scenarios do.

    The scenario engine swaps policies and relabels cookies *mid-session*
    (one browser per actor, policy matrix columns, ``X-Escudo-Cookie-Policy``
    relabels).  Every verdict must equal a fresh monitor's under the policy
    in force at that moment.
    """

    def test_interleaved_policy_swaps_match_a_fresh_monitor(self, origin, other_origin):
        monitor = ReferenceMonitor()
        principals, objects = _matrix(origin, other_origin)
        policies = (EscudoPolicy(), SameOriginPolicy())
        for round_index in range(6):
            policy = policies[round_index % 2]
            monitor.policy = policy
            oracle = ReferenceMonitor(policy)
            for principal in principals:
                for target in objects:
                    for operation in Operation:
                        seen = monitor.authorize(principal, target, operation)
                        fresh = oracle.authorize(principal, target, operation)
                        assert seen.verdict is fresh.verdict, (
                            f"round {round_index}: stale verdict for "
                            f"{principal.label} -> {target.label} {operation.value}"
                        )
                        assert seen.policy == fresh.policy

    def test_cookie_relabel_churn_mid_scenario(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 2, label="chrome-script")
        cookie_ctx = make_context(origin, 3, label="session-cookie")
        for _ in range(4):
            assert monitor.authorize(principal, cookie_ctx, "use").allowed
            # The server relabels the cookie above the principal, as a
            # response's X-Escudo-Cookie-Policy can...
            cookie_ctx = cookie_ctx.with_ring(1).with_acl(Acl.uniform(1))
            assert monitor.authorize(principal, cookie_ctx, "use").denied
            # ...and the relabel back down restores access.
            cookie_ctx = cookie_ctx.with_ring(3).with_acl(Acl.uniform(3))

    def test_seeded_churn_fuzz_matches_a_fresh_monitor(self, origin, other_origin):
        """Random interleaving of swaps, relabels and requests stays coherent."""
        rng = random.Random("decision-cache-churn:42")
        monitor = ReferenceMonitor()
        principals, objects = _matrix(origin, other_origin)
        policies = (EscudoPolicy(), SameOriginPolicy())
        current = monitor.policy
        for _ in range(600):
            move = rng.random()
            if move < 0.1:
                current = rng.choice(policies)
                monitor.policy = current
            elif move < 0.2:
                index = rng.randrange(len(objects))
                ring = rng.randrange(4)
                objects[index] = objects[index].with_ring(ring).with_acl(Acl.uniform(ring))
            else:
                principal = rng.choice(principals)
                target = rng.choice(objects)
                operation = rng.choice(list(Operation))
                seen = monitor.authorize(principal, target, operation)
                fresh = ReferenceMonitor(current).authorize(principal, target, operation)
                assert seen.verdict is fresh.verdict
                assert seen.outcomes == fresh.outcomes
