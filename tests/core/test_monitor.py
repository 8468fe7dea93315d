"""Tests for the ESCUDO reference monitor."""

from __future__ import annotations

import random

import pytest

from repro.core.acl import Acl
from repro.core.decision import Operation, Rule
from repro.core.monitor import AuditLog, ReferenceMonitor
from repro.core.policy import EscudoPolicy
from repro.core.rings import Ring
from repro.core.sop import SameOriginPolicy
from repro.dom.element import Element
from repro.http.cookies import Cookie
from tests.conftest import make_context


class TestAuthorize:
    def test_allows_and_records(self, origin):
        monitor = ReferenceMonitor()
        decision = monitor.authorize(make_context(origin, 1), make_context(origin, 3), Operation.READ)
        assert decision.allowed
        assert monitor.stats.total == 1
        assert monitor.stats.allowed == 1
        assert len(monitor.audit) == 1

    def test_denies_and_attributes_rule(self, origin):
        monitor = ReferenceMonitor()
        decision = monitor.authorize(make_context(origin, 3), make_context(origin, 1), Operation.WRITE)
        assert decision.denied
        assert monitor.stats.denied == 1
        assert monitor.stats.denied_by_rule["ring-rule"] == 1

    def test_authorize_all_covers_every_target(self, origin):
        monitor = ReferenceMonitor()
        targets = [make_context(origin, ring) for ring in (1, 2, 3)]
        decisions = monitor.authorize_all(make_context(origin, 2), targets, Operation.READ)
        assert [d.allowed for d in decisions] == [False, True, True]


def _cookie(origin):
    # Carries origin, ring, acl and label like a context: the policy would
    # decide it silently if the monitor did not check the type.
    return Cookie(name="sid", value="1", origin=origin, ring=Ring(1), acl=Acl.uniform(1))


def _element(origin):
    element = Element("div")
    element.assign_security_context(make_context(origin, 1))
    return element


def _text(origin):
    return "a string"


_ENTRY_POINTS = {
    "authorize": lambda monitor, principal, target: monitor.authorize(principal, target, Operation.READ),
    "authorize_all": lambda monitor, principal, target: monitor.authorize_all(principal, [target], Operation.READ),
    "deny_tampering": lambda monitor, principal, target: monitor.deny_tampering(principal, target),
}


class TestOnlyContextsAreMediated:
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("build", [_cookie, _element, _text], ids=["cookie", "element", "str"])
    @pytest.mark.parametrize("side", ["principal", "target"])
    def test_a_non_context_raises_type_error(self, entry, build, side, origin):
        monitor = ReferenceMonitor()
        context = make_context(origin, 1)
        other = build(origin)
        principal, target = (other, context) if side == "principal" else (context, other)
        with pytest.raises(TypeError, match=type(other).__name__):
            _ENTRY_POINTS[entry](monitor, principal, target)
        assert monitor.stats.total == len(monitor.audit) == 0

    def test_a_sweep_raises_at_its_first_non_context_target(self, origin):
        monitor = ReferenceMonitor()
        cookie = _cookie(origin)
        with pytest.raises(TypeError):
            monitor.authorize_all(make_context(origin, 1), [cookie.security_context, cookie], Operation.READ)
        # The context ahead of the cookie was decided and recorded.
        assert monitor.stats.total == len(monitor.audit) == 1


_OPERATION_ENTRY_POINTS = {
    "authorize": lambda monitor, context, operation: monitor.authorize(context, context, operation),
    "authorize_all": lambda monitor, context, operation: monitor.authorize_all(context, [context, context], operation),
    "deny_tampering": lambda monitor, context, operation: monitor.deny_tampering(context, context, operation),
}


class TestOnlyOperationsAreMediated:
    @pytest.mark.parametrize("entry", sorted(_OPERATION_ENTRY_POINTS))
    @pytest.mark.parametrize("policy", [EscudoPolicy, SameOriginPolicy], ids=["escudo", "sop"])
    @pytest.mark.parametrize("operation", ["read", "use", 1, None], ids=["read", "use", "int", "none"])
    def test_a_non_operation_raises_type_error_before_recording(self, entry, policy, operation, origin):
        monitor = ReferenceMonitor(policy())
        with pytest.raises(TypeError, match="Operation"):
            _OPERATION_ENTRY_POINTS[entry](monitor, make_context(origin, 1), operation)
        assert monitor.stats.total == len(monitor.audit) == 0

    @pytest.mark.parametrize("entry", sorted(_OPERATION_ENTRY_POINTS))
    @pytest.mark.parametrize("policy", [EscudoPolicy, SameOriginPolicy], ids=["escudo", "sop"])
    def test_an_operation_member_is_decided(self, entry, policy, origin):
        monitor = ReferenceMonitor(policy())
        _OPERATION_ENTRY_POINTS[entry](monitor, make_context(origin, 1), Operation.READ)
        assert monitor.stats.total == len(monitor.audit) >= 1


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
        monitor.authorize(make_context(origin, 0), make_context(origin, 0), Operation.READ)
        monitor.reset()
        assert monitor.stats.total == 0
        assert len(monitor.audit) == 0

    def test_model_name_follows_policy(self):
        assert ReferenceMonitor(EscudoPolicy()).model_name == "escudo"
        assert ReferenceMonitor(SameOriginPolicy()).model_name == "same-origin"


class TestAuditLog:
    def test_capacity_evicts_oldest(self, origin):
        monitor = ReferenceMonitor(audit_capacity=3)
        for ring in (0, 1, 2, 3):
            monitor.authorize(make_context(origin, 0), make_context(origin, ring), Operation.READ)
        assert len(monitor.audit) == 3

    def test_denials_filter(self, origin):
        monitor = ReferenceMonitor()
        monitor.authorize(make_context(origin, 0), make_context(origin, 3), Operation.READ)
        monitor.authorize(make_context(origin, 3), make_context(origin, 0), Operation.READ)
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

    def test_audit_records_every_repeated_request(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 1)
        target = make_context(origin, 3)
        for _ in range(3):
            monitor.authorize(principal, target, Operation.READ)
        monitor.authorize_all(principal, [target, target], Operation.READ)
        seen = list(monitor.audit)
        assert len(seen) == 5
        assert all(decision.allowed for decision in seen)

    def test_reset_clears_stats_and_audit_but_keeps_the_policy(self, origin):
        policy = SameOriginPolicy()
        monitor = ReferenceMonitor(policy)
        principal = make_context(origin, 3)
        target = make_context(origin, 1)
        before = monitor.authorize(principal, target, Operation.WRITE)
        monitor.reset()
        assert monitor.stats.total == 0
        assert len(monitor.audit) == 0
        assert monitor.policy is policy
        after = monitor.authorize(principal, target, Operation.WRITE)
        assert after.verdict is before.verdict
        assert after.policy == "same-origin"
        assert monitor.stats.total == 1


class TestBatchAuthorize:
    def test_authorize_all_mixed_verdicts_match_single_calls(self, origin):
        batch_monitor = ReferenceMonitor()
        single_monitor = ReferenceMonitor()
        principal = make_context(origin, 2)
        targets = [make_context(origin, ring, label=f"t{ring}") for ring in (0, 1, 2, 3)] * 3
        batch = batch_monitor.authorize_all(principal, targets, Operation.WRITE)
        singles = [single_monitor.authorize(principal, t, Operation.WRITE) for t in targets]
        assert [d.verdict for d in batch] == [d.verdict for d in singles]
        assert [d.object_label for d in batch] == [d.object_label for d in singles]
        # One recorded decision per target, exactly as the per-target calls.
        assert batch_monitor.stats.total == single_monitor.stats.total == len(targets)
        assert [d.verdict for d in batch_monitor.audit] == [d.verdict for d in singles]

    def test_authorize_all_follows_a_policy_swap_between_calls(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 3)
        targets = [make_context(origin, 1)] * 3
        assert all(d.denied for d in monitor.authorize_all(principal, targets, Operation.READ))
        monitor.policy = SameOriginPolicy()
        swapped = monitor.authorize_all(principal, targets, Operation.READ)
        assert all(d.allowed and d.policy == "same-origin" for d in swapped)

    def test_authorize_all_decides_a_relabelled_target_on_its_own(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 2)
        target = make_context(origin, 3, label="object")
        promoted = target.with_ring(0).with_acl(Acl.uniform(0))
        decisions = monitor.authorize_all(principal, [target, promoted, target], Operation.READ)
        assert [d.allowed for d in decisions] == [True, False, True]


class TestPrivilegeChanges:
    """A relabel or policy swap takes effect on the very next request."""

    def test_policy_swap_changes_verdict(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 3)
        target = make_context(origin, 1)
        assert monitor.authorize(principal, target, Operation.READ).denied  # ring rule
        monitor.policy = SameOriginPolicy()
        decision = monitor.authorize(principal, target, Operation.READ)
        assert decision.allowed  # SOP has no ring rule
        assert decision.policy == "same-origin"

    def test_swap_between_ablation_variants_sharing_a_name(self, origin):
        full = EscudoPolicy()
        no_ring = EscudoPolicy(enforce_ring_rule=False, enforce_acl_rule=False)
        assert full.name == no_ring.name
        monitor = ReferenceMonitor(full)
        principal = make_context(origin, 3)
        target = make_context(origin, 0)
        assert monitor.authorize(principal, target, Operation.READ).denied
        monitor.policy = no_ring
        assert monitor.authorize(principal, target, Operation.READ).allowed
        monitor.policy = full
        assert monitor.authorize(principal, target, Operation.READ).denied

    def test_ring_relabel_changes_verdict(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 2)
        target = make_context(origin, 3, label="object")
        assert monitor.authorize(principal, target, Operation.READ).allowed
        promoted = target.with_ring(0)  # object promoted above the principal
        assert monitor.authorize(principal, promoted, Operation.READ).denied

    def test_privilege_downgrade_denies_next_call(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 2)
        target = make_context(origin, 3, label="object")
        assert monitor.authorize(principal, target, Operation.USE).allowed
        tightened = target.with_acl(Acl.uniform(0))
        assert monitor.authorize(principal, tightened, Operation.USE).denied
        assert monitor.authorize(principal, target, Operation.USE).allowed

    def test_acl_relabel_changes_verdict(self, origin):
        monitor = ReferenceMonitor()
        principal = make_context(origin, 2)
        open_target = make_context(origin, 2, read=2, write=2, use=2, label="obj")
        assert monitor.authorize(principal, open_target, Operation.WRITE).allowed
        closed = open_target.with_acl(Acl.uniform(1))
        assert monitor.authorize(principal, closed, Operation.WRITE).denied

    def test_monitors_with_different_policies_decide_independently(self, origin):
        escudo = ReferenceMonitor(EscudoPolicy())
        sop = ReferenceMonitor(SameOriginPolicy())
        principal = make_context(origin, 3)
        target = make_context(origin, 1)
        assert escudo.authorize(principal, target, Operation.WRITE).denied  # ring rule
        decision = sop.authorize(principal, target, Operation.WRITE)
        assert decision.allowed  # SOP has no ring rule
        assert decision.policy == "same-origin"
        assert escudo.authorize(principal, target, Operation.WRITE).denied

    def test_ablation_variants_sharing_a_name_decide_independently(self, origin):
        full = ReferenceMonitor(EscudoPolicy())
        no_rules = ReferenceMonitor(EscudoPolicy(enforce_ring_rule=False, enforce_acl_rule=False))
        principal = make_context(origin, 3)
        target = make_context(origin, 0)
        for _ in range(2):
            assert full.authorize(principal, target, Operation.READ).denied
            assert no_rules.authorize(principal, target, Operation.READ).allowed


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
            assert monitor.authorize(principal, cookie_ctx, Operation.USE).allowed
            # The server relabels the cookie above the principal, as a
            # response's X-Escudo-Cookie-Policy can...
            cookie_ctx = cookie_ctx.with_ring(1).with_acl(Acl.uniform(1))
            assert monitor.authorize(principal, cookie_ctx, Operation.USE).denied
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
