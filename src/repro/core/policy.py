"""The ESCUDO mandatory access-control policy.

Section 4.2 of the paper defines the policy: an access request ``<P ▷ O>``
is permitted if and only if *all three* of the following rules permit it.

1. **Origin rule** -- ``origin(P) == origin(O)``.
2. **Ring rule**   -- ``ring(P) <= ring(O)`` (the principal must be at least
   as privileged as the object).
3. **ACL rule**    -- ``ring(P) <= acl(O, op)`` (the principal must be at
   least as privileged as the outermost ring the object's ACL permits for
   the requested operation).

Two policy classes implement a common interface so experiments can swap the
enforcement model in an otherwise identical browser:

* :class:`EscudoPolicy` -- the paper's model (all three rules).
* :class:`repro.core.sop.SameOriginPolicy` -- the legacy baseline (origin
  rule only), defined in its own module.

Policies are pure functions over security contexts: they do not mutate any
state, which makes them easy to property-test (see
``tests/core/test_policy_properties.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .context import SecurityContext
from .decision import (
    AccessDecision,
    Operation,
    Rule,
    RuleOutcome,
    Verdict,
)


@dataclass(frozen=True)
class AccessRequest:
    """A fully described access request ``<P ▷ O>``.

    The request captures the *contexts* of the principal and object rather
    than the live entities, so that policies stay decoupled from the
    substrate types (DOM elements, cookies, API handles).
    """

    principal: SecurityContext
    target: SecurityContext
    operation: Operation
    principal_label: str = ""
    object_label: str = ""

    def describe_principal(self) -> str:
        """Label used for the principal in decisions."""
        return self.principal_label or self.principal.label

    def describe_object(self) -> str:
        """Label used for the object in decisions."""
        return self.object_label or self.target.label


class Policy:
    """Interface shared by every browser protection model in the reproduction."""

    #: Short machine-readable name recorded in every decision.
    name: str = "abstract"

    def evaluate(self, request: AccessRequest) -> AccessDecision:
        """Evaluate one access request and return a decision."""
        raise NotImplementedError

    # Convenience wrapper used pervasively in tests and examples.
    def check(
        self,
        principal: SecurityContext,
        target: SecurityContext,
        operation: Operation | str,
        *,
        principal_label: str = "",
        object_label: str = "",
    ) -> AccessDecision:
        """Evaluate an access described by raw contexts and an operation name."""
        op = operation if isinstance(operation, Operation) else Operation.from_text(operation)
        request = AccessRequest(
            principal=principal,
            target=target,
            operation=op,
            principal_label=principal_label,
            object_label=object_label,
        )
        return self.evaluate(request)


@dataclass
class EscudoPolicy(Policy):
    """The three-rule ESCUDO policy.

    Parameters
    ----------
    enforce_origin_rule / enforce_ring_rule / enforce_acl_rule:
        Individual rules can be switched off for the ablation benchmarks
        (``benchmarks/bench_ablation_*.py``); the default enables all three,
        which is the model the paper evaluates.
    """

    enforce_origin_rule: bool = True
    enforce_ring_rule: bool = True
    enforce_acl_rule: bool = True
    name: str = field(default="escudo")

    def evaluate(self, request: AccessRequest) -> AccessDecision:
        outcomes: list[RuleOutcome] = []
        principal = request.principal
        target = request.target

        if self.enforce_origin_rule:
            outcomes.append(_origin_outcome(principal, target))
        if self.enforce_ring_rule:
            outcomes.append(_ring_outcome(principal, target))
        if self.enforce_acl_rule:
            outcomes.append(_acl_outcome(principal, target, request.operation))

        verdict = Verdict.ALLOW if all(o.passed for o in outcomes) else Verdict.DENY
        return AccessDecision(
            verdict=verdict,
            operation=request.operation,
            principal_label=request.describe_principal(),
            object_label=request.describe_object(),
            outcomes=tuple(outcomes),
            policy=self.name,
        )


def _origin_outcome(principal: SecurityContext, target: SecurityContext) -> RuleOutcome:
    """Evaluate the origin rule.

    Browser-internal (trusted) principals are exempt: the browser itself must
    be able to maintain its own state regardless of which page is loaded.
    Page content never gets a trusted context.
    """
    if principal.trusted:
        return RuleOutcome(Rule.ORIGIN, True, "browser-internal principal")
    same = principal.origin.same_origin_as(target.origin)
    detail = f"{principal.origin} vs {target.origin}"
    return RuleOutcome(Rule.ORIGIN, same, detail)


def _ring_outcome(principal: SecurityContext, target: SecurityContext) -> RuleOutcome:
    """Evaluate the ring rule: ``R(P) <= R(O)``."""
    passed = principal.ring.is_at_least_as_privileged_as(target.ring)
    detail = f"R(P)={principal.ring.level} R(O)={target.ring.level}"
    return RuleOutcome(Rule.RING, passed, detail)


def _acl_outcome(
    principal: SecurityContext, target: SecurityContext, operation: Operation
) -> RuleOutcome:
    """Evaluate the ACL rule: ``R(P) <= acl(O, op)``."""
    limit = target.acl.limit_for(operation)
    passed = principal.ring.is_at_least_as_privileged_as(limit)
    detail = f"R(P)={principal.ring.level} acl({operation.value})={limit.level}"
    return RuleOutcome(Rule.ACL, passed, detail)


def explain(decision: AccessDecision) -> str:
    """Render a multi-line human-readable explanation of a decision.

    Useful in examples and when debugging policy configurations.
    """
    lines = [str(decision)]
    for outcome in decision.outcomes:
        lines.append(f"  - {outcome}")
    return "\n".join(lines)


def evaluate_matrix(
    policy: Policy,
    principals: Iterable[tuple[str, SecurityContext]],
    objects: Iterable[tuple[str, SecurityContext]],
    operations: Iterable[Operation] = tuple(Operation),
) -> list[AccessDecision]:
    """Evaluate the full cross-product of principals × objects × operations.

    The benchmark harness uses this to regenerate the policy tables
    (Tables 3 and 5) as allow/deny matrices.
    """
    object_list = list(objects)
    operation_list = list(operations)
    decisions: list[AccessDecision] = []
    for principal_name, principal_ctx in principals:
        for object_name, object_ctx in object_list:
            for operation in operation_list:
                decisions.append(
                    policy.check(
                        principal_ctx,
                        object_ctx,
                        operation,
                        principal_label=principal_name,
                        object_label=object_name,
                    )
                )
    return decisions
