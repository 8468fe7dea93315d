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

Policies are pure functions over security contexts: apart from interning
the immutable rule outcomes they share, they keep no state, which makes them
easy to property-test (see ``tests/core/test_policy_properties.py``).
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
from .origin import Origin


class Policy:
    """Interface shared by every browser protection model in the reproduction."""

    #: Short machine-readable name recorded in every decision.
    name: str = "abstract"

    def evaluate(
        self,
        principal: SecurityContext,
        target: SecurityContext,
        operation: Operation,
        principal_label: str,
        object_label: str,
    ) -> AccessDecision:
        """Decide one access ``<P ▷ O>`` and return its decision record.

        The policy sees the *contexts* of the principal and object rather
        than the live entities, so it stays decoupled from the substrate
        types (DOM elements, cookies, API handles); the labels only name the
        two sides in the record.
        """
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
        return self.evaluate(
            principal, target, op, principal_label or principal.label, object_label or target.label
        )


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

    def evaluate(
        self,
        principal: SecurityContext,
        target: SecurityContext,
        operation: Operation,
        principal_label: str,
        object_label: str,
    ) -> AccessDecision:
        outcomes: tuple[RuleOutcome, ...] = ()
        if self.enforce_origin_rule:
            outcomes += (origin_outcome(principal, target),)
        if self.enforce_ring_rule:
            outcomes += (_ring_outcome(principal, target),)
        if self.enforce_acl_rule:
            outcomes += (_acl_outcome(principal, target, operation),)

        verdict = Verdict.ALLOW
        for outcome in outcomes:
            if not outcome.passed:
                verdict = Verdict.DENY
                break
        return AccessDecision(verdict, operation, principal_label, object_label, outcomes, self.name)


# -- rule outcomes ---------------------------------------------------------------------------
#
# Each rule's outcome is a pure function of a few immutable inputs (two
# origins, two ring levels, an ACL and an operation), so equal inputs share
# one interned RuleOutcome instead of formatting its detail text again.  The
# tables hold rule records, not decisions: every access still goes through
# each enabled rule with its own inputs, and the policy derives the verdict
# and builds an AccessDecision for every access.

#: Entries kept per outcome table; a full table starts over.
_OUTCOME_TABLE_SIZE = 4096

_TRUSTED_ORIGIN_OUTCOME = RuleOutcome(Rule.ORIGIN, True, "browser-internal principal")
_ORIGIN_OUTCOMES: dict[tuple[Origin, Origin], RuleOutcome] = {}
_RING_OUTCOMES: dict[tuple[int, int], RuleOutcome] = {}
_ACL_OUTCOMES: dict[tuple, RuleOutcome] = {}


def _intern(table: dict, key, outcome: RuleOutcome) -> RuleOutcome:
    if len(table) >= _OUTCOME_TABLE_SIZE:
        table.clear()
    table[key] = outcome
    return outcome


def origin_outcome(principal: SecurityContext, target: SecurityContext) -> RuleOutcome:
    """Evaluate the origin rule (shared by ESCUDO and the SOP baseline).

    Browser-internal (trusted) principals are exempt: the browser itself must
    be able to maintain its own state regardless of which page is loaded.
    Page content never gets a trusted context.
    """
    if principal.trusted:
        return _TRUSTED_ORIGIN_OUTCOME
    key = (principal.origin, target.origin)
    outcome = _ORIGIN_OUTCOMES.get(key)
    if outcome is None:
        same = principal.origin.same_origin_as(target.origin)
        outcome = _intern(
            _ORIGIN_OUTCOMES, key, RuleOutcome(Rule.ORIGIN, same, f"{principal.origin} vs {target.origin}")
        )
    return outcome


def _ring_outcome(principal: SecurityContext, target: SecurityContext) -> RuleOutcome:
    """Evaluate the ring rule: ``R(P) <= R(O)``."""
    key = (principal.ring.level, target.ring.level)
    outcome = _RING_OUTCOMES.get(key)
    if outcome is None:
        held, needed = key
        outcome = _intern(_RING_OUTCOMES, key, RuleOutcome(Rule.RING, held <= needed, f"R(P)={held} R(O)={needed}"))
    return outcome


def _acl_outcome(
    principal: SecurityContext, target: SecurityContext, operation: Operation
) -> RuleOutcome:
    """Evaluate the ACL rule: ``R(P) <= acl(O, op)``."""
    key = (principal.ring.level, target.acl, operation)
    outcome = _ACL_OUTCOMES.get(key)
    if outcome is None:
        held = key[0]
        limit = target.acl.limit_for(operation).level
        detail = f"R(P)={held} acl({operation.value})={limit}"
        outcome = _intern(_ACL_OUTCOMES, key, RuleOutcome(Rule.ACL, held <= limit, detail))
    return outcome


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
