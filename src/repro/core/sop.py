"""The same-origin policy baseline.

The paper's comparison point -- and ESCUDO's backward-compatibility mode --
is the classic same-origin policy (SOP): an access is allowed whenever the
principal and object share an origin, defined as the unique
``(protocol, domain, port)`` triple.  Under the SOP every principal of a page
effectively runs with the full privileges of the page's origin, which is
exactly the failure of least privilege the paper argues against.

The baseline is implemented with the same :class:`~repro.core.policy.Policy`
interface as :class:`~repro.core.policy.EscudoPolicy`, so the browser
substrate, attack harness and benchmarks can switch models with a single
constructor argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import SecurityContext
from .decision import AccessDecision, Operation, Verdict
from .policy import Policy, origin_outcome


@dataclass
class SameOriginPolicy(Policy):
    """Origin-rule-only protection model (the legacy baseline)."""

    name: str = field(default="same-origin")

    def evaluate(
        self,
        principal: SecurityContext,
        target: SecurityContext,
        operation: Operation,
        principal_label: str,
        object_label: str,
    ) -> AccessDecision:
        outcome = origin_outcome(principal, target)
        verdict = Verdict.ALLOW if outcome.passed else Verdict.DENY
        return AccessDecision(verdict, operation, principal_label, object_label, (outcome,), self.name)


def escudo_collapses_to_sop(decision_escudo: AccessDecision, decision_sop: AccessDecision) -> bool:
    """Check the backward-compatibility claim for a pair of decisions.

    For legacy (unconfigured) pages, every entity lands in a single ring with
    a uniform ACL, so the ESCUDO verdict must equal the SOP verdict for every
    request.  The compatibility benchmark asserts this over full
    principal × object × operation matrices.
    """
    return decision_escudo.verdict is decision_sop.verdict
