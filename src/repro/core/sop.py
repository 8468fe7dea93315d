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
from .decision import AccessDecision, Rule, RuleOutcome, Verdict
from .policy import AccessRequest, Policy


@dataclass
class SameOriginPolicy(Policy):
    """Origin-rule-only protection model (the legacy baseline)."""

    name: str = field(default="same-origin")

    def evaluate(self, request: AccessRequest) -> AccessDecision:
        outcome = _origin_only_outcome(request.principal, request.target)
        verdict = Verdict.ALLOW if outcome.passed else Verdict.DENY
        return AccessDecision(
            verdict=verdict,
            operation=request.operation,
            principal_label=request.describe_principal(),
            object_label=request.describe_object(),
            outcomes=(outcome,),
            policy=self.name,
        )


def _origin_only_outcome(principal: SecurityContext, target: SecurityContext) -> RuleOutcome:
    """Evaluate the lone SOP rule, with the browser-internal exemption."""
    if principal.trusted:
        return RuleOutcome(Rule.ORIGIN, True, "browser-internal principal")
    same = principal.origin.same_origin_as(target.origin)
    return RuleOutcome(Rule.ORIGIN, same, f"{principal.origin} vs {target.origin}")


def escudo_collapses_to_sop(decision_escudo: AccessDecision, decision_sop: AccessDecision) -> bool:
    """Check the backward-compatibility claim for a pair of decisions.

    For legacy (unconfigured) pages, every entity lands in a single ring with
    a uniform ACL, so the ESCUDO verdict must equal the SOP verdict for every
    request.  The compatibility benchmark asserts this over full
    principal × object × operation matrices.
    """
    return decision_escudo.verdict is decision_sop.verdict
