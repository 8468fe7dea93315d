"""The ESCUDO Reference Monitor (ERM).

The paper's implementation section describes three parts: extracting security
contexts, tracking them through the browser, and enforcing the access-control
policy.  The reference monitor is the enforcement part: a single choke point
the browser substrate calls whenever a principal tries to read, write or use
an object.  Keeping enforcement in one class gives the *complete mediation*
property and makes the audit trail (used by the defence-effectiveness and
overhead benchmarks) trivial to collect.

The monitor is policy-agnostic: it is constructed with either the
:class:`~repro.core.policy.EscudoPolicy` or the
:class:`~repro.core.sop.SameOriginPolicy` baseline, which is how the
benchmarks compare the two models on identical workloads.

Mediation is a short pipeline::

    principal, target contexts -> policy rules -> decision -> stats + audit

The monitor hands the two security contexts straight to the policy, which
runs every enabled rule and builds the access's decision record.  The values
involved are canonical or computed once: rings, ACLs and resource policies
are shared instances, origins and contexts keep their hash and text, and
each rule returns an interned outcome keyed by its inputs.  No verdict is
cached: every access reaches the policy, which decides it afresh, so a
relabel (ACL, ring or nonce change) or a policy swap takes effect on the
very next request.  :meth:`ReferenceMonitor.authorize_all` mediates a sweep
(cookie attachment, ``document.cookie`` reads): the principal is checked
once, and the policy decides and records every target on its own.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable

from .context import SecurityContext
from .decision import AccessDecision, Operation, Rule, RuleOutcome, Verdict
from .policy import EscudoPolicy, Policy


@dataclass
class MonitorStats:
    """Aggregate counters maintained by the reference monitor.

    The overhead benchmark reads ``total`` to confirm mediation actually
    happened; the defence benchmarks read ``denied_by_rule`` to attribute
    neutralised attacks to specific rules.
    """

    total: int = 0
    allowed: int = 0
    denied: int = 0
    denied_by_rule: Counter = field(default_factory=Counter)

    def record(self, decision: AccessDecision) -> None:
        """Fold one decision into the counters."""
        self.total += 1
        if decision.allowed:
            self.allowed += 1
        else:
            self.denied += 1
            rule = decision.denying_rule
            if rule is not None:
                self.denied_by_rule[rule.value] += 1

    def reset(self) -> None:
        """Zero all counters."""
        self.total = 0
        self.allowed = 0
        self.denied = 0
        self.denied_by_rule.clear()


class AuditLog:
    """Bounded in-memory log of access decisions.

    Backed by a ``deque(maxlen=capacity)`` so appends stay O(1) even when the
    log is full (list-based eviction was O(n) per append, which showed up in
    the mediation benchmarks once the log saturated).
    """

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity <= 0:
            raise ValueError("audit log capacity must be positive")
        self._capacity = capacity
        self._entries: deque[AccessDecision] = deque(maxlen=capacity)

    def append(self, decision: AccessDecision) -> None:
        """Record a decision, evicting the oldest entry when full."""
        self._entries.append(decision)

    @property
    def capacity(self) -> int:
        """Maximum number of retained decisions."""
        return self._capacity

    @property
    def entries(self) -> tuple[AccessDecision, ...]:
        """All retained decisions, oldest first."""
        return tuple(self._entries)

    def denials(self) -> tuple[AccessDecision, ...]:
        """Only the denied decisions."""
        return tuple(d for d in self._entries if d.denied)

    def clear(self) -> None:
        """Drop every retained decision."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


def _not_a_context(entity) -> TypeError:
    return TypeError(f"the monitor mediates SecurityContext values, not {type(entity).__name__}")


class ReferenceMonitor:
    """Single enforcement point for all principal → object interactions.

    Every entry point takes the two :class:`SecurityContext` values of an
    access ``<P ▷ O>`` and an :class:`Operation`; callers holding a richer
    substrate value (a cookie, an element) pass its context.  Anything else
    as principal or target raises ``TypeError`` rather than being decided.
    Denials are returned as decisions, never raised: the browser substrate
    turns them into silent no-ops or script-visible ``null``.

    Parameters
    ----------
    policy:
        The protection model to enforce.  Defaults to the full ESCUDO policy.
        Swapping it later (``monitor.policy = other``) takes effect on the
        next request.
    audit_capacity:
        Size of the in-memory audit log.
    """

    def __init__(self, policy: Policy | None = None, *, audit_capacity: int = 10_000) -> None:
        #: The protection model currently enforced.
        self.policy: Policy = policy if policy is not None else EscudoPolicy()
        self.stats = MonitorStats()
        self.audit = AuditLog(audit_capacity)

    # -- main entry points --------------------------------------------------------

    def authorize(
        self,
        principal: SecurityContext,
        target: SecurityContext,
        operation: Operation,
        *,
        principal_label: str = "",
        object_label: str = "",
    ) -> AccessDecision:
        """Mediate one access request and return the decision.

        Each side is named in the record by the explicit label if given,
        else by its context's label.
        """
        if type(principal) is not SecurityContext:
            raise _not_a_context(principal)
        if type(target) is not SecurityContext:
            raise _not_a_context(target)
        decision = self.policy.evaluate(
            principal, target, operation, principal_label or principal.label, object_label or target.label
        )
        self._record(decision)
        return decision

    def authorize_all(
        self,
        principal: SecurityContext,
        targets: Iterable[SecurityContext],
        operation: Operation,
        *,
        principal_label: str = "",
    ) -> list[AccessDecision]:
        """Mediate the same operation by one principal over many targets.

        The principal is checked and labelled once; the policy decides every
        target, and each target records its own decision, preserving
        complete mediation of the sweep.
        """
        if type(principal) is not SecurityContext:
            raise _not_a_context(principal)
        principal_label = principal_label or principal.label
        evaluate = self.policy.evaluate
        decisions: list[AccessDecision] = []
        for target in targets:
            if type(target) is not SecurityContext:
                raise _not_a_context(target)
            decision = evaluate(principal, target, operation, principal_label, target.label)
            self._record(decision)
            decisions.append(decision)
        return decisions

    # -- special denials ------------------------------------------------------------

    def deny_tampering(
        self,
        principal: SecurityContext,
        target: SecurityContext,
        operation: Operation = Operation.WRITE,
        *,
        reason: str = "ESCUDO configuration attributes are not writable from content",
        principal_label: str = "",
        object_label: str = "",
    ) -> AccessDecision:
        """Record a denial caused by the anti-tampering protections.

        Used when a script attempts to modify ``ring``/ACL/nonce attributes
        through the DOM API: the request never reaches the three-rule policy,
        it is categorically refused (Section 5, "a principal increasing
        privilege"), and the reason string is call-site specific.
        """
        if type(principal) is not SecurityContext:
            raise _not_a_context(principal)
        if type(target) is not SecurityContext:
            raise _not_a_context(target)
        decision = AccessDecision(
            verdict=Verdict.DENY,
            operation=operation,
            principal_label=principal_label or principal.label,
            object_label=object_label or target.label,
            outcomes=(RuleOutcome(Rule.TAMPER, False, reason),),
            policy=self.policy.name,
        )
        self._record(decision)
        return decision

    # -- bookkeeping -----------------------------------------------------------------

    def _record(self, decision: AccessDecision) -> None:
        self.stats.record(decision)
        self.audit.append(decision)

    def reset(self) -> None:
        """Clear statistics and the audit log (new page load)."""
        self.stats.reset()
        self.audit.clear()

    @property
    def model_name(self) -> str:
        """Name of the enforced policy (``"escudo"`` or ``"same-origin"``)."""
        return self.policy.name

