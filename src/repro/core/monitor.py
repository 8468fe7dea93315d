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

    principal -> coerce contexts -> policy rules -> decision -> stats + audit

The policy decides every access; no verdict is remembered between calls, so
a relabel (ACL, ring or nonce change) or a policy swap takes effect on the
very next request.  :meth:`ReferenceMonitor.authorize_all` mediates sweeps
(cookie attachment, event propagation paths, DOM traversals): the principal
is coerced once, each *distinct* target context is decided once per call,
and every target records its own decision.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable

from .context import SecurityContext
from .decision import AccessDecision, Operation, Rule, RuleOutcome, Verdict
from .errors import AccessDenied
from .policy import AccessRequest, EscudoPolicy, Policy


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
    by_operation: Counter = field(default_factory=Counter)

    def record(self, decision: AccessDecision) -> None:
        """Fold one decision into the counters."""
        self.total += 1
        self.by_operation[decision.operation.value] += 1
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
        self.by_operation.clear()


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


def _coerce_context(entity) -> SecurityContext:
    """Accept a ``SecurityContext`` or anything exposing one.

    Supports the :class:`~repro.core.objects.Protected` protocol
    (``security_context`` property), the ``context`` attribute used by
    :class:`~repro.core.principal.Principal` / ``ProtectedObject``, and raw
    contexts.  Raising ``TypeError`` for anything else keeps misuse loud.
    """
    if isinstance(entity, SecurityContext):
        return entity
    context = getattr(entity, "security_context", None)
    if isinstance(context, SecurityContext):
        return context
    context = getattr(entity, "context", None)
    if isinstance(context, SecurityContext):
        return context
    raise TypeError(f"{entity!r} does not carry a security context")


def _label_of(entity, explicit: str) -> str:
    """Best-effort display label for an entity."""
    if explicit:
        return explicit
    label = getattr(entity, "label", None)
    if isinstance(label, str) and label:
        return label
    context = _coerce_context(entity)
    return context.label


def _label_with_context(entity, context: SecurityContext, explicit: str) -> str:
    """Like :func:`_label_of` but reuses an already-coerced context."""
    if explicit:
        return explicit
    label = getattr(entity, "label", None)
    if isinstance(label, str) and label:
        return label
    return context.label


class ReferenceMonitor:
    """Single enforcement point for all principal → object interactions.

    Parameters
    ----------
    policy:
        The protection model to enforce.  Defaults to the full ESCUDO policy.
        Swapping it later (``monitor.policy = other``) takes effect on the
        next request.
    strict:
        When true, denials raise :class:`~repro.core.errors.AccessDenied`
        instead of only returning a denying decision.  The browser substrate
        runs in non-strict mode (denied operations become silent no-ops or
        script exceptions, mirroring how the prototype neutralises attacks);
        strict mode is handy in unit tests.
    audit_capacity:
        Size of the in-memory audit log.
    """

    def __init__(
        self,
        policy: Policy | None = None,
        *,
        strict: bool = False,
        audit_capacity: int = 10_000,
    ) -> None:
        #: The protection model currently enforced.
        self.policy: Policy = policy if policy is not None else EscudoPolicy()
        self.strict = strict
        self.stats = MonitorStats()
        self.audit = AuditLog(audit_capacity)
        #: Optional per-decision tap (``callable(AccessDecision)``) invoked
        #: after stats/audit bookkeeping.  The static-analysis screen uses
        #: it to attribute every mediation to the script being executed.
        self.observer = None

    # -- main entry points --------------------------------------------------------

    def authorize(
        self,
        principal,
        target,
        operation: Operation | str,
        *,
        principal_label: str = "",
        object_label: str = "",
    ) -> AccessDecision:
        """Mediate one access request and return the decision.

        ``principal`` and ``target`` may be raw :class:`SecurityContext`
        values or any objects exposing one (DOM elements, cookies, API
        handles, :class:`Principal` / :class:`ProtectedObject` wrappers).
        """
        op = operation if isinstance(operation, Operation) else Operation.from_text(operation)
        principal_ctx = _coerce_context(principal)
        target_ctx = _coerce_context(target)
        decision = self._evaluate(
            principal_ctx,
            target_ctx,
            op,
            _label_with_context(principal, principal_ctx, principal_label),
            _label_with_context(target, target_ctx, object_label),
        )
        self._record(decision)
        return decision

    def allows(
        self,
        principal,
        target,
        operation: Operation | str,
        *,
        principal_label: str = "",
        object_label: str = "",
    ) -> bool:
        """Boolean form of :meth:`authorize`.

        Identical bookkeeping (the access is still recorded in stats and
        audit); only the return type differs, for call sites that branch on
        allow/deny.
        """
        return self.authorize(
            principal,
            target,
            operation,
            principal_label=principal_label,
            object_label=object_label,
        ).allowed

    def authorize_all(
        self,
        principal,
        targets: Iterable,
        operation: Operation | str,
        *,
        principal_label: str = "",
    ) -> list[AccessDecision]:
        """Mediate the same operation by one principal over many targets.

        The principal's context and label are coerced exactly once, and the
        policy decides each *distinct* target context (and label) once per
        call.  Every target still records its own decision, preserving
        complete mediation of the sweep.
        """
        op = operation if isinstance(operation, Operation) else Operation.from_text(operation)
        principal_ctx = _coerce_context(principal)
        principal_lbl = _label_with_context(principal, principal_ctx, principal_label)

        decisions: list[AccessDecision] = []
        batch_memo: dict[tuple[SecurityContext, str], AccessDecision] = {}
        for target in targets:
            target_ctx = _coerce_context(target)
            target_lbl = _label_with_context(target, target_ctx, "")
            memo_key = (target_ctx, target_lbl)
            decision = batch_memo.get(memo_key)
            if decision is None:
                decision = self._evaluate(principal_ctx, target_ctx, op, principal_lbl, target_lbl)
                batch_memo[memo_key] = decision
            self._record(decision)
            decisions.append(decision)
        return decisions

    # -- decision pipeline ---------------------------------------------------------

    def _evaluate(
        self,
        principal_ctx: SecurityContext,
        target_ctx: SecurityContext,
        operation: Operation,
        principal_label: str,
        object_label: str,
    ) -> AccessDecision:
        """Run the policy rules on fully-coerced inputs."""
        request = AccessRequest(
            principal=principal_ctx,
            target=target_ctx,
            operation=operation,
            principal_label=principal_label,
            object_label=object_label,
        )
        return self.policy.evaluate(request)

    # -- special denials ------------------------------------------------------------

    def deny_tampering(
        self,
        principal,
        target,
        operation: Operation | str = Operation.WRITE,
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
        op = operation if isinstance(operation, Operation) else Operation.from_text(operation)
        decision = AccessDecision(
            verdict=Verdict.DENY,
            operation=op,
            principal_label=_label_of(principal, principal_label),
            object_label=_label_of(target, object_label),
            outcomes=(RuleOutcome(Rule.TAMPER, False, reason),),
            policy=self.policy.name,
        )
        self._record(decision)
        return decision

    # -- bookkeeping -----------------------------------------------------------------

    def _record(self, decision: AccessDecision) -> None:
        self.stats.record(decision)
        self.audit.append(decision)
        if self.observer is not None:
            self.observer(decision)
        if self.strict and decision.denied:
            raise AccessDenied(decision)

    def reset(self) -> None:
        """Clear statistics and the audit log (new page load)."""
        self.stats.reset()
        self.audit.clear()

    @property
    def model_name(self) -> str:
        """Name of the enforced policy (``"escudo"`` or ``"same-origin"``)."""
        return self.policy.name


#: Backwards-friendly alias matching the paper's terminology.
EscudoReferenceMonitor = ReferenceMonitor
