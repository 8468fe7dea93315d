"""ESCUDO core: rings, ACLs, contexts, policies and the reference monitor.

This package is the paper's primary contribution in library form.  It is
deliberately free of browser/DOM/HTTP dependencies so the model can be used
and tested on its own; the substrate packages (:mod:`repro.browser`,
:mod:`repro.dom`, :mod:`repro.http`) build on top of it.
"""

from .acl import Acl, parse_acl_attributes
from .config import (
    AC_TAG_NAME,
    API_POLICY_HEADER,
    COOKIE_POLICY_HEADER,
    PROTECTED_ATTRIBUTES,
    RING_ATTRIBUTE,
    RINGS_HEADER,
    AcTagLabel,
    PageConfiguration,
    ResourcePolicy,
    extract_ac_label,
    format_policy_header,
    is_ac_tag,
    parse_policy_header,
)
from .context import ContextTracker, SecurityContext
from .decision import AccessDecision, Operation, Rule, RuleOutcome, Verdict
from .errors import (
    AccessDenied,
    ConfigurationError,
    EscudoError,
    NonceError,
    RingRangeError,
    ScopingViolation,
    TamperingError,
    UnknownOperationError,
)
from .monitor import AuditLog, EscudoReferenceMonitor, MonitorStats, ReferenceMonitor
from .nonce import NONCE_ATTRIBUTE, NonceGenerator, NonceMismatch, NonceValidator
from .objects import (
    BROWSER_STATE_OBJECTS,
    NATIVE_APIS,
    ObjectKind,
    Protected,
    ProtectedObject,
    browser_state_object,
)
from .origin import Origin
from .policy import AccessRequest, EscudoPolicy, Policy, evaluate_matrix, explain
from .principal import (
    HTTP_REQUEST_ISSUING_TAGS,
    SCRIPT_INVOKING_TAGS,
    UI_EVENT_ATTRIBUTES,
    Principal,
    PrincipalKind,
    classify_tag,
    event_handler_attributes,
)
from .rings import DEFAULT_RING_COUNT, MOST_PRIVILEGED, Ring, RingSet, as_ring
from .scoping import (
    ScopingViolationReport,
    audit_tree,
    clamp_chain,
    effective_ring,
    is_violation,
    require_within_scope,
)
from .sop import SameOriginPolicy, escudo_collapses_to_sop

__all__ = [
    "AC_TAG_NAME",
    "API_POLICY_HEADER",
    "BROWSER_STATE_OBJECTS",
    "COOKIE_POLICY_HEADER",
    "DEFAULT_RING_COUNT",
    "HTTP_REQUEST_ISSUING_TAGS",
    "MOST_PRIVILEGED",
    "NATIVE_APIS",
    "NONCE_ATTRIBUTE",
    "PROTECTED_ATTRIBUTES",
    "RINGS_HEADER",
    "RING_ATTRIBUTE",
    "SCRIPT_INVOKING_TAGS",
    "UI_EVENT_ATTRIBUTES",
    "AccessDecision",
    "AccessDenied",
    "AccessRequest",
    "Acl",
    "AcTagLabel",
    "AuditLog",
    "ConfigurationError",
    "ContextTracker",
    "EscudoError",
    "EscudoPolicy",
    "EscudoReferenceMonitor",
    "MonitorStats",
    "NonceError",
    "NonceGenerator",
    "NonceMismatch",
    "NonceValidator",
    "ObjectKind",
    "Operation",
    "Origin",
    "PageConfiguration",
    "Policy",
    "Principal",
    "PrincipalKind",
    "Protected",
    "ProtectedObject",
    "ReferenceMonitor",
    "ResourcePolicy",
    "Ring",
    "RingRangeError",
    "RingSet",
    "Rule",
    "RuleOutcome",
    "SameOriginPolicy",
    "ScopingViolation",
    "ScopingViolationReport",
    "SecurityContext",
    "TamperingError",
    "UnknownOperationError",
    "Verdict",
    "as_ring",
    "audit_tree",
    "browser_state_object",
    "clamp_chain",
    "classify_tag",
    "effective_ring",
    "escudo_collapses_to_sop",
    "evaluate_matrix",
    "event_handler_attributes",
    "explain",
    "extract_ac_label",
    "format_policy_header",
    "is_ac_tag",
    "is_violation",
    "parse_acl_attributes",
    "parse_policy_header",
    "require_within_scope",
]
