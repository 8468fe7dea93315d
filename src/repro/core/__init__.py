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
from .context import SecurityContext
from .decision import AccessDecision, Operation, Rule, RuleOutcome, Verdict
from .errors import (
    ConfigurationError,
    EscudoError,
    NonceError,
    RingRangeError,
    TamperingError,
    UnknownOperationError,
)
from .monitor import AuditLog, MonitorStats, ReferenceMonitor
from .nonce import NONCE_ATTRIBUTE, NonceGenerator, NonceMismatch, NonceValidator
from .objects import (
    BROWSER_STATE_OBJECTS,
    NATIVE_APIS,
    ObjectKind,
)
from .origin import Origin
from .policy import EscudoPolicy, Policy, evaluate_matrix, explain
from .principal import (
    HTTP_REQUEST_ISSUING_TAGS,
    SCRIPT_INVOKING_TAGS,
    UI_EVENT_ATTRIBUTES,
    PrincipalKind,
    classify_tag,
    event_handler_attributes,
)
from .rings import DEFAULT_RING_COUNT, MOST_PRIVILEGED, Ring, RingSet, as_ring
from .scoping import effective_ring, is_violation
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
    "Acl",
    "AcTagLabel",
    "AuditLog",
    "ConfigurationError",
    "EscudoError",
    "EscudoPolicy",
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
    "PrincipalKind",
    "ReferenceMonitor",
    "ResourcePolicy",
    "Ring",
    "RingRangeError",
    "RingSet",
    "Rule",
    "RuleOutcome",
    "SameOriginPolicy",
    "SecurityContext",
    "TamperingError",
    "UnknownOperationError",
    "Verdict",
    "as_ring",
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
]
