"""Exception hierarchy for the ESCUDO reproduction.

All exceptions raised by :mod:`repro.core` derive from :class:`EscudoError`
so that callers can catch the whole family with a single ``except`` clause.
Enforcement denials are *not* exceptions: the reference monitor returns
:class:`repro.core.decision.AccessDecision` objects.
"""

from __future__ import annotations


class EscudoError(Exception):
    """Base class for every error raised by the ESCUDO core."""


class ConfigurationError(EscudoError):
    """An ESCUDO configuration value is invalid.

    Raised when a value is built directly from invalid parts: an origin or
    URL without a scheme or host, an out-of-range ring, an ACL naming an
    unknown operation, a resource policy without a ring and ACL, or a
    resource name that cannot be rendered in a header.  The browser-facing
    parsers (:func:`~repro.core.config.parse_policy_header`,
    :func:`~repro.core.config.extract_ac_label`) are lenient only: following
    the paper's fail-safe-defaults guideline, malformed header or tag values
    fall back to safe defaults instead of raising.
    """


class RingRangeError(ConfigurationError):
    """A ring label lies outside the page's configured ring range."""


class NonceError(EscudoError):
    """A markup-randomisation nonce failed validation.

    This signals a *potential node-splitting attack*: a ``</div>`` terminator
    whose nonce does not match the nonce of the AC tag it claims to close.
    The browser-side handling ignores the bogus terminator (per the paper);
    this exception is used by server-side template tooling and by the strict
    validator in :mod:`repro.core.nonce`.
    """


class TamperingError(EscudoError):
    """A principal attempted to modify ESCUDO configuration state at runtime.

    ESCUDO performs ring mapping exactly once, at parse time; configuration
    is never exposed to scripts.  Attempts to overwrite the ``ring``/ACL
    attributes of an AC tag through the DOM API are rejected with this error.
    """


class UnknownOperationError(EscudoError):
    """An access request referenced an operation the model does not define."""
