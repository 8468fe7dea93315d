"""Exception hierarchy for the ESCUDO reproduction.

All exceptions raised by :mod:`repro.core` derive from :class:`EscudoError`
so that callers can catch the whole family with a single ``except`` clause.
Enforcement denials are *not* exceptions by default -- the reference monitor
returns :class:`repro.core.decision.AccessDecision` objects -- but a strict
mode is available in which denials raise :class:`AccessDenied`.
"""

from __future__ import annotations


class EscudoError(Exception):
    """Base class for every error raised by the ESCUDO core."""


class ConfigurationError(EscudoError):
    """An ESCUDO configuration (AC tag, HTTP header, policy table) is invalid.

    Raised for malformed ring attributes, ACL entries that name unknown
    operations, negative ring numbers, or cookie/API header syntax errors
    when the parser runs in strict mode.  In lenient mode (the default for
    browser-facing parsing, mirroring the fail-safe-defaults guideline of the
    paper) malformed values fall back to safe defaults instead of raising.
    """


class RingRangeError(ConfigurationError):
    """A ring label lies outside the page's configured ring range."""


class AccessDenied(EscudoError):
    """An access request was denied by the reference monitor (strict mode).

    Attributes
    ----------
    decision:
        The :class:`repro.core.decision.AccessDecision` describing which rule
        failed and why.
    """

    def __init__(self, decision) -> None:
        super().__init__(str(decision))
        self.decision = decision


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
