"""Configuration extraction.

Web applications communicate their ESCUDO configuration to the browser in
two ways (Section 4.1):

* **AC tags** -- ``div`` elements carrying a ``ring`` attribute (plus
  optional ``r``/``w``/``x`` ACL attributes, or their long forms
  ``read``/``write``/``use``, and a ``nonce``) label the DOM content inside
  their scope.
* **Optional HTTP response headers** -- ring/ACL mappings for cookies and
  native code APIs such as ``XMLHttpRequest``, and the total number of rings
  the page uses.

Non-ESCUDO browsers ignore both mechanisms, and pages that use neither are
treated as legacy pages (single ring == same-origin policy), which is what
makes the model incrementally deployable.

This module is deliberately independent of the DOM substrate: it parses
attribute mappings and header values into plain configuration values
(:class:`AcTagLabel`, :class:`ResourcePolicy`, :class:`PageConfiguration`).
Applying those values to a live DOM tree is the job of
:mod:`repro.browser.labeler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

from .acl import ACL_ATTRIBUTES, Acl, parse_acl_attributes
from .canonical import Canonical, make
from .errors import ConfigurationError
from .nonce import NONCE_ATTRIBUTE
from .rings import DEFAULT_RING_COUNT, Ring, RingSet

#: The HTML tag used for access-control scoping.
AC_TAG_NAME = "div"

#: The attribute holding a scope's ring label.
RING_ATTRIBUTE = "ring"

#: HTTP response header announcing the number of rings the page uses.
RINGS_HEADER = "X-Escudo-Rings"

#: HTTP response header carrying cookie ring/ACL mappings.
COOKIE_POLICY_HEADER = "X-Escudo-Cookie-Policy"

#: HTTP response header carrying native-API ring/ACL mappings.
API_POLICY_HEADER = "X-Escudo-Api-Policy"

#: All ESCUDO attribute names an AC tag may carry (used by tamper protection).
PROTECTED_ATTRIBUTES = frozenset({RING_ATTRIBUTE, NONCE_ATTRIBUTE}) | ACL_ATTRIBUTES


@dataclass(frozen=True)
class AcTagLabel:
    """The ESCUDO-relevant content of one AC tag.

    ``declared_ring`` is what the markup asked for *before* the scoping rule
    is applied; ``acl`` is ``None`` when the tag specified no ACL attributes
    (the labelling engine then applies the fail-safe default); ``nonce`` is
    the markup-randomisation token, if any.
    """

    declared_ring: Ring | None
    acl: Acl | None
    nonce: str | None

    @property
    def is_labelled(self) -> bool:
        """True when the tag carries at least one ESCUDO attribute."""
        return self.declared_ring is not None or self.acl is not None or self.nonce is not None


def extract_ac_label(attributes: Mapping[str, str], rings: RingSet | None = None) -> AcTagLabel:
    """Parse the ESCUDO attributes of an AC (``div``) tag.

    Parsing is lenient (fail-safe defaults): a malformed ``ring`` value is
    treated as absent, malformed ACL entries fall back to ring 0.
    """
    universe = rings if rings is not None else RingSet()
    lowered = {str(key).lower(): value for key, value in attributes.items()}

    declared_ring: Ring | None = None
    if RING_ATTRIBUTE in lowered:
        raw = lowered[RING_ATTRIBUTE]
        text = raw.strip() if isinstance(raw, str) else str(raw)
        if text:
            try:
                level = int(text, 10)
            except ValueError:
                declared_ring = None
            else:
                declared_ring = universe.clamp(level) if level >= 0 else None

    acl = _fast_acl(lowered, universe)
    if acl is None:
        acl = parse_acl_attributes(lowered, rings=universe)
    nonce_raw = lowered.get(NONCE_ATTRIBUTE)
    nonce = nonce_raw.strip() if isinstance(nonce_raw, str) and nonce_raw.strip() else None
    return AcTagLabel(declared_ring=declared_ring, acl=acl, nonce=nonce)


def _fast_acl(lowered: Mapping[str, str], universe: RingSet) -> Acl | None:
    """Fast path for the overwhelmingly common ACL spelling: ``r=N w=N x=N``.

    Labelling runs this once per AC tag on every page load (the cost Figure 4
    measures), so short names with plain ASCII-digit values skip the general,
    lenient parser.  Returns ``None`` whenever the general parser
    (:func:`~repro.core.acl.parse_acl_attributes`) must decide: no short
    name, any long name, or any other value.
    """
    if "r" not in lowered and "w" not in lowered and "x" not in lowered:
        return None
    if "read" in lowered or "write" in lowered or "use" in lowered:
        return None
    highest = universe.highest_level
    limits = []
    for key in ("r", "w", "x"):
        raw = lowered.get(key)
        if raw is None:
            limits.append(0)
            continue
        text = raw.strip() if isinstance(raw, str) else str(raw)
        if not (text.isascii() and text.isdigit()):
            return None
        limits.append(min(int(text), highest))
    return Acl(read=Ring(limits[0]), write=Ring(limits[1]), use=Ring(limits[2]))


def is_ac_tag(tag_name: str, attributes: Mapping[str, str]) -> bool:
    """True when the element is a ``div`` carrying at least one ESCUDO attribute.

    This runs once per element during page labelling, so it deliberately
    avoids the full attribute parse that :func:`extract_ac_label` performs.
    """
    if tag_name.lower() != AC_TAG_NAME:
        return False
    for key in attributes:
        lowered = key.lower() if not key.islower() else key
        if lowered in PROTECTED_ATTRIBUTES:
            return True
    return False


class ResourcePolicy(Canonical):
    """Ring and ACL assigned to a non-DOM resource (cookie or native API).

    Canonical (:mod:`repro.core.canonical`): one instance per ``(ring,
    acl)`` pair, so ``ResourcePolicy.ring_zero()`` is shared and a relabel
    to an equal policy is the same object.
    """

    __slots__ = ("ring", "acl")

    ring: Ring
    acl: Acl

    def __new__(cls, ring: Ring, acl: Acl) -> "ResourcePolicy":
        policy = _POLICIES.get((ring, acl))
        if policy is None:
            if type(ring) is not Ring or type(acl) is not Acl:
                raise ConfigurationError(f"a resource policy needs a Ring and an Acl, got {ring!r}, {acl!r}")
            policy = _POLICIES[ring, acl] = make(cls, {"ring": ring, "acl": acl})
        return policy

    def __reduce__(self):
        return ResourcePolicy, (self.ring, self.acl)

    def __repr__(self) -> str:
        return f"ResourcePolicy(ring={self.ring!r}, acl={self.acl!r})"

    @classmethod
    def ring_zero(cls) -> "ResourcePolicy":
        """The fail-safe default: ring 0 with an all-ring-0 ACL."""
        return cls(ring=Ring(0), acl=Acl.uniform(0))

    @classmethod
    def uniform(cls, ring: Ring | int) -> "ResourcePolicy":
        """Ring ``ring`` with an ACL allowing the same outermost ring."""
        r = Ring(ring) if not isinstance(ring, Ring) else ring
        return cls(ring=r, acl=Acl.uniform(r))


#: The canonical policy of every ``(ring, acl)`` pair built so far.
_POLICIES: dict[tuple[Ring, Acl], ResourcePolicy] = {}

#: The fail-safe default every unconfigured cookie and native API gets.
_RING_ZERO_POLICY = ResourcePolicy.ring_zero()


@dataclass
class PageConfiguration:
    """The complete ESCUDO configuration of one page / response.

    Built from the HTTP response headers (cookie and API policies, ring
    count).  DOM labels are not stored here -- they live on the DOM tree via
    the labelling engine -- but the configuration records whether the page
    opted into ESCUDO at all, which decides between ESCUDO and legacy (SOP)
    behaviour.
    """

    rings: RingSet = field(default_factory=RingSet)
    cookie_policies: dict[str, ResourcePolicy] = field(default_factory=dict)
    api_policies: dict[str, ResourcePolicy] = field(default_factory=dict)
    escudo_enabled: bool = True

    # -- lookups ---------------------------------------------------------------

    def cookie_policy(self, name: str) -> ResourcePolicy:
        """Policy for cookie ``name``; defaults to ring 0 per the paper."""
        return self.cookie_policies.get(name, _RING_ZERO_POLICY)

    def api_policy(self, name: str) -> ResourcePolicy:
        """Policy for native API ``name``; defaults to ring 0 per the paper."""
        return self.api_policies.get(name, _RING_ZERO_POLICY)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def legacy(cls) -> "PageConfiguration":
        """Configuration of a page that supplied no ESCUDO information.

        Legacy pages collapse to a single ring (ring 0 for everything with a
        wide-open intra-origin ACL), which makes the ESCUDO policy behave
        exactly like the same-origin policy.
        """
        return cls(rings=RingSet(0), escudo_enabled=False)

    @classmethod
    def from_headers(cls, headers: Mapping[str, str]) -> "PageConfiguration":
        """Build a configuration from HTTP response headers.

        Unknown headers are ignored; a page is considered ESCUDO-enabled when
        any of the ESCUDO headers is present.  (AC tags in the body can also
        enable ESCUDO -- the loader ORs that in separately.)

        Header parsing is memoised on the ESCUDO header values (applications
        emit the same handful of configurations on every response), but each
        call returns an independent configuration: callers mutate their copy
        (``set_api_policy`` relabels mid-session), so prototypes share only
        immutable pieces (the ring universe and the frozen policies).
        """
        normalized = {str(k).lower(): v for k, v in headers.items()}
        return cls.from_header_values(
            normalized.get(RINGS_HEADER.lower()),
            normalized.get(COOKIE_POLICY_HEADER.lower()),
            normalized.get(API_POLICY_HEADER.lower()),
        )

    @classmethod
    def from_header_values(
        cls,
        ring_header: str | None,
        cookie_header: str | None,
        api_header: str | None,
    ) -> "PageConfiguration":
        """Like :meth:`from_headers` for already-extracted header values.

        The hot path for response processing: callers holding a
        :class:`~repro.http.headers.Headers` object fetch the three ESCUDO
        headers directly instead of materialising an intermediate dict.
        """
        prototype = _configuration_prototype(ring_header, cookie_header, api_header)
        return cls(
            rings=prototype.rings,
            cookie_policies=dict(prototype.cookie_policies),
            api_policies=dict(prototype.api_policies),
            escudo_enabled=prototype.escudo_enabled,
        )

    # -- identity ------------------------------------------------------------------

    def fingerprint(self) -> tuple:
        """Hashable value identity of this configuration.

        Two configurations with equal fingerprints label a page identically,
        which is what the browser's template cache keys labelled DOM variants
        on.  Everything inside is immutable (ints, frozen policies), so the
        fingerprint is stable for dict keys.
        """
        return (
            self.escudo_enabled,
            self.rings.highest_level,
            tuple(sorted(self.cookie_policies.items())),
            tuple(sorted(self.api_policies.items())),
        )

    # -- serialisation ------------------------------------------------------------

    def to_headers(self) -> dict[str, str]:
        """Render the configuration back into HTTP response headers.

        The server-side framework uses this to emit the optional headers.
        """
        headers: dict[str, str] = {}
        if not self.escudo_enabled:
            return headers
        headers[RINGS_HEADER] = str(self.rings.highest_level)
        if self.cookie_policies:
            headers[COOKIE_POLICY_HEADER] = format_policy_header(self.cookie_policies)
        if self.api_policies:
            headers[API_POLICY_HEADER] = format_policy_header(self.api_policies)
        return headers


@lru_cache(maxsize=512)
def _configuration_prototype(
    ring_header: str | None, cookie_header: str | None, api_header: str | None
) -> PageConfiguration:
    """Parse one distinct ESCUDO header combination (shared, treated read-only)."""
    enabled = any(value is not None for value in (ring_header, cookie_header, api_header))
    rings = _parse_rings_header(ring_header)
    config = PageConfiguration(rings=rings, escudo_enabled=enabled)
    if cookie_header:
        config.cookie_policies.update(parse_policy_header(cookie_header, rings))
    if api_header:
        config.api_policies.update(parse_policy_header(api_header, rings))
    return config


def _parse_rings_header(value: str | None) -> RingSet:
    """Parse ``X-Escudo-Rings`` into a ring universe (lenient)."""
    if value is None:
        return RingSet(DEFAULT_RING_COUNT - 1)
    text = value.strip()
    try:
        highest = int(text, 10)
    except ValueError:
        return RingSet(DEFAULT_RING_COUNT - 1)
    if highest < 0:
        return RingSet(DEFAULT_RING_COUNT - 1)
    return RingSet(highest)


def parse_policy_header(value: str, rings: RingSet | None = None) -> dict[str, ResourcePolicy]:
    """Parse a cookie/API policy header.

    Syntax (one entry per resource, comma separated)::

        name; ring=1; r=1; w=1; x=1, other_name; ring=2

    Missing ``ring`` defaults to 0; missing ACL entries default to the ring's
    own level for `r`/`w`/`x` that are omitted *when a ring was given*, and
    to ring 0 otherwise -- i.e. specifying only ``ring=1`` yields an ACL of
    ``r=1 w=1 x=1`` which matches how the case-study tables describe their
    configurations.
    """
    universe = rings if rings is not None else RingSet()
    policies: dict[str, ResourcePolicy] = {}
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = [part.strip() for part in entry.split(";") if part.strip()]
        if not parts:
            continue
        name = parts[0]
        params: dict[str, str] = {}
        for part in parts[1:]:
            key, _, raw = part.partition("=")
            params[key.strip().lower()] = raw.strip()
        ring = universe.parse_label(params.get(RING_ATTRIBUTE), default=Ring(0))
        acl_params = {k: v for k, v in params.items() if k in {"r", "w", "x", "read", "write", "use"}}
        if acl_params:
            acl = Acl.from_mapping(acl_params, rings=universe)
            # Operations not mentioned explicitly default to the resource ring,
            # not ring 0, so "ring=1; x=1" does not accidentally lock reads.
            defaults = Acl.uniform(ring)
            merged = Acl(
                read=acl.read if any(k in acl_params for k in ("r", "read")) else defaults.read,
                write=acl.write if any(k in acl_params for k in ("w", "write")) else defaults.write,
                use=acl.use if any(k in acl_params for k in ("x", "use")) else defaults.use,
            )
            acl = merged
        else:
            acl = Acl.uniform(ring)
        policies[name] = ResourcePolicy(ring=ring, acl=acl)
    return policies


def format_policy_header(policies: Mapping[str, ResourcePolicy]) -> str:
    """Render resource policies into the header syntax parsed above."""
    entries = []
    for name, policy in policies.items():
        if "," in name or ";" in name:
            raise ConfigurationError(f"resource name {name!r} may not contain ',' or ';'")
        attrs = policy.acl.as_attributes()
        entries.append(
            f"{name}; ring={policy.ring.level}; r={attrs['r']}; w={attrs['w']}; x={attrs['x']}"
        )
    return ", ".join(entries)
