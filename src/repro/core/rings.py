"""Hierarchical protection rings.

ESCUDO adapts Multics-style hierarchical protection rings (HPR) to web pages.
Each web page ("system") defines its own static set of rings labelled
``0 .. N`` where ring 0 is the *most* privileged and ring ``N`` the *least*
privileged.  The number of rings is application dependent; the paper's
examples use ``N = 3``.

This module provides:

* :class:`Ring` -- an immutable ring label with privilege-ordering helpers.
  Note the deliberate inversion: a *numerically smaller* ring is *more*
  privileged, so ``Ring(0).is_at_least_as_privileged_as(Ring(3))`` is true.
* :class:`RingSet` -- the per-page ring universe (``0 .. highest``), used to
  validate and clamp labels coming from untrusted markup.
* Module-level constants for the defaults the paper prescribes
  (:data:`DEFAULT_RING_COUNT`, :data:`MOST_PRIVILEGED`).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .canonical import Canonical, make
from .errors import ConfigurationError, RingRangeError

#: Number of rings used throughout the paper's examples (rings 0..3).
DEFAULT_RING_COUNT = 4

#: Label of the most privileged ring.
MOST_PRIVILEGED = 0


class Ring(Canonical):
    """A single protection-ring label.

    ``Ring`` is a thin, immutable wrapper around the integer label.  It
    exists so that privilege comparisons read unambiguously at call sites:
    ``principal_ring.is_at_least_as_privileged_as(object_ring)`` instead of a
    bare ``<=`` whose direction is easy to get backwards.

    The natural integer ordering is still exposed (``Ring(1) < Ring(2)``)
    and means "numerically smaller", i.e. *more privileged*.

    Rings are canonical (:mod:`repro.core.canonical`): ``Ring(2) is
    Ring(2)``.  The first construction of a level validates it; every later
    one returns the same instance.
    """

    __slots__ = ("level",)

    level: int

    def __new__(cls, level: int) -> "Ring":
        ring = _RINGS.get(level) if type(level) is int else None
        return ring if ring is not None else _intern_ring(level)

    def __reduce__(self):
        return Ring, (self.level,)

    # -- privilege ordering -------------------------------------------------

    def is_at_least_as_privileged_as(self, other: "Ring | int") -> bool:
        """True when this ring has equal or greater privilege than ``other``.

        Per the HPR convention this means the numeric label is less than or
        equal to the other label.
        """
        return self.level <= _level_of(other)

    def is_more_privileged_than(self, other: "Ring | int") -> bool:
        """True when this ring has strictly greater privilege than ``other``."""
        return self.level < _level_of(other)

    def is_less_privileged_than(self, other: "Ring | int") -> bool:
        """True when this ring has strictly less privilege than ``other``."""
        return self.level > _level_of(other)

    # -- combination helpers -------------------------------------------------

    def restricted_to(self, outer: "Ring | int") -> "Ring":
        """Clamp this ring so it is never more privileged than ``outer``.

        Used by the scoping rule: a child element labelled ``ring=1`` inside
        a scope labelled ``ring=2`` is effectively in ring 2.
        """
        return Ring(max(self.level, _level_of(outer)))

    def elevated_to(self, inner: "Ring | int") -> "Ring":
        """Return the more privileged of the two rings."""
        return Ring(min(self.level, _level_of(inner)))

    # -- dunder conveniences --------------------------------------------------

    def __int__(self) -> int:
        return self.level

    def __lt__(self, other: "Ring | int") -> bool:
        return self.level < _level_of(other)

    def __le__(self, other: "Ring | int") -> bool:
        return self.level <= _level_of(other)

    def __gt__(self, other: "Ring | int") -> bool:
        return self.level > _level_of(other)

    def __ge__(self, other: "Ring | int") -> bool:
        return self.level >= _level_of(other)

    def __str__(self) -> str:
        return f"ring {self.level}"

    def __repr__(self) -> str:
        return f"Ring({self.level})"


#: The canonical ring of every level built so far, keyed by level.
_RINGS: dict[int, Ring] = {}


def _intern_ring(level) -> Ring:
    """Validate ``level`` and return its canonical ring, building it once."""
    if not isinstance(level, int) or isinstance(level, bool):
        raise ConfigurationError(f"ring level must be an int, got {level!r}")
    if level < 0:
        raise ConfigurationError(f"ring level must be non-negative, got {level}")
    level = int(level)
    ring = _RINGS.get(level)
    if ring is None:
        ring = _RINGS[level] = make(Ring, {"level": level})
    return ring


def _level_of(value: "Ring | int") -> int:
    """Return the integer level of a ``Ring`` or plain integer."""
    if isinstance(value, Ring):
        return value.level
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"expected Ring or int, got {value!r}")
    if value < 0:
        raise ConfigurationError(f"ring level must be non-negative, got {value}")
    return value


def as_ring(value: "Ring | int") -> Ring:
    """Coerce an integer or ``Ring`` into a ``Ring`` instance."""
    if type(value) is Ring:
        return value
    return Ring(value)


class RingSet:
    """The universe of rings available to one web page.

    A ``RingSet`` is created per page ("system") from the application's
    configuration, defaulting to the paper's four rings (0..3).  It validates
    labels arriving from markup or HTTP headers and provides the safe
    defaults prescribed by the paper:

    * :meth:`least_privileged` -- default ring for unlabelled DOM content;
    * :meth:`most_privileged` -- default ring for cookies, native APIs and
      browser state.
    """

    def __init__(self, highest: int = DEFAULT_RING_COUNT - 1) -> None:
        if not isinstance(highest, int) or isinstance(highest, bool):
            raise ConfigurationError(f"highest ring must be an int, got {highest!r}")
        if highest < 0:
            raise ConfigurationError("a ring set needs at least ring 0")
        self._highest = highest

    # -- basic queries --------------------------------------------------------

    @property
    def highest_level(self) -> int:
        """Numeric label of the least privileged ring."""
        return self._highest

    @property
    def count(self) -> int:
        """Total number of rings (``highest_level + 1``)."""
        return self._highest + 1

    def most_privileged(self) -> Ring:
        """Ring 0."""
        return Ring(MOST_PRIVILEGED)

    def least_privileged(self) -> Ring:
        """Ring ``N`` -- the fail-safe default for unlabelled DOM content."""
        return Ring(self._highest)

    def __contains__(self, value: "Ring | int") -> bool:
        try:
            level = _level_of(value)
        except ConfigurationError:
            return False
        return 0 <= level <= self._highest

    def __iter__(self) -> Iterator[Ring]:
        return (Ring(level) for level in range(self.count))

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RingSet) and other._highest == self._highest

    def __repr__(self) -> str:
        return f"RingSet(highest={self._highest})"

    # -- validation and clamping ----------------------------------------------

    def validate(self, value: "Ring | int") -> Ring:
        """Return ``value`` as a :class:`Ring`, raising if out of range."""
        ring = as_ring(value)
        if ring not in self:
            raise RingRangeError(
                f"{ring} outside ring universe 0..{self._highest}"
            )
        return ring

    def clamp(self, value: "Ring | int") -> Ring:
        """Return ``value`` clamped into the ring universe.

        Out-of-range labels are clamped towards *less* privilege (the safe
        direction): anything above the highest ring becomes the least
        privileged ring.
        """
        ring = as_ring(value)
        if ring.level > self._highest:
            return self.least_privileged()
        return ring

    def parse_label(self, text: str | None, *, default: "Ring | None" = None) -> Ring:
        """Parse a ring label from untrusted markup text.

        Follows the fail-safe-defaults guideline: missing, empty, or
        malformed labels fall back to ``default`` (or the least privileged
        ring when no default is given); numeric labels beyond the highest
        ring are clamped to the least privileged ring.
        """
        fallback = default if default is not None else self.least_privileged()
        if text is None:
            return fallback
        text = text.strip()
        if not text:
            return fallback
        try:
            level = int(text, 10)
        except ValueError:
            return fallback
        if level < 0:
            return fallback
        return self.clamp(level)

    def spanning(self, rings: Iterable["Ring | int"]) -> "RingSet":
        """Build a ring set wide enough to contain every ring in ``rings``."""
        highest = self._highest
        for ring in rings:
            highest = max(highest, _level_of(ring))
        return RingSet(highest)
