"""Case-insensitive HTTP header collection.

HTTP header names are case-insensitive and some headers (notably
``Set-Cookie``) may legitimately appear multiple times, so a plain dict is
not quite enough.  :class:`Headers` preserves insertion order and original
casing for serialisation while matching names case-insensitively.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class Headers:
    """An ordered, case-insensitive multimap of HTTP headers."""

    def __init__(self, initial: "Mapping[str, str] | Iterable[tuple[str, str]] | Headers | None" = None) -> None:
        self._items: list[tuple[str, str]] = []
        if initial is None:
            return
        if isinstance(initial, Headers):
            self._items.extend(initial.items())
        elif isinstance(initial, Mapping):
            for name, value in initial.items():
                self.add(name, value)
        else:
            for name, value in initial:
                self.add(name, value)

    @classmethod
    def from_pairs(cls, pairs: "Iterable[tuple[str, str]]") -> "Headers":
        """Headers holding ``pairs`` as they are, with no per-pair coercion.

        For pairs that already came out of a :class:`Headers` (a stored
        copy), whose names and values are strings by construction.
        """
        headers = cls()
        headers._items = list(pairs)
        return headers

    # -- mutation ---------------------------------------------------------------

    def add(self, name: str, value: str) -> None:
        """Append a header, keeping any existing headers with the same name."""
        self._items.append((str(name), str(value)))

    def extend(self, pairs: "Iterable[tuple[str, str]]") -> None:
        """Append ``pairs`` as they are, keeping existing same-named headers.

        For pre-rendered string pairs (no per-pair coercion), like
        :meth:`from_pairs`.
        """
        self._items.extend(pairs)

    def set(self, name: str, value: str) -> None:
        """Replace all headers called ``name`` with a single value."""
        self.remove(name)
        self.add(name, value)

    def remove(self, name: str) -> None:
        """Delete every header called ``name`` (no error if absent)."""
        lowered = name.lower()
        self._items = [(n, v) for n, v in self._items if n.lower() != lowered]

    def update(self, other: "Mapping[str, str] | Headers") -> None:
        """Set every header from ``other`` (replacing same-named headers)."""
        items = other.items() if isinstance(other, (Headers, dict)) else other
        for name, value in items:
            self.set(name, value)

    # -- queries -------------------------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        """First value of header ``name``, or ``default``."""
        lowered = name.lower()
        for n, v in self._items:
            if n.lower() == lowered:
                return v
        return default

    def get_all(self, name: str) -> list[str]:
        """Every value of header ``name``, in insertion order."""
        lowered = name.lower()
        return [v for n, v in self._items if n.lower() == lowered]

    def items(self) -> list[tuple[str, str]]:
        """All ``(name, value)`` pairs in insertion order."""
        return list(self._items)

    def to_dict(self) -> dict[str, str]:
        """Flatten into a plain dict (first value wins for duplicates)."""
        result: dict[str, str] = {}
        for name, value in self._items:
            result.setdefault(name, value)
        return result

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return self.get(name) is not None

    def __getitem__(self, name: str) -> str:
        value = self.get(name)
        if value is None:
            raise KeyError(name)
        return value

    def __setitem__(self, name: str, value: str) -> None:
        self.set(name, value)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Headers):
            return self._normalized() == other._normalized()
        return NotImplemented

    def _normalized(self) -> list[tuple[str, str]]:
        return [(n.lower(), v) for n, v in self._items]

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"
