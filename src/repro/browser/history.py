"""Browser state: history and visited-link information.

The paper mandatorily assigns internal browser state to ring 0 -- scripts
cannot read or manipulate it unless the application put them in ring 0,
which closes the history-sniffing attacks cited in the paper.  The state
itself is ordinary bookkeeping; the *objects* exposed for mediation are
ring-0 security contexts labelled with the object's name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.context import SecurityContext
from repro.core.origin import Origin
from repro.http.url import Url


@dataclass
class HistoryEntry:
    """One visited URL."""

    url: Url
    title: str = ""
    sequence: int = 0


class BrowserHistory:
    """Navigation history plus the visited-link set."""

    def __init__(self) -> None:
        self._entries: list[HistoryEntry] = []
        self._visited: set[str] = set()
        self._position = -1
        self._sequence = 0

    # -- recording -----------------------------------------------------------------

    def record_visit(self, url: Url, title: str = "") -> HistoryEntry:
        """Append a visit (truncating any forward history)."""
        self._sequence += 1
        entry = HistoryEntry(url=url, title=title, sequence=self._sequence)
        del self._entries[self._position + 1 :]
        self._entries.append(entry)
        self._position = len(self._entries) - 1
        self._visited.add(str(url))
        return entry

    # -- navigation ------------------------------------------------------------------

    def back(self) -> HistoryEntry | None:
        """Move back one entry, returning it (or ``None`` at the oldest)."""
        if self._position <= 0:
            return None
        self._position -= 1
        return self._entries[self._position]

    def forward(self) -> HistoryEntry | None:
        """Move forward one entry, returning it (or ``None`` at the newest)."""
        if self._position >= len(self._entries) - 1:
            return None
        self._position += 1
        return self._entries[self._position]

    @property
    def current(self) -> HistoryEntry | None:
        """The entry currently displayed."""
        if 0 <= self._position < len(self._entries):
            return self._entries[self._position]
        return None

    # -- queries -----------------------------------------------------------------------

    def is_visited(self, url: Url | str) -> bool:
        """Whether a URL has been visited in this session."""
        return str(url) in self._visited

    @property
    def entries(self) -> list[HistoryEntry]:
        """Every recorded entry, oldest first."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # -- mediation objects ------------------------------------------------------------------

    def protected_objects(self, origin: Origin) -> dict[str, SecurityContext]:
        """Ring-0 browser-state contexts for mediation against ``origin``'s page.

        Browser state is mandatorily ring 0 and not configurable by the
        application; each context is labelled with its object's name.
        """
        return {name: SecurityContext.for_infrastructure(origin, name) for name in ("history", "visited-links")}
