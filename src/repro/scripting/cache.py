"""Script compilation cache: one entry per source digest.

The scenario engine executes the same script sources over and over -- every
page load of an application re-runs its head scripts, every replayed attack
re-injects the same payload, every timer re-registers the same callbacks --
so the front-end result of a source is memoised on the SHA-256 of its text.

:class:`ScriptCache` is one bounded LRU.  Each entry holds the front-end
result -- a parsed :class:`~repro.scripting.ast_nodes.Program` or the
memoised :class:`ScriptError` -- filled the first time it is asked for.
Sharing one program between executions -- and between principals -- is
safe because all execution state lives in
:class:`~repro.scripting.interpreter.Environment` chains, never on the
nodes.  A hit on a memoised error raises a fresh copy (see
:func:`_fresh_error`), so callers cannot tell a hit from a cold parse, and
a replayed broken payload costs one digest.

The hit/miss counters are reported under the ``scripts`` key of
:meth:`repro.browser.compile_cache.CompileCaches.as_dict`.
:meth:`~ScriptCache.reset_counters` restarts them while keeping the entries
warm.  Each worker process warms its own cache.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from . import ast_nodes as ast
from .errors import ScriptError
from .parser import parse_script

#: Default number of distinct sources retained.
DEFAULT_SCRIPT_CACHE_SIZE = 512

#: The per-result counters, named as the compile-cache stack reports them.
TIERS = ("scripts",)


def _fresh_error(error: ScriptError) -> ScriptError:
    """Rebuild a cached error for re-raising.

    Re-raising the *same* exception object on every cache hit makes Python
    attach a fresh ``__traceback__`` to the shared instance each time, so
    traceback chains from prior executions accumulate on (and leak through)
    the cache entry.  A hit therefore raises an equal-but-fresh copy.
    """
    copy = error.__class__(error.message, error.line, error.column)
    copy.__cause__ = None
    return copy


class ScriptCache:
    """Bounded LRU of per-source front-end results keyed by source digest."""

    def __init__(self, maxsize: int = DEFAULT_SCRIPT_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError("script cache maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, ast.Program | ScriptError]" = OrderedDict()
        self.hits = dict.fromkeys(TIERS, 0)
        self.misses = dict.fromkeys(TIERS, 0)

    # -- lookups -----------------------------------------------------------------------

    def parse(self, source: str) -> ast.Program:
        """Parse ``source``, serving repeats from the cache.

        Raises exactly what :func:`~repro.scripting.parser.parse_script`
        raises for the same source.
        """
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        entries = self._entries
        program = entries.get(digest)
        if program is None:
            self.misses["scripts"] += 1
            if len(entries) >= self.maxsize:
                entries.popitem(last=False)
            try:
                program = entries[digest] = parse_script(source)
            except ScriptError as error:
                entries[digest] = error
                raise
            return program
        self.hits["scripts"] += 1
        entries.move_to_end(digest)
        if isinstance(program, ScriptError):
            raise _fresh_error(program)
        return program

    # -- introspection ---------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero every hit/miss counter, keeping every entry.

        A measurement over an already-warm cache starts its *telemetry*
        cold (so the hit rates describe the measured traffic only) while
        the entries stay warm.
        """
        self.hits = dict.fromkeys(TIERS, 0)
        self.misses = dict.fromkeys(TIERS, 0)

    def as_dict(self) -> dict[str, dict[str, object]]:
        """Counters under the ``scripts`` key, for reports."""
        size = len(self._entries)
        payload = {}
        for tier in TIERS:
            hits, misses = self.hits[tier], self.misses[tier]
            payload[tier] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "size": size,
                "maxsize": self.maxsize,
            }
        return payload

    def __len__(self) -> int:
        return len(self._entries)
