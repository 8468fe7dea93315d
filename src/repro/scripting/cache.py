"""Script compilation cache: one entry per source digest.

The scenario engine executes the same script sources over and over -- every
page load of an application re-runs its head scripts, every replayed attack
re-injects the same payload, every timer re-registers the same callbacks --
so everything derived from a source is memoised on the SHA-256 of its text.

:class:`ScriptCache` is one bounded LRU.  Each entry holds the three results
a source can need, each filled the first time it is asked for:

* the front-end result -- a parsed :class:`~repro.scripting.ast_nodes.Program`
  or the memoised :class:`ScriptError` (the AST walker runs it);
* the bytecode -- a :class:`~repro.scripting.compiler.CodeObject` or the
  memoised compile error (the VM runs it);
* the :class:`~repro.scripting.analysis.ScriptReport` -- what the static
  analyzer proves about the source (the soundness screen reads it).

Bytecode and report are built from the entry's own program, so a source is
lexed and parsed at most once per entry whichever result is asked for first.
Sharing one program or code object between executions -- and between
principals -- is safe because all execution state lives in
:class:`~repro.scripting.interpreter.Environment` chains, never on the
nodes.  The code object's inline caches are the one mutable part, and they
only memoise which dispatch-ladder branch a site took (keyed on the
receiver's class); every hit still performs the fully mediated
``js_get``/``js_set``/``js_call``, so cached code cannot leak one
principal's verdicts to another.  A hit on a memoised error raises a fresh
copy (see :func:`_fresh_error`), so callers cannot tell a hit from a cold
parse, and a replayed broken payload costs one digest.

The hit/miss counters are kept per result, under the names
:meth:`repro.browser.compile_cache.CompileCaches.as_dict` reports:
``scripts`` counts front-end lookups (direct, or made to build bytecode or
a report), ``code`` bytecode lookups and ``reports`` report lookups.
:meth:`~ScriptCache.reset_counters` restarts them while keeping the entries
warm.  Each worker process warms its own cache.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from . import ast_nodes as ast
from .analysis import ScriptReport, analyze_program, error_report
from .compiler import CodeObject, compile_program
from .errors import ScriptError
from .parser import parse_script

#: Default number of distinct sources retained.
DEFAULT_SCRIPT_CACHE_SIZE = 512

#: The per-result counters, named as the compile-cache stack reports them.
TIERS = ("scripts", "code", "reports")


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


class _Entry:
    """Everything derived from one source; each slot is filled on first use."""

    __slots__ = ("digest", "program", "code", "report")

    def __init__(self, digest: str) -> None:
        self.digest = digest
        self.program: "ast.Program | ScriptError | None" = None
        self.code: "CodeObject | ScriptError | None" = None
        self.report: ScriptReport | None = None


class ScriptCache:
    """Bounded LRU of per-source compile results keyed by source digest."""

    def __init__(self, maxsize: int = DEFAULT_SCRIPT_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError("script cache maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: The last source digested and its digest.  A screened execution
        #: asks for the report and then the code of the same string object;
        #: the second lookup reuses the digest instead of re-hashing.
        self._last_source: str | None = None
        self._last_digest = ""
        self.hits = dict.fromkeys(TIERS, 0)
        self.misses = dict.fromkeys(TIERS, 0)

    # -- lookups -----------------------------------------------------------------------

    def parse(self, source: str) -> ast.Program:
        """Parse ``source``, serving repeats from the cache.

        Raises exactly what :func:`~repro.scripting.parser.parse_script`
        raises for the same source.
        """
        return self._program(self._entry(source), source)

    def code_for(self, source: str) -> CodeObject:
        """Compile ``source`` to bytecode, serving repeats from the cache.

        Raises exactly what the front end or compiler raises for the same
        source.
        """
        entry = self._entry(source)
        code = entry.code
        if code is None:
            self.misses["code"] += 1
            try:
                code = compile_program(self._program(entry, source))
            except ScriptError as error:
                entry.code = error
                raise
            entry.code = code
            return code
        self.hits["code"] += 1
        if isinstance(code, ScriptError):
            raise _fresh_error(code)
        return code

    def report_for(self, source: str) -> ScriptReport:
        """Analyze ``source``, serving repeats from the cache.

        Never raises: a source the front end rejects gets a report with
        ``error`` set and an empty sink set, which is exact -- a script that
        does not parse executes nothing.
        """
        entry = self._entry(source)
        report = entry.report
        if report is None:
            self.misses["reports"] += 1
            try:
                program = self._program(entry, source)
            except ScriptError as error:
                report = error_report(entry.digest, error)
            else:
                report = analyze_program(program, digest=entry.digest)
            entry.report = report
        else:
            self.hits["reports"] += 1
        return report

    def _entry(self, source: str) -> _Entry:
        if source is self._last_source:
            digest = self._last_digest
        else:
            digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
            self._last_source, self._last_digest = source, digest
        entries = self._entries
        entry = entries.get(digest)
        if entry is None:
            if len(entries) >= self.maxsize:
                entries.popitem(last=False)
            entry = entries[digest] = _Entry(digest)
        else:
            entries.move_to_end(digest)
        return entry

    def _program(self, entry: _Entry, source: str) -> ast.Program:
        program = entry.program
        if program is None:
            self.misses["scripts"] += 1
            try:
                program = parse_script(source)
            except ScriptError as error:
                entry.program = error
                raise
            entry.program = program
            return program
        self.hits["scripts"] += 1
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
        """Counters per result (``scripts``/``code``/``reports``) for reports."""
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
