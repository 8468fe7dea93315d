"""Script compilation cache: memoised lexer + parser output.

The scenario engine executes the same script sources over and over -- every
page load of an application re-runs its head scripts, every replayed attack
re-injects the same payload, every timer re-registers the same callbacks --
and the MiniScript front end (lexing + recursive-descent parsing) dominates
script execution cost for these short programs.

:class:`ScriptAstCache` memoises the front end keyed on the SHA-256 of the
source text.  Sharing one parsed :class:`~repro.scripting.ast_nodes.Program`
between executions is safe because the interpreter treats the AST as
read-only (exactly like a real engine sharing bytecode between realms): all
execution state lives in :class:`~repro.scripting.interpreter.Environment`
chains, never on the nodes.  Parse *errors* are memoised too -- a scenario
that replays a syntactically broken payload should not re-lex it a hundred
times just to rediscover the same :class:`ParseError`.

Entries are plain ASTs / code objects / exceptions with no handles on the
owning process; each worker process warms its own caches (see
:mod:`repro.browser.compile_cache`).  :meth:`~ScriptAstCache.reset_counters`
restarts the telemetry while keeping the entries warm.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from . import ast_nodes as ast
from .errors import ScriptError
from .parser import parse_script

#: Default number of distinct sources retained.
DEFAULT_AST_CACHE_SIZE = 512

#: Default number of distinct compiled code objects retained.
DEFAULT_CODE_CACHE_SIZE = 512

#: Default number of distinct static-analysis reports retained.
DEFAULT_REPORT_CACHE_SIZE = 512


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


class ScriptAstCache:
    """Bounded LRU of parsed programs keyed by source digest."""

    def __init__(self, maxsize: int = DEFAULT_AST_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError("AST cache maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, ast.Program | ScriptError]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def parse(self, source: str) -> ast.Program:
        """Parse ``source``, serving repeats from the cache.

        Raises exactly what :func:`~repro.scripting.parser.parse_script`
        raises for the same source -- a cached :class:`ParseError` is
        re-raised, so callers cannot tell a hit from a cold parse.
        """
        key = hashlib.sha256(source.encode("utf-8")).hexdigest()
        entries = self._entries
        cached = entries.get(key)
        if cached is not None:
            self.hits += 1
            entries.move_to_end(key)
            if isinstance(cached, ScriptError):
                raise _fresh_error(cached)
            return cached
        self.misses += 1
        try:
            program = parse_script(source)
        except ScriptError as error:
            self._store(key, error)
            raise
        self._store(key, program)
        return program

    def _store(self, key: str, value: "ast.Program | ScriptError") -> None:
        entries = self._entries
        if len(entries) >= self.maxsize:
            entries.popitem(last=False)
        entries[key] = value

    # -- introspection ---------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the hit/miss counters, keeping every entry.

        A measurement over an already-warm cache starts its *telemetry*
        cold (so the hit rate describes the measured traffic only) while
        the entries stay warm.
        """
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of parses served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, object]:
        """Counters for benchmark reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }

    def __len__(self) -> int:
        return len(self._entries)


class ScriptReportCache:
    """Bounded LRU of :class:`~repro.scripting.analysis.ScriptReport` values.

    Third compile-cache tier, alongside the AST and bytecode caches: where
    those memoise *how to run* a source, this memoises what the static
    analyzer *proves about* it.  A report depends only on the source text,
    so the same digest keying applies, and reports are frozen dataclasses of
    plain values -- fully process-portable, so a warmed report cache ships
    in warm-state snapshots exactly like the other tiers.

    Unlike the sibling caches this one never raises: a source that fails
    the front end still gets a (memoised) report with ``error`` set and an
    empty sink set, which is exact -- a script that does not parse executes
    nothing.
    """

    def __init__(self, maxsize: int = DEFAULT_REPORT_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError("report cache maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def report_for(self, source: str, *, parse=parse_script):
        """Analyze ``source``, serving repeats from the cache.

        ``parse`` is the front end used on a miss -- pass a bound
        :meth:`ScriptAstCache.parse` to share the AST tier with execution,
        so a screened run parses each distinct source once for all three
        consumers (analysis, walker, compiler).
        """
        from .analysis import analyze_source

        key = hashlib.sha256(source.encode("utf-8")).hexdigest()
        entries = self._entries
        cached = entries.get(key)
        if cached is not None:
            self.hits += 1
            entries.move_to_end(key)
            return cached
        self.misses += 1
        report = analyze_source(source, parse=parse)
        self._store(key, report)
        return report

    def _store(self, key: str, value) -> None:
        entries = self._entries
        if len(entries) >= self.maxsize:
            entries.popitem(last=False)
        entries[key] = value

    # -- introspection ---------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the hit/miss counters, keeping every entry (see
        :meth:`ScriptAstCache.reset_counters`)."""
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of analyses served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, object]:
        """Counters for benchmark reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }

    def __len__(self) -> int:
        return len(self._entries)


class ScriptCodeCache:
    """Bounded LRU of compiled :class:`CodeObject` keyed by source digest.

    Sibling of :class:`ScriptAstCache` one tier further down: where the AST
    cache memoises the front end (lex + parse), this memoises the *back*
    end (constant folding + bytecode lowering), so a warm execution goes
    straight from source text to the VM dispatch loop.  Sharing one
    :class:`~repro.scripting.compiler.CodeObject` between executions -- and
    between principals -- is safe for the same reason sharing the AST is:
    all execution state lives in environment chains.  The embedded inline
    caches are the one mutable part, and they only memoise which dispatch
    ladder branch a site took (keyed on the receiver's class); every hit
    still performs the fully mediated ``js_get``/``js_set``/``js_call``, so
    cached code cannot leak one principal's verdicts to another.

    Front-end errors are memoised here too (as fresh copies on every hit,
    see :func:`_fresh_error`) so a replayed broken payload costs one digest.
    """

    def __init__(self, maxsize: int = DEFAULT_CODE_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError("code cache maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def code_for(self, source: str, *, parse=parse_script):
        """Compile ``source`` to bytecode, serving repeats from the cache.

        ``parse`` is the front end to use on a miss -- pass a bound
        :meth:`ScriptAstCache.parse` to stack the two tiers (an AST-cache
        hit then feeds only the lowering pass).  Raises exactly what the
        front end or compiler raises for the same source.
        """
        from .compiler import compile_program

        key = hashlib.sha256(source.encode("utf-8")).hexdigest()
        entries = self._entries
        cached = entries.get(key)
        if cached is not None:
            self.hits += 1
            entries.move_to_end(key)
            if isinstance(cached, ScriptError):
                raise _fresh_error(cached)
            return cached
        self.misses += 1
        try:
            code = compile_program(parse(source))
        except ScriptError as error:
            self._store(key, error)
            raise
        self._store(key, code)
        return code

    def _store(self, key: str, value) -> None:
        entries = self._entries
        if len(entries) >= self.maxsize:
            entries.popitem(last=False)
        entries[key] = value

    # -- introspection ---------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the hit/miss counters, keeping every entry (see
        :meth:`ScriptAstCache.reset_counters`)."""
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of compilations served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, object]:
        """Counters for benchmark reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }

    def __len__(self) -> int:
        return len(self._entries)
