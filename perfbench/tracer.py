"""Outside-in span recorder for the benchmark.

The program under test carries no tracing of its own.  A :class:`Tracer`
wraps the public functions at layer boundaries with timing shims, installed
by the benchmark and removed again when the run ends:

* a module-level function is patched at every *use site*: each loaded
  ``repro`` module whose global of that name is the function.  Callers that
  did ``from x import f`` look ``f`` up in their own module, so patching
  only the defining module would miss them;
* a method is patched on the class that defines it.

Every wrapped call is a span.  A span's self time is its duration minus the
duration of the wrapped calls nested inside it.  Per-boundary aggregates
(calls, self and inclusive time, a count derived from the call, and -- for
boundaries asked for it -- every single duration) are kept in memory and
read out with :meth:`Tracer.snapshot` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Boundary:
    """One named layer boundary and the callables it covers.

    ``targets`` are ``"module:qualname"`` strings: ``"m:f"`` is a function
    (patched at every use site), ``"m:Class.method"`` a method (patched on
    ``Class``).  Several targets may share one boundary, e.g. the same
    operation on two storage backends.  ``timed=False`` counts calls only
    (used for generators, whose work happens after the call returns).
    ``count`` maps ``(args, result)`` to a number added to the boundary's
    count after each call.
    """

    name: str
    targets: tuple[str, ...]
    timed: bool = True
    count: Callable | None = None


class Stat:
    """Running aggregate of one boundary."""

    __slots__ = ("calls", "self_s", "total_s", "count", "samples")

    def __init__(self, keep_samples: bool) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.count = 0
        self.samples: list[float] | None = [] if keep_samples else None

    def reset(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.count = 0
        if self.samples is not None:
            self.samples.clear()

    def as_dict(self) -> dict:
        data = {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "count": self.count,
        }
        if self.samples is not None:
            data["samples"] = list(self.samples)
        return data


class Tracer:
    """Installs boundary wrappers and aggregates their spans.

    ``samples`` names the boundaries whose per-call durations are kept (the
    end-to-end latency probe); every other boundary keeps aggregates only,
    so memory stays bounded however long the run is.
    """

    def __init__(self, boundaries, *, samples=()) -> None:
        self.boundaries = tuple(boundaries)
        keep = set(samples)
        self.stats = {b.name: Stat(b.name in keep) for b in self.boundaries}
        #: ``_stack[0]`` accumulates the time covered by root spans (spans
        #: with no wrapped caller); deeper entries accumulate the nested
        #: time of each open span.
        self._stack: list[float] = [0.0]
        #: ``_root_self[0]`` accumulates the self time of the root spans.
        self._root_self: list[float] = [0.0]
        #: ``(owner, attribute, original)`` per patched attribute.
        self._patches: list[tuple[object, str, object]] = []
        #: Targets that do not exist in the program (reported, never fatal).
        self.missing: list[str] = []

    # -- aggregates ----------------------------------------------------------------

    @property
    def covered_s(self) -> float:
        """Seconds spent inside root spans since the last reset."""
        return self._stack[0]

    def reset(self) -> None:
        """Zero every aggregate in place (the installed wrappers keep them)."""
        for stat in self.stats.values():
            stat.reset()
        del self._stack[1:]
        self._stack[0] = 0.0
        self._root_self[0] = 0.0

    def snapshot(self) -> dict:
        """Plain-data copy of every aggregate, the time covered by root
        spans, and the part of it that is the root spans' own self time."""
        return {
            "covered_s": self.covered_s,
            "root_self_s": self._root_self[0],
            "stats": {name: stat.as_dict() for name, stat in self.stats.items()},
        }

    # -- wrappers --------------------------------------------------------------------

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        stat = self.stats[boundary.name]
        count = boundary.count
        if not boundary.timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        root_self = self._root_self
        clock = time.perf_counter
        samples = stat.samples

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stack[-1] += elapsed
                if len(stack) == 1:
                    root_self[0] += elapsed - nested
                stat.calls += 1
                stat.self_s += elapsed - nested
                stat.total_s += elapsed
                if samples is not None:
                    samples.append(elapsed)
            if count is not None:
                stat.count += count(args, result)
            return result

        return timed

    # -- install / restore ---------------------------------------------------------------

    def install(self) -> None:
        """Patch every boundary target; unknown targets go to :attr:`missing`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for boundary in self.boundaries:
            for target in boundary.targets:
                sites = _resolve(target)
                if sites is None:
                    self.missing.append(target)
                    continue
                original, owners = sites
                wrapper = self._wrap(boundary, original)
                for owner, attribute in owners:
                    self._patches.append((owner, attribute, original))
                    setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _resolve(target: str):
    """``(original callable, [(owner, attribute), ...])`` or ``None`` if absent."""
    module_name, _, qualname = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner_name, _, attribute = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        if owner is None or attribute not in vars(owner):
            return None
        return vars(owner)[attribute], [(owner, attribute)]
    original = getattr(module, attribute, None)
    if original is None:
        return None
    owners = [
        (loaded, attribute)
        for name, loaded in list(sys.modules.items())
        if loaded is not None
        and (name == "repro" or name.startswith("repro."))
        and vars(loaded).get(attribute) is original
    ]
    return original, owners


def merge_snapshots(snapshots) -> dict:
    """Sum several :meth:`Tracer.snapshot` results (e.g. one per pool worker)."""
    merged: dict = {"covered_s": 0.0, "root_self_s": 0.0, "stats": {}}
    for snap in snapshots:
        merged["covered_s"] += snap["covered_s"]
        merged["root_self_s"] += snap["root_self_s"]
        for name, stat in snap["stats"].items():
            into = merged["stats"].setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0}
            )
            for key in ("calls", "self_s", "total_s", "count"):
                into[key] += stat[key]
            if "samples" in stat:
                into.setdefault("samples", []).extend(stat["samples"])
    return merged
