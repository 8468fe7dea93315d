"""Order statistics, memory and the environment stamp."""

from __future__ import annotations

import math
import os
import platform
import resource
import sqlite3
import statistics
import sys


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def summary(values) -> dict:
    """``n``, median and quartiles of a sample (quartiles need two values)."""
    values = list(values)
    if not values:
        return {"n": 0}
    data = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        data.update(q1=q1, q3=q3)
    return data


def peak_rss_mb() -> float:
    """Peak resident set size of this process."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return kib / (1024.0 * 1024.0) if sys.platform == "darwin" else kib / 1024.0


def environment(git_rev: str) -> dict:
    """What the numbers were measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "git_rev": git_rev,
    }
