"""Plain-text reporting for the benchmark harness.

Every benchmark prints the table or series it regenerates in a format close
to the paper's, and writes the same text under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from .timing import OverheadRow, average_overhead


def write_json_report(payload: dict, path: Path | str) -> Path:
    """Write ``payload`` as the JSON artifact at ``path`` and return the path.

    The one writer of every ``BENCH_*.json``: two-space indent, sorted keys
    and a trailing newline, so a regenerated artifact diffs cleanly.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return target


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], *, title: str = "") -> str:
    """Render an ASCII table with aligned columns."""
    string_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in string_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    divider = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(divider)
    for row in string_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_figure4(rows: list[OverheadRow]) -> str:
    """The Figure-4 style table: per-scenario times and relative overhead.

    The time columns show each variant's median over N loads.  The overhead
    is the median of the N per-pair ratios (each pair is one baseline load
    and the ESCUDO load right after it), so it is close to, but not exactly,
    the ratio of the two time columns.
    """
    table_rows = [
        (
            row.scenario,
            row.elements,
            row.ac_tags,
            f"{row.without_escudo.median_ms:.3f}",
            f"{row.with_escudo.median_ms:.3f}",
            f"{row.overhead_percent:+.2f}%",
        )
        for row in rows
    ]
    repetitions = rows[0].without_escudo.repetitions if rows else 0
    table = format_table(
        ("scenario", "elements", "AC tags",
         f"without ESCUDO (ms, median of {repetitions})",
         f"with ESCUDO (ms, median of {repetitions})",
         "overhead (median pair)"),
        table_rows,
        title="Figure 4: parse + render time per scenario",
    )
    return table + f"\naverage overhead: {average_overhead(rows):+.2f}% (paper: ~5.09%)"


def format_defense_matrix(results_by_model: dict[str, list]) -> str:
    """The Section 6.4 defence-effectiveness summary."""
    rows = []
    names = [r.attack_name for r in next(iter(results_by_model.values()))]
    per_model = {
        model: {r.attack_name: r for r in results}
        for model, results in results_by_model.items()
    }
    for name in names:
        row = [name]
        for model in results_by_model:
            result = per_model[model][name]
            row.append("SUCCEEDED" if result.succeeded else "neutralized")
        rows.append(row)
    headers = ["attack"] + [f"under {model}" for model in results_by_model]
    return format_table(headers, rows, title="Defense effectiveness (Section 6.4)")


def format_policy_table(title: str, columns: Sequence[str], ring_row: Sequence[object],
                        acl_rows: dict[str, Sequence[object]]) -> str:
    """Render a Table-3/Table-5 style configuration table."""
    rows = [["Ring"] + list(ring_row)]
    for operation, limits in acl_rows.items():
        rows.append([f"{operation} access"] + [f"<= {limit}" for limit in limits])
    return format_table(["configuration"] + list(columns), rows, title=title)
