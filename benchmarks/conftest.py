"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  Besides
the timing numbers collected by ``pytest-benchmark``, each benchmark writes
the regenerated table to ``benchmarks/results/<name>.txt`` so the data
survives pytest's output capture and can be diffed against the committed copy.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def report_writer():
    """Write a named report file under ``benchmarks/results/`` (and echo it)."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[report written to {path}]")
        return path

    return write
