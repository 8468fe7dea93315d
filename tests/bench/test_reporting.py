"""The one JSON artifact writer keeps every committed artifact's bytes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.reporting import write_json_report

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

#: The artifacts written through ``write_json_report``: every committed
#: ``BENCH_*.json`` except the pinned ``BENCH_scenarios_seed.json`` baseline.
ARTIFACTS = (
    "BENCH_compile_cache.json",
    "BENCH_faults.json",
    "BENCH_scenarios.json",
    "BENCH_storage.json",
)


@pytest.mark.parametrize("name", ARTIFACTS)
def test_rewriting_a_committed_artifact_reproduces_its_bytes(name, tmp_path):
    committed = (RESULTS / name).read_bytes()
    path = write_json_report(json.loads(committed), tmp_path / "nested" / name)
    assert path == tmp_path / "nested" / name
    assert path.read_bytes() == committed
