"""Golden parity pin for the differential suite.

The SHA-256 of the canonical ``run_suite(seed=42, count=40).parity_dict()``
JSON is fixed here.  Every verdict, digest, mediation and denial count of
the suite feeds the hash, so a change that alters a single mediation (a
stale DOM index serving the wrong element, a script that no longer runs)
fails tier-1 directly.  The pipelines that must agree byte for byte -- VM
and walker engines, dict and SQLite storage, warm and cold compile caches
-- are each pinned to the same digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import run_suite

GOLDEN_PARITY_SHA256 = "750f2eac68454031d54f757e99582ce866609f676ea037189d034a6b6abbfadc"


def _parity_sha256(**options) -> str:
    result = run_suite(seed=42, count=40, **options)
    canonical = json.dumps(result.parity_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"script_engine": "walker"},
        {"storage": "sqlite"},
        {"compile_caches": False},
    ],
    ids=["default", "walker", "sqlite", "cold-caches"],
)
def test_suite_parity_digest_matches_golden(options):
    assert _parity_sha256(**options) == GOLDEN_PARITY_SHA256
