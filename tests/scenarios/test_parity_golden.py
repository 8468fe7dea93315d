"""Golden parity pins for the differential suite.

The SHA-256 of the canonical ``run_suite(seed=42, count=40).parity_dict()``
JSON is fixed here, and so is the SHA-256 over every decision record the
reference monitors of ``run_suite(seed=42, count=50)`` log, in order.  Every verdict, digest, mediation and denial count of
the suite feeds the hash, so a change that alters a single mediation (a
stale DOM index serving the wrong element, a script that no longer runs)
fails tier-1 directly.  The pipelines that must agree byte for byte --
dict and SQLite storage, warm and cold compile caches -- are each pinned to
the same digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.monitor import AuditLog
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
        {"storage": "sqlite"},
        {"compile_caches": False},
    ],
    ids=["default", "sqlite", "cold-caches"],
)
def test_suite_parity_digest_matches_golden(options):
    assert _parity_sha256(**options) == GOLDEN_PARITY_SHA256


#: ``(decisions logged, SHA-256 over their canonical ``as_dict()`` JSON lines)``
#: for ``run_suite(seed=42, count=50)``: every field of every decision,
#: rule outcome details included, in the order the monitors record them.
GOLDEN_DECISIONS = {
    "default": (1011, "59b899a13ce033d425d6fa5a84c76dc2cc1c5f2bbbcfafd331f00305b2f5c44f"),
    "cold-caches": (999, "86fc94c4b27a291b93deb54380d4d3c900f9b5f268732779ab0739dd5005149f"),
}


@pytest.mark.parametrize(
    "name, options", [("default", {}), ("cold-caches", {"compile_caches": False})], ids=["default", "cold-caches"]
)
def test_recorded_decisions_match_golden(name, options, monkeypatch):
    digest = hashlib.sha256()
    logged = []
    append = AuditLog.append

    def recording(self, decision):
        logged.append(decision)
        digest.update(json.dumps(decision.as_dict(), sort_keys=True, separators=(",", ":")).encode() + b"\n")
        append(self, decision)

    monkeypatch.setattr(AuditLog, "append", recording)
    run_suite(seed=42, count=50, **options)
    assert (len(logged), digest.hexdigest()) == GOLDEN_DECISIONS[name]
