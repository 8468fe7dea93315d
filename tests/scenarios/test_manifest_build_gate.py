"""A timing-free gate on load-manifest rebuilds.

Every phpBB and PHP-Calendar page's trusted poller writes its unread
badge's ``textContent``.  That text-for-text swap updates the served page's
load manifest in place, so a later form post finds its form and page close
releases the tree without a walk.  ``run_suite(seed=42, count=50)`` then
builds 108 manifests (316 when every mutation dropped the manifest).  The
gate counts ``LoadManifest.build`` calls (no clock involved) and allows 120.
"""

from __future__ import annotations

from repro.dom.document import LoadManifest
from repro.scenarios import run_suite


def test_the_suite_builds_at_most_120_load_manifests(monkeypatch):
    builds = 0
    build = LoadManifest.build.__func__

    def counted_build(cls, document):
        nonlocal builds
        builds += 1
        return build(cls, document)

    monkeypatch.setattr(LoadManifest, "build", classmethod(counted_build))
    run_suite(seed=42, count=50)
    assert builds <= 120, f"{builds} load manifests built"
