"""Fixtures shared by the webapps tests."""

from __future__ import annotations

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(cls, name)`` records every call of ``cls.name``.

    Patch before building an application: the route table binds its
    handlers at construction.  The returned list grows by one ``name`` per
    call, so a test sees how many requests the memo did not serve.
    """

    def install(cls, name: str) -> list[str]:
        calls: list[str] = []
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
        return calls

    return install
