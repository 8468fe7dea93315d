"""The ``python -m repro.faults`` CLI writes its report only where asked."""

from __future__ import annotations

from repro.faults.__main__ import main

#: The smallest matrix that still runs every property.
SMOKE = ["--count", "2", "--schedules", "1", "--overhead-repeats", "1"]


def test_default_run_writes_no_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main(SMOKE)  # the exit status hinges on a one-repeat overhead timing
    assert "fault report written" not in capsys.readouterr().out
    assert list(tmp_path.rglob("*")) == []
