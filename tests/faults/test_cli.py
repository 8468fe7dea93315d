"""The ``python -m repro.faults`` CLI: its arguments, its exit code and its report file."""

from __future__ import annotations

import pytest

from repro.faults import __main__ as cli
from repro.faults.__main__ import main
from repro.scenarios.chaos import ChaosReport

#: The smallest matrix that still runs every property.
SMOKE = ["--count", "2", "--schedules", "1", "--overhead-repeats", "1"]


def test_default_run_writes_no_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main(SMOKE)  # the exit status hinges on a one-repeat overhead timing
    assert "fault report written" not in capsys.readouterr().out
    assert list(tmp_path.rglob("*")) == []


class TestRejectedInput:
    @pytest.mark.parametrize(
        ("flags", "named"),
        [
            (["--count", "0"], "--count"),
            (["--count", "-3"], "--count"),
            (["--schedules", "0"], "--schedules"),
            (["--overhead-repeats", "0"], "--overhead-repeats"),
            (["--rate", "-1"], "--rate"),
            (["--rate", "0"], "--rate"),
            (["--rate", "1.5"], "--rate"),
            (["--attack-ratio", "2"], "--attack-ratio"),
            (["--attack-ratio", "-0.1"], "--attack-ratio"),
        ],
    )
    def test_out_of_range_input_is_a_usage_error(self, flags, named, capsys):
        # Rejected before any matrix runs: nothing reaches stdout.
        with pytest.raises(SystemExit) as exit_info:
            main([*SMOKE, *flags])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
        assert "Traceback" not in captured.err


class TestExitCode:
    """The exit code is the report's verdict, injected faults included."""

    @pytest.fixture
    def stub_measurements(self, monkeypatch):
        def stub(*, injected: int, throughput_ok: bool = True) -> None:
            chaos = ChaosReport(seed=42, count=2, schedules=1, rate=0.15, storage="dict")
            chaos.faults = {"injected": {"network.dispatch": injected}} if injected else {}
            monkeypatch.setattr(cli, "run_chaos_matrix", lambda **_: chaos)
            monkeypatch.setattr(cli, "check_passivity", lambda: {"ok": True, "checks": []})
            monkeypatch.setattr(
                cli,
                "measure_throughput_vs_rate",
                lambda **_: [
                    {"rate": 0.15, "ok": throughput_ok, "scenarios_per_second": 1.0,
                     "injected": injected, "retries": 0},
                ],
            )
            monkeypatch.setattr(
                cli,
                "measure_disabled_overhead",
                lambda **_: {"ok": True, "overhead_percent": 0.0, "gate_percent": 5.0},
            )

        return stub

    def test_a_matrix_with_injected_faults_passes(self, stub_measurements, capsys):
        stub_measurements(injected=3)
        assert main(SMOKE) == 0
        assert "chaos matrix [ok]" in capsys.readouterr().out

    def test_a_matrix_that_injected_no_fault_fails(self, stub_measurements, capsys):
        stub_measurements(injected=0)
        assert main(SMOKE) == 1
        assert "chaos matrix [FAIL]" in capsys.readouterr().out

    def test_a_failed_throughput_point_fails(self, stub_measurements, capsys):
        stub_measurements(injected=3, throughput_ok=False)
        assert main(SMOKE) == 1
        assert "chaos matrix [FAIL]" in capsys.readouterr().out
