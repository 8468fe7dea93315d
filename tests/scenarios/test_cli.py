"""The ``python -m repro.scenarios`` CLI: worker sharding, corpus, replay."""

from __future__ import annotations

import json

import pytest

from repro.faults.plan import FaultConfig
from repro.scenarios.__main__ import _fault_config, _parse_args, main


class TestSuiteRuns:
    def test_sharded_suite_run_writes_the_bench_artifact(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        rc = main(
            [
                "--seed", "42",
                "--count", "4",
                "--workers", "2",
                "--corpus", str(tmp_path / "corpus"),
                "--bench-out", str(bench),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario suite" in out
        assert "2 worker(s)" in out
        payload = json.loads(bench.read_text(encoding="utf-8"))
        assert payload["workers"] == 2
        assert len(payload["shards"]) == 2
        assert payload["ok"] is True

    def test_failing_suite_exits_nonzero_and_pins_the_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        rc = main(
            [
                "--seed", "42",
                "--count", "2",
                "--attack-ratio", "1.0",
                "--matrix", "sop,none",
                "--workers", "2",
                "--corpus", str(corpus),
            ]
        )
        assert rc == 1
        assert list(corpus.glob("*.json")), "failing specs must be pinned"
        assert "pinned failing spec" in capsys.readouterr().out

    def test_no_corpus_disables_pinning(self, tmp_path):
        corpus = tmp_path / "corpus"
        rc = main(
            [
                "--seed", "42",
                "--count", "2",
                "--attack-ratio", "1.0",
                "--matrix", "sop,none",
                "--no-corpus",
                "--corpus", str(corpus),
            ]
        )
        assert rc == 1
        assert not corpus.exists()

    def test_json_report_mode(self, tmp_path, capsys):
        rc = main(["--seed", "42", "--count", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2

    def test_json_report_carries_the_scheduling_efficiency_inputs(self, capsys):
        # CI's scheduling-efficiency gate reads exactly these fields.
        rc = main(["--seed", "42", "--count", "4", "--workers", "2", "--no-corpus", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"] == 2
        assert payload["duration_s"] > 0
        assert len(payload["shards"]) == 2
        busy = sum(shard["duration_s"] for shard in payload["shards"])
        assert busy > 0
        assert busy / (payload["workers"] * payload["duration_s"]) > 0

    def test_default_run_writes_no_bench_artifact(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["--seed", "42", "--count", "2", "--no-corpus"])
        assert rc == 0
        assert "throughput report written" not in capsys.readouterr().out
        assert list(tmp_path.rglob("*")) == []

    def test_steal_chunk_flag(self, capsys):
        rc = main(
            [
                "--seed", "42",
                "--count", "4",
                "--workers", "2",
                "--steal-chunk", "1",
                "--no-corpus",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steal_chunk"] == 1
        # Four single-index chunks were pulled across the two workers.
        assert sum(shard["chunks_stolen"] for shard in payload["shards"]) == 4

    def test_steal_chunk_flag_with_one_worker(self, capsys):
        rc = main(
            [
                "--seed", "42",
                "--count", "4",
                "--workers", "1",
                "--steal-chunk", "2",
                "--no-corpus",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steal_chunk"] == 2
        assert payload["shards"][0]["chunks_stolen"] == 2

    def test_crash_chunk_flag_recovers(self, capsys):
        rc = main(
            [
                "--seed", "7",
                "--count", "6",
                "--workers", "2",
                "--crash-chunk", "1",
                "--no-corpus",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["respawns"] == 1
        assert len(payload["crashed_workers"]) == 1


class TestRejectedInput:
    @pytest.mark.parametrize(
        ("flags", "named"),
        [
            (["--count", "-5"], "--count"),
            (["--count", "0"], "--count"),
            (["--workers", "0"], "--workers"),
            (["--steal-chunk", "-1"], "--steal-chunk"),
            (["--attack-ratio", "2"], "--attack-ratio"),
            (["--attack-ratio", "-0.1"], "--attack-ratio"),
            (["--faults", "1.5"], "--faults"),
            (["--faults", "-0.5"], "--faults"),
            (["--crash-chunk", "0"], "--crash-chunk"),
        ],
    )
    def test_out_of_range_input_is_a_usage_error(self, flags, named, capsys):
        # A one-scenario base run, so an accepted value would finish quickly.
        with pytest.raises(SystemExit) as exit_info:
            main(["--seed", "42", "--count", "1", "--no-corpus", *flags])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("flags", "named"),
        [
            (["--count", "1", "--workers", "2", "--crash-chunk", "0"], "--count 1 runs one worker"),
            (["--count", "3", "--workers", "2", "--crash-chunk", "5"], "chunks 0..2"),
            (["--count", "3", "--workers", "2", "--crash-chunk", "-1"], "chunks 0..2"),
            (
                ["--count", "10", "--workers", "2", "--steal-chunk", "2", "--crash-chunk", "5"],
                "chunks 0..4",
            ),
        ],
        ids=["clamped-to-one-worker", "chunk-out-of-range", "negative-chunk", "sized-by-steal-chunk"],
    )
    def test_unhonourable_crash_schedule_is_a_usage_error(self, flags, named, capsys):
        # Rejected before any scenario runs: nothing reaches stdout.
        with pytest.raises(SystemExit) as exit_info:
            main(["--seed", "42", "--no-corpus", *flags])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "--crash-chunk" in lines[0] and named in lines[0]

    def test_the_last_chunk_of_the_queue_is_accepted(self):
        args = _parse_args(["--count", "3", "--workers", "2", "--crash-chunk", "2"])
        assert args.crash_chunk == [2]


class TestReplay:
    def test_replay_spec_emits_clean_json_on_stdout(self, capsys):
        rc = main(["--replay", "42:0", "--spec"])
        assert rc == 0
        captured = capsys.readouterr()
        spec = json.loads(captured.out)  # stdout is only the spec
        assert spec["replay"] == "42:0"
        assert "[ok]" in captured.err  # the verdict went to stderr

    def test_replay_without_spec_prints_the_verdict(self, capsys):
        rc = main(["--replay", "42:0"])
        assert rc == 0
        assert "[ok]" in capsys.readouterr().out

    def test_replay_arms_the_fault_plane_from_the_flags(self, capsys):
        rc = main(["--replay", "42:3", "--faults", "0.3"])
        assert rc == 0
        model_lines = capsys.readouterr().out.splitlines()[1:]
        assert len(model_lines) == 3
        for line in model_lines:
            injected = line.rpartition("|")[2].split()
            assert injected[1:] == ["faults", "injected"], line
            assert int(injected[0]) > 0, line

    def test_replay_without_faults_injects_none(self, capsys):
        rc = main(["--replay", "42:3"])
        assert rc == 0
        assert "faults injected" not in capsys.readouterr().out

    def test_fault_flags_build_the_plane_both_paths_arm(self):
        assert _fault_config(_parse_args(["--replay", "42:3"])) is None
        args = _parse_args(
            ["--replay", "42:3", "--faults", "0.3", "--fault-seed", "7", "--no-fault-retries"]
        )
        assert _fault_config(args) == FaultConfig.uniform(seed=7, rate=0.3, retries=False)
        args = _parse_args(["--faults", "0.1", "--fault-seed", "nightly"])
        assert _fault_config(args) == FaultConfig.uniform(seed="nightly", rate=0.1)
