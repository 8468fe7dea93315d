"""CLI for the differential scenario engine.

Examples::

    # the acceptance run: 100 seeded scenarios across the full matrix
    python -m repro.scenarios --seed 42 --count 100 --matrix escudo,sop,none

    # the same range sharded over 4 worker processes (identical merged report)
    python -m repro.scenarios --seed 42 --count 200 --workers 4

    # replay one failing scenario by its token and dump its spec
    python -m repro.scenarios --replay 42:17 --spec

Failing specs are pinned as JSON entries into the regression corpus
(``tests/scenarios/corpus/`` by default; ``--corpus DIR`` overrides,
``--no-corpus`` disables) which the test suite auto-replays.

Exit status is non-zero when any scenario violates its invariant.  A
*suite* run writes the throughput artifact only when ``--bench-out PATH``
names one (``benchmarks/results/BENCH_scenarios.json`` is the committed
artifact's path); ``--replay`` runs a single scenario and writes none.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.faults.plan import FaultConfig

from .generator import ScenarioGenerator
from .oracle import DifferentialOracle
from .parallel import default_steal_chunk, run_suite_parallel, steal_chunks
from .runner import ScenarioRunner


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run randomized multi-user scenarios under a policy matrix "
        "and check the protected-vs-unprotected differential.",
    )
    parser.add_argument("--seed", default="42", help="suite seed (default: 42)")
    parser.add_argument("--count", type=int, default=100, help="number of scenarios (default: 100)")
    parser.add_argument(
        "--matrix",
        default="escudo,sop,none",
        help="comma-separated protection models (default: escudo,sop,none)",
    )
    parser.add_argument(
        "--attack-ratio",
        type=float,
        default=0.25,
        help="seeded probability a scenario embeds an attack (default: 0.25)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the run across N worker processes (default: 1; the merged "
        "report is byte-identical to the serial run of the same seed range)",
    )
    parser.add_argument(
        "--steal-chunk",
        type=int,
        default=0,
        metavar="N",
        help="scenario indices handed out per work-stealing queue pull "
        "(default: 0 = auto, roughly four pulls per worker)",
    )
    parser.add_argument(
        "--corpus",
        default="",
        metavar="DIR",
        help="where failing specs are pinned as regression entries "
        "(default: tests/scenarios/corpus, or $REPRO_CORPUS_DIR)",
    )
    parser.add_argument(
        "--no-corpus",
        action="store_true",
        help="do not pin failing specs into the regression corpus",
    )
    parser.add_argument(
        "--replay",
        default="",
        metavar="SEED:INDEX",
        help="re-run a single scenario from its replay token instead of a suite",
    )
    parser.add_argument("--spec", action="store_true", help="with --replay: print the scenario spec JSON")
    parser.add_argument(
        "--backend",
        choices=("dict", "sqlite"),
        default="dict",
        help="application storage backend (default: dict; sqlite runs the "
        "same matrix over the SQL persistence tier -- the report must be "
        "byte-identical either way)",
    )
    parser.add_argument(
        "--faults",
        type=float,
        default=0.0,
        metavar="RATE",
        help="arm the deterministic fault-injection plane at this per-site "
        "rate (network/storage/xhr; default: 0.0 = no plane)",
    )
    parser.add_argument(
        "--fault-seed",
        default="0",
        metavar="SEED",
        help="seed of the fault plane's deterministic schedule (default: 0)",
    )
    parser.add_argument(
        "--no-fault-retries",
        action="store_true",
        help="disable the resilience layer (retries/backoff); injected faults "
        "then surface as degraded runs instead of being healed",
    )
    parser.add_argument(
        "--crash-chunk",
        action="append",
        type=int,
        default=[],
        metavar="K",
        help="crash whichever worker claims steal-queue chunk K (0-based; "
        "repeatable; needs --workers > 1); the supervisor requeues the chunk "
        "and respawns a replacement -- the merged report stays "
        "byte-identical to the serial run",
    )
    parser.add_argument(
        "--bench-out",
        default="",
        metavar="PATH",
        help="write the suite's throughput JSON to PATH (default: no file; "
        "unused with --replay)",
    )
    parser.add_argument("--json", action="store_true", help="print the full report as JSON")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.steal_chunk < 0:
        parser.error("--steal-chunk must be 0 (auto) or positive")
    if not 0.0 <= args.attack_ratio <= 1.0:
        parser.error("--attack-ratio must be in [0, 1]")
    if not 0.0 <= args.faults <= 1.0:
        parser.error("--faults must be in [0, 1]")
    if args.crash_chunk:
        _check_crash_chunks(parser, args)
    return args


def _check_crash_chunks(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject a crash schedule the pool cannot honour, before any scenario runs.

    The run uses ``min(workers, count)`` workers, and a crash needs a pool of
    two or more; every ordinal must name a chunk of the steal queue.  Each
    case is a usage error: one line on stderr, exit status 2.
    """
    workers = min(args.workers, args.count)
    if workers < 2:
        parser.exit(
            2,
            f"{parser.prog}: error: --crash-chunk needs two workers, but --workers "
            f"{args.workers} --count {args.count} runs one worker\n",
        )
    chunk_size = args.steal_chunk or default_steal_chunk(args.count, workers)
    chunks = len(steal_chunks(args.count, chunk_size))
    bad = sorted(k for k in set(args.crash_chunk) if not 0 <= k < chunks)
    if bad:
        parser.exit(
            2,
            f"{parser.prog}: error: --crash-chunk {', '.join(map(str, bad))} out of "
            f"range: the steal queue holds chunks 0..{chunks - 1}\n",
        )


def _fault_config(args: argparse.Namespace) -> "FaultConfig | None":
    """The fault plane the flags arm (``None`` without ``--faults``)."""
    if args.faults <= 0.0:
        return None
    seed_text = args.fault_seed
    return FaultConfig.uniform(
        seed=int(seed_text) if seed_text.lstrip("-").isdigit() else seed_text,
        rate=args.faults,
        retries=not args.no_fault_retries,
    )


def _replay_one(args: argparse.Namespace) -> int:
    from .generator import parse_replay_token

    seed_text, _, _ = parse_replay_token(args.replay)
    generator = ScenarioGenerator(seed=seed_text, attack_ratio=args.attack_ratio)
    scenario = generator.replay(args.replay)
    # With --spec, stdout carries *only* the spec JSON (so it can be
    # redirected straight into a corpus pin); the verdict goes to stderr.
    report = (lambda *a, **kw: print(*a, file=sys.stderr, **kw)) if args.spec else print
    if args.spec:
        print(json.dumps(scenario.to_dict(), indent=2, sort_keys=True))
    faults = _fault_config(args)
    runner = ScenarioRunner(
        models=args.matrix,
        storage=args.backend,
        faults=faults,
    )
    runs = runner.run(scenario)
    verdict = DifferentialOracle().classify(scenario, runs)
    status = "ok" if verdict.ok else "FAIL"
    report(f"[{status}] {scenario.name} ({scenario.kind}): {verdict.reason}")
    for model, run in runs.items():
        line = (
            f"  {model:>6}: digest {run.digest[:12]} | {run.mediations} mediations "
            f"({run.denied} denied) | {run.pages_loaded} pages"
        )
        if faults is not None:
            injected = sum(run.faults.get("injected", {}).values())
            line += f" | {injected} faults injected"
        report(line)
    return 0 if verdict.ok else 1


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.replay:
        return _replay_one(args)

    # Suite runs always go through the sharded executor: with --workers 1 its
    # one worker loop runs in-process (no pool) over the same steal chunks,
    # so every worker count shares one code path and one merged report.
    result = run_suite_parallel(
        seed=args.seed,
        count=args.count,
        models=args.matrix,
        attack_ratio=args.attack_ratio,
        workers=args.workers,
        corpus_dir=args.corpus or None,
        persist_failures=not args.no_corpus,
        storage=args.backend,
        steal_chunk=args.steal_chunk or None,
        faults=_fault_config(args),
        crash_schedule=args.crash_chunk or None,
    )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(result.summary())

    if args.bench_out:
        # The bench layer's one JSON writer, so the CLI and
        # benchmarks/bench_scenarios.py emit an identical artifact.
        from repro.bench.reporting import write_json_report

        path = write_json_report(result.as_dict(), Path(args.bench_out))
        # With --json, stdout must stay a single parseable JSON document.
        print(
            f"[throughput report written to {path}]",
            file=sys.stderr if args.json else sys.stdout,
        )
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
