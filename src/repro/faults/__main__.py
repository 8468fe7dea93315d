"""CLI for the fault-injection plane's chaos oracle and resilience benchmark.

Examples::

    # the acceptance run: a 200-schedule chaos matrix, the passivity
    # property, the throughput-vs-rate sweep and the <5% overhead gate,
    # written to the committed artifact
    python -m repro.faults --bench-out benchmarks/results/BENCH_faults.json

    # a quick smoke matrix (still checks every property; writes no file)
    python -m repro.faults --count 6 --schedules 2 --overhead-repeats 1

The report file is written only when ``--bench-out PATH`` names one.
Exit status is 1 when any property fails: an attack succeeding under
escudo with faults armed (fail-open), a benign scenario missing its
fault-free digest with retries on (divergence), a matrix that injected no
fault, a throughput-vs-rate point whose suite failed, a non-identical
armed-but-empty parity report (passivity), or the disabled-plane overhead
breaching its gate.  An out-of-range argument is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.faults_bench import (
    build_faults_report,
    measure_disabled_overhead,
    measure_throughput_vs_rate,
)
from repro.bench.reporting import write_json_report
from repro.scenarios.chaos import check_passivity, run_chaos_matrix

def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Run the chaos differential oracle (fail-closed, benign "
        "convergence, passivity) and the fault-plane benchmark.",
    )
    parser.add_argument("--seed", default="42", help="matrix seed (default: 42)")
    parser.add_argument(
        "--count", type=int, default=25, help="scenarios per schedule (default: 25)"
    )
    parser.add_argument(
        "--schedules",
        type=int,
        default=4,
        help="independent fault schedules; each runs with retries on and off, "
        "so the matrix covers count*schedules*2 fault runs (default: 4)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=0.15,
        help="per-site injection rate of the chaos matrix (default: 0.15)",
    )
    parser.add_argument(
        "--storage",
        choices=("dict", "sqlite"),
        default="dict",
        help="storage backend of the chaos matrix (default: dict; the "
        "passivity check always covers both)",
    )
    parser.add_argument(
        "--attack-ratio",
        type=float,
        default=0.5,
        help="attack share of the chaos scenarios (default: 0.5 -- chaos "
        "wants attacks dense, not rare)",
    )
    parser.add_argument(
        "--overhead-repeats",
        type=int,
        default=9,
        help="best-of-N repeats of the disabled-plane overhead A/B (default: 9)",
    )
    parser.add_argument(
        "--bench-out",
        default="",
        metavar="PATH",
        help="write the fault report JSON to PATH (default: no file)",
    )
    parser.add_argument("--json", action="store_true", help="print the report as JSON")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")
    if args.schedules < 1:
        parser.error("--schedules must be at least 1")
    if args.overhead_repeats < 1:
        parser.error("--overhead-repeats must be at least 1")
    if not 0.0 < args.rate <= 1.0:
        parser.error("--rate must be in (0, 1]")
    if not 0.0 <= args.attack_ratio <= 1.0:
        parser.error("--attack-ratio must be in [0, 1]")
    return args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    seed = int(args.seed) if args.seed.lstrip("-").isdigit() else args.seed

    chaos = run_chaos_matrix(
        seed=seed,
        count=args.count,
        schedules=args.schedules,
        rate=args.rate,
        storage=args.storage,
        attack_ratio=args.attack_ratio,
    )
    passivity = check_passivity()
    throughput = measure_throughput_vs_rate(seed=seed)
    overhead = measure_disabled_overhead(seed=seed, repeats=args.overhead_repeats)
    payload = build_faults_report(
        chaos=chaos.as_dict(),
        passivity=passivity,
        throughput=throughput,
        overhead=overhead,
    )

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        status = "ok" if payload["ok"] else "FAIL"
        print(
            f"chaos matrix [{status}]: {chaos.runs_faulted} fault runs "
            f"({args.schedules} schedule(s) x retries on/off x {args.count} scenarios)"
        )
        print(
            f"  fail-open: {len(chaos.fail_open)} | diverged: {len(chaos.diverged)} "
            f"| degraded w/o retries: {chaos.degraded} (+{chaos.crashes} hard)"
        )
        injected = sum(chaos.faults.get("injected", {}).values())
        retries = sum(chaos.faults.get("retries", {}).values())
        print(
            f"  injected: {injected} | retries: {retries} | "
            f"recoveries: {chaos.faults.get('recoveries', 0)} | "
            f"backoff latency: {chaos.faults.get('recovery_latency_ms', 0.0):.1f} virtual ms"
        )
        print(f"  passivity: {'ok' if passivity['ok'] else 'FAIL'} ({len(passivity['checks'])} comparisons)")
        print(
            f"  disabled-plane overhead: {overhead['overhead_percent']:+.2f}% "
            f"(gate < {overhead['gate_percent']:.0f}%)"
        )
        for point in throughput:
            print(
                f"  rate {point['rate']:.2f}: {point['scenarios_per_second']:,.1f} scenarios/s, "
                f"{point['injected']} injected, {point['retries']} retries"
            )
        for entry in chaos.fail_open:
            print(f"  FAIL-OPEN {entry}")
        for entry in chaos.diverged:
            print(f"  DIVERGED {entry}")

    if args.bench_out:
        path = write_json_report(payload, Path(args.bench_out))
        print(f"[fault report written to {path}]", file=sys.stderr if args.json else sys.stdout)
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
