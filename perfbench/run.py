"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  Standard output ends with two JSON lines:
the method and environment stamp, then the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every correctness check passed, 1 when one failed, 2 when the program's
source is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "forum-rw", "pool"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--git-rev", default="unknown", help="revision to record in the stamp")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]
    from perfbench import layers
    from perfbench.measure import environment
    from perfbench.workloads import E2E, WORKLOADS, measure, measure_traced

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=CHECKOUT) as scratch:
        workload = WORKLOADS[args.workload](args.seed, Path(scratch))
        if args.trace:
            result, values, details = measure_traced(workload, seconds=args.seconds)
            catalogue = layers.catalogue()
        else:
            result, values, details = measure(workload, seconds=args.seconds)
            catalogue = E2E
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in catalogue}
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
        "env": environment(args.git_rev),
        "steps": result.steps,
        "checks": dict(workload.stamp(), problems=result.problems),
        "detail": details,
    }
    correct = result.failed == 0
    print(json.dumps({"perfbench": stamp}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
