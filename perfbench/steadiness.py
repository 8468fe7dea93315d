"""Run-to-run steadiness of the end-to-end metrics.

Runs ``perfbench/run.py`` for several seeds on each workload, in two or more
sets with different seeds, and reports per metric

* the spread of each set's values -- the distance between the first and third
  quartile as a share of the median -- which must stay within the metric's
  bound in ``BENCHMARK.json``, and
* the drift of each later set's median from the first set's, in the metric's
  bad direction, which must stay within the bound too.

The ungated p90 tails each run prints in its stamp are recorded and their
spread reported alongside, without a bound.

    python3 perfbench/steadiness.py --seeds 10 --sets 2 --out perfbench/results/steadiness.json
    python3 perfbench/steadiness.py --recheck perfbench/results/steadiness.json

``--recheck`` re-evaluates the recorded values against the current bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; returns its metric values and, under ``tails``,
    the p90 tails from its stamp."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=CHECKOUT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    *_, stamp, last = completed.stdout.strip().splitlines()
    result = json.loads(last)
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values["tails"] = json.loads(stamp)["perfbench"]["detail"]["tails"]
    return values


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median}


def evaluate(runs: dict, spec: dict) -> tuple[dict, bool]:
    """Spread and drift per workload and metric for ``runs[workload][set]``.

    Only the workloads ``BENCHMARK.json`` lists decide ``steady``; the
    others are reported with ``"gated": false``.
    """
    report, steady = {}, True
    gated = {w["name"] for w in spec["workloads"]}
    for workload, sets in runs.items():
        rows = {"gated": workload in gated}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [_spread([run[name] for run in values]) for values in sets]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            first = stats[0]["median"]
            drift = max((sign * (s["median"] - first) / first for s in stats[1:]), default=0.0)
            worst = max(s["spread"] for s in stats)
            ok = drift <= bound and worst <= bound
            steady = steady and (ok or not rows["gated"])
            rows[name] = {
                "bound": bound,
                "median_per_set": [s["median"] for s in stats],
                "spread_per_set": [round(s["spread"], 4) for s in stats],
                "drift": round(drift, 4),
                "within_bound": ok,
                "spread_below_third_of_bound": worst < bound / 3,
            }
        for name in sets[0][0].get("tails", {}):
            stats = [_spread([run["tails"][name] for run in values]) for values in sets]
            rows[name] = {
                "bound": None,
                "median_per_set": [s["median"] for s in stats],
                "spread_per_set": [round(s["spread"], 4) for s in stats],
            }
        report[workload] = rows
    return report, steady


def _print(report: dict) -> None:
    for workload, rows in report.items():
        print(workload, "" if rows["gated"] else "(not gated)", file=sys.stderr)
        for name, row in rows.items():
            if name == "gated":
                continue
            if row["bound"] is None:
                print(f"  {name:14s} spread {row['spread_per_set']} (not gated)", file=sys.stderr)
                continue
            print(
                f"  {name:14s} spread {row['spread_per_set']} drift {row['drift']:+.3f} "
                f"bound {row['bound']} {'ok' if row['within_bound'] else 'OUT'}"
                f"{'' if row['spread_below_third_of_bound'] else ' (spread above a third)'}",
                file=sys.stderr,
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--recheck", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.recheck:
        recorded = json.loads(args.recheck.read_text(encoding="utf-8"))
        runs, meta = recorded["runs"], {k: v for k, v in recorded.items() if k != "runs"}
    else:
        workloads = args.workloads or [w["name"] for w in spec["workloads"]]
        runs = {}
        for workload in workloads:
            runs[workload] = []
            for number in range(args.sets):
                seeds = range(1 + number * args.seeds, 1 + (number + 1) * args.seeds)
                values = []
                for seed in seeds:
                    values.append(run_once(workload, seed, spec["run_seconds"]))
                    shown = {
                        name: round(value, 3)
                        for name, value in values[-1].items()
                        if name != "tails"
                    }
                    print(f"{workload} set {number + 1} seed {seed}: {shown}", file=sys.stderr)
                runs[workload].append(values)
        meta = {"run_seconds": spec["run_seconds"], "seeds_per_set": args.seeds, "sets": args.sets}
    report, steady = evaluate(runs, spec)
    _print(report)
    out = args.out or args.recheck
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        document = dict(meta, steady=steady, evaluation=report, runs=runs)
        out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
