"""Storage-tier workload: bulk seeding and page loads at forum scale.

The ROADMAP's realistic-scale target ("millions of users") was unmeasurable
while application state lived in per-test Python dicts.  This workload
seeds a phpBB instance with a configurable number of users, topics and
posts through the storage interface's batched-insert path, then measures
what the paper's experiments care about at that scale:

* **bulk-seed throughput** (rows/second) per backend;
* **page-load latency** (p50/p99/mean milliseconds) for the index and
  topic pages over the seeded board;
* **mixed read/write latency** (p50 milliseconds): replies posted through
  ``POST /posting`` interleaved with loads of the replied-to topic page,
  both right after the write and again with no write in between -- the
  write path and the read that follows it must cost about what a plain
  read costs, however large the board;
* **scenario throughput** (scenarios/second) of the differential engine on
  each backend, plus the digest-parity bit the storage tier must preserve.

The JSON artifact lands in ``benchmarks/results/BENCH_storage.json``; the
CI ``storage`` job regenerates a scaled-down smoke version and uploads it.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from pathlib import Path

from repro.scenarios.engine import run_suite

#: Default artifact location (relative to the repository root).
STORAGE_RESULTS_NAME = "BENCH_storage.json"

#: Rows per ``insert_many`` batch during bulk seeding.
BATCH = 50_000

#: Explicit id floor for bulk-seeded topics, above anything the
#: application's own seed content allocates.
TOPIC_ID_BASE = 1_000


def _percentile(sorted_ms: list[float], q: float) -> float:
    index = min(len(sorted_ms) - 1, max(0, math.ceil(q * len(sorted_ms)) - 1))
    return sorted_ms[index]


def _batched(rows: list[dict]):
    for start in range(0, len(rows), BATCH):
        yield rows[start : start + BATCH]


def _bulk_seed(app, *, users: int, topics: int, posts: int) -> dict:
    """Seed the board through the batched-insert path; return throughput."""
    start = time.perf_counter()
    for batch in _batched([{"username": f"user{n}"} for n in range(users)]):
        app.storage.insert_many("phpbb_users", batch)
    topic_rows = [
        {"topic_id": TOPIC_ID_BASE + n, "topic_title": f"Load-test topic {n}",
         "topic_poster": f"user{n % max(1, users)}"}
        for n in range(topics)
    ]
    for batch in _batched(topic_rows):
        app.storage.insert_many("phpbb_topics", batch)
    post_rows = [
        {"topic_id": TOPIC_ID_BASE + (n % max(1, topics)),
         "post_username": f"user{n % max(1, users)}",
         "post_subject": f"Re: load-test {n}",
         "post_text": f"benchmark post body {n}"}
        for n in range(posts)
    ]
    for batch in _batched(post_rows):
        app.storage.insert_many("phpbb_posts", batch)
    seconds = time.perf_counter() - start
    rows = users + topics + posts
    return {
        "users": users,
        "topics": topics,
        "posts": posts,
        "rows": rows,
        "seconds": round(seconds, 4),
        "rows_per_s": round(rows / seconds, 1) if seconds else None,
    }


def _page_loads(app, *, topics: int, loads: int) -> dict:
    """Load the index and topic pages over the seeded board."""
    from repro.http.messages import HttpRequest

    paths = ["/"] + [
        f"/viewtopic?t={TOPIC_ID_BASE + n}" for n in range(min(topics, 9))
    ]

    def load(path: str) -> float:
        request = HttpRequest(method="GET", url=f"{app.origin}{path}")
        start = time.perf_counter()
        response = app.handle_request(request)
        elapsed = (time.perf_counter() - start) * 1000.0
        assert response.status == 200, f"GET {path} -> {response.status}"
        return elapsed

    samples = sorted(load(paths[n % len(paths)]) for n in range(loads))
    return {
        "loads": loads,
        "p50_ms": round(_percentile(samples, 0.50), 3),
        "p99_ms": round(_percentile(samples, 0.99), 3),
        "mean_ms": round(sum(samples) / len(samples), 3),
    }


def _mixed(app, *, topics: int, rounds: int) -> dict:
    """Reply to seeded topics, reading each topic page after every write.

    Each round posts one reply through ``POST /posting`` as a logged-in
    user, loads that topic's page straight after the write (read after
    write), and loads it once more with no write in between (read).
    """
    from repro.http.messages import HttpRequest

    session = app.sessions.create("bench-writer")
    cookie = f"{app.session_cookie_name}={session.session_id}"

    def timed(request: HttpRequest) -> float:
        request.attach_cookie_header(cookie)
        start = time.perf_counter()
        response = app.handle_request(request)
        elapsed = (time.perf_counter() - start) * 1000.0
        assert response.status < 400, f"{request.method} {request.url} -> {response.status}"
        return elapsed

    reply, after_write, read = [], [], []
    for n in range(rounds):
        topic_id = TOPIC_ID_BASE + n % max(1, topics)
        page = f"{app.origin}/viewtopic?t={topic_id}"
        form = {"mode": "reply", "t": str(topic_id), "message": f"mixed reply {n}"}
        reply.append(timed(HttpRequest(method="POST", url=f"{app.origin}/posting", form=form)))
        after_write.append(timed(HttpRequest(method="GET", url=page)))
        read.append(timed(HttpRequest(method="GET", url=page)))
    return {
        "rounds": rounds,
        "reply_p50_ms": round(_percentile(sorted(reply), 0.50), 3),
        "read_p50_ms": round(_percentile(sorted(read), 0.50), 3),
        "read_after_write_p50_ms": round(_percentile(sorted(after_write), 0.50), 3),
    }


def _scenario_throughput(kind: str, *, seed, count: int) -> tuple[dict, list]:
    start = time.perf_counter()
    result = run_suite(seed=seed, count=count, storage=kind)
    seconds = time.perf_counter() - start
    digests = [
        {model: run.digest for model, run in verdict.runs.items()}
        for verdict in result.verdicts
    ]
    stats = {
        "count": count,
        "ok": result.ok,
        "seconds": round(seconds, 4),
        "scenarios_per_s": round(count / seconds, 2) if seconds else None,
    }
    return stats, digests


def measure_storage(
    *,
    users: int = 1_000_000,
    posts: int = 100_000,
    topics: int = 1_000,
    page_loads: int = 200,
    scenario_count: int = 12,
    seed: int | str = "storage-bench",
) -> dict:
    """Run the full storage workload; returns the artifact payload."""
    from repro.webapps.phpbb import PhpBB

    report: dict = {
        "workload": "storage-tier",
        "config": {
            "users": users,
            "posts": posts,
            "topics": topics,
            "page_loads": page_loads,
            "scenario_count": scenario_count,
            "seed": str(seed),
        },
        "backends": {},
    }

    with tempfile.TemporaryDirectory(prefix="repro-storage-bench-") as tmp:
        db_path = os.path.join(tmp, "phpbb.db")
        for kind, selector in (("dict", "dict"), ("sqlite", f"sqlite:{db_path}")):
            app = PhpBB(storage=selector)
            entry = {
                "bulk_seed": _bulk_seed(app, users=users, topics=topics, posts=posts),
                "page_load_ms": _page_loads(app, topics=topics, loads=page_loads),
                "mixed": _mixed(app, topics=topics, rounds=page_loads),
            }
            app.storage.close()
            if kind == "sqlite":
                entry["db_bytes"] = os.path.getsize(db_path)
            report["backends"][kind] = entry

    dict_stats, dict_digests = _scenario_throughput("dict", seed=seed, count=scenario_count)
    sql_stats, sql_digests = _scenario_throughput("sqlite", seed=seed, count=scenario_count)
    report["scenarios"] = {
        "dict": dict_stats,
        "sqlite": sql_stats,
        "digest_parity": dict_digests == sql_digests,
    }
    return report


def format_storage_report(report: dict) -> str:
    """Human-readable summary of the artifact payload."""
    config = report["config"]
    lines = [
        "storage-tier workload "
        f"({config['users']} users, {config['posts']} posts, {config['topics']} topics)"
    ]
    for kind, entry in report["backends"].items():
        seedinfo, pages, mixed = entry["bulk_seed"], entry["page_load_ms"], entry["mixed"]
        lines.append(
            f"  {kind:>6}: seeded {seedinfo['rows']} rows in {seedinfo['seconds']}s "
            f"({seedinfo['rows_per_s']} rows/s) | page load "
            f"p50 {pages['p50_ms']}ms p99 {pages['p99_ms']}ms | mixed p50: "
            f"reply {mixed['reply_p50_ms']}ms, read {mixed['read_p50_ms']}ms, "
            f"read after write {mixed['read_after_write_p50_ms']}ms"
        )
    scenarios = report["scenarios"]
    lines.append(
        f"  scenarios: dict {scenarios['dict']['scenarios_per_s']}/s, "
        f"sqlite {scenarios['sqlite']['scenarios_per_s']}/s, "
        f"digest parity {'OK' if scenarios['digest_parity'] else 'BROKEN'}"
    )
    return "\n".join(lines)


def write_storage_report(report: dict, path: Path | str) -> Path:
    """Serialise the workload report as the JSON artifact at ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return target
