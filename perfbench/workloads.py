"""The three closed-loop workloads and the two ways to measure them.

* :func:`measure` -- the end-to-end run: set up (repeatedly, for
  :data:`SETUP_SECONDS`), run operations back to back for the given seconds
  with one client, check the outputs, report every end-to-end metric as
  the fast quartile over the set-ups or the pass's windows.
* :func:`measure_traced` -- the per-layer run: an untraced pass for a third
  of the seconds, then the identical operation sequence traced and once more
  untraced, each on a fresh set-up.  The traced pass gives the per-layer
  numbers; the last two give the tracing overhead.

The workloads see only inputs generated from the seed.  An operation is a
scenario on ``suite`` and ``pool`` and a request on ``forum-rw``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

from repro.attacks.harness import login_user
from repro.browser.browser import Browser
from repro.browser.compile_cache import CompileCaches
from repro.http.network import Network
from repro.scenarios import parallel
from repro.scenarios.engine import SuiteResult, run_suite
from repro.scenarios.generator import ScenarioGenerator
from repro.scenarios.oracle import DifferentialOracle
from repro.scenarios.parallel import run_suite_parallel
from repro.scenarios.runner import ScenarioRunner
from repro.webapps.phpbb import PhpBB

from . import layers
from .measure import peak_rss_mb, percentile, summary
from .tracer import Tracer, merge_snapshots

#: ``(name, unit, better)`` of every end-to-end metric, reported on every
#: workload.  The p90 tails (``op_p90_ms``, ``read_p90_ms``,
#: ``write_p90_ms``) are computed the same way but only printed in the stamp:
#: a window's p90 rests on a few samples (two of a forum window's replies).
E2E = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("read_p50_ms", "ms", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

clock = time.perf_counter

#: Rates and percentiles are taken per window of consecutive steps lasting
#: at least this long, and the fast quartile of the windows is reported (see
#: :func:`_fast`).  On a shared host the CPU switches between a fast and a
#: slow state every few seconds; the windows are shorter than that.
WINDOW_S = 1.0

#: Set-ups are repeated for this long in all, half before and half after the
#: timed pass, and the fast quartile of their times is reported, so that they,
#: too, span several of the host's states.
SETUP_SECONDS = 6.0


@dataclass
class Pass:
    """What one timed pass over a workload's operation sequence observed."""

    #: Loop iterations: scenarios (suite), steps (forum-rw), pool runs (pool).
    steps: int = 0
    #: Operations: scenarios or requests.
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: Time spent inside operations (the part tracing should account for).
    busy_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    #: ``(seconds since the pass started, len(op_s), len(read_s),
    #: len(write_s))`` after each step.
    marks: list[tuple[float, int, int, int]] = field(default_factory=list)
    #: The first few failed checks, for the stamp.
    problems: list[str] = field(default_factory=list)
    #: Largest peak RSS a pool worker reported (0 when there are none).
    worker_rss_mb: float = 0.0

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def _loop(step, result: Pass, *, seconds: float | None, steps: int | None) -> None:
    """Call ``step(index)`` back to back until the time or step budget is spent."""
    start = clock()
    while (result.steps < steps) if steps is not None else (clock() - start < seconds):
        step(result.steps)
        result.steps += 1
        counts = (len(result.op_s), len(result.read_s), len(result.write_s))
        result.marks.append((clock() - start, *counts))
    result.wall_s = clock() - start


def parity_digest(suite: SuiteResult) -> str:
    """SHA-256 of a suite's timing-free parity report."""
    canonical = json.dumps(suite.parity_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _take_samples(samples: dict, result: Pass) -> None:
    """Move the page-load and form-post durations a probe kept into ``result``.

    ``samples`` maps boundary names to their lists of durations (``None``
    for a boundary that keeps none).
    """
    for name, into in ((layers.READ, result.read_s), (layers.WRITE, result.write_s)):
        kept = samples.get(name)
        if kept:
            into.extend(kept)
            kept.clear()


class Workload:
    """Defaults shared by the workloads (see :class:`Suite` for the protocol)."""

    setup_seconds = SETUP_SECONDS

    def probe(self) -> Tracer:
        """Wrappers active during end-to-end passes."""
        return Tracer(())

    def close(self, state) -> None:
        pass

    def check(self, state, result: Pass) -> None:
        pass

    def snapshot(self, state, tracer: Tracer) -> dict:
        """The traced pass's span aggregates."""
        return tracer.snapshot()

    def scheduling(self, state) -> dict[str, float] | None:
        """``pool.*`` metrics, for the workload that has a pool."""
        return None


# -- suite ---------------------------------------------------------------------------


@dataclass
class SuiteState:
    runner: ScenarioRunner
    #: The first scenarios of the pass, folded as ``run_suite`` would.
    prefix: SuiteResult


class Suite(Workload):
    """The serial differential suite with the runner's defaults.

    One :class:`ScenarioRunner` (dict storage, VM engine, ``escudo,sop,none``
    matrix, attack ratio 0.25); each operation is ``generator.scenario(i)``
    -> ``runner.run`` -> ``oracle.classify``, and only the last two are
    timed.  Page loads and form posts inside the scenarios are timed by a
    two-wrapper probe.
    """

    #: Scenarios whose parity digest an independent ``run_suite`` re-derives.
    parity_count = 40

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.generator = ScenarioGenerator(seed=seed)
        self.digest = ""
        self.params = {
            "models": ["escudo", "sop", "none"],
            "attack_ratio": self.generator.attack_ratio,
            "storage": "dict",
            "engine": "vm",
            "apps": list(self.generator.apps),
            "parity_count": self.parity_count,
        }

    def probe(self) -> Tracer:
        return layers.probe_tracer(scenarios=False)

    def setup(self) -> SuiteState:
        runner = ScenarioRunner()
        runner.warm_for(self.generator.apps)
        prefix = SuiteResult(
            seed=self.generator.seed,
            count=0,
            models=tuple(spec.name for spec in runner.specs),
            attack_ratio=self.generator.attack_ratio,
        )
        return SuiteState(runner=runner, prefix=prefix)

    def caches(self, state: SuiteState) -> dict:
        return state.runner.caches.as_dict()

    def run_pass(self, state: SuiteState, tracer: Tracer, *, seconds=None, steps=None) -> Pass:
        result = Pass()
        runner, prefix = state.runner, state.prefix
        oracle = DifferentialOracle()
        live = {name: stat.samples for name, stat in tracer.stats.items()}

        def step(index: int) -> None:
            scenario = self.generator.scenario(index)
            start = clock()
            runs = runner.run(scenario)
            verdict = oracle.classify(scenario, runs)
            elapsed = clock() - start
            result.op_s.append(elapsed)
            result.busy_s += elapsed
            result.attempted += 1
            _take_samples(live, result)
            if not verdict.ok:
                result.fail(f"scenario {verdict.replay}: {verdict.reason}")
            if index < self.parity_count:
                _accumulate(prefix, index, verdict, runs)

        _loop(step, result, seconds=seconds, steps=steps)
        return result

    def check(self, state: SuiteState, result: Pass) -> None:
        """The first scenarios' parity digest must repeat on a fresh runner."""
        prefix = state.prefix
        self.digest = parity_digest(prefix)
        if self.digest != parity_digest(run_suite(seed=self.seed, count=prefix.count)):
            result.fail(f"parity digest of the first {prefix.count} scenarios does not repeat")

    def stamp(self) -> dict:
        return {"parity_digest": self.digest}


def _accumulate(suite: SuiteResult, index: int, verdict, runs) -> None:
    """Fold one scenario into ``suite`` the way ``run_suite`` does."""
    suite.count += 1
    suite.indices.append(index)
    suite.verdicts.append(verdict)
    for run in runs.values():
        suite.mediations += run.mediations
        suite.denied += run.denied
        suite.pages_loaded += run.pages_loaded
        suite.tasks_run += run.tasks_run


# -- forum-rw ------------------------------------------------------------------------


#: On ``WRITES`` of every ``BLOCK`` forum steps, at seeded positions, the
#: profile replies after its read.
WRITES, BLOCK = 2, 5


@dataclass
class Forum:
    app: PhpBB
    caches: CompileCaches
    browsers: list[Browser]
    topic_ids: list[int]
    posts_seeded: int
    rng: random.Random
    #: Topic id -> texts of the replies accepted into it.
    replies: dict[int, list[str]] = field(default_factory=dict)


class ForumRW(Workload):
    """phpBB on in-memory SQLite: seeded-random topic reads and ~40% replies.

    Several logged-in profiles share one compile-cache stack and take turns
    from one thread.  Each step reads a topic page and, on :data:`WRITES` of
    every :data:`BLOCK` steps (seeded positions), the same profile then
    replies through its reply form: the write share is exact, so the request
    mix does not vary from seed to seed.  Each profile closes its tab after
    its step, so the heap does not grow with the number of requests.  Reads
    and writes are timed by the loop itself.
    """

    def __init__(
        self,
        seed: int,
        scratch: Path,
        *,
        topics: int = 500,
        posts: int = 10_000,
        profiles: int = 4,
    ) -> None:
        self.seed = seed
        self.topics = topics
        self.posts = posts
        self.profiles = profiles
        self.accepted = 0
        self.params = {
            "storage": "sqlite",
            "topics": topics,
            "posts": posts,
            "profiles": profiles,
            "write_share": WRITES / BLOCK,
            "model": "escudo",
        }

    def setup(self) -> Forum:
        app = PhpBB(storage="sqlite", nonce_seed=f"perfbench:{self.seed}", response_cache=True)
        storage = app.storage
        storage.insert_many(
            "phpbb_topics",
            [
                {"topic_title": f"Topic {n} of seed {self.seed}", "topic_poster": f"user{n % 97}"}
                for n in range(self.topics)
            ],
        )
        topic_ids = [row["topic_id"] for row in storage.all("phpbb_topics")]
        seeded = topic_ids[-self.topics:]
        storage.insert_many(
            "phpbb_posts",
            [
                {
                    "topic_id": seeded[n % self.topics],
                    "post_username": f"user{n % 97}",
                    "post_subject": "",
                    "post_text": f"seeded post {n} of seed {self.seed}",
                }
                for n in range(self.posts)
            ],
        )
        network = Network()
        network.register(app.origin, app)
        caches = CompileCaches.build()
        browsers = [Browser(network, model="escudo", caches=caches) for _ in range(self.profiles)]
        for number, browser in enumerate(browsers):
            if login_user(browser, app, f"user{number}") is None:
                raise RuntimeError(f"profile user{number} could not log in")
        return Forum(
            app=app,
            caches=caches,
            browsers=browsers,
            topic_ids=topic_ids,
            posts_seeded=storage.count("phpbb_posts"),
            rng=random.Random(f"{self.seed}:forum-rw"),
        )

    def close(self, forum: Forum) -> None:
        forum.app.storage.close()

    def caches(self, forum: Forum) -> dict:
        return forum.caches.as_dict()

    def run_pass(self, forum: Forum, tracer: Tracer, *, seconds=None, steps=None) -> Pass:
        result = Pass()
        origin = forum.app.origin

        def timed(call, *args, **kwargs):
            start = clock()
            value = call(*args, **kwargs)
            elapsed = clock() - start
            result.op_s.append(elapsed)
            result.busy_s += elapsed
            result.attempted += 1
            return value, elapsed

        schedule: list[bool] = []

        def step(index: int) -> None:
            if not schedule:
                schedule.extend([True] * WRITES + [False] * (BLOCK - WRITES))
                forum.rng.shuffle(schedule)
            write = schedule.pop()
            browser = forum.browsers[index % len(forum.browsers)]
            topic = forum.rng.choice(forum.topic_ids)
            try:
                visit(index, browser, topic, write)
            finally:
                browser.tabs.clear()

        def visit(index: int, browser: Browser, topic: int, write: bool) -> None:
            loaded, elapsed = timed(browser.load, f"{origin}/viewtopic?t={topic}")
            result.read_s.append(elapsed)
            if loaded.response.status != 200:
                result.fail(f"read of topic {topic}: status {loaded.response.status}")
                return
            body = loaded.response.body
            for text in forum.replies.get(topic, ()):
                if text not in body:
                    result.fail(f"read of topic {topic} misses the reply {text!r}")
            if not write:
                return
            text = f"reply {index} from profile {index % len(forum.browsers)} seed {self.seed}"
            response, elapsed = timed(
                browser.submit_form, loaded, "reply-form", {"message": text}, as_user=True
            )
            result.write_s.append(elapsed)
            if response.is_redirect and response.headers.get("Location") == f"/viewtopic?t={topic}":
                forum.replies.setdefault(topic, []).append(text)
            else:
                result.fail(f"reply to topic {topic}: status {response.status}")

        _loop(step, result, seconds=seconds, steps=steps)
        return result

    def check(self, forum: Forum, result: Pass) -> None:
        """Every accepted reply is stored, and nothing else was added."""
        self.accepted = sum(len(texts) for texts in forum.replies.values())
        stored = forum.app.storage.count("phpbb_posts")
        if stored != forum.posts_seeded + self.accepted:
            result.fail(
                f"{stored} posts stored, expected {forum.posts_seeded} + {self.accepted} replies"
            )
        bodies = {row["post_text"] for row in forum.app.storage.all("phpbb_posts")}
        lost = sum(text not in bodies for texts in forum.replies.values() for text in texts)
        if lost:
            result.fail(f"{lost} accepted replies are not stored")

    def stamp(self) -> dict:
        return {"replies_accepted": self.accepted}


# -- pool ----------------------------------------------------------------------------


#: Pool worker processes: the CPU count of the host the benchmark was made on.
WORKERS = 2


def _serial_digest(seed: int, count: int) -> str:
    return parity_digest(run_suite(seed=seed, count=count))


@dataclass
class PoolState:
    #: One entry per ``run_suite_parallel`` call.
    calls: list[dict] = field(default_factory=list)
    #: Tracer snapshots the workers left behind.
    snapshots: list[dict] = field(default_factory=list)


class Pool(Workload):
    """The ``suite`` scenarios through the work-stealing pool.

    Each step of the loop is one ``run_suite_parallel`` call with the
    defaults (fork, warm-state shipping, automatic steal chunk) and
    ``persist_failures=False``; its set-up time is the call's wall time
    minus the longest shard, and each call is one measurement window (it
    lasts more than :data:`WINDOW_S`).  Scenario latencies, page loads, form posts and
    per-layer spans are recorded inside the workers, which inherit the
    parent's wrappers through fork and leave their aggregates and peak RSS
    in a scratch file as they exit.
    """

    #: One set-up: the set-up time is measured on every call instead.
    setup_seconds = 0.0

    def __init__(self, seed: int, scratch: Path, *, count: int = 300) -> None:
        self.seed = seed
        self.scratch = scratch
        self.count = count
        self.params = {
            "count_per_run": count,
            "workers": WORKERS,
            "models": ["escudo", "sop", "none"],
            "attack_ratio": 0.25,
            "storage": "dict",
            "warm_ship": True,
        }
        self._serial_digest = ""

    def probe(self) -> Tracer:
        return layers.probe_tracer(scenarios=True)

    def setup(self) -> PoolState:
        if not self._serial_digest:
            # The reference for every pool run's parity check, computed
            # before any timing starts and in a process of its own, so that
            # its heap does not count in peak_rss_mb.
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=1, mp_context=context) as executor:
                self._serial_digest = executor.submit(
                    _serial_digest, self.seed, self.count
                ).result()
        return PoolState()

    def caches(self, state: PoolState) -> dict:
        """Compile-cache counters summed over every worker of every call."""
        total = {tier: {"hits": 0, "misses": 0} for tier in layers.CACHE_TIERS}
        for call in state.calls:
            for shard in call["compile_cache"]:
                for tier, into in total.items():
                    into["hits"] += shard[tier]["hits"]
                    into["misses"] += shard[tier]["misses"]
        return total

    def run_pass(self, state: PoolState, tracer: Tracer, *, seconds=None, steps=None) -> Pass:
        result = Pass()
        original = parallel._steal_worker
        scratch = self.scratch

        def traced_worker(worker_id, config, task_queue, result_queue):
            tracer.reset()  # drop what the parent recorded before the fork
            try:
                original(worker_id, config, task_queue, result_queue)
            finally:
                dump = scratch / f"worker-{worker_id}.json"
                left = {"trace": tracer.snapshot(), "peak_rss_mb": peak_rss_mb()}
                dump.write_text(json.dumps(left), encoding="utf-8")

        def step(index: int) -> None:
            tracer.reset()
            start = clock()
            suite = run_suite_parallel(
                seed=self.seed, count=self.count, workers=WORKERS, persist_failures=False
            )
            wall = clock() - start
            durations = [shard["duration_s"] for shard in suite.shard_stats]
            result.setup_s.append(wall - max(durations))
            result.busy_s += sum(durations)
            result.attempted += len(suite.verdicts)
            for verdict in suite.failures:
                result.fail(f"scenario {verdict.replay}: {verdict.reason}")
            if parity_digest(suite) != self._serial_digest:
                result.fail(f"pool run {index}: parity digest differs from the serial run")
            parent = tracer.snapshot()["stats"]
            state.calls.append(
                {
                    "wall_s": wall,
                    "workers": suite.workers,
                    "durations": durations,
                    "chunks": sum(shard["chunks_stolen"] for shard in suite.shard_stats),
                    "respawns": suite.respawns,
                    "warm_ship_s": sum(
                        parent.get(b.name, {}).get("total_s", 0.0) for b in layers.WARM_SHIP
                    ),
                    "compile_cache": [shard["compile_cache"] for shard in suite.shard_stats],
                }
            )
            snapshots = []
            for dump in sorted(scratch.glob("worker-*.json")):
                left = json.loads(dump.read_text(encoding="utf-8"))
                snapshots.append(left["trace"])
                result.worker_rss_mb = max(result.worker_rss_mb, left["peak_rss_mb"])
                dump.unlink()
            state.snapshots += snapshots
            stats = merge_snapshots(snapshots)["stats"]
            _take_samples({name: stat.get("samples") for name, stat in stats.items()}, result)
            runs = stats.get(layers.RUN, {}).get("samples", [])
            classifies = stats.get(layers.CLASSIFY, {}).get("samples", [])
            result.op_s.extend(run + classify for run, classify in zip(runs, classifies))

        with mock.patch.object(parallel, "_steal_worker", traced_worker):
            _loop(step, result, seconds=seconds, steps=steps)
        return result

    def snapshot(self, state: PoolState, tracer: Tracer) -> dict:
        return merge_snapshots(state.snapshots)

    def scheduling(self, state: PoolState) -> dict[str, float]:
        calls = state.calls
        busy = sum(sum(call["durations"]) for call in calls)
        available = sum(call["workers"] * call["wall_s"] for call in calls)
        return {
            "pool.busy_share": busy / available,
            "pool.imbalance": statistics.fmean(
                max(call["durations"]) / min(call["durations"]) for call in calls
            ),
            "pool.chunks_stolen": statistics.fmean(call["chunks"] for call in calls),
            "pool.warm_ship_ms": statistics.fmean(call["warm_ship_s"] for call in calls) * 1000.0,
            "pool.respawns": statistics.fmean(call["respawns"] for call in calls),
        }

    def stamp(self) -> dict:
        return {"parity_digest": self._serial_digest}


WORKLOADS = {"suite": Suite, "forum-rw": ForumRW, "pool": Pool}


# -- measurement ---------------------------------------------------------------------


def _set_up(workload: Workload, seconds: float) -> tuple[list[float], object]:
    """Set up repeatedly for ``seconds`` (at least once), timing each set-up;
    returns the times and the last set-up."""
    times: list[float] = []
    state = None
    phase = clock()
    while state is None or clock() - phase < seconds:
        if state is not None:
            workload.close(state)
        gc.collect()  # discarded set-ups hold reference cycles
        start = clock()
        state = workload.setup()
        times.append(clock() - start)
    return times, state


def _untraced(workload: Workload, *, seconds=None, steps=None) -> tuple[Pass, dict | None]:
    """Run one probed pass and check it.

    Set-ups are timed for ``setup_seconds`` in all: half before the pass,
    which runs on the last of them, and half after it, so that the set-up
    times sample the host at two moments half a minute apart.
    """
    half = workload.setup_seconds / 2
    setup_s, state = _set_up(workload, half)
    gc.collect()
    with workload.probe().installed() as probe:
        result = workload.run_pass(state, probe, seconds=seconds, steps=steps)
    workload.check(state, result)
    scheduling = workload.scheduling(state)
    workload.close(state)
    if half:
        after, state = _set_up(workload, half)
        workload.close(state)
        setup_s += after
    result.setup_s = result.setup_s or setup_s
    return result, scheduling


def _fast(values: list[float], better: str) -> float:
    """The fast quartile: the first quartile of times, the third of rates.

    The host's slow state stretches every window it falls in; as long as it
    covers less than three quarters of them, this quartile does not see it,
    while a change to the program moves every window.
    """
    return percentile(values, 0.25 if better == "lower" else 0.75)


def _windows(result: Pass) -> dict[str, list[float]]:
    """The rate and latency percentiles of each window of a pass.

    A window is the shortest run of consecutive steps that lasts at least
    :data:`WINDOW_S`; a remainder shorter than that is left out, and a pass
    too short for one window is one window.
    """
    edges = [(0.0, 0, 0, 0)]
    for mark in result.marks:
        if mark[0] - edges[-1][0] >= WINDOW_S:
            edges.append(mark)
    if len(edges) == 1:
        edges.append((result.wall_s, len(result.op_s), len(result.read_s), len(result.write_s)))
    kinds = (("op", result.op_s), ("read", result.read_s), ("write", result.write_s))
    windows: dict[str, list[float]] = {"ops_per_s": []}
    windows.update((f"{kind}_p{q}_ms", []) for kind, _ in kinds for q in (50, 90))
    for before, after in zip(edges, edges[1:]):
        windows["ops_per_s"].append((after[1] - before[1]) / (after[0] - before[0]))
        for position, (kind, samples) in enumerate(kinds, start=1):
            inside = samples[before[position]:after[position]]
            if inside:
                for q in (50, 90):
                    windows[f"{kind}_p{q}_ms"].append(percentile(inside, q / 100) * 1000.0)
    return windows


def measure(workload: Workload, *, seconds: float) -> tuple[Pass, dict, dict]:
    """The end-to-end run: ``(pass, metrics, per-window values and summaries)``."""
    result, _ = _untraced(workload, seconds=seconds)
    windows = _windows(result)
    metrics = {"setup_s": _fast(result.setup_s, "lower")}
    for name, values in windows.items():
        better = "higher" if name == "ops_per_s" else "lower"
        metrics[name] = _fast(values, better) if values else 0.0
    metrics["peak_rss_mb"] = max(peak_rss_mb(), result.worker_rss_mb)
    details = {
        "tails": {name: metrics[name] for name in windows if name.endswith("_p90_ms")},
        "windows": windows,
        "setup_s": summary(result.setup_s),
        **{
            f"{kind}_ms": summary([value * 1000.0 for value in values])
            for kind, values in (("op", result.op_s), ("read", result.read_s), ("write", result.write_s))
        },
        "attempted": result.attempted,
        "wall_s": result.wall_s,
    }
    return result, {name: metrics[name] for name, _, _ in E2E}, details


def measure_traced(workload: Workload, *, seconds: float) -> tuple[Pass, dict, dict]:
    """The per-layer run: ``(all passes, metrics, tracing details)``.

    Three passes over the same operation sequence, each on a fresh set-up:
    an untraced pass for a third of the seconds (it fixes the step count and
    warms the interpreter, so the next two compare like with like), the
    traced pass, and an untraced reference pass for the overhead.
    """
    sizing, _ = _untraced(workload, seconds=seconds / 3)
    gc.collect()
    tracer = layers.full_tracer()
    # Installed before set-up: applications bind their route handlers then.
    with tracer.installed():
        state = workload.setup()
        before = workload.caches(state)
        gc.collect()
        tracer.reset()
        traced = workload.run_pass(state, tracer, steps=sizing.steps)
        snapshot = workload.snapshot(state, tracer)
        after = workload.caches(state)
    workload.check(state, traced)
    workload.close(state)
    reference, scheduling = _untraced(workload, steps=sizing.steps)
    metrics = layers.per_layer_metrics(
        snapshot,
        ops=traced.attempted,
        traced_s=traced.busy_s,
        untraced_s=reference.busy_s,
        caches=layers.cache_ratios(before, after),
        pool=scheduling,
    )
    details = {
        "steps": traced.steps,
        "untraced_busy_s": reference.busy_s,
        "traced_busy_s": traced.busy_s,
        "missing_targets": tracer.missing,
    }
    for other in (sizing, reference):
        traced.attempted += other.attempted
        traced.failed += other.failed
        traced.problems += other.problems
    return traced, metrics, details
