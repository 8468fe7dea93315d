"""Work-stealing parallel scenario execution.

The serial engine (:func:`repro.scenarios.engine.run_suite`) executes one
scenario at a time in one process -- fine for a hundred scenarios, a ceiling
for the ROADMAP's fuzzing-at-scale ambitions.  This module distributes the
seeded index space over N worker processes:

* **Every worker builds its own runner, the way a serial run does.**  The
  config sent to a worker is plain data (seed, apps, models, engine,
  storage, fault config); the worker constructs a
  :class:`~repro.scenarios.runner.ScenarioRunner` from it and the runner's
  compile-cache stack warms lazily on the first scenario of each app.
* **One worker loop for every worker count.**  A one-worker run calls the
  pool's worker loop in-process over in-memory queues -- no process
  started, nothing pickled -- and its messages go through the same fold
  as a pool's, so ``fork``, ``spawn`` and the single-worker run share
  one construction path, one chunking and one merge.
* **A slow worker does not stall the merge.**  Instead of owning a fixed
  strided slice, workers *pull* contiguous index chunks from a shared queue
  until it runs dry (work stealing): a worker that lands expensive attack
  scenarios simply takes fewer chunks while its siblings drain the rest.
  Which worker runs which chunk is timing-dependent, but the *result* is
  not: scenario ``i`` of seed ``s`` is the same scenario in every process
  (the generator keys an isolated ``random.Random`` on ``(seed, index)``),
  caches never change outcomes (templates are served as aliasing-free
  clones, and every access is decided by the policy), and the merge
  re-sorts verdicts into scenario-index order -- so
  :meth:`~repro.scenarios.engine.SuiteResult.parity_dict` of a parallel run
  equals the serial run's, byte for byte, on every run.

Worker processes are plain :class:`multiprocessing.Process` instances on an
explicitly pinned context (``fork`` where the platform offers it, else
``spawn`` -- never the platform default, which has changed across Python
releases).  Everything crossing the process boundary is plain data: the
config and index chunks going out, dict messages coming back.
Failing specs are pinned into the regression corpus
(:mod:`repro.scenarios.corpus`) from the parent process only (a single
writer, so no file races between workers).
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
import traceback
from collections.abc import Iterable
from dataclasses import dataclass, field
from queue import Empty

from repro.faults.plan import FaultConfig, merge_fault_stats

from .corpus import save_failure
from .engine import SuiteResult, run_suite
from .generator import ScenarioGenerator
from .model import resolve_models
from .oracle import DifferentialOracle, Verdict
from .runner import ScenarioRunner

#: Upper bound on the auto-selected steal-chunk size.
MAX_AUTO_STEAL_CHUNK = 16

#: Seconds between supervision polls of the result queue.  Short, because
#: the parent must notice a dead worker quickly to requeue its chunk.
_SUPERVISE_POLL_S = 0.25

#: The exit code an injected worker crash dies with (distinguishable from
#: a Python traceback's exit 1 in the supervision log).
CRASH_EXIT_CODE = 3


def steal_chunks(count: int, chunk_size: int) -> list[list[int]]:
    """Contiguous chunks of ``range(count)``, the work-stealing queue's units.

    Contiguity is deliberate: balance comes from workers *pulling* chunks,
    not from interleaving, and contiguous indices keep each pull cheap to
    describe.  Every index appears in exactly one chunk, in order.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if chunk_size < 1:
        raise ValueError("steal chunk size must be positive")
    return [list(range(lo, min(lo + chunk_size, count))) for lo in range(0, count, chunk_size)]


def default_steal_chunk(count: int, shards: int) -> int:
    """Auto chunk size: ~4 pulls per worker, capped so tails stay balanced."""
    if shards < 1:
        raise ValueError("need at least one shard")
    return max(1, min(MAX_AUTO_STEAL_CHUNK, -(-count // (shards * 4))))


def resolve_mp_context(name: str | None) -> str:
    """The pinned start method: an explicit ``name``, else fork-if-available.

    The *platform default* is deliberately never used -- it has changed
    across Python releases (``fork`` -> ``forkserver``/``spawn``), and how
    workers start must not silently flip with an interpreter upgrade.
    """
    if name:
        if name not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {name!r} unavailable on this platform; "
                f"known: {multiprocessing.get_all_start_methods()}"
            )
        return name
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _build_worker_runner(config: dict) -> ScenarioRunner:
    """One worker's runner; its cache stack warms lazily per app."""
    return ScenarioRunner(
        models=tuple(config["models"]),
        compile_caches=config["compile_caches"],
        storage=config["storage"],
        faults=config["faults"],
    )


def _build_worker_generator(config: dict) -> ScenarioGenerator:
    return ScenarioGenerator(
        seed=config["seed"],
        apps=tuple(config["apps"]),
        attack_ratio=config["attack_ratio"],
    )


def _verdict_entries(shard: int, indices: list[int], suite: SuiteResult) -> list[dict]:
    """Pair a slice's verdicts with their global scenario indices.

    Fails loudly on a length mismatch: if a scenario raised mid-slice and
    something upstream swallowed it, a silent ``zip`` would truncate the
    verdict list and the merge would report a *smaller, passing* suite.
    The engine records the indices it actually executed
    (:attr:`~repro.scenarios.engine.SuiteResult.indices`), so the first
    unaccounted index is named in the error.
    """
    if len(suite.verdicts) != len(indices) or suite.indices != list(indices):
        executed = len(suite.verdicts)
        offending = indices[executed] if executed < len(indices) else indices[-1]
        raise RuntimeError(
            f"shard {shard}: {executed} verdict(s) for {len(indices)} requested "
            f"scenario indices; first unaccounted index is {offending}"
        )
    return [
        {"index": index, "kind": verdict.kind, "verdict": verdict.as_dict()}
        for index, verdict in zip(indices, suite.verdicts)
    ]


def _steal_worker(worker_id: int, config: dict, task_queue, result_queue) -> None:
    """One pool worker: pull index chunks until the queue yields a sentinel.

    The generator / runner / oracle stack is built **once** and reused for
    every stolen chunk, so the cache warmth the worker accumulates spans
    its whole lifetime.

    The per-chunk message protocol is what makes the executor *supervisable*:
    a ``claim`` message announces the chunk before any scenario runs, a
    ``chunk`` message carries its verdicts once done, and a ``done`` message
    closes the worker.  A worker that dies between ``claim`` and ``chunk``
    leaves the parent an exact record of which indices are lost -- the
    supervision loop requeues precisely those.  Any Python-level failure is
    reported back as an ``error`` entry instead of a silent empty report;
    an interrupt is not caught, so Ctrl-C on an in-process run stays a
    :class:`KeyboardInterrupt` (in a pool it kills the worker, which the
    supervisor handles as a crash).

    Queue items are ``(ordinal, indices)``: ``ordinal`` is the chunk's
    position in :func:`steal_chunks`, or ``None`` for a requeued remainder.
    Whichever worker claims a chunk whose ordinal is in
    ``config["crash_chunks"]`` fault-crashes (claim sent, chunk never
    reported) -- the fault plane's ``executor.worker`` site.  Keying the
    crash on the chunk rather than on the worker makes the schedule
    independent of steal timing.
    """
    try:
        start = time.perf_counter()
        crash_chunks = frozenset(config["crash_chunks"])
        generator = _build_worker_generator(config)
        runner = _build_worker_runner(config)
        oracle = DifferentialOracle()
        while True:
            item = task_queue.get()
            if item is None:
                break
            ordinal, chunk = item
            result_queue.put(
                {"type": "claim", "worker": worker_id, "indices": list(chunk)}
            )
            if ordinal in crash_chunks:
                # Injected mid-chunk crash.  Flush the queue feeder first so
                # the claim above is guaranteed to reach the parent -- the
                # supervision contract is "claimed but unreported", not
                # "silently vanished".
                result_queue.close()
                result_queue.join_thread()
                os._exit(CRASH_EXIT_CODE)
            suite = run_suite(
                generator=generator, runner=runner, oracle=oracle, indices=chunk
            )
            result_queue.put(
                {
                    "type": "chunk",
                    "worker": worker_id,
                    "indices": list(chunk),
                    "verdicts": _verdict_entries(worker_id, chunk, suite),
                    "failures": suite.failure_specs,
                    "mediations": suite.mediations,
                    "denied": suite.denied,
                    "pages_loaded": suite.pages_loaded,
                    "tasks_run": suite.tasks_run,
                    "faults": suite.faults,
                }
            )
        result_queue.put(
            {
                "type": "done",
                "worker": worker_id,
                "duration_s": time.perf_counter() - start,
                "compile_cache": (
                    runner.caches.as_dict() if runner.caches is not None else None
                ),
            }
        )
    except Exception as exc:  # pragma: no cover - exercised via fault injection
        result_queue.put(
            {
                "type": "error",
                "worker": worker_id,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        )


@dataclass
class ParallelSuiteResult(SuiteResult):
    """A merged sharded run: the serial result shape plus worker statistics."""

    #: The *effective* worker count: ``run_suite_parallel`` clamps the
    #: request to ``min(workers, count)``, and this records what actually
    #: ran (``shard_stats`` has exactly this many entries).
    workers: int = 1
    #: What the caller asked for, before clamping.
    requested_workers: int = 1
    #: Steal-queue chunk size: how many scenario indices one queue pull
    #: hands a worker, at every worker count.
    steal_chunk: int = 0
    #: The pinned multiprocessing start method ("" for in-process runs).
    mp_start_method: str = ""
    #: Per-shard execution statistics (scenario counts, throughput, cache).
    shard_stats: list[dict] = field(default_factory=list)
    #: Corpus files the run's failures were pinned into.
    corpus_paths: list[str] = field(default_factory=list)
    #: Replacement workers started after crashes (0 without fault injection).
    respawns: int = 0
    #: Worker ids that died mid-run; their claimed chunks were requeued.
    crashed_workers: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        data = super().as_dict()
        data["workers"] = self.workers
        data["requested_workers"] = self.requested_workers
        data["steal_chunk"] = self.steal_chunk
        data["mp_start_method"] = self.mp_start_method
        data["respawns"] = self.respawns
        data["crashed_workers"] = list(self.crashed_workers)
        data["shards"] = self.shard_stats
        if self.corpus_paths:
            data["corpus"] = list(self.corpus_paths)
        return data

    def summary(self) -> str:
        lines = [super().summary()]
        shard_line = " / ".join(
            f"{stat['scenarios_per_second']:,.1f}" for stat in self.shard_stats
        )
        steal_line = " / ".join(
            str(stat.get("chunks_stolen", 0)) for stat in self.shard_stats
        )
        lines.append(
            f"  {self.workers} worker(s) | per-shard scenarios/s: {shard_line or 'n/a'}"
            + (f" | chunks stolen: {steal_line}" if self.workers > 1 else "")
        )
        if self.crashed_workers:
            lines.append(
                f"  recovered from {len(self.crashed_workers)} worker crash(es) "
                f"(workers {self.crashed_workers}, {self.respawns} respawn(s))"
            )
        for path in self.corpus_paths:
            lines.append(f"  pinned failing spec -> {path}")
        return "\n".join(lines)


class _MessageFold:
    """The one fold of worker messages into a :class:`ParallelSuiteResult`.

    Every message a worker loop sends -- in-process or from a pool -- goes
    through :meth:`__call__`.  A ``chunk`` message is added into the result
    and into its worker's ``shard_stats`` entry at once; a ``done`` message
    sets the worker's duration and cache counters.  The fold also owns the
    claimed/reported bookkeeping the supervisor needs to requeue exactly
    what a crashed worker lost, and the exactly-once check.
    """

    def __init__(self, result: ParallelSuiteResult) -> None:
        self.result = result
        self._entries: list[dict] = []
        self._claimed: dict[int, list[int]] = {}
        self.reported: set[int] = set()
        self._stats: dict[int, dict] = {}

    def add_worker(self, worker: int) -> None:
        """Open the ``shard_stats`` entry of a worker about to start."""
        stat = {
            "shard": worker,
            "scenarios": 0,
            "chunks_stolen": 0,
            "duration_s": 0.0,
            "scenarios_per_second": 0.0,
            "mediations": 0,
            "denied": 0,
            "crashed": False,
            "compile_cache": None,
        }
        self._stats[worker] = stat
        self.result.shard_stats.append(stat)

    def __call__(self, message: dict) -> None:
        kind = message.get("type")
        worker = message.get("worker")
        if kind == "error":
            raise RuntimeError(
                f"shard {worker} failed: {message['error']}\n"
                + message.get("traceback", "")
            )
        if kind == "claim":
            self._claimed[worker] = list(message["indices"])
            return
        if kind == "chunk":
            for index in message["indices"]:
                if index in self.reported:
                    raise RuntimeError(
                        f"exactly-once violation: scenario index {index} "
                        f"reported twice (second report from worker {worker})"
                    )
                self.reported.add(index)
            self._claimed.pop(worker, None)
            result, stat = self.result, self._stats[worker]
            self._entries.extend(message["verdicts"])
            result.failure_specs.extend(message["failures"])
            result.mediations += message["mediations"]
            result.denied += message["denied"]
            result.pages_loaded += message["pages_loaded"]
            result.tasks_run += message["tasks_run"]
            if message.get("faults"):
                merge_fault_stats(result.faults, message["faults"])
            stat["chunks_stolen"] += 1
            stat["scenarios"] += len(message["indices"])
            stat["mediations"] += message["mediations"]
            stat["denied"] += message["denied"]
            return
        if kind == "done":
            stat = self._stats[worker]
            duration = message["duration_s"]
            stat["duration_s"] = duration
            stat["scenarios_per_second"] = stat["scenarios"] / duration if duration > 0 else 0.0
            stat["compile_cache"] = message.get("compile_cache")
            return
        raise RuntimeError(f"unknown worker message: {message!r}")

    def crashed(self, worker: int) -> list[int]:
        """Record a dead worker; returns its claimed but unreported indices."""
        self._stats[worker]["crashed"] = True
        self.result.crashed_workers.append(worker)
        lost = self._claimed.pop(worker, ())
        return [index for index in lost if index not in self.reported]

    def finish(self) -> None:
        """Put the folded verdicts into scenario-index order and check them.

        Stealing makes the chunk->worker assignment timing-dependent, but
        the sorted union is the same on every run.
        """
        result = self.result
        merged = sorted(self._entries, key=lambda entry: entry["index"])
        if [entry["index"] for entry in merged] != list(range(result.count)):
            raise RuntimeError(
                f"merge integrity violation: expected scenario indices "
                f"0..{result.count - 1}, got {len(merged)} verdict(s)"
            )
        result.verdicts = [Verdict(**entry["verdict"]) for entry in merged]
        result.indices = [entry["index"] for entry in merged]
        result.failure_specs.sort(key=lambda failure: failure["index"])


def _supervise_pool(
    ctx, config: dict, task_queue, result_queue, active: dict, fold: _MessageFold
) -> None:
    """Drive the worker pool to completion, recovering from worker crashes.

    The supervision contract, built on the worker's claim/chunk/done
    protocol:

    * every scenario index is reported **exactly once** -- a duplicate chunk
      report raises instead of silently double-counting a verdict;
    * a worker that dies between ``claim`` and ``chunk`` has exactly its
      unreported claimed indices requeued (without a chunk ordinal, so a
      requeued remainder never crashes again and the crash count never
      exceeds the schedule's length), and a replacement worker is spawned
      under a fresh id, up to one respawn per original worker;
    * shutdown sentinels are enqueued only once *all* ``count`` indices have
      been reported, so a requeued chunk can never race a sentinel into a
      worker and starve.
    """
    result = fold.result
    count = result.count
    max_respawns = len(active)
    next_worker_id = max(active) + 1
    sentinels_sent = False

    def handle(message: dict) -> None:
        fold(message)
        if message["type"] == "done":
            process = active.pop(message["worker"], None)
            if process is not None:
                process.join()

    def reap_dead() -> None:
        nonlocal next_worker_id
        dead = [wid for wid, proc in active.items() if proc.exitcode is not None]
        if not dead:
            return
        # A dying worker flushes its queue feeder before exiting (the
        # injected-crash path does so explicitly), so consume everything
        # already in flight before deciding what it failed to report.
        try:
            while True:
                handle(result_queue.get_nowait())
        except Empty:
            pass
        for wid in dead:
            process = active.pop(wid, None)
            if process is None:
                continue  # its 'done' arrived in the drain above
            process.join()
            missing = fold.crashed(wid)
            if missing:
                task_queue.put((None, missing))
            if len(fold.reported) >= count:
                continue  # all work already accounted for; no replacement
            if result.respawns < max_respawns:
                result.respawns += 1
                replacement_id = next_worker_id
                next_worker_id += 1
                fold.add_worker(replacement_id)
                replacement = ctx.Process(
                    target=_steal_worker,
                    args=(replacement_id, config, task_queue, result_queue),
                    daemon=True,
                )
                replacement.start()
                active[replacement_id] = replacement
        if len(fold.reported) < count and not active:
            raise RuntimeError(
                f"all parallel workers died with {count - len(fold.reported)} "
                f"scenario(s) unreported and the respawn budget "
                f"({max_respawns}) exhausted; crashed workers: "
                f"{result.crashed_workers}"
            )

    while True:
        if not sentinels_sent and len(fold.reported) == count:
            for _ in range(len(active)):
                task_queue.put(None)  # one shutdown sentinel per live worker
            sentinels_sent = True
        if not active:
            break
        try:
            message = result_queue.get(timeout=_SUPERVISE_POLL_S)
        except Empty:
            reap_dead()
            continue
        handle(message)


def run_suite_parallel(
    *,
    seed: int | str = 42,
    count: int = 100,
    models=("escudo", "sop", "none"),
    attack_ratio: float = 0.25,
    workers: int = 2,
    corpus_dir=None,
    persist_failures: bool = True,
    compile_caches: bool = True,
    storage: str = "dict",
    steal_chunk: int | None = None,
    mp_context: str | None = None,
    faults=None,
    crash_schedule: Iterable[int] | None = None,
) -> ParallelSuiteResult:
    """Run ``count`` seeded scenarios over a work-stealing worker pool.

    The merged result's :meth:`~repro.scenarios.engine.SuiteResult.parity_dict`
    is byte-identical to a serial :func:`~repro.scenarios.engine.run_suite`
    of the same seed range, whatever the worker count, chunk size or start
    method.  Failing specs are pinned into the regression corpus
    (``corpus_dir``, defaulting to ``tests/scenarios/corpus/``) unless
    ``persist_failures`` is off.

    ``steal_chunk`` sets how many consecutive scenario indices one queue
    pull hands a worker (default: auto, ~4 pulls per worker).  With one
    effective worker the same worker loop runs in-process over the same
    chunks; no process is started.
    ``compile_caches=False`` disables the cache stack entirely.
    ``mp_context`` pins the multiprocessing start method (default: ``fork``
    where available, else ``spawn``; see :func:`resolve_mp_context`).

    ``faults`` (a :class:`~repro.faults.plan.FaultConfig` or its dict form)
    arms the fault-injection plane inside every worker; its ``worker`` rate
    derives a deterministic crash schedule unless ``crash_schedule`` pins
    one explicitly: an iterable of 0-based chunk ordinals (positions in
    :func:`steal_chunks`), where whichever worker claims a listed chunk
    dies.  Crashed workers are supervised: their claimed chunk is requeued
    and a replacement is spawned, and the merged parity is still
    byte-identical to the serial run.  A crash schedule needs a pool: with
    one worker a non-empty schedule raises :class:`ValueError`, because an
    in-process crash would kill the caller.
    """
    requested = max(1, int(workers))
    if isinstance(faults, dict):
        faults = FaultConfig.from_dict(faults)
    model_names = tuple(spec.name for spec in resolve_models(models))
    # The parent-side generator is only a configuration snapshot: its
    # validated app tuple travels to the workers with the seed and ratio.
    generator = ScenarioGenerator(seed=seed, attack_ratio=attack_ratio)
    shard_count = max(1, min(requested, count))
    chunk_size = int(steal_chunk) if steal_chunk else default_steal_chunk(count, shard_count)
    chunks = steal_chunks(count, chunk_size)
    if crash_schedule is None and faults is not None:
        crash_schedule = faults.crash_schedule(shard_count, len(chunks))
    crash_chunks = sorted(set(crash_schedule or ()))
    if crash_chunks and not 0 <= crash_chunks[0] <= crash_chunks[-1] < len(chunks):
        raise ValueError(
            f"crash chunk ordinals {crash_chunks} out of range: the steal "
            f"queue holds chunks 0..{len(chunks) - 1}"
        )
    if crash_chunks and shard_count == 1:
        raise ValueError(
            "a crash schedule needs at least two workers: a one-worker run "
            "is in-process, where an injected crash would kill the caller"
        )
    config = {
        "seed": generator.seed,
        "apps": generator.apps,
        "attack_ratio": generator.attack_ratio,
        "models": model_names,
        "compile_caches": compile_caches,
        "storage": storage,
        "faults": faults.to_dict() if faults is not None else None,
        "crash_chunks": crash_chunks,
    }
    result = ParallelSuiteResult(
        seed=generator.seed,
        count=count,
        models=model_names,
        attack_ratio=generator.attack_ratio,
        workers=shard_count,
        requested_workers=requested,
        steal_chunk=chunk_size,
    )
    fold = _MessageFold(result)

    start = time.perf_counter()
    if shard_count == 1:
        # The pool's worker loop, called in-process: no process, no pickling.
        tasks, messages = queue.SimpleQueue(), queue.SimpleQueue()
        for item in enumerate(chunks):
            tasks.put(item)
        tasks.put(None)
        fold.add_worker(0)
        _steal_worker(0, config, tasks, messages)
        while not messages.empty():
            fold(messages.get())
    else:
        result.mp_start_method = resolve_mp_context(mp_context)
        ctx = multiprocessing.get_context(result.mp_start_method)
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        for item in enumerate(chunks):
            task_queue.put(item)
        # NB: no shutdown sentinels yet -- the supervision loop enqueues them
        # only after every scenario index has been reported, so a chunk
        # requeued after a worker crash can never lose the race to one.
        active = {}
        for worker_id in range(shard_count):
            fold.add_worker(worker_id)
            active[worker_id] = ctx.Process(
                target=_steal_worker,
                args=(worker_id, config, task_queue, result_queue),
                daemon=True,
            )
        for process in active.values():
            process.start()
        try:
            _supervise_pool(ctx, config, task_queue, result_queue, active, fold)
        finally:
            # Normal path: every worker has already exited.  Error path: reap
            # whatever is still draining the task queue.
            for process in active.values():
                if process.is_alive():
                    process.terminate()
                process.join()
    result.duration_s = time.perf_counter() - start
    fold.finish()

    if persist_failures:
        for failure in result.failure_specs:
            path = save_failure(
                failure["spec"],
                models=model_names,
                reason=failure["reason"],
                replay=failure["replay"],
                faults=failure.get("faults"),
                directory=corpus_dir,
            )
            result.corpus_paths.append(str(path))
    return result
