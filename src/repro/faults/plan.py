"""Deterministic fault-injection plane.

The plane is a *schedule*, not a random process: every fault decision is a
pure function of ``(config seed, scenario, model, site, invocation index)``
derived through SHA-256, so a fault schedule replays bit-for-bit across
processes, platforms, and interpreter invocations (no ``random`` module, no
wall clock — the repolint determinism gate applies here too).

Vocabulary:

* A :class:`FaultConfig` is the frozen, picklable description of a schedule:
  the seed, one rate per fault *site*, the burst cap, and whether the
  resilience layer (retries) is armed.  It travels through worker configs
  and corpus pins as a plain dict (:meth:`FaultConfig.to_dict`).
* A :class:`FaultPlan` is the per-run instance derived via
  :meth:`FaultConfig.plan_for`.  Stack tiers call :meth:`FaultPlan.decide`
  at their fault site; a non-``None`` answer names the fault kind to inject.
  The plan also accumulates :class:`FaultStats` (injections, retries,
  suppressed duplicates, virtual-clock recovery latency).

Two structural guarantees keep the plane analysable:

* **Passivity** — with every rate at zero, :meth:`FaultPlan.decide` returns
  ``None`` before touching any counter or hash, so an armed-but-empty plan
  is byte-identical to no plan at all (property-tested in
  ``tests/scenarios/test_fault_passivity.py``).
* **Bounded bursts** — at most :attr:`FaultConfig.burst_cap` consecutive
  faults fire at one site; the draw after a full burst is forced clean.
  Any retry loop with more than ``burst_cap`` attempts therefore converges
  deterministically, which is what lets the chaos oracle demand exact
  digest convergence for benign scenarios with retries on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

#: Named fault sites.  The string is the stable wire/artifact identifier.
SITE_NETWORK = "network.request"
SITE_STORAGE = "storage.write"
SITE_XHR = "xhr.completion"
SITE_WORKER = "executor.worker"

#: Fault kinds injectable at each site.
SITE_KINDS: dict[str, tuple[str, ...]] = {
    SITE_NETWORK: ("drop", "timeout", "http_500"),
    SITE_STORAGE: ("busy", "io"),
    SITE_XHR: ("lose", "duplicate"),
    SITE_WORKER: ("crash",),
}

#: Maximum consecutive faults at one site before a draw is forced clean.
DEFAULT_BURST_CAP = 2

#: Total dispatch attempts for a faulted network exchange (initial + retries).
#: Must exceed the burst cap so a retried request always lands.
NETWORK_RETRY_ATTEMPTS = 4

#: Total completion-post attempts for a lost XHR completion.
XHR_RETRY_ATTEMPTS = 4

#: Virtual-clock exponential backoff for async XHR completion retries.
XHR_BACKOFF_BASE_MS = 2.0
XHR_BACKOFF_CAP_MS = 16.0

_SITE_FIELDS = {
    SITE_NETWORK: "network",
    SITE_STORAGE: "storage",
    SITE_XHR: "xhr",
    SITE_WORKER: "worker",
}


def _draw(key: str, lane: str, index: int) -> int:
    """64-bit deterministic draw for ``(key, lane, index)``.

    SHA-256 rather than ``hash()`` (randomised per process) or ``random``
    (banned by the determinism lint): the schedule must be identical in
    every worker process that replays it.
    """
    digest = hashlib.sha256(f"{key}|{lane}|{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


_DRAW_SPACE = float(1 << 64)


@dataclass
class FaultStats:
    """Counters accumulated by a plan over one scenario run.

    Everything here is *reporting* data: it feeds ``BENCH_faults.json`` and
    suite ``as_dict`` output but is deliberately excluded from
    ``parity_dict`` so fault accounting can never perturb the serial/
    parallel or dict/sqlite parity oracles.
    """

    injected: dict[str, int] = field(default_factory=dict)
    retries: dict[str, int] = field(default_factory=dict)
    suppressed_duplicates: int = 0
    recoveries: int = 0
    recovery_latency_ms: float = 0.0

    def note_injected(self, site: str, kind: str) -> None:
        key = f"{site}:{kind}"
        self.injected[key] = self.injected.get(key, 0) + 1

    def note_retry(self, site: str, *, latency_ms: float = 0.0) -> None:
        self.retries[site] = self.retries.get(site, 0) + 1
        self.recovery_latency_ms += latency_ms

    def note_recovery(self) -> None:
        self.recoveries += 1

    def note_suppressed(self) -> None:
        self.suppressed_duplicates += 1

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    def as_dict(self) -> dict:
        """Compact dict form; ``{}`` when the run saw no fault activity."""
        if not self.injected and not self.retries and not self.suppressed_duplicates:
            return {}
        return {
            "injected": dict(sorted(self.injected.items())),
            "retries": dict(sorted(self.retries.items())),
            "suppressed_duplicates": self.suppressed_duplicates,
            "recoveries": self.recoveries,
            "recovery_latency_ms": self.recovery_latency_ms,
        }


def merge_fault_stats(target: dict, extra: dict) -> dict:
    """Merge one ``FaultStats.as_dict`` payload into an aggregate, in place."""
    for key, value in extra.items():
        if isinstance(value, dict):
            bucket = target.setdefault(key, {})
            for sub, count in value.items():
                bucket[sub] = bucket.get(sub, 0) + count
        else:
            target[key] = target.get(key, 0) + value
    return target


@dataclass(frozen=True)
class FaultConfig:
    """Frozen, picklable description of a fault schedule.

    ``seed`` may be any int or string; distinct seeds give statistically
    independent schedules.  Rates are per-site fault probabilities in
    ``[0, 1]``.  ``retries`` arms the resilience layer (bounded retry /
    backoff / respawn); with it off, faults surface as degraded-but-
    deterministic outcomes so the fail-closed oracle can probe the worst
    case.
    """

    seed: int | str = 0
    network: float = 0.0
    storage: float = 0.0
    xhr: float = 0.0
    worker: float = 0.0
    burst_cap: int = DEFAULT_BURST_CAP
    retries: bool = True

    @classmethod
    def empty(cls, *, seed: int | str = 0, retries: bool = True) -> "FaultConfig":
        """An armed-but-empty plan: every decision is a pass (passivity)."""
        return cls(seed=seed, retries=retries)

    @classmethod
    def uniform(cls, *, seed: int | str, rate: float, retries: bool = True) -> "FaultConfig":
        """Same rate at every in-run site (worker crashes stay opt-in)."""
        return cls(seed=seed, network=rate, storage=rate, xhr=rate, retries=retries)

    @property
    def is_empty(self) -> bool:
        return self.network == 0.0 and self.storage == 0.0 and self.xhr == 0.0 and self.worker == 0.0

    def rate_for(self, site: str) -> float:
        return float(getattr(self, _SITE_FIELDS[site]))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "network": self.network,
            "storage": self.storage,
            "xhr": self.xhr,
            "worker": self.worker,
            "burst_cap": self.burst_cap,
            "retries": self.retries,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultConfig":
        return cls(
            seed=payload.get("seed", 0),
            network=float(payload.get("network", 0.0)),
            storage=float(payload.get("storage", 0.0)),
            xhr=float(payload.get("xhr", 0.0)),
            worker=float(payload.get("worker", 0.0)),
            burst_cap=int(payload.get("burst_cap", DEFAULT_BURST_CAP)),
            retries=bool(payload.get("retries", True)),
        )

    def plan_for(self, scenario_key: str, model: str) -> "FaultPlan":
        """Derive the per-(scenario, model) plan instance.

        The key mixes the config seed with both coordinates so every cell
        of a policy matrix sees its own independent — but replayable —
        schedule.
        """
        return FaultPlan(self, key=f"{self.seed}|{scenario_key}|{model}")

    def crash_schedule(self, workers: int, chunks: int) -> tuple[int, ...]:
        """Deterministic worker-crash schedule for an executor pool.

        Returns sorted 0-based steal-queue chunk ordinals: whichever worker
        claims one of those chunks dies mid-chunk.  Keying on the chunk
        rather than the worker keeps the schedule independent of steal
        timing.  Empty when the ``worker`` rate is zero.  At most
        ``workers - 1`` ordinals are drawn: killing every worker of the
        pool models a cluster outage, not a worker fault, and the
        supervisor's respawn budget is one replacement per worker.
        """
        if self.worker <= 0.0 or workers <= 1 or chunks <= 0:
            return ()
        ordinals: set[int] = set()
        for slot in range(workers - 1):
            roll = _draw(str(self.seed), f"{SITE_WORKER}:gate", slot)
            if roll / _DRAW_SPACE < self.worker:
                ordinals.add(_draw(str(self.seed), f"{SITE_WORKER}:chunk", slot) % chunks)
        return tuple(sorted(ordinals))


class FaultPlan:
    """Stateful per-run fault schedule with resilience accounting.

    Not thread/process safe and never shipped across processes: workers
    rebuild plans from the :class:`FaultConfig` dict in their config.
    """

    def __init__(self, config: FaultConfig, *, key: str) -> None:
        self.config = config
        self.key = key
        self.stats = FaultStats()
        self._counters: dict[str, int] = {}
        self._streaks: dict[str, int] = {}
        # Rates are frozen on the config, so snapshot them once: decide()
        # sits on the hot path of every network dispatch, storage write and
        # posted task, and the zero-rate (passivity) exit must stay a single
        # dict lookup.
        self._rates = {site: config.rate_for(site) for site in _SITE_FIELDS}

    @property
    def retries(self) -> bool:
        return self.config.retries

    @property
    def burst_cap(self) -> int:
        return self.config.burst_cap

    def wants(self, site: str) -> bool:
        """Whether ``site`` can ever fire under this plan.

        Lets hot paths skip installing per-event hooks (e.g. the event
        loop's task interceptor) for sites whose rate is zero -- the
        outcome is identical either way, a zero-rate :meth:`decide` always
        declines, so this is purely a cost gate.
        """
        return self._rates[site] > 0.0

    def decide(self, site: str) -> str | None:
        """Return the fault kind to inject at ``site`` now, or ``None``.

        Zero-rate sites short-circuit before touching any counter — that,
        plus callers gating on ``plan is None``, is the whole passivity
        story.
        """
        rate = self._rates[site]
        if rate <= 0.0:
            return None
        index = self._counters.get(site, 0)
        self._counters[site] = index + 1
        if self._streaks.get(site, 0) >= self.config.burst_cap:
            # Burst cap reached: force a clean slot so bounded retry loops
            # always converge.
            self._streaks[site] = 0
            return None
        roll = _draw(self.key, site, index)
        if roll / _DRAW_SPACE >= rate:
            self._streaks[site] = 0
            return None
        kinds = SITE_KINDS[site]
        kind = kinds[_draw(self.key, f"{site}:kind", index) % len(kinds)]
        self._streaks[site] = self._streaks.get(site, 0) + 1
        self.stats.note_injected(site, kind)
        return kind
