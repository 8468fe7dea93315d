"""Runtime screen checking the static analyzer's soundness contract.

:class:`StaticScreen` sits between the reference monitor and the static
analyzer.  Browsers created with a screen install ``screen.record`` as the
monitor's per-decision observer and wrap every script execution (document
scripts, inline handlers, timers, listeners, async XHR completions) in
``screen.attribute(digest)``, so each mediation decision lands on the digest
of the script that caused it.  Each digest's report comes from the
:class:`~repro.scripting.cache.ScriptCache` entry of its source.

:meth:`StaticScreen.verify` then enforces, per script::

    {categories of dynamically recorded decisions}  ⊆  report.sinks

Any uncovered category is a **false negative** -- the analyzer claimed a
script could never trigger a mediation it demonstrably did -- and raises
:class:`SoundnessViolation` naming the digest, the missing categories and a
source excerpt.  Over-prediction (sinks never observed) is tolerated and
surfaced as a false-positive rate via :meth:`false_positive_stats`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.decision import AccessDecision, Operation
from repro.scripting.analysis import (
    COOKIE_READ,
    COOKIE_USE,
    COOKIE_WRITE,
    DOM_READ,
    DOM_USE,
    DOM_WRITE,
    XHR_USE,
)
from repro.scripting.cache import ScriptCache

#: ``object_label`` of the USE decision guarding the DOM native API.
_DOM_API_LABEL = "DOM API (native-api)"
#: ``object_label`` of the USE decision guarding XHR completion.
_XHR_LABEL = "XMLHttpRequest (native-api)"


def classify_decision(decision: AccessDecision) -> str | None:
    """Map a monitor decision to its static sink category.

    Classification keys on the decision's ``(operation, object_label)``
    pair, mirroring how the mediation layer labels its targets:

    - ``cookie:<name>`` -- cookie jar entries;
    - ``XMLHttpRequest (native-api)`` / ``DOM API (native-api)`` -- native
      API use checks;
    - ``<tag> ...`` -- per-element decisions (including tamper denials,
      whose label is the bare ``<tag>``).

    Returns ``None`` for labels outside the script-reachable surface; the
    screen records those and :meth:`StaticScreen.verify` fails loudly, so a
    new mediation path cannot silently escape the soundness check.
    """
    label = decision.object_label
    operation = decision.operation
    if label.startswith("cookie:"):
        if operation is Operation.READ:
            return COOKIE_READ
        if operation is Operation.WRITE:
            return COOKIE_WRITE
        return COOKIE_USE
    if label == _XHR_LABEL:
        return XHR_USE
    if label == _DOM_API_LABEL:
        return DOM_USE
    if label.startswith("<"):
        if operation is Operation.READ:
            return DOM_READ
        if operation is Operation.WRITE:
            return DOM_WRITE
        return DOM_USE
    return None


@dataclass
class SoundnessViolation(AssertionError):
    """A script dynamically triggered a mediation its report ruled out."""

    digest: str
    missing: frozenset[str]
    predicted: frozenset[str]
    source_excerpt: str

    def __str__(self) -> str:
        return (
            f"static analysis missed sink(s) {sorted(self.missing)} for script "
            f"{self.digest[:12]}… (predicted {sorted(self.predicted)}): "
            f"{self.source_excerpt!r}"
        )


@dataclass
class _ScriptRecord:
    """Dynamic observations accumulated for one script digest."""

    source_excerpt: str
    report: object = None
    observed: set[str] = field(default_factory=set)
    executions: int = 0


class StaticScreen:
    """Per-suite accumulator pairing static reports with dynamic audits."""

    def __init__(self, scripts: ScriptCache | None = None) -> None:
        #: Where reports are memoised; the scenario runner passes its stack's
        #: ``CompileCaches.scripts``, so execution and analysis share entries.
        self.scripts = scripts if scripts is not None else ScriptCache()
        #: digest -> dynamic record, for every script ever screened.
        self._records: dict[str, _ScriptRecord] = {}
        #: Stack of digests for the executions currently on the call stack
        #: (handlers fired from within scripts nest).
        self._stack: list[str] = []
        #: ``(digest, operation, object_label)`` of decisions no category
        #: claims -- a non-empty set fails :meth:`verify`.
        self.unclassified: list[tuple[str, str, str]] = []
        #: Decisions recorded while no script was executing (page build,
        #: warm-up) -- outside the contract by construction.
        self.unattributed = 0

    # -- attribution -------------------------------------------------------------------

    def observe_script(self, source: str) -> str:
        """Analyze ``source`` (memoised) and register its digest.

        Returns the digest to pass to :meth:`attribute`.
        """
        report = self.scripts.report_for(source)
        record = self._records.get(report.digest)
        if record is None:
            excerpt = " ".join(source.split())[:120]
            # Pin the report on the record: LRU eviction in the shared cache
            # must never exempt a script from verification.
            record = _ScriptRecord(source_excerpt=excerpt, report=report)
            self._records[report.digest] = record
        record.executions += 1
        return report.digest

    @contextmanager
    def attribute(self, digest: str):
        """Attribute monitor decisions inside the block to ``digest``."""
        self._stack.append(digest)
        try:
            yield
        finally:
            self._stack.pop()

    def record(self, decision: AccessDecision) -> None:
        """Monitor observer: file ``decision`` under the active script."""
        if not self._stack:
            self.unattributed += 1
            return
        digest = self._stack[-1]
        category = classify_decision(decision)
        if category is None:
            self.unclassified.append(
                (digest, decision.operation.value, decision.object_label)
            )
            return
        record = self._records.get(digest)
        if record is not None:
            record.observed.add(category)

    # -- verification ------------------------------------------------------------------

    def violations(self) -> list[SoundnessViolation]:
        """Every script whose dynamic accesses escape its predicted sinks."""
        found: list[SoundnessViolation] = []
        for digest, record in self._records.items():
            report = record.report
            missing = record.observed - report.sinks
            if missing:
                found.append(
                    SoundnessViolation(
                        digest=digest,
                        missing=frozenset(missing),
                        predicted=report.sinks,
                        source_excerpt=record.source_excerpt,
                    )
                )
        return found

    def verify(self) -> dict[str, object]:
        """Enforce the soundness contract; returns summary stats when green.

        Raises :class:`SoundnessViolation` on the first false negative and
        :class:`AssertionError` when any decision failed classification
        (an unknown mediation surface must extend the classifier, not slip
        through).
        """
        if self.unclassified:
            sample = self.unclassified[:5]
            raise AssertionError(
                f"{len(self.unclassified)} monitor decision(s) could not be "
                f"classified into a sink category; first: {sample}"
            )
        found = self.violations()
        if found:
            raise found[0]
        return self.false_positive_stats()

    def false_positive_stats(self) -> dict[str, object]:
        """Over-approximation quality of the analyzer on this corpus.

        A *false positive* is a predicted sink never observed for a script
        that actually executed (scripts whose every sink went unobserved
        because, say, policy denied them early still count -- the analyzer
        cannot know the policy).
        """
        scripts = 0
        predicted_total = 0
        observed_total = 0
        exact = 0
        for record in self._records.values():
            report = record.report
            scripts += 1
            predicted_total += len(report.sinks)
            observed_total += len(record.observed)
            if record.observed == report.sinks:
                exact += 1
        false_positives = predicted_total - observed_total
        return {
            "scripts": scripts,
            "predicted_sinks": predicted_total,
            "observed_sinks": observed_total,
            "false_positive_sinks": false_positives,
            "false_positive_rate": (
                false_positives / predicted_total if predicted_total else 0.0
            ),
            "exact_scripts": exact,
            "unattributed_decisions": self.unattributed,
        }

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly summary for benchmark reports."""
        stats = self.false_positive_stats()
        stats["report_cache"] = self.scripts.as_dict()["reports"]
        return stats
