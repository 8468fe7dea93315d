"""Differential scenario engine.

Randomized multi-user, multi-tab browsing sessions -- with optional attack
injections from the :mod:`repro.attacks` corpus -- executed under a policy
matrix (``escudo`` / ``sop`` / ``none``) and checked by a differential
oracle: benign sessions must be state-transparent across models, attacks
must be blocked exactly under ESCUDO, and every denial must be attributable
to a mediation decision in the audit log.

Quickstart::

    from repro.scenarios import run_suite
    result = run_suite(seed=42, count=50)
    assert result.ok, result.summary()

Or sharded across worker processes (the merged report is byte-identical to
the serial run of the same seed range, and failing specs are pinned into the
regression corpus under ``tests/scenarios/corpus/``)::

    from repro.scenarios import run_suite_parallel
    result = run_suite_parallel(seed=42, count=200, workers=4)

Or from the command line::

    python -m repro.scenarios --seed 42 --count 200 --workers 4
"""

from .corpus import CorpusEntry, default_corpus_dir, load_corpus, save_entry, save_failure
from .engine import SuiteResult, run_suite
from .generator import ScenarioGenerator, attack_by_name, attack_corpus
from .model import (
    ACTIONS,
    MODEL_MATRIX,
    Actor,
    ModelSpec,
    Scenario,
    Step,
    canonical_spec_json,
    make_step,
    resolve_models,
)
from .oracle import DifferentialOracle, Verdict
from .parallel import (
    ParallelSuiteResult,
    default_steal_chunk,
    resolve_mp_context,
    run_suite_parallel,
    steal_chunks,
)
from .runner import DenialRecord, ScenarioRun, ScenarioRunner

__all__ = [
    "ACTIONS",
    "Actor",
    "CorpusEntry",
    "DenialRecord",
    "DifferentialOracle",
    "MODEL_MATRIX",
    "ModelSpec",
    "ParallelSuiteResult",
    "Scenario",
    "ScenarioGenerator",
    "ScenarioRun",
    "ScenarioRunner",
    "Step",
    "SuiteResult",
    "Verdict",
    "attack_by_name",
    "attack_corpus",
    "canonical_spec_json",
    "default_corpus_dir",
    "default_steal_chunk",
    "load_corpus",
    "make_step",
    "resolve_models",
    "resolve_mp_context",
    "run_suite",
    "run_suite_parallel",
    "steal_chunks",
    "save_entry",
    "save_failure",
]
