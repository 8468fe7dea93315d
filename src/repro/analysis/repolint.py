"""Repo-invariant linter: static CI gates for the invariants tests enforce.

PRs 5-8 added *dynamic* checks for a family of repo invariants -- caches
must be able to restart their telemetry, webapp mutations must advance the
state generation so response memos invalidate, scenario runs must be
deterministic, nothing may deserialize with pickle.  This module turns them into *static* rules over the Python
AST so CI rejects a violating diff before any scenario runs.

Rule catalogue (ids are what suppressions name):

``webapps-touch-state``
    Every POST route handler in ``repro.webapps`` must (transitively, via
    module-local ``self.*`` calls) either advance the content generation
    (``touch_state`` / storage mutators ``insert``/``update``/``delete``/
    ``bump``) or mutate the session tier (``login``/``logout``/
    ``sessions.create``/``sessions.destroy``).  A mutator that does neither
    serves stale memoised responses.
``cache-reset-counters``
    Every class named ``*Cache`` must define ``reset_counters`` -- zeroing
    the hit/miss telemetry while keeping entries warm is how benchmarks
    measure one phase's hit rate over an already-warm cache.
``determinism``
    No ``time.time`` / ``time.time_ns`` / ``random.random`` /
    ``datetime.now`` / ``datetime.utcnow`` calls inside ``src/repro``:
    scenario replay and the parallel-executor parity oracle require
    virtual-clock time and seeded randomness only.
``no-bare-except``
    ``except:`` swallows ``BudgetExceeded`` and ``AccessDenied`` signals
    the engine relies on; name the exception type.
``pickle-confinement``
    No module may import ``pickle`` (``PICKLE_ALLOWED`` is empty): it is an
    eval-equivalent deserialization surface, and everything that crosses a
    process boundary here is plain data.

Suppression: append ``# repolint: allow[<rule-id>]`` to the flagged line.

Run as ``python -m repro.analysis.repolint [paths...]`` (default
``src/repro``); exits non-zero when violations remain.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path

#: Modules allowed to import pickle: none.
PICKLE_ALLOWED: tuple[str, ...] = ()

#: ``module.attribute`` call chains banned by the determinism rule.
NONDETERMINISTIC_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("random", "random"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}

#: Attribute names on ``self.storage`` that advance the content version.
STORAGE_MUTATORS = {"insert", "update", "delete", "bump", "seed"}

#: Attribute names on ``self.sessions`` that advance the session version.
SESSION_MUTATORS = {"create", "destroy"}

#: ``self.<name>(...)`` calls that count as state mutation directly.
SELF_MUTATORS = {"touch_state", "login", "logout"}

_SUPPRESS_RE = re.compile(r"#\s*repolint:\s*allow\[([a-z0-9-]+)\]")


@dataclass(frozen=True)
class Violation:
    """One rule breach at a specific source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Rule:
    """Base class: subclasses set ``rule_id`` and implement ``check``."""

    rule_id = ""

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        raise NotImplementedError

    def _violation(self, path: Path, node: ast.AST, message: str) -> Violation:
        return Violation(str(path), getattr(node, "lineno", 0), self.rule_id, message)


def _self_attr_chain(node: ast.AST) -> tuple[str, ...] | None:
    """``self.a.b`` -> ("a", "b"); None when not rooted at ``self``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self":
        return tuple(reversed(parts))
    return None


class WebappsTouchStateRule(Rule):
    """POST handlers must mutate state through a tracked channel."""

    rule_id = "webapps-touch-state"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        if "webapps" not in path.parts:
            return []
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                violations.extend(self._check_class(node, path))
        return violations

    def _check_class(self, class_def: ast.ClassDef, path: Path) -> list[Violation]:
        methods: dict[str, ast.FunctionDef] = {
            item.name: item
            for item in class_def.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        post_handlers = self._post_handlers(class_def)
        violations: list[Violation] = []
        for handler_name in sorted(post_handlers):
            method = methods.get(handler_name)
            if method is None:
                continue
            if not self._mutates(method, methods, seen=set()):
                violations.append(
                    self._violation(
                        path,
                        method,
                        f"POST handler {class_def.name}.{handler_name} never calls "
                        "touch_state()/login()/logout() or a storage/session mutator "
                        "-- memoised responses will go stale",
                    )
                )
        return violations

    def _post_handlers(self, class_def: ast.ClassDef) -> set[str]:
        handlers: set[str] = set()
        for node in ast.walk(class_def):
            if not (isinstance(node, ast.Call) and len(node.args) >= 3):
                continue
            chain = _self_attr_chain(node.func)
            if chain != ("route",):
                continue
            method_arg = node.args[0]
            if not (isinstance(method_arg, ast.Constant) and method_arg.value == "POST"):
                continue
            handler_chain = _self_attr_chain(node.args[2])
            if handler_chain is not None and len(handler_chain) == 1:
                handlers.add(handler_chain[0])
        return handlers

    def _mutates(self, method: ast.FunctionDef, methods, seen: set[str]) -> bool:
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            chain = _self_attr_chain(node.func)
            if chain is None:
                continue
            if len(chain) == 1:
                name = chain[0]
                if name in SELF_MUTATORS:
                    return True
                # Recurse through module-local helpers (``self._insert(...)``).
                helper = methods.get(name)
                if helper is not None and name not in seen:
                    seen.add(name)
                    if self._mutates(helper, methods, seen):
                        return True
            elif len(chain) == 2:
                root, leaf = chain
                if root == "storage" and leaf in STORAGE_MUTATORS:
                    return True
                if root == "sessions" and leaf in SESSION_MUTATORS:
                    return True
        return False


class CacheResetCountersRule(Rule):
    """``*Cache`` classes must be able to restart their hit/miss telemetry."""

    rule_id = "cache-reset-counters"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Cache"):
                continue
            has_hook = any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "reset_counters"
                for item in node.body
            )
            if not has_hook:
                violations.append(
                    self._violation(
                        path,
                        node,
                        f"cache class {node.name} does not define reset_counters() "
                        "-- a measurement cannot restart its hit/miss telemetry "
                        "over warm entries",
                    )
                )
        return violations


class DeterminismRule(Rule):
    """No wall-clock or unseeded randomness inside the engine."""

    rule_id = "determinism"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
                continue
            pair = (func.value.id, func.attr)
            if pair in NONDETERMINISTIC_CALLS:
                violations.append(
                    self._violation(
                        path,
                        node,
                        f"{pair[0]}.{pair[1]}() breaks scenario determinism; use the "
                        "virtual clock / a seeded Random instead",
                    )
                )
        return violations


class NoBareExceptRule(Rule):
    """``except:`` must name a type (it would swallow engine signals)."""

    rule_id = "no-bare-except"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        return [
            self._violation(path, node, "bare except: name the exception type")
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is None
        ]


class PickleConfinementRule(Rule):
    """No module imports pickle outside ``PICKLE_ALLOWED`` (empty)."""

    rule_id = "pickle-confinement"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        posix = path.as_posix()
        if any(posix.endswith(allowed) for allowed in PICKLE_ALLOWED):
            return []
        violations: list[Violation] = []
        for node in ast.walk(tree):
            imported = None
            if isinstance(node, ast.Import):
                if any(alias.name.split(".")[0] == "pickle" for alias in node.names):
                    imported = "import pickle"
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "pickle":
                    imported = "from pickle import ..."
            if imported:
                allowed = ", ".join(PICKLE_ALLOWED) or "none"
                violations.append(
                    self._violation(
                        path,
                        node,
                        f"{imported}: pickle is an eval-equivalent deserialization "
                        f"surface (modules allowed to import it: {allowed})",
                    )
                )
        return violations


#: Identifier fragments that mark a loop as a retry/backoff loop.
_RETRY_MARKERS = ("retry", "retries", "attempt", "backoff")


class BoundedRetryRule(Rule):
    """Retry loops must carry an explicit attempt bound.

    A ``while True`` (or ``while 1``) loop whose body talks about retries,
    attempts or backoff is the unbounded-resilience anti-pattern: one
    permanently failing fault site would spin it forever.  The fault
    plane's burst cap only guarantees convergence to *bounded* loops, so
    retry loops are written ``for attempt in range(N)`` -- the cap is then
    visible at the call site and enforced by construction.
    """

    rule_id = "bounded-retry"

    @staticmethod
    def _is_while_true(node: ast.While) -> bool:
        test = node.test
        return isinstance(test, ast.Constant) and test.value in (True, 1)

    @staticmethod
    def _mentions_retry(node: ast.While) -> bool:
        for child in ast.walk(node):
            name = None
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.arg):
                name = child.arg
            if name is None:
                continue
            lowered = name.lower()
            if any(marker in lowered for marker in _RETRY_MARKERS):
                return True
        return False

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        return [
            self._violation(
                path,
                node,
                "unbounded retry loop: 'while True' with retry/attempt/backoff "
                "state; use 'for attempt in range(N)' so the attempt cap is "
                "explicit",
            )
            for node in ast.walk(tree)
            if isinstance(node, ast.While)
            and self._is_while_true(node)
            and self._mentions_retry(node)
        ]


#: Default rule set, in report order.
ALL_RULES: tuple[Rule, ...] = (
    WebappsTouchStateRule(),
    CacheResetCountersRule(),
    DeterminismRule(),
    NoBareExceptRule(),
    PickleConfinementRule(),
    BoundedRetryRule(),
)


def _suppressed(violation: Violation, source_lines: list[str]) -> bool:
    index = violation.line - 1
    if 0 <= index < len(source_lines):
        for match in _SUPPRESS_RE.finditer(source_lines[index]):
            if match.group(1) == violation.rule:
                return True
    return False


def lint_file(path: Path, rules: tuple[Rule, ...] = ALL_RULES) -> list[Violation]:
    """Run every rule over one file, honouring inline suppressions."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [Violation(str(path), error.lineno or 0, "syntax", str(error.msg))]
    lines = source.splitlines()
    violations: list[Violation] = []
    for rule in rules:
        for violation in rule.check(tree, path):
            if not _suppressed(violation, lines):
                violations.append(violation)
    return violations


def lint_paths(paths: list[Path], rules: tuple[Rule, ...] = ALL_RULES) -> list[Violation]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    violations: list[Violation] = []
    for file_path in files:
        violations.extend(lint_file(file_path, rules))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    targets = [Path(argument) for argument in arguments] or [Path("src/repro")]
    missing = [target for target in targets if not target.exists()]
    if missing:
        print(f"repolint: no such path: {missing[0]}", file=sys.stderr)
        return 2
    violations = lint_paths(targets)
    for violation in violations:
        print(violation)
    checked = sum(
        len(sorted(target.rglob("*.py"))) if target.is_dir() else 1 for target in targets
    )
    status = "clean" if not violations else f"{len(violations)} violation(s)"
    print(f"repolint: {checked} file(s) checked, {status}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
