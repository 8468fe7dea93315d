"""Repo-invariant linter: static CI gates for the invariants tests enforce.

PRs 5-8 added *dynamic* checks for a family of repo invariants -- caches
must be able to restart their telemetry, webapp mutations must go through
storage so response memos invalidate, scenario runs must be
deterministic, nothing may deserialize with pickle.  This module turns them into *static* rules over the Python
AST so CI rejects a violating diff before any scenario runs.

Rule catalogue (ids are what suppressions name):

``webapps-touch-state``
    Every POST route handler in ``repro.webapps`` must (transitively, via
    module-local ``self.*`` calls) write through a storage mutator
    (``STORAGE_MUTATORS``), ``login``/``logout``, ``sessions.create``/
    ``destroy`` or ``Session.set``, all of which move the storage write
    digest.  A mutator that writes none serves stale memoised responses.
``webapps-get-read-only``
    No GET route handler may reach any of those writes: a memo hit skips
    the handler, so the run's state would depend on the memo's warmth.
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
    ``except:`` swallows the script engine's ``BudgetExceeded`` signal
    along with ``KeyboardInterrupt`` and ``SystemExit``; name the
    exception type.
``pickle-confinement``
    No module may import ``pickle`` (``PICKLE_ALLOWED`` is empty): it is an
    eval-equivalent deserialization surface, and everything that crosses a
    process boundary here is plain data.
``host-members``
    A ``HostObject`` subclass may not define ``js_get`` / ``js_set`` /
    ``js_call``: scripts reach host objects only through the member tables
    of :mod:`repro.scripting.host_members`, which the mediation census walks.
``dom-slots``
    A class deriving from :class:`repro.dom.node.Node` must declare
    ``__slots__``: the template cache keeps thousands of DOM nodes alive for
    a whole run, and one class without slots gives every instance a
    ``__dict__`` again.  Bases are resolved through the module's imports, so
    other classes that happen to be called ``Node`` (the script AST's) are
    out of scope.

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

#: Attribute names on ``self.storage`` that write (and move the write digest).
STORAGE_MUTATORS = {"create_table", "insert", "insert_many", "update", "delete", "seed"}

#: Attribute names on ``self.sessions`` that write the session table.
SESSION_MUTATORS = {"create", "destroy"}

#: ``self.<name>(...)`` calls that count as state mutation directly.
SELF_MUTATORS = {"login", "logout"}

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
    http_method = "POST"

    def message(self, handler: str, write: ast.Call | None) -> str:
        """The violation for ``handler`` reaching ``write``, or "" when none."""
        if write is not None:
            return ""
        return (f"POST handler {handler} never calls login()/logout(), Session.set "
                "or a storage/session mutator -- memoised responses will go stale")

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        if "webapps" not in path.parts:
            return []
        violations: list[Violation] = []
        for class_def in ast.walk(tree):
            if not isinstance(class_def, ast.ClassDef):
                continue
            methods: dict[str, ast.FunctionDef] = {
                item.name: item
                for item in class_def.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for handler_name in sorted(self._handlers(class_def)):
                method = methods.get(handler_name)
                if method is None:
                    continue
                write = self._first_write(method, methods, seen=set())
                message = self.message(f"{class_def.name}.{handler_name}", write)
                if message:
                    violations.append(self._violation(path, method, message))
        return violations

    def _handlers(self, class_def: ast.ClassDef) -> set[str]:
        handlers: set[str] = set()
        for node in ast.walk(class_def):
            if not (isinstance(node, ast.Call) and len(node.args) >= 3):
                continue
            chain = _self_attr_chain(node.func)
            if chain != ("route",):
                continue
            method_arg = node.args[0]
            if not (isinstance(method_arg, ast.Constant) and method_arg.value == self.http_method):
                continue
            handler_chain = _self_attr_chain(node.args[2])
            if handler_chain is not None and len(handler_chain) == 1:
                handlers.add(handler_chain[0])
        return handlers

    def _first_write(self, method: ast.FunctionDef, methods, seen: set[str]) -> ast.Call | None:
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func) or ""
            if dotted == "session.set" or dotted.endswith(".session.set"):
                return node
            chain = _self_attr_chain(node.func)
            if chain is None:
                continue
            if len(chain) == 1:
                name = chain[0]
                if name in SELF_MUTATORS:
                    return node
                # Recurse through module-local helpers (``self._insert(...)``).
                helper = methods.get(name)
                if helper is not None and name not in seen:
                    seen.add(name)
                    write = self._first_write(helper, methods, seen)
                    if write is not None:
                        return write
            elif len(chain) == 2:
                root, leaf = chain
                if root == "storage" and leaf in STORAGE_MUTATORS:
                    return node
                if root == "sessions" and leaf in SESSION_MUTATORS:
                    return node
        return None


class WebappsGetReadOnlyRule(WebappsTouchStateRule):
    """GET handlers must not write: a memo hit skips them."""

    rule_id = "webapps-get-read-only"
    http_method = "GET"

    def message(self, handler: str, write: ast.Call | None) -> str:
        if write is None:
            return ""
        return (f"GET handler {handler} writes state ({ast.unparse(write.func)} at line "
                f"{write.lineno}) -- a memo hit would skip the write")


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


#: The dispatch methods only ``HostObject`` itself may define.
HOST_DISPATCH_METHODS = frozenset({"js_get", "js_set", "js_call"})


class HostMembersRule(Rule):
    """Host objects dispatch only through their member table."""

    rule_id = "host-members"

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        hosts = {"HostObject"}  # grows with the module's own subclasses
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(getattr(base, "attr", getattr(base, "id", None)) in hosts for base in node.bases):
                continue
            hosts.add(node.name)
            violations += [
                self._violation(path, item, f"{node.name}.{item.name} bypasses the member table: "
                                "declare the member in repro.scripting.host_members instead")
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name in HOST_DISPATCH_METHODS
            ]
        return violations


#: The DOM node classes, by the modules that define or re-export them.
DOM_NODE_MODULES = frozenset({"repro.dom", "repro.dom.node", "repro.dom.element", "repro.dom.document"})
DOM_NODE_CLASSES = frozenset({"Node", "TextNode", "CommentNode", "Element", "Document"})


def _module_name(path: Path) -> str:
    """Dotted module name of a file under a ``repro`` package ("" elsewhere)."""
    parts = path.with_suffix("").parts
    if "repro" not in parts:
        return ""
    dotted = list(parts[parts.index("repro"):])
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


def _imported_names(tree: ast.Module, path: Path) -> dict[str, str]:
    """Local name -> dotted name of what the module's imports bind to it."""
    module = _module_name(path)
    package = module.split(".") if path.stem == "__init__" else module.split(".")[:-1]
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    names[head] = head
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                base = package[: len(package) - node.level + 1] if module else []
                source = ".".join([*base, *([source] if source else [])])
            for alias in node.names:
                names[alias.asname or alias.name] = f"{source}.{alias.name}"
    return names


def _dotted(node: ast.AST) -> str | None:
    """``a.b.C`` as a string, or ``None`` for anything but a name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class DomSlotsRule(Rule):
    """DOM node classes declare ``__slots__``."""

    rule_id = "dom-slots"

    @staticmethod
    def _is_dom_class(qualified: str) -> bool:
        module, _, name = qualified.rpartition(".")
        return module in DOM_NODE_MODULES and name in DOM_NODE_CLASSES

    @staticmethod
    def _declares_slots(node: ast.ClassDef) -> bool:
        for item in node.body:
            targets = item.targets if isinstance(item, ast.Assign) else [getattr(item, "target", None)]
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                return True
        return False

    def check(self, tree: ast.Module, path: Path) -> list[Violation]:
        imported = _imported_names(tree, path)
        module = _module_name(path)
        local_dom: set[str] = set()  # the module's own DOM node classes
        violations: list[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            is_dom = self._is_dom_class(f"{module}.{node.name}")
            for base in node.bases:
                dotted = _dotted(base)
                if dotted is None:
                    continue
                head, _, rest = dotted.partition(".")
                if head in local_dom and not rest:
                    is_dom = True
                    continue
                qualified = imported.get(head, head) + (f".{rest}" if rest else "")
                is_dom = is_dom or self._is_dom_class(qualified)
            if not is_dom:
                continue
            local_dom.add(node.name)
            if not self._declares_slots(node):
                violations.append(
                    self._violation(path, node, f"DOM node class {node.name} does not declare "
                                    "__slots__: every instance would carry a __dict__")
                )
        return violations


#: Default rule set, in report order.
ALL_RULES: tuple[Rule, ...] = (
    WebappsTouchStateRule(),
    WebappsGetReadOnlyRule(),
    CacheResetCountersRule(),
    DeterminismRule(),
    NoBareExceptRule(),
    PickleConfinementRule(),
    BoundedRetryRule(),
    HostMembersRule(),
    DomSlotsRule(),
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
