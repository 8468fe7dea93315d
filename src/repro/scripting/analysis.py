"""Static mediation-flow analysis over MiniScript programs.

The reference monitor proves *dynamically*, per executed path, that every
script access to a protected object is mediated.  This module proves a
static **over-approximation** of the same property: given a script's AST it
computes every mediated *sink category* the script could ever trigger --
without executing it -- plus the taint flows from untrusted sources into
those sinks.  The soundness contract (checked end-to-end by
:mod:`repro.analysis.soundness`) is::

    dynamically audited access categories  ⊆  statically predicted sinks

for every script the scenario corpus executes.  The
analysis errs exclusively toward over-prediction: an access the analyzer
cannot rule out is predicted (a reported false positive), while a missed
access (false negative) is a mediation-bypass bug and fails the suite.

Pipeline, per program:

1. function discovery -- every ``function`` declaration/expression gets an
   id; declarations are *reachable* only if their name is referenced from
   reachable code (fixpoint), which is sound because MiniScript has no
   ``eval`` and no computed access to the script environment;
2. per-function :class:`ControlFlowGraph` construction (basic blocks with
   explicit successor edges; ``break``/``continue``/``return`` terminate
   blocks, constant-test branches prune never-taken edges);
3. reaching-definition tag propagation: a worklist dataflow over each CFG
   whose abstract state maps variables to finite *tag sets* (host objects
   like ``obj:Element``, bound methods like ``call:Element.setAttribute``,
   and taint marks like ``cookie``).  Join is pointwise union, the lattice
   is finite, so the fixpoint terminates.  What a member access does --
   its sinks, result, flows and escaping callbacks -- is read from the
   member tables of :mod:`repro.scripting.host_members`, the same tables
   the runtime dispatches through;
4. an interprocedural outer fixpoint: call sites merge argument tags into
   callee parameter slots, returns feed back summaries, and values escaping
   into host callbacks (timers, listeners, ``xhr.onload``) mark their
   functions as event handlers (parameters gain the ``event`` taint).

The emitted :class:`ScriptReport` is immutable and process-portable, which
lets :class:`repro.scripting.cache.ScriptCache` memoise it in the same
per-source entry as the parsed program.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from repro.core.config import PROTECTED_ATTRIBUTES

from . import ast_nodes as ast
from .errors import ScriptError
from .host_members import (  # the sink categories are re-exported from here
    ALL_SINKS,
    CALL,
    CALLABLES,
    CONSTRUCTOR_PREFIX,
    COOKIE_READ,
    COOKIE_USE,
    COOKIE_WRITE,
    DOM_READ,
    DOM_USE,
    DOM_WRITE,
    GET,
    GLOBAL_VALUES,
    OBJECT_PREFIX,
    SET,
    SET_ATTRIBUTE,
    SET_PREFIX,
    SOURCE_EVENT,
    TABLES,
    TAINTS,
    XHR_USE,
    Member,
    reachable,
)
from .parser import parse_script

_FUNC_PREFIX = "func:"

#: Objects whose calls arm a request: method arguments on such a receiver
#: pour their taint into the receiver variable.
_ARMING_OBJECTS = frozenset(
    OBJECT_PREFIX + host for host, members in TABLES.items() if any(m.arms for m in members)
)

# -- escalation markers (syntactic, advisory) -------------------------------------------

#: ``setAttribute('<protected attribute>', ...)`` appears in the program: the
#: Section-5 self-escalation attempt (tamper protection denies it).
MARKER_TAMPER = "tamper-attempt"
#: A string literal embeds markup claiming its own ring assignment -- the
#: mint-a-privileged-child vector (``innerHTML = '<div ring="0" ...>'``).
MARKER_PRIVILEGED_MARKUP = "privileged-markup"

_PRIVILEGED_MARKUP_RE = re.compile(r"\bring\s*=")


def script_digest(source: str) -> str:
    """SHA-256 digest of ``source`` -- the same key every compile cache uses."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


# -- the report -------------------------------------------------------------------------


@dataclass(frozen=True)
class ScriptReport:
    """Everything the static pass proves about one script."""

    #: Source digest (the script cache key).
    digest: str
    #: Over-approximated set of mediated sink categories (:data:`ALL_SINKS`).
    sinks: frozenset[str]
    #: ``(source, sink)`` taint flows into the active sinks.
    flows: frozenset[tuple[str, str]]
    #: Lines of statements that can never execute (post-terminator code,
    #: never-referenced function declarations).
    dead_statements: tuple[int, ...]
    #: Lines of branches pruned by a constant test.
    unreachable_branches: tuple[int, ...]
    #: AST-node count of the reachable region with every loop body counted
    #: once -- an upper bound on loop-free execution steps.
    step_bound: int
    #: Reachable function bodies analysed (declarations + expressions).
    functions: int
    #: Syntactic escalation markers (:data:`MARKER_TAMPER`,
    #: :data:`MARKER_PRIVILEGED_MARKUP`).  Advisory signature bits with no
    #: soundness obligation: the runtime records a denied tamper as a plain
    #: DOM write, but the markers separate privilege-escalation payloads
    #: from benign DOM writers the taint lattice alone cannot tell apart.
    markers: frozenset[str] = frozenset()
    #: Front-end failure, when the source does not parse (such a script
    #: executes nothing, so its sink set is empty by construction).
    error: str | None = None

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly form (sorted, for deterministic reports)."""
        return {
            "digest": self.digest,
            "sinks": sorted(self.sinks),
            "flows": sorted(list(pair) for pair in self.flows),
            "dead_statements": list(self.dead_statements),
            "unreachable_branches": list(self.unreachable_branches),
            "step_bound": self.step_bound,
            "functions": self.functions,
            "markers": sorted(self.markers),
            "error": self.error,
        }


# -- control-flow graphs ----------------------------------------------------------------


@dataclass
class BasicBlock:
    """A straight-line run of statements with explicit successor edges."""

    index: int
    statements: list = field(default_factory=list)
    successors: list[int] = field(default_factory=list)


class ControlFlowGraph:
    """Per-function CFG: blocks, an entry block and a distinguished exit."""

    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = [BasicBlock(0)]
        self.entry = 0
        self.exit = self.new_block()

    def new_block(self) -> int:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block.index

    def add_edge(self, src: int, dst: int) -> None:
        successors = self.blocks[src].successors
        if dst not in successors:
            successors.append(dst)


def _constant_truth(node) -> bool | None:
    """Truthiness of a literal test, or ``None`` when not statically known."""
    if isinstance(node, ast.BooleanLiteral):
        return node.value
    if isinstance(node, ast.NumberLiteral):
        return bool(node.value)
    if isinstance(node, ast.StringLiteral):
        return bool(node.value)
    if isinstance(node, ast.NullLiteral):
        return False
    return None


class _CfgBuilder:
    """Lowers a statement list into a :class:`ControlFlowGraph`.

    ``dead`` and ``unreachable`` collect diagnostic line numbers as a side
    effect: statements following a terminator in the same list, and branch
    arms pruned by constant tests.
    """

    def __init__(self, dead: set[int], unreachable: set[int]) -> None:
        self.dead = dead
        self.unreachable = unreachable
        self.cfg = ControlFlowGraph()
        self.current = self.cfg.entry
        #: (continue target, break target) per enclosing loop.
        self.loops: list[tuple[int, int]] = []

    def build(self, statements: list) -> ControlFlowGraph:
        terminated = self._lay_out(statements)
        if not terminated:
            self.cfg.add_edge(self.current, self.cfg.exit)
        return self.cfg

    # -- layout ------------------------------------------------------------------------

    def _lay_out(self, statements: list) -> bool:
        """Emit ``statements`` into the running block; True if control left."""
        for position, statement in enumerate(statements):
            if self._emit(statement):
                self._mark_dead(statements[position + 1:])
                return True
        return False

    def _emit(self, node) -> bool:
        """Emit one statement; True when it terminates the current block."""
        if isinstance(node, ast.Block):
            return self._lay_out(node.statements)
        if isinstance(node, ast.If):
            self._emit_if(node)
            return False
        if isinstance(node, (ast.While, ast.For)):
            self._emit_loop(node)
            return False
        if isinstance(node, ast.Return):
            self.cfg.blocks[self.current].statements.append(node)
            self.cfg.add_edge(self.current, self.cfg.exit)
            self.current = self.cfg.new_block()
            return True
        if isinstance(node, (ast.Break, ast.Continue)):
            if self.loops:
                header, exit_block = self.loops[-1]
                target = exit_block if isinstance(node, ast.Break) else header
                self.cfg.add_edge(self.current, target)
            self.current = self.cfg.new_block()
            return True
        self.cfg.blocks[self.current].statements.append(node)
        return False

    def _emit_if(self, node: ast.If) -> None:
        self.cfg.blocks[self.current].statements.append(("test", node.test))
        truth = _constant_truth(node.test)
        before = self.current
        join = self.cfg.new_block()

        if truth is False:
            self._mark_unreachable(node.consequent)
        else:
            self.current = self.cfg.new_block()
            self.cfg.add_edge(before, self.current)
            if not self._branch(node.consequent):
                self.cfg.add_edge(self.current, join)

        if node.alternate is None:
            if truth is not True:
                self.cfg.add_edge(before, join)
        elif truth is True:
            # Only the (unconditionally taken) consequent feeds the join.
            self._mark_unreachable(node.alternate)
        else:
            self.current = self.cfg.new_block()
            self.cfg.add_edge(before, self.current)
            if not self._branch(node.alternate):
                self.cfg.add_edge(self.current, join)
        self.current = join

    def _branch(self, statement) -> bool:
        body = statement.statements if isinstance(statement, ast.Block) else [statement]
        return self._lay_out(body)

    def _emit_loop(self, node) -> None:
        is_for = isinstance(node, ast.For)
        if is_for and node.init is not None:
            self.cfg.blocks[self.current].statements.append(node.init)
        header = self.cfg.new_block()
        self.cfg.add_edge(self.current, header)
        test = node.test
        if test is not None:
            self.cfg.blocks[header].statements.append(("test", test))
        exit_block = self.cfg.new_block()
        truth = _constant_truth(test) if test is not None else True

        if truth is False:
            self._mark_unreachable(node.body)
            self.cfg.add_edge(header, exit_block)
            self.current = exit_block
            return

        if truth is None:
            self.cfg.add_edge(header, exit_block)

        # ``continue`` in a for-loop must still run the update expression;
        # give it its own block between body and header.
        continue_target = header
        update_block = None
        if is_for and node.update is not None:
            update_block = self.cfg.new_block()
            self.cfg.blocks[update_block].statements.append(node.update)
            self.cfg.add_edge(update_block, header)
            continue_target = update_block

        self.loops.append((continue_target, exit_block))
        self.current = self.cfg.new_block()
        self.cfg.add_edge(header, self.current)
        if not self._branch(node.body):
            self.cfg.add_edge(self.current, continue_target)
        self.loops.pop()
        self.current = exit_block

    # -- diagnostics -------------------------------------------------------------------

    def _mark_dead(self, statements: list) -> None:
        for statement in statements:
            line = getattr(statement, "line", 0)
            if line:
                self.dead.add(line)

    def _mark_unreachable(self, statement) -> None:
        line = getattr(statement, "line", 0)
        if line:
            self.unreachable.add(line)


# -- function discovery -----------------------------------------------------------------


class _FunctionInfo:
    """Interprocedural summary cell for one function."""

    __slots__ = ("fid", "name", "parameters", "body", "line", "declaration",
                 "param_tags", "return_tags", "handler", "reachable", "cfg")

    def __init__(self, fid, name, parameters, body, line, *, declaration):
        self.fid = fid
        self.name = name
        self.parameters = parameters
        self.body = body
        self.line = line
        self.declaration = declaration
        self.param_tags: list[set[str]] = [set() for _ in parameters]
        self.return_tags: set[str] = set()
        self.handler = False
        self.reachable = False
        self.cfg: ControlFlowGraph | None = None


def _walk(node, *, into_functions: bool = False):
    """Yield ``node`` and every AST node below it (function bodies only on request)."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Node):
            yield current
            body = None
            if not into_functions and isinstance(current, (ast.FunctionDeclaration, ast.FunctionExpression)):
                body = current.body
            stack.extend(attr for attr in vars(current).values() if attr is not body)
        elif isinstance(current, (list, tuple)):
            stack.extend(current)


# -- the analyzer -----------------------------------------------------------------------


class ScriptAnalyzer:
    """One-shot analyzer for a parsed :class:`~repro.scripting.ast_nodes.Program`."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.sinks: set[str] = set()
        self.flows: set[tuple[str, str]] = set()
        self.dead: set[int] = set()
        self.unreachable: set[int] = set()
        #: id(node) -> _FunctionInfo for every function in the program, and
        #: the same infos indexed by their ``fid``.
        self._functions: dict[int, _FunctionInfo] = {}
        self._by_fid: list[_FunctionInfo] = []
        #: Declaration name -> info (later declarations shadow earlier ones,
        #: matching the interpreter's sequential ``define``).
        self._declared: dict[str, _FunctionInfo] = {}
        #: Flow-insensitive union of every assignment, program-wide: the
        #: sound stand-in for closure capture across function boundaries.
        self._ambient: dict[str, set[str]] = {}
        #: Host -> taints ever passed to its arming calls (xhr.open() /
        #: setRequestHeader()) -- joined into the flows of any later flowing
        #: call on that host (aliased sends included).
        self._armed: dict[str, set[str]] = {}
        self._changed = False

    # -- entry point -------------------------------------------------------------------

    def analyze(self, *, digest: str = "") -> ScriptReport:
        self._discover_functions()
        self._compute_reachability()

        top_cfg = _CfgBuilder(self.dead, self.unreachable).build(self.program.body)
        for info in self._functions.values():
            if info.reachable:
                builder = _CfgBuilder(self.dead, self.unreachable)
                info.cfg = builder.build(info.body.statements if info.body else [])

        # Interprocedural fixpoint: parameter/return/ambient tag sets only
        # ever grow and the tag universe is finite, so this terminates.
        for _ in range(100):
            self._changed = False
            self._run_dataflow(top_cfg, self._top_level_env())
            for info in self._functions.values():
                if not info.reachable or info.cfg is None:
                    continue
                returned = self._run_dataflow(info.cfg, self._function_env(info))
                self._merge(info.return_tags, returned)
            if not self._changed:
                break

        reachable_functions = sum(1 for info in self._functions.values() if info.reachable)
        return ScriptReport(
            digest=digest,
            sinks=frozenset(self.sinks),
            flows=frozenset(self.flows),
            dead_statements=tuple(sorted(self.dead)),
            unreachable_branches=tuple(sorted(self.unreachable)),
            step_bound=self._step_bound(),
            functions=reachable_functions,
            markers=frozenset(self._scan_markers()),
            error=None,
        )

    def _scan_markers(self) -> set[str]:
        """Syntactic sweep for the ESCUDO-specific escalation idioms.

        Reachability-agnostic on purpose: a tamper attempt buried in dead
        code is still a signature worth surfacing, and markers carry no
        soundness obligation so over-reporting is free.
        """
        markers: set[str] = set()
        for node in _walk(self.program, into_functions=True):
            if isinstance(node, ast.StringLiteral):
                if _PRIVILEGED_MARKUP_RE.search(node.value):
                    markers.add(MARKER_PRIVILEGED_MARKUP)
            elif isinstance(node, ast.Call) and isinstance(node.callee, ast.MemberAccess):
                name = self._member_name(node.callee)
                if name == SET_ATTRIBUTE and node.arguments:
                    first = node.arguments[0]
                    if isinstance(first, ast.StringLiteral) and first.value.lower() in PROTECTED_ATTRIBUTES:
                        markers.add(MARKER_TAMPER)
        return markers

    # -- discovery & reachability ------------------------------------------------------

    def _discover_functions(self) -> None:
        for node in _walk(self.program, into_functions=True):
            if isinstance(node, (ast.FunctionDeclaration, ast.FunctionExpression)):
                declaration = isinstance(node, ast.FunctionDeclaration)
                info = _FunctionInfo(len(self._functions), node.name, node.parameters,
                                     node.body, node.line, declaration=declaration)
                self._functions[id(node)] = info
                self._by_fid.append(info)
                if declaration:
                    self._declared[node.name] = info

    def _compute_reachability(self) -> None:
        """Reachable region = top level + referenced declarations (fixpoint).

        A declaration can only run if its name is mentioned somewhere in
        reachable code (MiniScript has no eval / computed scope access);
        function *expressions* are values created by reachable code, so they
        inherit reachability from their enclosing region.
        """
        def region_nodes(statements):
            for statement in statements:
                yield from _walk(statement)

        def mark_expressions(statements) -> None:
            for node in region_nodes(statements):
                if isinstance(node, ast.FunctionExpression):
                    info = self._functions[id(node)]
                    if not info.reachable:
                        info.reachable = True
                        pending.append(info)

        referenced: set[str] = set()
        pending: list[_FunctionInfo] = []

        def scan(statements) -> None:
            mark_expressions(statements)
            for node in region_nodes(statements):
                if isinstance(node, ast.Identifier):
                    referenced.add(node.name)
                elif isinstance(node, ast.NewExpression):
                    referenced.add(node.constructor)

        scan(self.program.body)
        changed = True
        while changed:
            changed = False
            for info in self._declared.values():
                if not info.reachable and info.name in referenced:
                    info.reachable = True
                    pending.append(info)
                    changed = True
            while pending:
                info = pending.pop()
                scan(info.body.statements if info.body else [])

        for info in self._functions.values():
            if info.declaration and not info.reachable and info.line:
                self.dead.add(info.line)

    def _step_bound(self) -> int:
        """Node count of the reachable region (loop bodies counted once)."""
        count = sum(1 for _ in _walk(self.program))
        for info in self._functions.values():
            if info.reachable and info.body is not None:
                count += sum(1 for statement in info.body.statements for _ in _walk(statement))
        return count

    # -- dataflow ----------------------------------------------------------------------

    def _top_level_env(self) -> dict[str, set[str]]:
        env = {name: set(tags) for name, tags in GLOBAL_VALUES.items()}
        for name, info in self._declared.items():
            if info.reachable:
                env[name] = {_FUNC_PREFIX + str(info.fid)}
        return env

    def _function_env(self, info: _FunctionInfo) -> dict[str, set[str]]:
        env = self._top_level_env()
        for name, slot in zip(info.parameters, info.param_tags):
            tags = set(slot)
            if info.handler:
                # Listener dispatch passes a plain payload dict derived from
                # the event; timers and XHR callbacks pass nothing.
                tags.add(SOURCE_EVENT)
            env[name] = tags
        return env

    def _run_dataflow(self, cfg: ControlFlowGraph, initial: dict[str, set[str]]) -> set[str]:
        """Worklist reaching-definition pass; returns the joined return tags."""
        states: dict[int, dict[str, set[str]] | None] = {b.index: None for b in cfg.blocks}
        states[cfg.entry] = initial
        returned: set[str] = set()
        worklist = [cfg.entry]
        visits: dict[int, int] = {}
        while worklist:
            index = worklist.pop()
            # Safety valve: tag sets only grow, so each block stabilises in a
            # bounded number of visits; the cap guards builder bugs.
            visits[index] = visits.get(index, 0) + 1
            if visits[index] > 200:
                continue
            state = states[index]
            if state is None:
                continue
            env = {name: set(tags) for name, tags in state.items()}
            for statement in cfg.blocks[index].statements:
                self._exec_statement(statement, env, returned)
            for successor in cfg.blocks[index].successors:
                existing = states[successor]
                if existing is None:
                    states[successor] = {name: set(tags) for name, tags in env.items()}
                    worklist.append(successor)
                else:
                    grew = False
                    for name, tags in env.items():
                        slot = existing.get(name)
                        if slot is None:
                            existing[name] = set(tags)
                            grew = True
                        elif not tags <= slot:
                            slot |= tags
                            grew = True
                    if grew:
                        worklist.append(successor)
        return returned

    def _exec_statement(self, statement, env, returned: set[str]) -> None:
        if isinstance(statement, tuple):  # ("test", expression)
            self._eval(statement[1], env)
            return
        if isinstance(statement, ast.VarDeclaration):
            tags = self._eval(statement.initializer, env) if statement.initializer is not None else set()
            self._assign(statement.name, tags, env)
            return
        if isinstance(statement, ast.FunctionDeclaration):
            info = self._functions[id(statement)]
            if info.reachable:
                self._assign(statement.name, {_FUNC_PREFIX + str(info.fid)}, env)
            return
        if isinstance(statement, ast.Return):
            if statement.value is not None:
                returned |= self._eval(statement.value, env)
            return
        if isinstance(statement, ast.ExpressionStatement):
            self._eval(statement.expression, env)
            return
        # Break/Continue markers and anything inert.
        return

    # -- abstract evaluation -----------------------------------------------------------

    def _assign(self, name: str, tags: set[str], env) -> None:
        env[name] = set(tags)
        ambient = self._ambient.setdefault(name, set())
        self._merge(ambient, tags)

    def _merge(self, target: set[str], tags) -> None:
        if not tags <= target:
            target |= tags
            self._changed = True

    def _flow(self, taints, sink: str) -> None:
        self._merge(self.flows, {(taint, sink) for taint in taints & TAINTS})

    def _sink(self, *categories: str) -> None:
        self._merge(self.sinks, set(categories))

    def _eval(self, node, env) -> set[str]:
        if node is None or isinstance(node, (ast.NumberLiteral, ast.StringLiteral,
                                             ast.BooleanLiteral, ast.NullLiteral)):
            return set()
        if isinstance(node, ast.Identifier):
            return self._lookup(node.name, env)
        if isinstance(node, ast.ArrayLiteral):
            return set().union(*(self._eval(element, env) for element in node.elements))
        if isinstance(node, ast.ObjectLiteral):
            return set().union(*(self._eval(value, env) for _, value in node.entries))
        if isinstance(node, ast.FunctionExpression):
            info = self._functions[id(node)]
            return {_FUNC_PREFIX + str(info.fid)}
        if isinstance(node, ast.MemberAccess):
            target_tags = self._eval(node.target, env)
            return self._member_read(node, target_tags, env)
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.NewExpression):
            return self._new(node, env)
        if isinstance(node, ast.Unary):
            return self._eval(node.operand, env) & TAINTS
        if isinstance(node, ast.Binary):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            if node.operator in ("&&", "||"):
                # Logical operators return one of their operand *values*.
                return left | right
            return (left | right) & TAINTS
        if isinstance(node, ast.Conditional):
            self._eval(node.test, env)
            return self._eval(node.consequent, env) | self._eval(node.alternate, env)
        if isinstance(node, ast.Assignment):
            value_tags = self._eval(node.value, env)
            target = node.target
            if isinstance(target, ast.Identifier):
                if node.operator != "=":
                    value_tags = value_tags | self._lookup(target.name, env)
                self._assign(target.name, value_tags, env)
            elif isinstance(target, ast.MemberAccess):
                receiver_tags = self._eval(target.target, env)
                self._member_write(target, receiver_tags, value_tags, env)
            return value_tags
        return set()

    def _lookup(self, name: str, env) -> set[str]:
        tags = env.get(name)
        if tags is not None:
            return set(tags)
        ambient = self._ambient.get(name)
        if ambient is not None:
            return set(ambient)
        return set()

    # -- member semantics ---------------------------------------------------------------

    @staticmethod
    def _member_name(node: ast.MemberAccess) -> str | None:
        if not node.computed:
            return node.name
        if isinstance(node.index, ast.StringLiteral):
            return node.index.value
        return None

    def _members(self, node: ast.MemberAccess, target_tags: set[str], kinds, env) -> list[Member]:
        """Table entries of every host object the receiver may be."""
        name = self._member_name(node)
        if node.computed and node.index is not None:
            self._eval(node.index, env)
        members: list[Member] = []
        for tag in target_tags:
            if tag.startswith(OBJECT_PREFIX):
                members += reachable(tag[len(OBJECT_PREFIX):], name, kinds)
        return members

    def _member_read(self, node: ast.MemberAccess, target_tags: set[str], env) -> set[str]:
        result = target_tags & TAINTS
        for member in self._members(node, target_tags, (GET, CALL), env):
            if member.kind == GET:
                self._sink(*member.sinks)
            result |= member.value
        return result

    def _member_write(self, node: ast.MemberAccess, target_tags: set[str],
                      value_tags: set[str], env) -> None:
        taints = (value_tags | target_tags) & TAINTS
        for member in self._members(node, target_tags, (SET, SET_PREFIX), env):
            self._apply(member, taints, [value_tags])
        # Weak update: a member write on a local container must make the
        # container's variable carry what was stored in it.
        if isinstance(node.target, ast.Identifier):
            merged = self._lookup(node.target.name, env) | value_tags
            self._assign(node.target.name, merged, env)

    def _apply(self, member: Member, taints: set[str], values: list[set[str]]) -> None:
        """A write to, or a call of, ``member`` with the given value taints."""
        self._sink(*member.sinks)
        if member.flow is not None:
            self._flow(taints | self._armed.get(member.host, set()), member.flow)
        if member.escapes:
            for tags in values:
                self._escape_handlers(tags)
        if member.arms:
            self._merge(self._armed.setdefault(member.host, set()), taints)

    # -- call semantics ----------------------------------------------------------------

    def _call(self, node: ast.Call, env) -> set[str]:
        arg_tags = [self._eval(argument, env) for argument in node.arguments]
        callee = node.callee
        if isinstance(callee, ast.MemberAccess):
            receiver_tags = self._eval(callee.target, env)
            member_tags = self._member_read(callee, receiver_tags, env)
            result = self._invoke_value(member_tags, arg_tags, receiver_taints=receiver_tags & TAINTS)
            # Method calls on request objects accumulate taint onto the
            # receiver variable so a later bare ``x.send()`` still reports
            # the flow.
            if receiver_tags & _ARMING_OBJECTS and isinstance(callee.target, ast.Identifier):
                poured: set[str] = set()
                for tags in arg_tags:
                    poured |= tags & TAINTS
                if poured:
                    merged = self._lookup(callee.target.name, env) | poured
                    self._assign(callee.target.name, merged, env)
            return result
        callee_tags = self._eval(callee, env)
        return self._invoke_value(callee_tags, arg_tags, receiver_taints=set())

    def _new(self, node: ast.NewExpression, env) -> set[str]:
        arg_tags = [self._eval(argument, env) for argument in node.arguments]
        ctor_tags = self._lookup(node.constructor, env)
        hosts = {tag for tag in ctor_tags if tag.startswith(CONSTRUCTOR_PREFIX)}
        result = {OBJECT_PREFIX + tag[len(CONSTRUCTOR_PREFIX):] for tag in hosts}
        result |= self._invoke_value(ctor_tags - hosts, arg_tags, receiver_taints=set())
        return result

    def _invoke_value(self, callee_tags: set[str], arg_tags: list[set[str]],
                      *, receiver_taints: set[str]) -> set[str]:
        result: set[str] = set()
        all_arg_taints: set[str] = set()
        for tags in arg_tags:
            all_arg_taints |= tags & TAINTS

        for tag in callee_tags:
            if tag.startswith(_FUNC_PREFIX):
                info = self._by_fid[int(tag[len(_FUNC_PREFIX):])]
                if not info.reachable:
                    info.reachable = True
                    self._changed = True
                for index, tags in enumerate(arg_tags):
                    if index < len(info.param_tags):
                        self._merge(info.param_tags[index], tags)
                result |= info.return_tags
            member = CALLABLES.get(tag)
            if member is not None:
                self._apply(member, all_arg_taints | receiver_taints, arg_tags)
                result |= member.result

        if not result and not (callee_tags - TAINTS):
            # Plain native helpers (String, JSON.parse, array/string methods)
            # return values derived from their inputs.
            result = all_arg_taints | (callee_tags & TAINTS)
        return result

    def _escape_handlers(self, tags: set[str]) -> None:
        for tag in tags:
            if tag.startswith(_FUNC_PREFIX):
                info = self._by_fid[int(tag[len(_FUNC_PREFIX):])]
                if not info.handler or not info.reachable:
                    info.handler = True
                    info.reachable = True
                    self._changed = True


# -- module entry points ----------------------------------------------------------------


def analyze_program(program: ast.Program, *, digest: str = "") -> ScriptReport:
    """Analyze a parsed program and return its :class:`ScriptReport`."""
    return ScriptAnalyzer(program).analyze(digest=digest)


def error_report(digest: str, error: ScriptError) -> ScriptReport:
    """The report of a source the front end rejects.

    A script that does not parse executes nothing, so its (empty) sink set
    is exact, not an approximation.
    """
    return ScriptReport(
        digest=digest,
        sinks=frozenset(),
        flows=frozenset(),
        dead_statements=(),
        unreachable_branches=(),
        step_bound=0,
        functions=0,
        error=str(error),
    )


def analyze_source(source: str) -> ScriptReport:
    """Parse + analyze ``source``; front-end failures yield an error report."""
    digest = script_digest(source)
    try:
        program = parse_script(source)
    except ScriptError as error:
        return error_report(digest, error)
    return analyze_program(program, digest=digest)
