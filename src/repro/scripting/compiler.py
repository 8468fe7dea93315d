"""MiniScript bytecode compiler: constant folding + lowering to stack code.

The tree walker (:mod:`repro.scripting.interpreter`) re-dispatches on node
types for every executed node; with the front end memoised by
:class:`~repro.scripting.cache.ScriptCache` that dispatch became the
dominant per-run cost.  This module lowers a (cached, shared, read-only)
AST once into a compact :class:`CodeObject` -- a flat instruction list plus
a constant pool -- which :class:`~repro.scripting.vm.VirtualMachine`
executes in a tight dispatch loop.

The compiler is a *pure* function of the AST: it never mutates the input
tree (cached programs are shared between executions), and the emitted code
preserves the walker's observable semantics exactly -- evaluation order,
value coercions, error messages and line attributions, completion values,
and the dynamic break/continue behaviour where a signal raised inside a
called function unwinds into the caller's innermost loop (the loop-region
table below is what makes that work without try/except per iteration).

Constant folding
----------------
:func:`fold_program` pre-evaluates pure literal expressions using the
*walker's own* coercion helpers, so a folded result is bit-identical to the
runtime result.  Anything that could raise at runtime (``1 % 0`` is a
Python ``ZeroDivisionError`` in both engines) is left unfolded so the error
still happens at the same point, and folded nodes keep the original line
numbers for error attribution.
"""

from __future__ import annotations

from typing import Any, Optional

from . import ast_nodes as ast
from .errors import RuntimeScriptError
from .interpreter import (
    _compare,
    _loose_equal,
    _to_number,
    _to_string,
    _truthy,
    _typeof,
)

# -- opcodes ----------------------------------------------------------------------------
# Numbered roughly by dynamic frequency: the VM dispatches through an
# if/elif chain, so hot opcodes get the early comparisons.

LOAD_NAME = 0
LOAD_CONST = 1
GET_MEMBER = 2
BIN_ADD = 3
BIN_LT = 4
STORE_NAME = 5
JUMP_IF_FALSE = 6
JUMP = 7
CALL_METHOD = 8
CALL_FUNCTION = 9
RES_STORE = 10
RES_CLEAR = 11
POP = 12
BIN_SUB = 13
BIN_MUL = 14
BIN_DIV = 15
BIN_MOD = 16
BIN_EQ = 17
BIN_NE = 18
BIN_GT = 19
BIN_LE = 20
BIN_GE = 21
GET_MEMBER_COMPUTED = 22
SET_MEMBER = 23
SET_MEMBER_COMPUTED = 24
CALL_METHOD_COMPUTED = 25
DEFINE_NAME = 26
DUP = 27
UNARY_NOT = 28
UNARY_NEG = 29
UNARY_POS = 30
TYPEOF = 31
JUMP_IF_FALSE_OR_POP = 32
JUMP_IF_TRUE_OR_POP = 33
BUILD_ARRAY = 34
BUILD_OBJECT = 35
MAKE_FUNCTION = 36
NEW = 37
COMPOUND = 38
ENTER_SCOPE = 39
EXIT_SCOPE = 40
SETUP_SOFT = 41
POP_SOFT = 42
RETURN_VALUE = 43
RAISE_RETURN = 44
RAISE_BREAK = 45
RAISE_CONTINUE = 46
END_PROGRAM = 47
# Fused compare-and-branch (loop/if tests): pop operands, jump when the
# comparison is *false*.  The _CONST variants take ``[constant, target]``.
JF_LT = 48
JF_GT = 49
JF_LE = 50
JF_GE = 51
JF_EQ = 52
JF_NE = 53
JF_LT_CONST = 54
JF_GT_CONST = 55
JF_LE_CONST = 56
JF_GE_CONST = 57
JF_EQ_CONST = 58
JF_NE_CONST = 59
# Binary ops with an embedded constant right operand.
BIN_ADD_CONST = 60
BIN_SUB_CONST = 61
BIN_MUL_CONST = 62
BIN_MOD_CONST = 63
# Store that also latches the completion-value register (program frames).
STORE_NAME_RES = 64

#: Binary AST operator -> opcode.  ``==``/``===`` (and their negations) are
#: the same operation in MiniScript, exactly as in the walker.
_BINARY_OPS = {
    "+": BIN_ADD,
    "-": BIN_SUB,
    "*": BIN_MUL,
    "/": BIN_DIV,
    "%": BIN_MOD,
    "==": BIN_EQ,
    "===": BIN_EQ,
    "!=": BIN_NE,
    "!==": BIN_NE,
    "<": BIN_LT,
    ">": BIN_GT,
    "<=": BIN_LE,
    ">=": BIN_GE,
}

_UNARY_OPS = {"!": UNARY_NOT, "-": UNARY_NEG, "+": UNARY_POS}

#: Comparison operator -> fused jump-if-false opcode (loop/branch tests).
_CMP_JF = {
    "<": JF_LT,
    ">": JF_GT,
    "<=": JF_LE,
    ">=": JF_GE,
    "==": JF_EQ,
    "===": JF_EQ,
    "!=": JF_NE,
    "!==": JF_NE,
}

_CMP_JF_CONST = {
    "<": JF_LT_CONST,
    ">": JF_GT_CONST,
    "<=": JF_LE_CONST,
    ">=": JF_GE_CONST,
    "==": JF_EQ_CONST,
    "===": JF_EQ_CONST,
    "!=": JF_NE_CONST,
    "!==": JF_NE_CONST,
}

#: Fused jump opcodes whose arg is ``[constant, target]`` (patch slot 1).
_CONST_JF_SET = frozenset(_CMP_JF_CONST.values())

#: Arithmetic operator -> const-right-operand opcode.  Division keeps the
#: generic opcode (its zero-denominator ladder is not worth duplicating).
_BIN_CONST_OPS = {
    "+": BIN_ADD_CONST,
    "-": BIN_SUB_CONST,
    "*": BIN_MUL_CONST,
    "%": BIN_MOD_CONST,
}

#: Opcode number -> symbolic name (disassembly / debugging / tests).
OPCODE_NAMES = {
    value: name
    for name, value in sorted(globals().items())
    if name.isupper() and isinstance(value, int) and not name.startswith("_")
}


class CodeObject:
    """One compiled executable unit (a whole program or one function body).

    ``insns`` is a flat list of ``(opcode, arg)`` tuples; ``lines`` is the
    parallel source-line table used for error attribution and the budget
    guard.  ``loops`` is the loop-region table: ``(body_start, body_end,
    break_pc, continue_pc, scope_depth)`` per loop, innermost regions first,
    consulted when a break/continue signal arrives *dynamically* (raised
    inside a called function) rather than from a syntactic break/continue,
    which compiles to a plain jump.  ``constants`` is the pooled literal
    set -- each distinct literal value is materialised once and every
    ``LOAD_CONST`` site references the pooled object.
    """

    __slots__ = ("name", "params", "insns", "lines", "constants", "loops")

    def __init__(
        self,
        *,
        name: str,
        params: list[str],
        insns: list[tuple],
        lines: list[int],
        constants: list,
        loops: tuple[tuple[int, int, int, int, int], ...],
    ) -> None:
        self.name = name
        self.params = params
        self.insns = insns
        self.lines = lines
        self.constants = constants
        self.loops = loops

    def disassemble(self) -> str:
        """Human-readable listing (debugging aid, exercised by tests)."""
        out = []
        for pc, (op, arg) in enumerate(self.insns):
            label = OPCODE_NAMES.get(op, str(op))
            out.append(f"{pc:4d}  {label:<22} {arg!r}  (line {self.lines[pc]})")
        return "\n".join(out)


# -- constant folding -------------------------------------------------------------------

_LITERALS = (ast.NumberLiteral, ast.StringLiteral, ast.BooleanLiteral, ast.NullLiteral)

#: Sentinel: the expression could not be folded (would raise, or produces a
#: value with no literal representation).
_NO_FOLD = object()


def _literal_value(node: ast.Node):
    return None if isinstance(node, ast.NullLiteral) else node.value


def _make_literal(value, line: int) -> Optional[ast.Node]:
    if value is None:
        return ast.NullLiteral(line=line)
    if value is True or value is False:
        return ast.BooleanLiteral(value, line=line)
    if isinstance(value, (int, float)):
        return ast.NumberLiteral(float(value), line=line)
    if isinstance(value, str):
        return ast.StringLiteral(value, line=line)
    return None


def _eval_unary(operator: str, value):
    if operator == "typeof":
        return _typeof(value)
    if operator == "!":
        return not _truthy(value)
    if operator == "-":
        return -_to_number(value)
    if operator == "+":
        return _to_number(value)
    return _NO_FOLD


def _eval_binary(operator: str, left, right):
    """The walker's pure binary semantics, verbatim (minus short-circuit)."""
    if operator == "+":
        if isinstance(left, str) or isinstance(right, str):
            return _to_string(left) + _to_string(right)
        return _to_number(left) + _to_number(right)
    if operator == "-":
        return _to_number(left) - _to_number(right)
    if operator == "*":
        return _to_number(left) * _to_number(right)
    if operator == "/":
        right_number = _to_number(right)
        if right_number == 0:
            return float("inf") if _to_number(left) > 0 else float("-inf") if _to_number(left) < 0 else float("nan")
        return _to_number(left) / right_number
    if operator == "%":
        return _to_number(left) % _to_number(right)
    if operator in ("==", "==="):
        return _loose_equal(left, right)
    if operator in ("!=", "!=="):
        return not _loose_equal(left, right)
    if operator == "<":
        return _compare(left, right) < 0
    if operator == ">":
        return _compare(left, right) > 0
    if operator == "<=":
        return _compare(left, right) <= 0
    if operator == ">=":
        return _compare(left, right) >= 0
    return _NO_FOLD


def fold_expression(node: ast.Node) -> ast.Node:
    """Fold pure literal subexpressions; returns a *new* node when changed."""
    if node is None:
        return None
    cls = node.__class__
    if cls in (ast.NumberLiteral, ast.StringLiteral, ast.BooleanLiteral, ast.NullLiteral, ast.Identifier):
        return node
    if cls is ast.Unary:
        operand = fold_expression(node.operand)
        if isinstance(operand, _LITERALS):
            try:
                value = _eval_unary(node.operator, _literal_value(operand))
            except Exception:
                value = _NO_FOLD
            if value is not _NO_FOLD:
                literal = _make_literal(value, node.line)
                if literal is not None:
                    return literal
        if operand is node.operand:
            return node
        return ast.Unary(operator=node.operator, operand=operand, line=node.line)
    if cls is ast.Binary:
        left = fold_expression(node.left)
        right = fold_expression(node.right)
        operator = node.operator
        if operator in ("&&", "||") and isinstance(left, _LITERALS):
            # Short-circuit on a literal left operand: the walker either
            # returns the left value untouched or evaluates only the right.
            taken_if_truthy = right if operator == "&&" else left
            taken_if_falsy = left if operator == "&&" else right
            return taken_if_truthy if _truthy(_literal_value(left)) else taken_if_falsy
        if isinstance(left, _LITERALS) and isinstance(right, _LITERALS):
            try:
                value = _eval_binary(operator, _literal_value(left), _literal_value(right))
            except Exception:
                # e.g. ``1 % 0`` -> ZeroDivisionError: must stay a runtime
                # error at this site, not a compile-time crash.
                value = _NO_FOLD
            if value is not _NO_FOLD:
                literal = _make_literal(value, node.line)
                if literal is not None:
                    return literal
        if left is node.left and right is node.right:
            return node
        return ast.Binary(operator=operator, left=left, right=right, line=node.line)
    if cls is ast.Conditional:
        test = fold_expression(node.test)
        consequent = fold_expression(node.consequent)
        alternate = fold_expression(node.alternate)
        if isinstance(test, _LITERALS):
            # Only the taken branch is ever evaluated, so dropping the other
            # is unobservable.
            return consequent if _truthy(_literal_value(test)) else alternate
        if test is node.test and consequent is node.consequent and alternate is node.alternate:
            return node
        return ast.Conditional(test=test, consequent=consequent, alternate=alternate, line=node.line)
    if cls is ast.Assignment:
        target = fold_expression(node.target) if isinstance(node.target, ast.MemberAccess) else node.target
        value = fold_expression(node.value)
        if target is node.target and value is node.value:
            return node
        return ast.Assignment(target=target, value=value, operator=node.operator, line=node.line)
    if cls is ast.MemberAccess:
        target = fold_expression(node.target)
        index = fold_expression(node.index)
        if target is node.target and index is node.index:
            return node
        return ast.MemberAccess(
            target=target, name=node.name, index=index, computed=node.computed, line=node.line
        )
    if cls is ast.Call:
        callee = fold_expression(node.callee)
        arguments = [fold_expression(argument) for argument in node.arguments]
        if callee is node.callee and all(a is b for a, b in zip(arguments, node.arguments)):
            return node
        return ast.Call(callee=callee, arguments=arguments, line=node.line)
    if cls is ast.NewExpression:
        arguments = [fold_expression(argument) for argument in node.arguments]
        if all(a is b for a, b in zip(arguments, node.arguments)):
            return node
        return ast.NewExpression(constructor=node.constructor, arguments=arguments, line=node.line)
    if cls is ast.ArrayLiteral:
        elements = [fold_expression(element) for element in node.elements]
        if all(a is b for a, b in zip(elements, node.elements)):
            return node
        return ast.ArrayLiteral(elements=elements, line=node.line)
    if cls is ast.ObjectLiteral:
        entries = [(key, fold_expression(value)) for key, value in node.entries]
        if all(a is b for (_, a), (_, b) in zip(entries, node.entries)):
            return node
        return ast.ObjectLiteral(entries=entries, line=node.line)
    if cls is ast.FunctionExpression:
        body = _fold_block(node.body)
        if body is node.body:
            return node
        return ast.FunctionExpression(
            parameters=node.parameters, body=body, name=node.name, line=node.line
        )
    return node


def _fold_block(node: ast.Block) -> ast.Block:
    statements = [fold_statement(statement) for statement in node.statements]
    if all(a is b for a, b in zip(statements, node.statements)):
        return node
    return ast.Block(statements=statements, line=node.line)


def fold_statement(node: ast.Node) -> ast.Node:
    """Fold expressions nested inside a statement (statements are kept:
    removing one would change the program's completion value)."""
    cls = node.__class__
    if cls is ast.ExpressionStatement:
        expression = fold_expression(node.expression)
        if expression is node.expression:
            return node
        return ast.ExpressionStatement(expression=expression, line=node.line)
    if cls is ast.VarDeclaration:
        if node.initializer is None:
            return node
        initializer = fold_expression(node.initializer)
        if initializer is node.initializer:
            return node
        return ast.VarDeclaration(name=node.name, initializer=initializer, line=node.line)
    if cls is ast.FunctionDeclaration:
        body = _fold_block(node.body)
        if body is node.body:
            return node
        return ast.FunctionDeclaration(name=node.name, parameters=node.parameters, body=body, line=node.line)
    if cls is ast.Return:
        if node.value is None:
            return node
        value = fold_expression(node.value)
        if value is node.value:
            return node
        return ast.Return(value=value, line=node.line)
    if cls is ast.If:
        test = fold_expression(node.test)
        consequent = fold_statement(node.consequent)
        alternate = fold_statement(node.alternate) if node.alternate is not None else None
        if test is node.test and consequent is node.consequent and alternate is node.alternate:
            return node
        return ast.If(test=test, consequent=consequent, alternate=alternate, line=node.line)
    if cls is ast.While:
        test = fold_expression(node.test)
        body = fold_statement(node.body)
        if test is node.test and body is node.body:
            return node
        return ast.While(test=test, body=body, line=node.line)
    if cls is ast.For:
        init = fold_statement(node.init) if isinstance(node.init, ast.VarDeclaration) \
            else fold_expression(node.init) if node.init is not None else None
        test = fold_expression(node.test) if node.test is not None else None
        update = fold_expression(node.update) if node.update is not None else None
        body = fold_statement(node.body)
        if init is node.init and test is node.test and update is node.update and body is node.body:
            return node
        return ast.For(init=init, test=test, update=update, body=body, line=node.line)
    if cls is ast.Block:
        return _fold_block(node)
    if cls in (ast.Break, ast.Continue):
        return node
    # Bare expressions in statement position (for-init, for-update).
    return fold_expression(node)


def fold_program(program: ast.Program) -> ast.Program:
    """Fold a whole program, never mutating the (shared) input tree."""
    body = [fold_statement(statement) for statement in program.body]
    if all(a is b for a, b in zip(body, program.body)):
        return program
    return ast.Program(body=body, line=program.line)


# -- lowering ---------------------------------------------------------------------------

_NO_CONST = object()


def _is_literal_truthy(node: ast.Node) -> bool:
    """True for literal tests that can never be falsy (``while (true)``)."""
    return isinstance(node, _LITERALS) and _truthy(_literal_value(node))


class _Compiler:
    """Lowers one executable unit (program body or function body)."""

    def __init__(self, *, name: str, params: list[str], is_function: bool) -> None:
        self.name = name
        self.params = params
        self.is_function = is_function
        self.insns: list[list] = []
        self.lines: list[int] = []
        self.loops: list[tuple[int, int, int, int, int]] = []
        self._active_loops: list[dict] = []
        self._pool: dict[tuple, Any] = {}
        self.constants: list = []
        self.depth = 0

    # -- emission helpers --------------------------------------------------------------

    def emit(self, op: int, arg=None, *, line: int = 0) -> int:
        self.insns.append([op, arg])
        self.lines.append(line)
        return len(self.insns) - 1

    def patch(self, index: int, target: int | None = None) -> None:
        resolved = len(self.insns) if target is None else target
        insn = self.insns[index]
        if insn[0] in _CONST_JF_SET:
            insn[1][1] = resolved  # arg is [constant, target]
        else:
            insn[1] = resolved

    def here(self) -> int:
        return len(self.insns)

    def const(self, value) -> Any:
        """Pool a literal: one materialised object per distinct value."""
        key = (value.__class__.__name__, repr(value))
        pooled = self._pool.get(key, _NO_CONST)
        if pooled is _NO_CONST:
            self._pool[key] = value
            self.constants.append(value)
            pooled = value
        return pooled

    def _test_jump_false(self, test: ast.Node) -> int:
        """Compile a branch test plus its jump-if-false; returns the patch
        index.  Bare comparisons fuse into a single compare-and-branch
        instruction (with the right operand embedded when it is a literal),
        which removes two dispatches from every loop iteration."""
        if test.__class__ is ast.Binary:
            fused = _CMP_JF.get(test.operator)
            if fused is not None:
                self.expr(test.left)
                if isinstance(test.right, _LITERALS):
                    constant = self.const(_literal_value(test.right))
                    return self.emit(
                        _CMP_JF_CONST[test.operator], [constant, -1], line=test.line
                    )
                self.expr(test.right)
                return self.emit(fused, line=test.line)
        self.expr(test)
        return self.emit(JUMP_IF_FALSE, line=getattr(test, "line", 0))

    def _res_store(self, line: int) -> None:
        # The completion-value register only matters for program frames
        # (``run()`` returns the last statement's value); function frames
        # just balance the stack.
        self.emit(POP if self.is_function else RES_STORE, line=line)

    def _res_clear(self, line: int) -> None:
        if not self.is_function:
            self.emit(RES_CLEAR, line=line)

    def finish(self) -> CodeObject:
        return CodeObject(
            name=self.name,
            params=self.params,
            insns=[tuple(insn) for insn in self.insns],
            lines=self.lines,
            constants=self.constants,
            loops=tuple(self.loops),
        )

    # -- statements --------------------------------------------------------------------

    def stmt(self, node: ast.Node) -> None:
        cls = node.__class__
        line = getattr(node, "line", 0)
        if cls is ast.ExpressionStatement:
            expression = node.expression
            if expression.__class__ is ast.Assignment:
                # An assignment in statement position never leaves its value
                # on the stack: it stores straight into the result register
                # (program frames) or is discarded (function frames).
                self._assignment(expression, mode="drop" if self.is_function else "res")
            else:
                self.expr(expression)
                self._res_store(line)
        elif cls is ast.VarDeclaration:
            if node.initializer is not None:
                self.expr(node.initializer)
            else:
                self.emit(LOAD_CONST, None, line=line)
            # DEFINE_NAME also clears the completion-value register, so no
            # separate RES_CLEAR is needed after a declaration.
            self.emit(DEFINE_NAME, node.name, line=line)
        elif cls is ast.FunctionDeclaration:
            self._function(node)
            self.emit(DEFINE_NAME, node.name, line=line)
        elif cls is ast.Return:
            if node.value is not None:
                self.expr(node.value)
            else:
                self.emit(LOAD_CONST, None, line=line)
            # Inside a function a return pops the frame; at the top level the
            # walker raises "illegal return at top level" via the signal.
            self.emit(RETURN_VALUE if self.is_function else RAISE_RETURN, line=line)
        elif cls is ast.If:
            self._if(node)
        elif cls is ast.While:
            self._while(node)
        elif cls is ast.For:
            self._for(node)
        elif cls is ast.Block:
            self._block(node)
        elif cls is ast.Break:
            self._break_continue(node, is_break=True)
        elif cls is ast.Continue:
            self._break_continue(node, is_break=False)
        else:
            # Bare expression in statement position (for-init / for-update).
            self.expr(node)
            self._res_store(line)

    def _if(self, node: ast.If) -> None:
        jump_false = self._test_jump_false(node.test)
        self.stmt(node.consequent)
        jump_end = self.emit(JUMP, line=node.line)
        self.patch(jump_false)
        if node.alternate is not None:
            self.stmt(node.alternate)
        else:
            self._res_clear(node.line)
        self.patch(jump_end)

    def _while(self, node: ast.While) -> None:
        line = node.line
        loop = {"depth": self.depth, "breaks": [], "continues": []}
        self._active_loops.append(loop)
        start = self.here()
        jump_false = None
        if not _is_literal_truthy(node.test):
            jump_false = self._test_jump_false(node.test)
        body_start = self.here()
        self.stmt(node.body)
        self.emit(JUMP, start, line=line)
        end = self.here()
        if jump_false is not None:
            self.patch(jump_false, end)
        for index in loop["breaks"]:
            self.patch(index, end)
        for index in loop["continues"]:
            self.patch(index, start)
        self._res_clear(line)  # a while statement's completion value is None
        self._active_loops.pop()
        # Region covers the body only: the walker's try wraps just the body,
        # so a signal escaping the *test* propagates past the loop.
        self.loops.append((body_start, end, end, start, loop["depth"]))

    def _for(self, node: ast.For) -> None:
        line = node.line
        # The walker always gives a for loop its own environment; it is only
        # observable when something *defines* into it.
        scoped = isinstance(node.init, ast.VarDeclaration) or isinstance(
            node.body, (ast.VarDeclaration, ast.FunctionDeclaration)
        )
        if scoped:
            self.emit(ENTER_SCOPE, line=line)
            self.depth += 1
        if node.init is not None:
            if isinstance(node.init, ast.VarDeclaration):
                self.stmt(node.init)
            else:
                self._discard_expr(node.init)
        loop = {"depth": self.depth, "breaks": [], "continues": []}
        self._active_loops.append(loop)
        test_start = self.here()
        jump_false = None
        if node.test is not None and not _is_literal_truthy(node.test):
            jump_false = self._test_jump_false(node.test)
        body_start = self.here()
        self.stmt(node.body)
        # ``continue`` lands on the update (walker: the update still runs);
        # with no update it lands straight on the back-jump to the test.
        continue_target = self.here()
        if node.update is not None:
            self._discard_expr(node.update)
        self.emit(JUMP, test_start, line=line)
        end = self.here()
        if jump_false is not None:
            self.patch(jump_false, end)
        for index in loop["breaks"]:
            self.patch(index, end)
        for index in loop["continues"]:
            self.patch(index, continue_target)
        self._res_clear(line)
        if scoped:
            self.emit(EXIT_SCOPE, line=line)
            self.depth -= 1
        self._active_loops.pop()
        # Region covers body only (not the update: a continue raised inside
        # the update propagates outward in the walker too).
        self.loops.append((body_start, continue_target, end, continue_target, loop["depth"]))

    def _block(self, node: ast.Block) -> None:
        # The walker gives every block its own environment; a fresh scope is
        # only observable when the block defines names into it.
        scoped = any(
            isinstance(statement, (ast.VarDeclaration, ast.FunctionDeclaration))
            for statement in node.statements
        )
        if scoped:
            self.emit(ENTER_SCOPE, line=node.line)
            self.depth += 1
        if node.statements:
            for statement in node.statements:
                self.stmt(statement)
        else:
            self._res_clear(node.line)  # empty block completes with None
        if scoped:
            self.emit(EXIT_SCOPE, line=node.line)
            self.depth -= 1

    def _break_continue(self, node: ast.Node, *, is_break: bool) -> None:
        line = node.line
        if self._active_loops:
            # Syntactically inside a loop of this unit: unwind any block
            # scopes opened since the loop, then jump -- no exception needed.
            loop = self._active_loops[-1]
            for _ in range(self.depth - loop["depth"]):
                self.emit(EXIT_SCOPE, line=line)
            loop["breaks" if is_break else "continues"].append(self.emit(JUMP, line=line))
        else:
            # Outside any loop the walker's signal escapes the frame: either
            # a caller's loop catches it (dynamic break across a call) or
            # run() reports "illegal break/continue at top level".
            self.emit(RAISE_BREAK if is_break else RAISE_CONTINUE, line=line)

    def _discard_expr(self, node: ast.Node) -> None:
        """Compile an expression whose value is unused (for-init/update)."""
        if node.__class__ is ast.Assignment:
            self._assignment(node, mode="drop")
        else:
            self.expr(node)
            self.emit(POP, line=getattr(node, "line", 0))

    # -- expressions -------------------------------------------------------------------

    def expr(self, node: ast.Node) -> None:
        cls = node.__class__
        line = getattr(node, "line", 0)
        if cls is ast.NumberLiteral or cls is ast.StringLiteral or cls is ast.BooleanLiteral:
            self.emit(LOAD_CONST, self.const(node.value), line=line)
        elif cls is ast.NullLiteral:
            self.emit(LOAD_CONST, None, line=line)
        elif cls is ast.Identifier:
            self.emit(LOAD_NAME, node.name, line=line)
        elif cls is ast.MemberAccess:
            self.expr(node.target)
            if node.computed:
                self.expr(node.index)
                # Mutable inline-cache cell: [cached class, dispatch kind].
                self.emit(GET_MEMBER_COMPUTED, [None, -1], line=line)
            else:
                # Inline-cache cell: [property name, cached class, kind].
                self.emit(GET_MEMBER, [node.name or "", None, -1], line=line)
        elif cls is ast.Call:
            self._call(node)
        elif cls is ast.Assignment:
            self._assignment(node)
        elif cls is ast.Binary:
            self._binary(node)
        elif cls is ast.Unary:
            self._unary(node)
        elif cls is ast.Conditional:
            jump_false = self._test_jump_false(node.test)
            self.expr(node.consequent)
            jump_end = self.emit(JUMP, line=line)
            self.patch(jump_false)
            self.expr(node.alternate)
            self.patch(jump_end)
        elif cls is ast.ArrayLiteral:
            for element in node.elements:
                self.expr(element)
            self.emit(BUILD_ARRAY, len(node.elements), line=line)
        elif cls is ast.ObjectLiteral:
            for _key, value in node.entries:
                self.expr(value)
            self.emit(BUILD_OBJECT, tuple(key for key, _ in node.entries), line=line)
        elif cls is ast.FunctionExpression:
            self._function(node)
        elif cls is ast.NewExpression:
            # Walker order: constructor lookup first, then the arguments.
            self.emit(LOAD_NAME, node.constructor, line=line)
            for argument in node.arguments:
                self.expr(argument)
            self.emit(NEW, (len(node.arguments), node.constructor), line=line)
        else:
            raise RuntimeScriptError(f"cannot evaluate {cls.__name__}", line)

    def _unary(self, node: ast.Unary) -> None:
        line = node.line
        if node.operator == "typeof":
            # Soft region: any RuntimeScriptError inside the operand makes
            # the whole expression "undefined" (the walker's try/except).
            setup = self.emit(SETUP_SOFT, line=line)
            self.expr(node.operand)
            self.emit(TYPEOF, line=line)
            self.emit(POP_SOFT, line=line)
            self.patch(setup)  # handler target: just past the region
            return
        self.expr(node.operand)
        op = _UNARY_OPS.get(node.operator)
        if op is None:
            raise RuntimeScriptError(f"unknown unary operator {node.operator}", line)
        self.emit(op, line=line)

    def _binary(self, node: ast.Binary) -> None:
        line = node.line
        operator = node.operator
        if operator == "&&":
            self.expr(node.left)
            jump = self.emit(JUMP_IF_FALSE_OR_POP, line=line)
            self.expr(node.right)
            self.patch(jump)
            return
        if operator == "||":
            self.expr(node.left)
            jump = self.emit(JUMP_IF_TRUE_OR_POP, line=line)
            self.expr(node.right)
            self.patch(jump)
            return
        op = _BINARY_OPS.get(operator)
        if op is None:
            raise RuntimeScriptError(f"unknown operator {operator}", line)
        self.expr(node.left)
        if isinstance(node.right, _LITERALS):
            const_op = _BIN_CONST_OPS.get(operator)
            if const_op is not None:
                # Embed the literal right operand (``i + 1``, ``n % 7``):
                # one instruction instead of LOAD_CONST + BIN_*.
                self.emit(const_op, self.const(_literal_value(node.right)), line=line)
                return
        self.expr(node.right)
        self.emit(op, line=line)

    def _call(self, node: ast.Call) -> None:
        # Walker order: arguments first, then the callee.
        for argument in node.arguments:
            self.expr(argument)
        callee = node.callee
        if callee.__class__ is ast.MemberAccess:
            self.expr(callee.target)
            if callee.computed:
                self.expr(callee.index)
                # IC cell: [argc, cached class, kind].
                self.emit(CALL_METHOD_COMPUTED, [len(node.arguments), None, -1], line=callee.line)
            else:
                # IC cell: [method name, argc, cached class, kind].
                self.emit(
                    CALL_METHOD,
                    [callee.name or "", len(node.arguments), None, -1],
                    line=callee.line,
                )
        else:
            self.expr(callee)
            self.emit(CALL_FUNCTION, len(node.arguments), line=node.line)

    def _assignment(self, node: ast.Assignment, mode: str = "keep") -> None:
        """Compile an assignment.  ``mode`` says what happens to the value:
        ``keep`` leaves it on the stack (expression position), ``res``
        latches it into the result register (program-frame statement), and
        ``drop`` discards it (function-frame statement, for-init/update)."""
        target = node.target
        target_cls = target.__class__
        line = node.line
        if node.operator == "=":
            if target_cls is ast.Identifier:
                self.expr(node.value)
                self._name_store(target.name, mode, line)
            elif target_cls is ast.MemberAccess:
                self.expr(node.value)
                self._member_store(target)
                self._member_tail(mode, line)
            else:
                raise RuntimeScriptError("invalid assignment target", line)
            return
        # Compound assignment.  Walker order: value first, then the current
        # target value (a full member read, including js_get), combine, then
        # re-evaluate the target object/key for the write.
        base_operator = node.operator[0]
        if target_cls is ast.Identifier:
            self.expr(node.value)
            self.emit(LOAD_NAME, target.name, line=target.line)
            self.emit(COMPOUND, base_operator, line=line)
            self._name_store(target.name, mode, line)
        elif target_cls is ast.MemberAccess:
            self.expr(node.value)
            self.expr(target.target)
            if target.computed:
                self.expr(target.index)
                self.emit(GET_MEMBER_COMPUTED, [None, -1], line=target.line)
            else:
                self.emit(GET_MEMBER, [target.name or "", None, -1], line=target.line)
            self.emit(COMPOUND, base_operator, line=line)
            self._member_store(target)
            self._member_tail(mode, line)
        else:
            raise RuntimeScriptError("invalid assignment target", line)

    def _name_store(self, name: str, mode: str, line: int) -> None:
        """Store the stack top into ``name``, honouring the value mode."""
        if mode == "keep":
            self.emit(DUP, line=line)  # the assignment's value is its result
            self.emit(STORE_NAME, name, line=line)
        elif mode == "res":
            self.emit(STORE_NAME_RES, name, line=line)
        else:  # drop
            self.emit(STORE_NAME, name, line=line)

    def _member_tail(self, mode: str, line: int) -> None:
        """SET_MEMBER leaves the stored value on the stack; consume it
        according to the value mode."""
        if mode == "res":
            self.emit(RES_STORE, line=line)
        elif mode == "drop":
            self.emit(POP, line=line)

    def _member_store(self, target: ast.MemberAccess) -> None:
        """Emit the object/key evaluation and SET for ``target`` (the value
        to store is already on the stack and stays as the result)."""
        self.expr(target.target)
        if target.computed:
            self.expr(target.index)
            self.emit(SET_MEMBER_COMPUTED, [None, -1], line=target.line)
        else:
            self.emit(SET_MEMBER, [target.name or "", None, -1], line=target.line)

    def _function(self, node: ast.FunctionDeclaration | ast.FunctionExpression) -> None:
        code = compile_function(node)
        self.emit(MAKE_FUNCTION, (code, node), line=node.line)


def compile_function(declaration: ast.FunctionDeclaration | ast.FunctionExpression) -> CodeObject:
    """Compile one function body into a :class:`CodeObject`.

    The body block is compiled straight into the invocation frame: the
    walker's extra block environment under the parameter environment is
    unobservable (defines shadow parameters identically in both layouts).
    """
    compiler = _Compiler(
        name=getattr(declaration, "name", None) or "<anonymous>",
        params=list(declaration.parameters),
        is_function=True,
    )
    body = declaration.body
    statements = body.statements if isinstance(body, ast.Block) else [body]
    for statement in statements:
        compiler.stmt(statement)
    # Falling off the end returns None, like the walker's _invoke.
    compiler.emit(LOAD_CONST, None, line=getattr(body, "line", 0))
    compiler.emit(RETURN_VALUE, line=getattr(body, "line", 0))
    return compiler.finish()


def compile_program(program: ast.Program, *, fold: bool = True) -> CodeObject:
    """Lower a parsed program to bytecode (constant-folded by default)."""
    if fold:
        program = fold_program(program)
    compiler = _Compiler(name="<program>", params=[], is_function=False)
    for statement in program.body:
        compiler.stmt(statement)
    compiler.emit(END_PROGRAM, line=0)
    return compiler.finish()
