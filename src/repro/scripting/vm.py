"""MiniScript bytecode virtual machine with monomorphic inline caches.

Drop-in replacement for the tree walker
(:class:`~repro.scripting.interpreter.Interpreter`): same constructor
shape, same ``run()`` / ``call_function()`` API, same ``globals``
environment, and -- crucially for the reproduction -- the same *observable*
semantics: value coercions, evaluation order, error messages and line
attributions, completion values, the step-budget guard (mapped onto
instruction counts so infinite-loop attacks still die deterministically),
and the walker's dynamic break/continue behaviour across call frames.

The engine stays ESCUDO-ignorant exactly like the walker: every property
read, write and method call on a host object still goes through
``js_get`` / ``js_set`` / ``js_call``, where the reference monitor lives.
The inline caches only memoise *which dispatch ladder branch* a site took
last time (keyed on the receiver's Python class); a hit still performs the
full mediated host call, so verdicts and audit records are bit-identical
with and without warm caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from . import ast_nodes as ast
from .compiler import (
    BIN_ADD,
    BIN_DIV,
    BIN_EQ,
    BIN_GE,
    BIN_GT,
    BIN_LE,
    BIN_LT,
    BIN_ADD_CONST,
    BIN_MOD,
    BIN_MOD_CONST,
    BIN_MUL,
    BIN_MUL_CONST,
    BIN_NE,
    BIN_SUB,
    BIN_SUB_CONST,
    BUILD_ARRAY,
    BUILD_OBJECT,
    CALL_FUNCTION,
    CALL_METHOD,
    CALL_METHOD_COMPUTED,
    COMPOUND,
    DEFINE_NAME,
    DUP,
    END_PROGRAM,
    ENTER_SCOPE,
    EXIT_SCOPE,
    GET_MEMBER,
    GET_MEMBER_COMPUTED,
    JF_EQ,
    JF_EQ_CONST,
    JF_GE,
    JF_GE_CONST,
    JF_GT,
    JF_GT_CONST,
    JF_LE,
    JF_LE_CONST,
    JF_LT,
    JF_LT_CONST,
    JF_NE,
    JF_NE_CONST,
    JUMP,
    JUMP_IF_FALSE,
    JUMP_IF_FALSE_OR_POP,
    JUMP_IF_TRUE_OR_POP,
    LOAD_CONST,
    LOAD_NAME,
    MAKE_FUNCTION,
    NEW,
    POP,
    POP_SOFT,
    RAISE_BREAK,
    RAISE_CONTINUE,
    RAISE_RETURN,
    RES_CLEAR,
    RES_STORE,
    RETURN_VALUE,
    SET_MEMBER,
    SET_MEMBER_COMPUTED,
    SETUP_SOFT,
    STORE_NAME,
    STORE_NAME_RES,
    TYPEOF,
    UNARY_NEG,
    UNARY_NOT,
    UNARY_POS,
    CodeObject,
    compile_function,
    compile_program,
)
from .errors import BudgetExceeded, RuntimeScriptError, ScriptError
from .interpreter import (
    Environment,
    ExecutionResult,
    HostObject,
    NativeConstructor,
    NativeFunction,
    ScriptFunction,
    _array_member,
    _BreakSignal,
    _compare,
    _ContinueSignal,
    _get_member,
    _loose_equal,
    _ReturnSignal,
    _set_member,
    _standard_library,
    _string_member,
    _to_number,
    _to_property_key,
    _to_string,
    _truthy,
    _typeof,
    _UNBOUND,
)
from .parser import parse_script

#: Inline-cache dispatch kinds (what the receiver's class resolved to last
#: time this site executed).
_IC_HOST = 0
_IC_DICT = 1
_IC_LIST = 2
_IC_STR = 3


def _prime(ic: list, slot: int, target, *, reads: bool) -> None:
    """Record at ``ic[slot:slot + 2]`` which dispatch branch ``target`` takes
    (reads cache hosts, dicts, lists and strings; writes hosts and dicts)."""
    if isinstance(target, HostObject):
        ic[slot], ic[slot + 1] = target.__class__, _IC_HOST
    elif isinstance(target, dict):
        ic[slot], ic[slot + 1] = dict, _IC_DICT
    elif reads and isinstance(target, list):
        ic[slot], ic[slot + 1] = list, _IC_LIST
    elif reads and isinstance(target, str):
        ic[slot], ic[slot + 1] = str, _IC_STR


@dataclass
class CompiledFunction(ScriptFunction):
    """A MiniScript closure carrying its compiled body.

    Subclasses :class:`~repro.scripting.interpreter.ScriptFunction` so every
    helper that type-switches on script functions (``typeof``, string
    coercion, the walker itself when handed one) behaves identically.
    """

    code: CodeObject = None


class VirtualMachine:
    """Executes compiled MiniScript against a set of global host bindings.

    API-compatible with :class:`~repro.scripting.interpreter.Interpreter`:
    ``run`` accepts source text, a parsed program, or an already compiled
    :class:`~repro.scripting.compiler.CodeObject`; ``call_function``
    dispatches host callbacks (event handlers, timers) into script code
    without resetting the step budget, exactly like the walker.
    """

    def __init__(self, globals_map: dict[str, Any] | None = None, *, max_steps: int = 500_000) -> None:
        self.globals = Environment()
        self.max_steps = max_steps
        self._steps = 0
        #: Inline-cache effectiveness counters (aggregated across frames).
        self.ic_hits = 0
        self.ic_misses = 0
        self.globals.values.update(_standard_library())
        if globals_map:
            self.globals.values.update(globals_map)

    # -- public API --------------------------------------------------------------------

    def run(self, source_or_program: "str | ast.Program | CodeObject") -> ExecutionResult:
        """Execute a program (compiling first when not already bytecode)."""
        self._steps = 0
        try:
            if isinstance(source_or_program, CodeObject):
                code = source_or_program
            elif isinstance(source_or_program, ast.Program):
                code = compile_program(source_or_program)
            else:
                code = compile_program(parse_script(source_or_program))
        except ScriptError as error:
            return ExecutionResult(error=error, completed=False)
        try:
            value = self._run_frame(code, self.globals)
        except ScriptError as error:
            return ExecutionResult(error=error, steps=self._steps, completed=False)
        except (_ReturnSignal, _BreakSignal, _ContinueSignal):
            return ExecutionResult(
                error=RuntimeScriptError("illegal return/break/continue at top level"),
                steps=self._steps,
                completed=False,
            )
        return ExecutionResult(value=value, steps=self._steps)

    def call_function(self, function, args: Iterable = ()) -> Any:
        """Invoke a script or native function from host code (event dispatch).

        Like the walker, this does *not* reset the step budget: callbacks
        dispatched into the same principal environment share one budget.
        """
        return self._call_value(function, list(args))

    @property
    def ic_hit_rate(self) -> float:
        """Fraction of member-site dispatches served by the inline cache."""
        total = self.ic_hits + self.ic_misses
        return self.ic_hits / total if total else 0.0

    # -- call plumbing -----------------------------------------------------------------

    def _call_value(self, function, args: list, this_value=None):
        if isinstance(function, CompiledFunction):
            return self._invoke(function, args, this_value)
        if isinstance(function, ScriptFunction):
            # A walker-built closure crossed into the VM (hand-wired tests):
            # compile its body on the fly, preserving the closure chain.
            compiled = CompiledFunction(
                declaration=function.declaration,
                closure=function.closure,
                code=compile_function(function.declaration),
            )
            return self._invoke(compiled, args, this_value)
        if isinstance(function, NativeFunction):
            return function(*args)
        if callable(function):
            return function(*args)
        raise RuntimeScriptError(f"{_to_string(function)} is not a function")

    def _invoke(self, function: CompiledFunction, args: list, this_value=None):
        env = Environment(function.closure)
        values = env.values
        for index, parameter in enumerate(function.code.params):
            values[parameter] = args[index] if index < len(args) else None
        values["arguments"] = list(args)
        if this_value is not None:
            values["this"] = this_value
        return self._run_frame(function.code, env)

    # -- the dispatch loop -------------------------------------------------------------

    def _run_frame(self, code: CodeObject, env: Environment):  # noqa: C901 - one hot loop
        insns = code.insns
        lines = code.lines
        max_steps = self.max_steps
        stack: list = []
        handlers: list[tuple[int, int]] = []  # typeof soft regions
        result = None  # the program frame's completion-value register
        pc = 0
        depth = 0  # block scopes entered in this frame
        steps = self._steps
        ic_hits = 0
        ic_misses = 0
        push = stack.append
        pop = stack.pop
        try:
            while True:
                try:
                    while True:
                        # The budget is *counted* per instruction but only
                        # *checked* on back-edges (JUMP) and re-entrant calls
                        # (CALL_*, NEW): straight-line code is bounded by the
                        # program length, so every runaway execution crosses
                        # a checked instruction within one loop body.
                        op, arg = insns[pc]
                        pc += 1
                        steps += 1
                        if op == LOAD_NAME:
                            scope = env
                            while scope is not None:
                                value = scope.values.get(arg, _UNBOUND)
                                if value is not _UNBOUND:
                                    push(value)
                                    break
                                scope = scope.parent
                            else:
                                raise RuntimeScriptError(f"{arg!r} is not defined")
                        elif op == LOAD_CONST:
                            push(arg)
                        elif op == GET_MEMBER:
                            target = stack[-1]
                            if target.__class__ is arg[1]:
                                ic_hits += 1
                                kind = arg[2]
                                if kind == _IC_HOST:
                                    stack[-1] = target.js_get(arg[0])
                                elif kind == _IC_DICT:
                                    stack[-1] = target.get(arg[0])
                                elif kind == _IC_LIST:
                                    stack[-1] = _array_member(target, arg[0], lines[pc - 1])
                                else:
                                    stack[-1] = _string_member(target, arg[0], lines[pc - 1])
                            else:
                                ic_misses += 1
                                stack[-1] = self._member_slow(target, arg[0], lines[pc - 1], arg, 1)
                        elif op == BIN_ADD_CONST:
                            left = stack[-1]
                            if type(left) is float and type(arg) is float:
                                stack[-1] = left + arg
                            elif isinstance(left, str) or isinstance(arg, str):
                                stack[-1] = _to_string(left) + _to_string(arg)
                            else:
                                stack[-1] = _to_number(left) + _to_number(arg)
                        elif op == JF_LT_CONST:
                            left = pop()
                            right = arg[0]
                            if type(left) is float and type(right) is float:
                                if not left < right:
                                    pc = arg[1]
                            elif not _compare(left, right) < 0:
                                pc = arg[1]
                        elif op == JF_LT:
                            right = pop()
                            left = pop()
                            if type(left) is float and type(right) is float:
                                if not left < right:
                                    pc = arg
                            elif not _compare(left, right) < 0:
                                pc = arg
                        elif op == BIN_ADD:
                            right = pop()
                            left = stack[-1]
                            if type(left) is float and type(right) is float:
                                stack[-1] = left + right
                            elif isinstance(left, str) or isinstance(right, str):
                                stack[-1] = _to_string(left) + _to_string(right)
                            else:
                                stack[-1] = _to_number(left) + _to_number(right)
                        elif op == BIN_LT:
                            right = pop()
                            left = stack[-1]
                            if type(left) is float and type(right) is float:
                                stack[-1] = left < right
                            else:
                                stack[-1] = _compare(left, right) < 0
                        elif op == STORE_NAME:
                            value = pop()
                            scope = env
                            while scope is not None:
                                if arg in scope.values:
                                    scope.values[arg] = value
                                    break
                                scope = scope.parent
                            else:
                                # Undeclared assignment creates a global.
                                root = env
                                while root.parent is not None:
                                    root = root.parent
                                root.values[arg] = value
                        elif op == STORE_NAME_RES:
                            value = pop()
                            scope = env
                            while scope is not None:
                                if arg in scope.values:
                                    scope.values[arg] = value
                                    break
                                scope = scope.parent
                            else:
                                root = env
                                while root.parent is not None:
                                    root = root.parent
                                root.values[arg] = value
                            result = value
                        elif op == JUMP_IF_FALSE:
                            value = pop()
                            if value is False or value is None:
                                pc = arg
                            elif value is not True and not _truthy(value):
                                pc = arg
                        elif op == JUMP:
                            if steps > max_steps:
                                raise BudgetExceeded(
                                    "script exceeded its execution budget", lines[pc - 1]
                                )
                            pc = arg
                        elif op == CALL_METHOD:
                            if steps > max_steps:
                                raise BudgetExceeded(
                                    "script exceeded its execution budget", lines[pc - 1]
                                )
                            name = arg[0]
                            argc = arg[1]
                            target = pop()
                            if argc:
                                call_args = stack[-argc:]
                                del stack[-argc:]
                            else:
                                call_args = []
                            target_class = target.__class__
                            if target_class is arg[2]:
                                ic_hits += 1
                                kind = arg[3]
                                if kind == _IC_HOST:
                                    self._steps = steps
                                    value = target.js_call(name, call_args)
                                    steps = self._steps
                                    push(value)
                                else:
                                    if kind == _IC_DICT:
                                        member = target.get(name)
                                    elif kind == _IC_LIST:
                                        member = _array_member(target, name, lines[pc - 1])
                                    else:
                                        member = _string_member(target, name, lines[pc - 1])
                                    self._steps = steps
                                    value = self._call_value(member, call_args, target)
                                    steps = self._steps
                                    push(value)
                            else:
                                ic_misses += 1
                                if isinstance(target, HostObject):
                                    arg[2] = target_class
                                    arg[3] = _IC_HOST
                                    self._steps = steps
                                    value = target.js_call(name, call_args)
                                    steps = self._steps
                                    push(value)
                                else:
                                    member = self._member_slow(target, name, lines[pc - 1], arg, 2)
                                    self._steps = steps
                                    value = self._call_value(member, call_args, target)
                                    steps = self._steps
                                    push(value)
                        elif op == CALL_FUNCTION:
                            if steps > max_steps:
                                raise BudgetExceeded(
                                    "script exceeded its execution budget", lines[pc - 1]
                                )
                            function = pop()
                            if arg:
                                call_args = stack[-arg:]
                                del stack[-arg:]
                            else:
                                call_args = []
                            if function.__class__ is CompiledFunction:
                                self._steps = steps
                                value = self._invoke(function, call_args, None)
                                steps = self._steps
                                push(value)
                            else:
                                self._steps = steps
                                value = self._call_value(function, call_args)
                                steps = self._steps
                                push(value)
                        elif op == RES_STORE:
                            result = pop()
                        elif op == RES_CLEAR:
                            result = None
                        elif op == POP:
                            pop()
                        elif op == BIN_SUB:
                            right = pop()
                            left = stack[-1]
                            if type(left) is float and type(right) is float:
                                stack[-1] = left - right
                            else:
                                stack[-1] = _to_number(left) - _to_number(right)
                        elif op == BIN_MUL:
                            right = pop()
                            left = stack[-1]
                            if type(left) is float and type(right) is float:
                                stack[-1] = left * right
                            else:
                                stack[-1] = _to_number(left) * _to_number(right)
                        elif op == BIN_DIV:
                            right = pop()
                            left = stack[-1]
                            if type(left) is float and type(right) is float and right != 0.0:
                                stack[-1] = left / right
                            else:
                                right_number = _to_number(right)
                                if right_number == 0:
                                    left_number = _to_number(left)
                                    stack[-1] = (
                                        float("inf")
                                        if left_number > 0
                                        else float("-inf") if left_number < 0 else float("nan")
                                    )
                                else:
                                    stack[-1] = _to_number(left) / right_number
                        elif op == BIN_MOD:
                            right = pop()
                            left = stack[-1]
                            if type(left) is float and type(right) is float and right != 0.0:
                                stack[-1] = left % right
                            else:
                                # ``x % 0`` raises ZeroDivisionError in the
                                # walker too; let it propagate identically.
                                stack[-1] = _to_number(left) % _to_number(right)
                        elif op == BIN_EQ:
                            right = pop()
                            left = stack[-1]
                            if type(left) is float and type(right) is float:
                                stack[-1] = left == right
                            else:
                                stack[-1] = _loose_equal(left, right)
                        elif op == BIN_NE:
                            right = pop()
                            left = stack[-1]
                            if type(left) is float and type(right) is float:
                                stack[-1] = left != right
                            else:
                                stack[-1] = not _loose_equal(left, right)
                        elif op == BIN_GT:
                            right = pop()
                            left = stack[-1]
                            if type(left) is float and type(right) is float:
                                stack[-1] = left > right
                            else:
                                stack[-1] = _compare(left, right) > 0
                        elif op == BIN_LE:
                            right = pop()
                            left = stack[-1]
                            if type(left) is float and type(right) is float:
                                # _compare treats a NaN pair as equal, so
                                # ``<=`` is "not greater", not Python's <=.
                                stack[-1] = not left > right
                            else:
                                stack[-1] = _compare(left, right) <= 0
                        elif op == BIN_GE:
                            right = pop()
                            left = stack[-1]
                            if type(left) is float and type(right) is float:
                                stack[-1] = not left < right
                            else:
                                stack[-1] = _compare(left, right) >= 0
                        elif op == BIN_SUB_CONST:
                            left = stack[-1]
                            if type(left) is float and type(arg) is float:
                                stack[-1] = left - arg
                            else:
                                stack[-1] = _to_number(left) - _to_number(arg)
                        elif op == BIN_MUL_CONST:
                            left = stack[-1]
                            if type(left) is float and type(arg) is float:
                                stack[-1] = left * arg
                            else:
                                stack[-1] = _to_number(left) * _to_number(arg)
                        elif op == BIN_MOD_CONST:
                            left = stack[-1]
                            if type(left) is float and type(arg) is float and arg != 0.0:
                                stack[-1] = left % arg
                            else:
                                # ``x % 0`` raises ZeroDivisionError exactly
                                # like the walker.
                                stack[-1] = _to_number(left) % _to_number(arg)
                        elif op == JF_GT:
                            right = pop()
                            left = pop()
                            if type(left) is float and type(right) is float:
                                if not left > right:
                                    pc = arg
                            elif not _compare(left, right) > 0:
                                pc = arg
                        elif op == JF_LE:
                            right = pop()
                            left = pop()
                            # The test is ``compare <= 0`` where a NaN pair
                            # compares equal, so the *jump* condition (test
                            # false) is "strictly greater".
                            if type(left) is float and type(right) is float:
                                if left > right:
                                    pc = arg
                            elif _compare(left, right) > 0:
                                pc = arg
                        elif op == JF_GE:
                            right = pop()
                            left = pop()
                            if type(left) is float and type(right) is float:
                                if left < right:
                                    pc = arg
                            elif _compare(left, right) < 0:
                                pc = arg
                        elif op == JF_EQ:
                            right = pop()
                            left = pop()
                            if type(left) is float and type(right) is float:
                                if left != right:
                                    pc = arg
                            elif not _loose_equal(left, right):
                                pc = arg
                        elif op == JF_NE:
                            right = pop()
                            left = pop()
                            if type(left) is float and type(right) is float:
                                if left == right:
                                    pc = arg
                            elif _loose_equal(left, right):
                                pc = arg
                        elif op == JF_GT_CONST:
                            left = pop()
                            right = arg[0]
                            if type(left) is float and type(right) is float:
                                if not left > right:
                                    pc = arg[1]
                            elif not _compare(left, right) > 0:
                                pc = arg[1]
                        elif op == JF_LE_CONST:
                            left = pop()
                            right = arg[0]
                            if type(left) is float and type(right) is float:
                                if left > right:
                                    pc = arg[1]
                            elif _compare(left, right) > 0:
                                pc = arg[1]
                        elif op == JF_GE_CONST:
                            left = pop()
                            right = arg[0]
                            if type(left) is float and type(right) is float:
                                if left < right:
                                    pc = arg[1]
                            elif _compare(left, right) < 0:
                                pc = arg[1]
                        elif op == JF_EQ_CONST:
                            left = pop()
                            right = arg[0]
                            if type(left) is float and type(right) is float:
                                if left != right:
                                    pc = arg[1]
                            elif not _loose_equal(left, right):
                                pc = arg[1]
                        elif op == JF_NE_CONST:
                            left = pop()
                            right = arg[0]
                            if type(left) is float and type(right) is float:
                                if left == right:
                                    pc = arg[1]
                            elif _loose_equal(left, right):
                                pc = arg[1]
                        elif op == GET_MEMBER_COMPUTED:
                            name = _to_property_key(pop())
                            target = stack[-1]
                            if target.__class__ is arg[0]:
                                ic_hits += 1
                                kind = arg[1]
                                if kind == _IC_HOST:
                                    stack[-1] = target.js_get(name)
                                elif kind == _IC_DICT:
                                    stack[-1] = target.get(name)
                                elif kind == _IC_LIST:
                                    stack[-1] = _array_member(target, name, lines[pc - 1])
                                else:
                                    stack[-1] = _string_member(target, name, lines[pc - 1])
                            else:
                                ic_misses += 1
                                stack[-1] = self._member_slow(target, name, lines[pc - 1], arg, 0)
                        elif op == SET_MEMBER:
                            target = pop()
                            value = stack[-1]  # stays: the assignment's result
                            if target.__class__ is arg[1]:
                                ic_hits += 1
                                if arg[2] == _IC_HOST:
                                    target.js_set(arg[0], value)
                                else:
                                    target[arg[0]] = value
                            else:
                                ic_misses += 1
                                self._set_member_slow(target, arg[0], value, lines[pc - 1], arg, 1)
                        elif op == SET_MEMBER_COMPUTED:
                            name = _to_property_key(pop())
                            target = pop()
                            value = stack[-1]
                            if target.__class__ is arg[0]:
                                ic_hits += 1
                                if arg[1] == _IC_HOST:
                                    target.js_set(name, value)
                                else:
                                    target[name] = value
                            else:
                                ic_misses += 1
                                self._set_member_slow(target, name, value, lines[pc - 1], arg, 0)
                        elif op == CALL_METHOD_COMPUTED:
                            if steps > max_steps:
                                raise BudgetExceeded(
                                    "script exceeded its execution budget", lines[pc - 1]
                                )
                            name = _to_property_key(pop())
                            target = pop()
                            argc = arg[0]
                            if argc:
                                call_args = stack[-argc:]
                                del stack[-argc:]
                            else:
                                call_args = []
                            if isinstance(target, HostObject):
                                self._steps = steps
                                value = target.js_call(name, call_args)
                                steps = self._steps
                                push(value)
                            else:
                                member = self._member_slow(target, name, lines[pc - 1], None, 0)
                                self._steps = steps
                                value = self._call_value(member, call_args, target)
                                steps = self._steps
                                push(value)
                        elif op == DEFINE_NAME:
                            # Declarations complete with None: this doubles
                            # as the RES_CLEAR for program-frame statements.
                            env.values[arg] = pop()
                            result = None
                        elif op == DUP:
                            push(stack[-1])
                        elif op == UNARY_NOT:
                            stack[-1] = not _truthy(stack[-1])
                        elif op == UNARY_NEG:
                            value = stack[-1]
                            stack[-1] = -value if type(value) is float else -_to_number(value)
                        elif op == UNARY_POS:
                            value = stack[-1]
                            if type(value) is not float:
                                stack[-1] = _to_number(value)
                        elif op == TYPEOF:
                            stack[-1] = _typeof(stack[-1])
                        elif op == JUMP_IF_FALSE_OR_POP:
                            value = stack[-1]
                            if value is False or value is None:
                                pc = arg
                            elif value is True or _truthy(value):
                                pop()
                            else:
                                pc = arg
                        elif op == JUMP_IF_TRUE_OR_POP:
                            value = stack[-1]
                            if value is True:
                                pc = arg
                            elif value is not False and value is not None and _truthy(value):
                                pc = arg
                            else:
                                pop()
                        elif op == BUILD_ARRAY:
                            if arg:
                                value = stack[-arg:]
                                del stack[-arg:]
                                push(value)
                            else:
                                push([])
                        elif op == BUILD_OBJECT:
                            count = len(arg)
                            if count:
                                values = stack[-count:]
                                del stack[-count:]
                                push(dict(zip(arg, values)))
                            else:
                                push({})
                        elif op == MAKE_FUNCTION:
                            push(CompiledFunction(declaration=arg[1], closure=env, code=arg[0]))
                        elif op == NEW:
                            if steps > max_steps:
                                raise BudgetExceeded(
                                    "script exceeded its execution budget", lines[pc - 1]
                                )
                            argc, constructor_name = arg
                            if argc:
                                call_args = stack[-argc:]
                                del stack[-argc:]
                            else:
                                call_args = []
                            constructor = pop()
                            if isinstance(constructor, NativeConstructor):
                                self._steps = steps
                                value = constructor.construct(call_args)
                                steps = self._steps
                                push(value)
                            elif isinstance(constructor, ScriptFunction):
                                instance: dict[str, Any] = {}
                                self._steps = steps
                                self._call_value(constructor, call_args, this_value=instance)
                                steps = self._steps
                                push(instance)
                            else:
                                raise RuntimeScriptError(
                                    f"{constructor_name} is not constructible", lines[pc - 1]
                                )
                        elif op == COMPOUND:
                            current = pop()
                            value = pop()
                            if arg == "+":
                                value = (
                                    (current + value)
                                    if not (isinstance(current, str) or isinstance(value, str))
                                    else _to_string(current) + _to_string(value)
                                )
                            elif arg == "-":
                                value = _to_number(current) - _to_number(value)
                            elif arg == "*":
                                value = _to_number(current) * _to_number(value)
                            elif arg == "/":
                                value = _to_number(current) / _to_number(value)
                            push(value)
                        elif op == ENTER_SCOPE:
                            env = Environment(env)
                            depth += 1
                        elif op == EXIT_SCOPE:
                            env = env.parent
                            depth -= 1
                        elif op == SETUP_SOFT:
                            handlers.append((arg, len(stack)))
                        elif op == POP_SOFT:
                            handlers.pop()
                        elif op == RETURN_VALUE:
                            return pop()
                        elif op == RAISE_RETURN:
                            raise _ReturnSignal(pop())
                        elif op == RAISE_BREAK:
                            raise _BreakSignal()
                        elif op == RAISE_CONTINUE:
                            raise _ContinueSignal()
                        else:  # END_PROGRAM
                            return result
                except _BreakSignal:
                    target_pc = self._signal_target(code, pc - 1, index=2)
                    if target_pc is None:
                        raise
                    pc, env, depth = self._recover(code, pc - 1, target_pc, env, depth, stack, handlers)
                    if steps < self._steps:
                        steps = self._steps
                except _ContinueSignal:
                    target_pc = self._signal_target(code, pc - 1, index=3)
                    if target_pc is None:
                        raise
                    pc, env, depth = self._recover(code, pc - 1, target_pc, env, depth, stack, handlers)
                    if steps < self._steps:
                        steps = self._steps
                except RuntimeScriptError as error:
                    # Stamp the faulting instruction's source line (host-call
                    # errors and the IC fast paths raise without one); the
                    # innermost frame stamps first, so nested _invoke frames
                    # keep the most precise position.
                    if error.line is None:
                        error.line = lines[pc - 1]
                    if not handlers:
                        raise
                    # A typeof soft region absorbs the error: the whole
                    # operand becomes "undefined" (walker semantics -- this
                    # also swallows a BudgetExceeded once; the next budget
                    # check re-raises, exactly like the walker's next tick).
                    handler_pc, stack_depth = handlers.pop()
                    del stack[stack_depth:]
                    push("undefined")
                    pc = handler_pc
                    if steps < self._steps:
                        steps = self._steps
        finally:
            if steps > self._steps:
                self._steps = steps
            self.ic_hits += ic_hits
            self.ic_misses += ic_misses

    # -- signal recovery ---------------------------------------------------------------

    @staticmethod
    def _signal_target(code: CodeObject, raise_pc: int, *, index: int) -> int | None:
        """Break/continue target of the innermost loop region covering
        ``raise_pc`` (regions are recorded innermost-first)."""
        for region in code.loops:
            if region[0] <= raise_pc < region[1]:
                return region[index]
        return None

    @staticmethod
    def _recover(code, raise_pc, target_pc, env, depth, stack, handlers):
        """Unwind block scopes/stack back to the loop and resume there."""
        for region in code.loops:
            if region[0] <= raise_pc < region[1]:
                while depth > region[4]:
                    env = env.parent
                    depth -= 1
                break
        del stack[:]
        del handlers[:]
        return target_pc, env, depth

    # -- slow paths (the walker's member protocol plus IC priming) ---------------------

    def _member_slow(self, target, name: str, line: int, ic: list | None, slot: int):
        if ic is not None:
            _prime(ic, slot, target, reads=True)
        return _get_member(target, name, line)

    def _set_member_slow(self, target, name: str, value, line: int, ic: list | None, slot: int) -> None:
        if ic is not None:
            _prime(ic, slot, target, reads=False)
        _set_member(target, name, value, line)
