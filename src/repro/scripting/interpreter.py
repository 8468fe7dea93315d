"""MiniScript tree-walking interpreter.

Executes programs produced by :mod:`repro.scripting.parser`.  The interpreter
is deliberately small but complete enough for the reproduction's workloads:
variables, functions (including closures used as event-handler callbacks),
control flow, arrays, object literals, string/array built-in methods, host
objects and ``new`` construction of host types such as ``XMLHttpRequest``.

Host interoperability
---------------------
The browser exposes its mediated APIs to scripts as *host objects*
(subclasses of :class:`HostObject`).  Property reads, writes and method
calls on host objects are forwarded to ``js_get`` / ``js_set`` / ``js_call``,
which dispatch through the host's member table
(:mod:`repro.scripting.host_members`) to the handler methods where the DOM
bindings, cookie access and ``XMLHttpRequest`` perform their reference-monitor
checks.  The interpreter itself knows nothing about ESCUDO -- exactly like a
real JavaScript engine.

Execution budget
----------------
Every run is bounded by a step budget so that attack scripts with infinite
loops cannot hang the experiments; exceeding it raises
:class:`~repro.scripting.errors.BudgetExceeded` which the browser converts
into a script error.
"""

from __future__ import annotations

import inspect
import json
import math
import re
import sys
from dataclasses import dataclass
from functools import cache
from operator import ge, gt, le, lt
from types import MethodType
from typing import Any, Callable, Iterable, Optional

from . import ast_nodes as ast
from .errors import BudgetExceeded, RuntimeScriptError, ScriptError
from .host_members import CALL, GET, JSON, MATH, SET, SET_PREFIX, TABLES
from .parser import parse_script


def _arity(func: Callable, *, bound: bool = False) -> tuple[int, int]:
    """``(required, maximum)`` positional arguments ``func`` takes from a script.

    ``bound`` discounts the ``self`` parameter of an unbound method; a
    ``*args`` parameter makes the maximum unbounded.  A callable without
    Python code (a builtin) takes whatever it is given.
    """
    if isinstance(func, MethodType):
        func, bound = func.__func__, True
    code = getattr(func, "__code__", None)
    if code is None:
        return 0, sys.maxsize
    maximum = code.co_argcount - bound
    required = maximum - len(func.__defaults__ or ())
    if code.co_flags & inspect.CO_VARARGS:
        maximum = sys.maxsize
    return max(required, 0), maximum


def _fit_arguments(args, required: int, maximum: int) -> tuple:
    """``args`` padded with ``undefined`` up to ``required`` and cut to ``maximum``."""
    missing = required - len(args)
    if missing > 0:
        return (*args, *([None] * missing))
    return tuple(args[:maximum])


class HostObject:
    """Base class for objects the browser exposes into the script world.

    A subclass exposes exactly the members its ``host_name`` table in
    :mod:`repro.scripting.host_members` declares, each through the handler
    the table names; a declared member without a handler fails at import.
    """

    #: Name reported by ``typeof``, error messages and the member table.
    host_name = "HostObject"
    #: How the unknown-member and read-only errors name the host (default
    #: ``host_name``).
    read_noun = write_noun = ""
    #: ``(kind, member name)`` -> handler, resolved once per class.
    handlers: dict[tuple[str, str], Callable] = {}
    #: Method name -> its handler's ``(required, maximum)`` script arity.
    arities: dict[str, tuple[int, int]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.handlers = {(m.kind, m.name): getattr(cls, m.handler) for m in TABLES.get(cls.host_name, ())}
        cls.arities = {
            name: _arity(handler, bound=True)
            for (kind, name), handler in cls.handlers.items()
            if kind == CALL
        }

    def js_get(self, name: str):
        """Read a member; a method reads as a :class:`NativeFunction`."""
        getter = self.handlers.get((GET, name))
        if getter is not None:
            return getter(self)
        method = self.handlers.get((CALL, name))
        if method is not None:
            return NativeFunction(MethodType(method, self), name, self.arities[name])
        raise RuntimeScriptError(f"{self.read_noun or self.host_name} has no property {name!r}")

    def js_set(self, name: str, value) -> None:
        """Write a member (an exact one first, then a prefix one)."""
        setter = self.handlers.get((SET, name))
        if setter is not None:
            setter(self, value)
            return
        for (kind, prefix), setter in self.handlers.items():
            if kind == SET_PREFIX and name.startswith(prefix):
                setter(self, name, value)
                return
        raise self.not_writable(name)

    def js_call(self, name: str, args: list):
        """Invoke a method: a declared one directly, otherwise the read value."""
        method = self.handlers.get((CALL, name))
        if method is not None:
            required, maximum = self.arities[name]
            if not required <= len(args) <= maximum:
                args = _fit_arguments(args, required, maximum)
            return method(self, *args)
        member = self.js_get(name)
        if callable(member):
            return member(*args)
        raise RuntimeScriptError(f"{self.host_name}.{name} is not a function")

    def not_writable(self, name: str) -> RuntimeScriptError:
        """The error a write to ``name`` raises when no member takes it."""
        return RuntimeScriptError(f"{self.write_noun or self.host_name} property {name!r} is not writable")


class NativeFunction:
    """A Python callable exposed as a script function.

    A call adapts the script's arguments to the callable's arity the way
    JavaScript does: a missing argument is ``undefined`` (``None``, or the
    parameter's default) and an extra one is dropped.  The arity is read
    from the callable's code when the function is built, unless the caller
    already knows it.
    """

    __slots__ = ("_func", "name", "_required", "_maximum")

    def __init__(self, func: Callable, name: str = "native", arity: tuple[int, int] | None = None) -> None:
        self._func = func
        self.name = name
        self._required, self._maximum = arity if arity is not None else _arity(func)

    def __call__(self, *args):
        if not self._required <= len(args) <= self._maximum:
            args = _fit_arguments(args, self._required, self._maximum)
        return self._func(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NativeFunction {self.name}>"


class NativeConstructor:
    """A host type constructible with ``new`` (e.g. ``XMLHttpRequest``)."""

    def __init__(self, factory: Callable[..., HostObject], name: str) -> None:
        self._factory = factory
        self.name = name

    def construct(self, args: list) -> HostObject:
        """Instantiate the host object."""
        return self._factory(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NativeConstructor {self.name}>"


@dataclass
class ScriptFunction:
    """A user-defined MiniScript function (a closure)."""

    declaration: ast.FunctionExpression | ast.FunctionDeclaration
    closure: "Environment"

    @property
    def parameters(self) -> list[str]:
        return self.declaration.parameters

    @property
    def name(self) -> str:
        return getattr(self.declaration, "name", None) or "<anonymous>"


#: Sentinel distinguishing "name absent" from a binding whose value is None
#: (``var x;`` stores an explicit ``None``).
_UNBOUND = object()


class Environment:
    """Lexically scoped variable bindings.

    Name resolution is the interpreter's hottest operation (every identifier
    read walks the scope chain), so the walk uses one ``dict.get`` probe per
    scope with a sentinel instead of a ``in`` check followed by a second
    lookup -- the reuse-heavy scenario workloads resolve the same handful of
    globals (``document``, ``window``, ``XMLHttpRequest``) millions of times.
    """

    __slots__ = ("parent", "values")

    def __init__(self, parent: Optional["Environment"] = None) -> None:
        self.parent = parent
        self.values: dict[str, Any] = {}

    def define(self, name: str, value) -> None:
        """Create (or overwrite) a binding in this scope."""
        self.values[name] = value

    def lookup(self, name: str):
        """Resolve a name, walking outward; raises for unknown names."""
        env: Environment = self
        while True:
            value = env.values.get(name, _UNBOUND)
            if value is not _UNBOUND:
                return value
            parent = env.parent
            if parent is None:
                return env.resolve(name)
            env = parent

    def resolve(self, name: str):
        """The value of ``name`` when no scope binds it; the root scope asks here."""
        raise RuntimeScriptError(f"{name!r} is not defined")

    def assign(self, name: str, value) -> None:
        """Assign to an existing binding, or create a global if none exists."""
        env: Optional[Environment] = self
        while env is not None:
            if name in env.values:
                env.values[name] = value
                return
            env = env.parent
        # Undeclared assignment creates a global, like sloppy-mode JavaScript.
        root = self
        while root.parent is not None:
            root = root.parent
        root.values[name] = value


class GlobalEnvironment(Environment):
    """The root scope, with an optional resolver for host globals.

    ``resolver(name)`` returns the value of a global the host installs
    lazily, or raises ``KeyError``.  A resolved value is bound like any
    other global, so it is resolved at most once, and a script's own
    declaration or assignment of the name shadows it as before.
    """

    __slots__ = ("resolver",)

    def __init__(self, resolver: Callable[[str], Any] | None = None) -> None:
        super().__init__()
        self.resolver = resolver

    def resolve(self, name: str):
        if self.resolver is not None:
            try:
                value = self.resolver(name)
            except KeyError:
                pass
            else:
                self.values[name] = value
                return value
        return super().resolve(name)


@dataclass
class ExecutionResult:
    """Outcome of running one script."""

    value: Any = None
    error: ScriptError | None = None
    steps: int = 0
    completed: bool = True

    @property
    def failed(self) -> bool:
        """True when the script raised an error (including budget exhaustion)."""
        return self.error is not None


class _ReturnSignal(Exception):
    def __init__(self, value) -> None:
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class Interpreter:
    """Executes MiniScript programs against a set of global host bindings."""

    def __init__(
        self,
        globals_map: dict[str, Any] | None = None,
        *,
        max_steps: int = 500_000,
        resolve_global: Callable[[str], Any] | None = None,
    ) -> None:
        self.globals = GlobalEnvironment(resolve_global)
        self.max_steps = max_steps
        self._steps = 0
        # One bulk update: the standard library is a shared immutable-valued
        # dict (built once per process), and scripts rebinding a stdlib name
        # only touch their own environment's dict.
        self.globals.values.update(_standard_library())
        if globals_map:
            self.globals.values.update(globals_map)

    # -- public API -----------------------------------------------------------------

    def run(self, source_or_program: str | ast.Program) -> ExecutionResult:
        """Execute a program (parsing it first when given source text)."""
        self._steps = 0
        try:
            program = (
                source_or_program
                if isinstance(source_or_program, ast.Program)
                else parse_script(source_or_program)
            )
        except ScriptError as error:
            return ExecutionResult(error=error, completed=False)
        value = None
        try:
            for statement in program.body:
                value = self._execute(statement, self.globals)
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
        """Invoke a script or native function from host code (event dispatch)."""
        return self._call_value(function, list(args))

    # -- execution ---------------------------------------------------------------------

    def _tick(self, line: int = 0) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise BudgetExceeded("script exceeded its execution budget", line)

    def _charge(self, steps: int, line: int) -> None:
        """Spend ``steps`` of the budget up front, before the work they pay for."""
        self._steps += steps
        if self._steps > self.max_steps:
            raise BudgetExceeded("script exceeded its execution budget", line)

    def _execute(self, node: ast.Node, env: Environment):
        """Execute one statement, stamping raised errors with its line.

        The innermost node's wrapper sees an unstamped error first, so the
        recorded position is the most precise one available; outer frames
        leave an already-stamped error untouched.
        """
        try:
            # One budget step per statement (``_tick``, inlined: this is the
            # walker's hottest path).
            self._steps += 1
            if self._steps > self.max_steps:
                raise BudgetExceeded("script exceeded its execution budget", node.line)
            handler = _STATEMENT_HANDLERS.get(type(node))
            if handler is None:
                # Expressions used in statement position (e.g. inside for-init).
                return self._evaluate(node, env)
            return handler(self, node, env)
        except ScriptError as error:
            if error.line is None and getattr(node, "line", 0):
                error.line = node.line
            raise

    def _evaluate(self, node: ast.Node, env: Environment):
        """Evaluate one expression, stamping raised errors with its line."""
        try:
            self._steps += 1
            if self._steps > self.max_steps:
                raise BudgetExceeded("script exceeded its execution budget", node.line)
            handler = _EXPRESSION_HANDLERS.get(type(node))
            if handler is None:
                raise RuntimeScriptError(f"cannot evaluate {type(node).__name__}", getattr(node, "line", 0))
            return handler(self, node, env)
        except ScriptError as error:
            if error.line is None and getattr(node, "line", 0):
                error.line = node.line
            raise

    def _expression_statement(self, node: ast.ExpressionStatement, env: Environment):
        return self._evaluate(node.expression, env)

    def _var_declaration(self, node: ast.VarDeclaration, env: Environment):
        value = self._evaluate(node.initializer, env) if node.initializer is not None else None
        env.define(node.name, value)
        return None

    def _function_declaration(self, node: ast.FunctionDeclaration, env: Environment):
        env.define(node.name, ScriptFunction(declaration=node, closure=env))
        return None

    def _return(self, node: ast.Return, env: Environment):
        raise _ReturnSignal(self._evaluate(node.value, env) if node.value is not None else None)

    def _if(self, node: ast.If, env: Environment):
        if _truthy(self._evaluate(node.test, env)):
            return self._execute(node.consequent, env)
        if node.alternate is not None:
            return self._execute(node.alternate, env)
        return None

    def _while(self, node: ast.While, env: Environment):
        while _truthy(self._evaluate(node.test, env)):
            self._tick(node.line)
            try:
                self._execute(node.body, env)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue
        return None

    def _for(self, node: ast.For, env: Environment):
        loop_env = Environment(env)
        if node.init is not None:
            self._execute(node.init, loop_env)
        while node.test is None or _truthy(self._evaluate(node.test, loop_env)):
            self._tick(node.line)
            try:
                self._execute(node.body, loop_env)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            if node.update is not None:
                self._evaluate(node.update, loop_env)
        return None

    def _block(self, node: ast.Block, env: Environment):
        block_env = Environment(env)
        result = None
        for statement in node.statements:
            result = self._execute(statement, block_env)
        return result

    def _break(self, node: ast.Break, env: Environment):
        raise _BreakSignal()

    def _continue(self, node: ast.Continue, env: Environment):
        raise _ContinueSignal()

    # -- evaluation ----------------------------------------------------------------------

    def _literal(self, node: ast.NumberLiteral | ast.StringLiteral | ast.BooleanLiteral, env: Environment):
        return node.value

    def _null(self, node: ast.NullLiteral, env: Environment):
        return None

    def _identifier(self, node: ast.Identifier, env: Environment):
        return env.lookup(node.name)

    def _array_literal(self, node: ast.ArrayLiteral, env: Environment):
        return [self._evaluate(element, env) for element in node.elements]

    def _object_literal(self, node: ast.ObjectLiteral, env: Environment):
        return {key: self._evaluate(value, env) for key, value in node.entries}

    def _function_expression(self, node: ast.FunctionExpression, env: Environment):
        return ScriptFunction(declaration=node, closure=env)

    def _conditional(self, node: ast.Conditional, env: Environment):
        if _truthy(self._evaluate(node.test, env)):
            return self._evaluate(node.consequent, env)
        return self._evaluate(node.alternate, env)

    def _member_access(self, node: ast.MemberAccess, env: Environment):
        target = self._evaluate(node.target, env)
        return _get_member(target, self._member_name(node, env), node.line)

    def _new(self, node: ast.NewExpression, env: Environment):
        constructor = env.lookup(node.constructor)
        args = [self._evaluate(argument, env) for argument in node.arguments]
        if isinstance(constructor, NativeConstructor):
            return constructor.construct(args)
        if isinstance(constructor, ScriptFunction):
            instance: dict[str, Any] = {}
            self._invoke_script_function(constructor, args, this_value=instance)
            return instance
        raise RuntimeScriptError(f"{node.constructor} is not constructible", node.line)

    def _member_name(self, node: ast.MemberAccess, env: Environment) -> str:
        if node.computed:
            return _to_property_key(self._evaluate(node.index, env))
        return node.name or ""

    def _unary(self, node: ast.Unary, env: Environment):
        if node.operator == "typeof":
            try:
                value = self._evaluate(node.operand, env)
            except RuntimeScriptError:
                return "undefined"
            return _typeof(value)
        value = self._evaluate(node.operand, env)
        if node.operator == "!":
            return not _truthy(value)
        if node.operator == "-":
            return -_to_number(value)
        if node.operator == "+":
            return _to_number(value)
        raise RuntimeScriptError(f"unknown unary operator {node.operator}", node.line)

    def _binary(self, node: ast.Binary, env: Environment):
        operator = node.operator
        if operator == "&&":
            left = self._evaluate(node.left, env)
            return self._evaluate(node.right, env) if _truthy(left) else left
        if operator == "||":
            left = self._evaluate(node.left, env)
            return left if _truthy(left) else self._evaluate(node.right, env)
        left = self._evaluate(node.left, env)
        right = self._evaluate(node.right, env)
        if operator in _ARITHMETIC:
            return _arithmetic(operator, left, right)
        if operator in ("==", "==="):
            return _loose_equal(left, right)
        if operator in ("!=", "!=="):
            return not _loose_equal(left, right)
        relation = _RELATIONAL.get(operator)
        if relation is not None:
            # Strings compare by code point; anything else numerically, so
            # every comparison with NaN is false.
            if not (isinstance(left, str) and isinstance(right, str)):
                left, right = _to_number(left), _to_number(right)
            return relation(left, right)
        raise RuntimeScriptError(f"unknown operator {operator}", node.line)

    def _assign(self, node: ast.Assignment, env: Environment):
        value = self._evaluate(node.value, env)
        if node.operator != "=":
            value = _arithmetic(node.operator[0], self._evaluate(node.target, env), value)
        target = node.target
        if isinstance(target, ast.Identifier):
            env.assign(target.name, value)
            return value
        if isinstance(target, ast.MemberAccess):
            obj = self._evaluate(target.target, env)
            name = self._member_name(target, env)
            _set_member(obj, name, value, target.line, self._charge)
            return value
        raise RuntimeScriptError("invalid assignment target", node.line)

    # -- calls ------------------------------------------------------------------------------------

    def _call(self, node: ast.Call, env: Environment):
        args = [self._evaluate(argument, env) for argument in node.arguments]
        callee = node.callee
        if isinstance(callee, ast.MemberAccess):
            target = self._evaluate(callee.target, env)
            name = self._member_name(callee, env)
            if isinstance(target, HostObject):
                return target.js_call(name, args)
            member = _get_member(target, name, callee.line)
            return self._call_value(member, args, this_value=target)
        function = self._evaluate(callee, env)
        return self._call_value(function, args)

    def _call_value(self, function, args: list, this_value=None):
        if isinstance(function, ScriptFunction):
            return self._invoke_script_function(function, args, this_value=this_value)
        if isinstance(function, NativeFunction):
            return function(*args)
        if callable(function):
            return function(*args)
        raise RuntimeScriptError(f"{_to_string(function)} is not a function")

    def _invoke_script_function(self, function: ScriptFunction, args: list, this_value=None):
        env = Environment(function.closure)
        for index, parameter in enumerate(function.parameters):
            env.define(parameter, args[index] if index < len(args) else None)
        env.define("arguments", list(args))
        if this_value is not None:
            env.define("this", this_value)
        try:
            self._execute(function.declaration.body, env)
        except _ReturnSignal as signal:
            return signal.value
        return None


#: The statement walk's handlers, by exact node type; any other node is an
#: expression in statement position and is evaluated.
_STATEMENT_HANDLERS: dict[type, Callable[[Interpreter, Any, Environment], Any]] = {
    ast.ExpressionStatement: Interpreter._expression_statement,
    ast.VarDeclaration: Interpreter._var_declaration,
    ast.FunctionDeclaration: Interpreter._function_declaration,
    ast.Return: Interpreter._return,
    ast.If: Interpreter._if,
    ast.While: Interpreter._while,
    ast.For: Interpreter._for,
    ast.Block: Interpreter._block,
    ast.Break: Interpreter._break,
    ast.Continue: Interpreter._continue,
}

#: The expression walk's handlers, by exact node type.
_EXPRESSION_HANDLERS: dict[type, Callable[[Interpreter, Any, Environment], Any]] = {
    ast.NumberLiteral: Interpreter._literal,
    ast.StringLiteral: Interpreter._literal,
    ast.BooleanLiteral: Interpreter._literal,
    ast.NullLiteral: Interpreter._null,
    ast.Identifier: Interpreter._identifier,
    ast.ArrayLiteral: Interpreter._array_literal,
    ast.ObjectLiteral: Interpreter._object_literal,
    ast.FunctionExpression: Interpreter._function_expression,
    ast.Unary: Interpreter._unary,
    ast.Binary: Interpreter._binary,
    ast.Conditional: Interpreter._conditional,
    ast.Assignment: Interpreter._assign,
    ast.MemberAccess: Interpreter._member_access,
    ast.Call: Interpreter._call,
    ast.NewExpression: Interpreter._new,
}


# -- member protocol ---------------------------------------------------------------------------


def _get_member(target, name: str, line: int):
    """Read member ``name`` of any script value (the interpreter's member protocol)."""
    if isinstance(target, HostObject):
        return target.js_get(name)
    if isinstance(target, dict):
        return target.get(name)
    if isinstance(target, list):
        return _array_member(target, name, line)
    if isinstance(target, str):
        return _string_member(target, name, line)
    if isinstance(target, (int, float)) and not isinstance(target, bool):
        if name == "toString":
            return NativeFunction(lambda: _to_string(target), "toString")
    if target is None:
        raise RuntimeScriptError(f"cannot read property {name!r} of null", line)
    raise RuntimeScriptError(f"cannot read property {name!r} of {_typeof(target)}", line)


def _set_member(target, name: str, value, line: int, charge: Callable[[int, int], None]) -> None:
    """Write member ``name`` of any script value.

    A write past an array's end fills the gap with ``undefined``; ``charge``
    bills one budget step per filled slot before the array grows, so a
    script cannot allocate more slots than its budget allows.
    """
    if isinstance(target, HostObject):
        target.js_set(name, value)
        return
    if isinstance(target, dict):
        target[name] = value
        return
    if isinstance(target, list):
        try:
            index = int(float(name))
        except (ValueError, OverflowError):
            index = -1
        if index < 0:
            raise RuntimeScriptError(f"invalid array index {name!r}", line)
        gap = index - len(target)
        if gap > 0:
            charge(gap, line)
            target.extend([None] * gap)
        if index == len(target):
            target.append(value)
        else:
            target[index] = value
        return
    if target is None:
        raise RuntimeScriptError(f"cannot set property {name!r} of null", line)
    raise RuntimeScriptError(f"cannot set property {name!r} on {_typeof(target)}", line)


# -- value semantics helpers -------------------------------------------------------------------


def _truthy(value) -> bool:
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return value != ""
    return True


def _to_number(value) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value) if value.strip() else 0.0
        except ValueError:
            return float("nan")
    if value is None:
        return 0.0
    return float("nan")


def _to_string(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return str(value)
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(_to_string(item) for item in value)
    if isinstance(value, dict):
        return "[object Object]"
    if isinstance(value, HostObject):
        return f"[object {value.host_name}]"
    if isinstance(value, (ScriptFunction, NativeFunction)):
        return f"function {getattr(value, 'name', '')}"
    return str(value)


def _typeof(value) -> str:
    if value is None:
        return "object"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (ScriptFunction, NativeFunction, NativeConstructor)) or callable(value):
        return "function"
    return "object"


def _loose_equal(left, right) -> bool:
    if isinstance(left, (int, float)) and isinstance(right, (int, float)) \
            and not isinstance(left, bool) and not isinstance(right, bool):
        return float(left) == float(right)
    if isinstance(left, str) and isinstance(right, (int, float)) and not isinstance(right, bool):
        return _to_number(left) == float(right)
    if isinstance(right, str) and isinstance(left, (int, float)) and not isinstance(left, bool):
        return _to_number(right) == float(left)
    return left == right


_RELATIONAL = {"<": lt, ">": gt, "<=": le, ">=": ge}
_ARITHMETIC = frozenset("+-*/%")


def _arithmetic(symbol: str, left, right):
    """``left <symbol> right`` for ``+ - * / %``, with JavaScript's number semantics."""
    if symbol == "+" and (isinstance(left, str) or isinstance(right, str)):
        return _to_string(left) + _to_string(right)
    left, right = _to_number(left), _to_number(right)
    if symbol == "+":
        return left + right
    if symbol == "-":
        return left - right
    if symbol == "*":
        return left * right
    if symbol == "/":
        if right == 0:
            return math.inf if left > 0 else -math.inf if left < 0 else math.nan
        return left / right
    # ``%`` truncates (the sign follows the dividend); no finite remainder
    # exists for a zero divisor or an infinite dividend.
    if right == 0 or math.isinf(left):
        return math.nan
    return math.fmod(left, right)


def _to_integer(value) -> int:
    """A numeric argument as an integer index: NaN is 0, infinities clamp."""
    number = _to_number(value)
    if number != number:
        return 0
    if math.isinf(number):
        return sys.maxsize if number > 0 else -sys.maxsize
    return int(number)


def _to_property_key(value) -> str:
    if isinstance(value, float) and math.isfinite(value) and value == int(value):
        return str(int(value))
    return _to_string(value)


def _array_member(target: list, name: str, line: int):
    if name == "length":
        return float(len(target))
    if name == "push":
        return NativeFunction(lambda *items: (target.extend(items), float(len(target)))[1], "push")
    if name == "pop":
        return NativeFunction(lambda: target.pop() if target else None, "pop")
    if name == "join":
        return NativeFunction(lambda sep=",": _to_string(sep).join(_to_string(i) for i in target), "join")
    if name == "indexOf":
        return NativeFunction(
            lambda item: float(target.index(item)) if item in target else -1.0, "indexOf"
        )
    if name == "slice":
        return NativeFunction(lambda start=0, end=None: target[_slice(start, end)], "slice")
    try:
        index = int(name)
    except ValueError:
        raise RuntimeScriptError(f"array has no property {name!r}", line) from None
    if 0 <= index < len(target):
        return target[index]
    return None


def _string_member(target: str, name: str, line: int):
    if name == "length":
        return float(len(target))
    if name == "indexOf":
        return NativeFunction(lambda needle: float(target.find(_to_string(needle))), "indexOf")
    if name in ("substring", "slice"):
        return NativeFunction(lambda start, end=None: target[_slice(start, end)], name)
    if name == "toUpperCase":
        return NativeFunction(lambda: target.upper(), "toUpperCase")
    if name == "toLowerCase":
        return NativeFunction(lambda: target.lower(), "toLowerCase")
    if name == "split":
        return NativeFunction(lambda sep=",": target.split(_to_string(sep)), "split")
    if name == "replace":
        return NativeFunction(lambda old, new: target.replace(_to_string(old), _to_string(new), 1), "replace")
    if name == "charAt":
        return NativeFunction(
            lambda i: target[_to_integer(i)] if 0 <= _to_integer(i) < len(target) else "", "charAt"
        )
    if name == "trim":
        return NativeFunction(lambda: target.strip(), "trim")
    if name == "concat":
        return NativeFunction(lambda *parts: target + "".join(_to_string(p) for p in parts), "concat")
    try:
        index = int(name)
    except ValueError:
        raise RuntimeScriptError(f"string has no property {name!r}", line) from None
    return target[index] if 0 <= index < len(target) else None


def _slice(start, end) -> slice:
    return slice(_to_integer(start), _to_integer(end) if end is not None else None)


_DIGIT_VALUES = {digit: value for value, digit in enumerate("0123456789abcdefghijklmnopqrstuvwxyz")}
_DIGIT_VALUES.update({digit.upper(): value for digit, value in _DIGIT_VALUES.items()})


def _parse_int(value, radix=None) -> float:
    """``parseInt``: the longest run of leading digits, NaN when there is none."""
    text = _to_string(value).strip()
    sign = 1.0
    if text[:1] in ("+", "-"):
        sign, text = (-1.0 if text[0] == "-" else 1.0), text[1:]
    number = _to_number(radix)
    base = int(number) % 2**32 if math.isfinite(number) else 0  # ToUint32; ToInt32 agrees on 2-36
    if base in (0, 16) and text[:2] in ("0x", "0X"):
        base, text = 16, text[2:]
    base = base or 10
    if not 2 <= base <= 36:
        return math.nan
    result, digits = 0.0, 0
    for character in text:
        digit = _DIGIT_VALUES.get(character, base)
        if digit >= base:
            break
        result, digits = result * base + digit, digits + 1
    return sign * result if digits else math.nan


#: JavaScript's StrDecimalLiteral: what ``parseFloat`` reads a prefix of.
_DECIMAL_PREFIX = re.compile(r"[+-]?(?:Infinity|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)", re.ASCII)


def _parse_float(value=math.nan) -> float:
    """``parseFloat``: the longest decimal or ``Infinity`` prefix after
    leading whitespace, NaN when there is none."""
    match = _DECIMAL_PREFIX.match(_to_string(value).lstrip())
    return float(match.group()) if match else math.nan


@cache
def _standard_library() -> dict[str, Any]:
    """Globals available to every script regardless of the host environment.

    Built once per process and shared between interpreters: every member is
    stateless (pure native functions and the ``Math``/``JSON`` hosts, which
    refuse writes), and interpreters copy the *bindings* into their own
    global environment, so sharing the values is unobservable.
    """
    return {
        "parseInt": NativeFunction(_parse_int, "parseInt"),
        # Defaults give the no-argument results: ``undefined`` is not ``null``.
        "parseFloat": NativeFunction(_parse_float, "parseFloat"),
        "String": NativeFunction(lambda value="": _to_string(value), "String"),
        "Number": NativeFunction(_to_number, "Number"),
        "isNaN": NativeFunction(lambda value=math.nan: _to_number(value) != _to_number(value), "isNaN"),
        "Math": _MathHost(),
        "JSON": _JsonHost(),
        "undefined": None,
        "Infinity": math.inf,
        "NaN": math.nan,
    }


class _MathHost(HostObject):
    """The ``Math`` global."""

    host_name = MATH

    def _floor(self, v):
        return _integral(math.floor, v)

    def _ceil(self, v):
        return _integral(math.ceil, v)

    def _round(self, v):
        return _integral(_round_half_up, v)

    def _abs(self, v):
        return abs(_to_number(v))

    def _max(self, *vs):
        numbers = [_to_number(v) for v in vs]
        return math.nan if any(n != n for n in numbers) else max(numbers, default=-math.inf)

    def _min(self, *vs):
        numbers = [_to_number(v) for v in vs]
        return math.nan if any(n != n for n in numbers) else min(numbers, default=math.inf)

    def _pow(self, a, b):
        base, exponent = _to_number(a), _to_number(b)
        if exponent != exponent or (abs(base) == 1 and math.isinf(exponent)):
            return math.nan
        odd = exponent.is_integer() and exponent % 2 == 1
        try:
            return math.pow(base, exponent)
        except OverflowError:
            return -math.inf if base < 0 and odd else math.inf
        except ValueError:
            if base == 0:  # a zero base to a negative power
                return math.copysign(math.inf, base) if odd else math.inf
            return math.nan  # a negative base to a non-integer power

    def _sqrt(self, v):
        number = _to_number(v)
        return math.sqrt(number) if number >= 0 else math.nan

    def _get_pi(self):
        return math.pi

    def _get_e(self):
        return math.e


class _JsonHost(HostObject):
    """A small ``JSON`` global (stringify/parse of plain data)."""

    host_name = JSON

    def _stringify(self, value):
        try:
            return json.dumps(_plain(value), separators=(",", ":"))
        except (TypeError, ValueError, RecursionError) as error:  # functions, cycles
            raise RuntimeScriptError(f"JSON.stringify: {error}") from None

    def _parse(self, text):
        try:
            return json.loads(_to_string(text))
        except ValueError as error:
            raise RuntimeScriptError(f"JSON.parse: {error}") from None


def _integral(rounding: Callable[[float], int], value) -> float:
    """``rounding`` of a finite number; NaN and the infinities pass through."""
    number = _to_number(value)
    return float(rounding(number)) if math.isfinite(number) else number


def _round_half_up(number: float) -> int:
    """Halves round toward +Infinity: 2.5 gives 3 and -2.5 gives -2."""
    floor = math.floor(number)
    return floor + (number - floor >= 0.5)


def _plain(value):
    """Convert script values into JSON-serialisable Python structures."""
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        if value == int(value):
            return int(value)
    if isinstance(value, HostObject):
        # A host object has no own enumerable data; never leak its repr.
        return {}
    return value
