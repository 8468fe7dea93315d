"""Differential parity: a shared cached program runs exactly like a cold parse.

``ScriptRuntime`` runs a source one of two ways: cold, as
``Interpreter.run(source)`` (the no-cache reference), or from the worker's
:class:`~repro.scripting.cache.ScriptCache`, where one parsed ``Program``
serves every execution, principal and page that runs the source.  Sharing
is safe only while no execution leaves state on the tree, so a seeded
fuzzer generates random-but-valid MiniScript programs and each one runs
cold and then twice from one cached program, each time in a fresh
interpreter: values, error classes and step counts must match exactly.

The fuzzer keeps loops small enough to stay inside the step budget and
avoids deep recursion, which trips Python's own recursion limit.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.scripting.cache import ScriptCache
from repro.scripting.errors import ScriptError
from repro.scripting.interpreter import Interpreter, NativeFunction, ScriptFunction


def describe(run):
    """Collapse a run into a comparable outcome tuple.

    ``("value", v, steps)`` for success, ``("error", ErrorClass)`` for
    script errors, ``("raw", ExcClass)`` for Python exceptions that escape
    the interpreter (e.g. ``ZeroDivisionError`` from ``% 0``).  NaN compares
    equal to itself via a sentinel.
    """
    try:
        result = run()
    except Exception as raw:  # noqa: BLE001 - raw escapes are part of the contract
        return ("raw", type(raw).__name__)
    if result.failed:
        return ("error", type(result.error).__name__)
    return ("value", _canon(result.value), result.steps)


def _canon(value):
    if isinstance(value, float) and math.isnan(value):
        return "<NaN>"
    if isinstance(value, (ScriptFunction, NativeFunction)) or callable(value):
        # Each run builds its own closures; that the value *is* a function
        # is the observable fact.
        return "<function>"
    if isinstance(value, list):
        return tuple(_canon(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _canon(v)) for k, v in value.items()))
    return value


def assert_parity(source: str):
    cold = describe(lambda: Interpreter(max_steps=50_000).run(source))
    cache = ScriptCache()
    for _ in range(2):
        try:
            program = cache.parse(source)
        except ScriptError as error:  # pragma: no cover - fuzzer emits valid code
            pytest.fail(f"parse failed for valid source: {error}\n{source}")
        warm = describe(lambda: Interpreter(max_steps=50_000).run(program))
        assert warm == cold, f"cached program diverges on:\n{source}\ncold={cold}\ncached={warm}"
    assert cache.hits["scripts"] == 1


# -- the seeded program generator -----------------------------------------------------


class _Fuzzer:
    """Grows random-but-valid MiniScript programs from a seeded RNG."""

    BINARY_OPS = ("+", "-", "*", "%", "<", ">", "<=", ">=", "==", "!=", "&&", "||")

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.counter = 0

    def name(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def literal(self) -> str:
        roll = self.rng.random()
        if roll < 0.45:
            return str(self.rng.randint(-50, 50))
        if roll < 0.65:
            return f"'{self.rng.choice(['a', 'b', 'ring', 'x_', ''])}'"
        if roll < 0.8:
            return self.rng.choice(["true", "false"])
        if roll < 0.9:
            return "null"
        return f"[{', '.join(str(self.rng.randint(0, 9)) for _ in range(self.rng.randint(0, 3)))}]"

    def expression(self, names: list[str], depth: int = 0) -> str:
        roll = self.rng.random()
        if depth >= 3 or roll < 0.35 or not names:
            return self.literal() if not names or roll < 0.5 else self.rng.choice(names)
        if roll < 0.8:
            op = self.rng.choice(self.BINARY_OPS)
            return (
                f"({self.expression(names, depth + 1)} {op} "
                f"{self.expression(names, depth + 1)})"
            )
        if roll < 0.9:
            return f"(!{self.expression(names, depth + 1)})"
        return (
            f"({self.expression(names, depth + 1)} ? "
            f"{self.expression(names, depth + 1)} : {self.expression(names, depth + 1)})"
        )

    def statement(self, names: list[str], depth: int = 0) -> str:
        roll = self.rng.random()
        if roll < 0.4 or depth >= 2:
            name = self.name()
            declaration = f"var {name} = {self.expression(names)};"
            names.append(name)
            return declaration
        if roll < 0.55 and names:
            return f"{self.rng.choice(names)} = {self.expression(names)};"
        if roll < 0.7:
            body = " ".join(self.statement(list(names), depth + 1) for _ in range(2))
            return f"if ({self.expression(names)}) {{ {body} }}"
        if roll < 0.85:
            index = self.name()
            bound = self.rng.randint(1, 6)
            body = self.statement(list(names) + [index], depth + 1)
            return (
                f"for (var {index} = 0; {index} < {bound}; "
                f"{index} = {index} + 1) {{ {body} }}"
            )
        name = self.name()
        parameter = self.name()
        body = self.statement([parameter], depth + 1)
        call_arg = self.expression(names)
        names.append(name)
        return (
            f"function {name}({parameter}) {{ {body} return {parameter}; }} "
            f"{name}({call_arg});"
        )

    def program(self) -> str:
        names: list[str] = []
        statements = [self.statement(names) for _ in range(self.rng.randint(3, 8))]
        if names:
            statements.append(f"{self.rng.choice(names)};")
        return "\n".join(statements)


@pytest.mark.parametrize("seed", range(60))
def test_fuzzed_programs_agree(seed):
    assert_parity(_Fuzzer(seed).program())


class TestKnownEdgeCases:
    """Hand-picked programs that exercise the interpreter's trickiest corners."""

    @pytest.mark.parametrize(
        "source",
        [
            "0 / 0;",  # NaN completion value
            "1 / 0;",  # signed infinity
            "'a' * 2;",  # NaN from string coercion
            "var x = 'x' * 1; (x <= x) ? 'T' : 'F';",  # NaN through a comparison
            "var n = 0; for (var i = 0; i < 3; i = i + 1) { if (i == 1) { continue; } n = n + i; } n;",
            "var n = 0; while (true) { n = n + 1; if (n > 4) { break; } } n;",
            "typeof missing;",  # soft-absorbed lookup failure
            "var o = {a: 1}; o.b = o.a + 1; o.b;",
            "var xs = [1, 2, 3]; xs.push(4); xs[3] + xs.length;",
            "var s = 'a|b'; s.split('|')[1];",
            "function f(n) { if (n < 2) { return n; } return f(n - 1) + f(n - 2); } f(10);",
            "var x = 1; { var x = 2; } x;",  # block scoping
            "missing_name;",  # reference error
            "null.x;",  # member access on null
            "var x = 'x' * 1; (x < x) ? 'T' : 'F';",
            "var x = 'x' * 1; (x > x) ? 'T' : 'F';",
            "var x = 'x' * 1; (x >= x) ? 'T' : 'F';",
            "var x = 'x' * 1; (x == x) ? 'T' : 'F';",
            "var x = 'x' * 1; (x != x) ? 'T' : 'F';",
            # closures: a loop's callbacks share its variable; a counter keeps its own
            "var fs = []; for (var i = 0; i < 3; i = i + 1) { fs.push(function () { return i; }); } fs[0]();",
            "function counter() { var n = 0; return function () { n = n + 1; return n; }; }"
            " var c = counter(); c(); c();",
            "function stop() { break; } var n = 0;"
            " for (var i = 0; i < 10; i = i + 1) { n = n + 1; stop(); } n;",  # break leaves the callee
            "'abc' < 'abd';",  # string comparison
            "-7 % 3;",  # sign of the remainder
            "var x = 5; x % 0;",  # escapes as a raw ZeroDivisionError
            "'x' + null;",
            "var o = {a: 1}; o['a'] + 1;",  # computed member
            "var rows = [{id: 1}, {id: 2}]; rows[1].id + rows.length;",
            "var f = function () { return 1; }; typeof f;",
            "var s = 'hello'; s.length + s.indexOf('l');",
            "Math.floor(7.8) + Math.max(1, 4);",  # the Math host object
            "JSON.stringify({a: [1, 2]});",  # the JSON host object
        ],
    )
    def test_edge_case_parity(self, source):
        assert_parity(source)
