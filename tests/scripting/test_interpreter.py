"""Tests for the MiniScript interpreter."""

from __future__ import annotations

import math
import random

import pytest

from repro.scripting.cache import ScriptCache
from repro.scripting.errors import BudgetExceeded, RuntimeScriptError
from repro.scripting.interpreter import (
    HostObject,
    Interpreter,
    NativeConstructor,
    NativeFunction,
)


def run(source: str, globals_map: dict | None = None, **kwargs):
    interpreter = Interpreter(globals_map, **kwargs)
    return interpreter.run(source)


def value_of(source: str, globals_map: dict | None = None):
    result = run(source, globals_map)
    assert not result.failed, f"script failed: {result.error}"
    return result.value


class TestExpressions:
    def test_arithmetic(self):
        assert value_of("1 + 2 * 3;") == 7
        assert value_of("(1 + 2) * 3;") == 9
        assert value_of("10 % 3;") == 1
        assert value_of("7 / 2;") == 3.5

    def test_string_concatenation_coerces(self):
        assert value_of("'ring ' + 3;") == "ring 3"
        assert value_of("1 + '2';") == "12"

    def test_comparisons(self):
        assert value_of("1 < 2;") is True
        assert value_of("'a' < 'b';") is True
        assert value_of("3 >= 3;") is True
        assert value_of("2 == '2';") is True
        assert value_of("2 != 3;") is True

    def test_logical_operators_short_circuit(self):
        assert value_of("var x = 0; true || (x = 1); x;") == 0
        assert value_of("var x = 0; false && (x = 1); x;") == 0
        assert value_of("null || 'fallback';") == "fallback"

    def test_ternary(self):
        assert value_of("1 < 2 ? 'yes' : 'no';") == "yes"

    def test_unary(self):
        assert value_of("!false;") is True
        assert value_of("-(3);") == -3
        assert value_of("typeof 'x';") == "string"
        assert value_of("typeof 3;") == "number"
        assert value_of("typeof missing;") == "undefined"

    def test_division_by_zero_yields_infinity(self):
        assert value_of("1 / 0;") == math.inf
        assert value_of("-1 / 0;") == -math.inf


class TestVariablesAndControlFlow:
    def test_var_and_assignment(self):
        assert value_of("var x = 1; x = x + 2; x;") == 3

    def test_compound_assignment(self):
        assert value_of("var x = 10; x += 5; x -= 3; x;") == 12

    def test_if_else(self):
        assert value_of("var x = 5; var label; if (x > 3) { label = 'big'; } else { label = 'small'; } label;") == "big"

    def test_while_loop(self):
        assert value_of("var total = 0; var i = 0; while (i < 5) { total += i; i += 1; } total;") == 10

    def test_for_loop_with_break_and_continue(self):
        source = (
            "var total = 0;"
            "for (var i = 0; i < 10; i += 1) {"
            "  if (i == 3) { continue; }"
            "  if (i == 6) { break; }"
            "  total += i;"
            "}"
            "total;"
        )
        assert value_of(source) == 0 + 1 + 2 + 4 + 5

    def test_block_scoping_shadows_outer_variable(self):
        assert value_of("var x = 1; { var x = 2; } x;") == 1

    def test_undeclared_assignment_creates_global(self):
        assert value_of("function set() { flag = 42; } set(); flag;") == 42


class TestFunctions:
    def test_declaration_and_call(self):
        assert value_of("function add(a, b) { return a + b; } add(2, 3);") == 5

    def test_missing_arguments_default_to_null(self):
        assert value_of("function probe(a, b) { return b == null; } probe(1);") is True

    def test_closures_capture_environment(self):
        source = (
            "function counter() {"
            "  var count = 0;"
            "  return function () { count += 1; return count; };"
            "}"
            "var next = counter();"
            "next(); next();"
        )
        assert value_of(source) == 2

    def test_recursion(self):
        assert value_of("function fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); } fact(6);") == 720

    def test_arguments_binding(self):
        assert value_of("function count() { return arguments.length; } count(1, 2, 3);") == 3

    def test_function_expression_assigned_to_variable(self):
        assert value_of("var double = function (x) { return x * 2; }; double(8);") == 16

    def test_call_function_from_host(self):
        interpreter = Interpreter()
        result = interpreter.run("function handler(event) { return event + '!'; }")
        assert not result.failed
        handler = interpreter.globals.lookup("handler")
        assert interpreter.call_function(handler, ["click"]) == "click!"


class TestArraysObjectsAndBuiltins:
    def test_array_literals_and_indexing(self):
        assert value_of("var a = [10, 20, 30]; a[1];") == 20
        assert value_of("var a = [1]; a[5] = 9; a.length;") == 6

    def test_array_methods(self):
        assert value_of("var a = [1, 2]; a.push(3); a.length;") == 3
        assert value_of("[1, 2, 3].join('-');") == "1-2-3"
        assert value_of("[1, 2, 3].indexOf(2);") == 1
        assert value_of("[1, 2, 3].indexOf(9);") == -1
        assert value_of("[1, 2, 3, 4].slice(1, 3).length;") == 2

    def test_object_literals_and_member_assignment(self):
        assert value_of("var o = {a: 1}; o.b = 2; o.a + o.b;") == 3
        assert value_of("var o = {x: 'y'}; o['x'];") == "y"
        assert value_of("var o = {}; o.missing;") is None

    def test_string_methods(self):
        assert value_of("'Escudo'.toUpperCase();") == "ESCUDO"
        assert value_of("'Escudo'.length;") == 6
        assert value_of("'a,b,c'.split(',').length;") == 3
        assert value_of("'  pad  '.trim();") == "pad"
        assert value_of("'ring 3'.indexOf('3');") == 5
        assert value_of("'abcdef'.substring(1, 3);") == "bc"
        assert value_of("'x-y'.replace('-', '+');") == "x+y"

    def test_standard_library_globals(self):
        assert value_of("parseInt('42');") == 42
        assert value_of("parseFloat('2.5');") == 2.5
        assert value_of("isNaN('not a number');") is True
        assert value_of("Math.max(1, 9, 4);") == 9
        assert value_of("Math.floor(3.9);") == 3
        assert value_of("JSON.parse(JSON.stringify({a: 1})).a;") == 1


class TestHostInterop:
    class Counter(HostObject):
        host_name = "Counter"

        def __init__(self) -> None:
            self.count = 0.0
            self.last_set = None

        def js_get(self, name: str):
            if name == "count":
                return self.count
            if name == "increment":
                return NativeFunction(self._increment, "increment")
            raise RuntimeScriptError(f"Counter has no property {name!r}")

        def js_set(self, name: str, value) -> None:
            if name == "count":
                self.count = value
                self.last_set = value
                return
            raise RuntimeScriptError("read-only")

        def _increment(self, by=1.0):
            self.count += by
            return self.count

    def test_host_property_read_and_write(self):
        counter = self.Counter()
        assert value_of("counter.count = 5; counter.count;", {"counter": counter}) == 5
        assert counter.last_set == 5

    def test_host_method_call(self):
        counter = self.Counter()
        assert value_of("counter.increment(); counter.increment(3);", {"counter": counter}) == 4

    def test_host_write_to_read_only_property_raises_script_error(self):
        result = run("counter.other = 1;", {"counter": self.Counter()})
        assert result.failed
        assert isinstance(result.error, RuntimeScriptError)

    def test_native_constructor_via_new(self):
        created = []

        def factory():
            counter = self.Counter()
            created.append(counter)
            return counter

        globals_map = {"Counter": NativeConstructor(factory, "Counter")}
        assert value_of("var c = new Counter(); c.increment(); c.count;", globals_map) == 1
        assert len(created) == 1

    def test_new_on_script_function_builds_object(self):
        assert value_of("function Point(x) { this.x = x; } var p = new Point(7); p.x;") == 7

    def test_new_on_non_constructible_fails(self):
        result = run("var x = new undefined();")
        assert result.failed


class TestErrorsAndBudget:
    def test_unknown_identifier(self):
        result = run("missing_variable + 1;")
        assert result.failed
        assert not result.completed
        assert "not defined" in str(result.error)

    def test_member_access_on_null(self):
        result = run("var x = null; x.property;")
        assert result.failed

    def test_calling_a_non_function(self):
        result = run("var x = 3; x();")
        assert result.failed

    def test_syntax_error_is_reported_not_raised(self):
        result = run("var = ;")
        assert result.failed
        assert result.completed is False

    def test_top_level_return_is_an_error(self):
        result = run("return 1;")
        assert result.failed

    def test_infinite_loop_hits_budget(self):
        result = run("while (true) { var x = 1; }", max_steps=2_000)
        assert result.failed
        assert isinstance(result.error, BudgetExceeded)
        assert result.steps >= 2_000

    def test_steps_are_counted(self):
        result = run("var total = 0; for (var i = 0; i < 10; i += 1) { total += i; }")
        assert result.steps > 10
        assert not result.failed

    def test_empty_and_counting_loops_hit_budget(self):
        assert isinstance(run("for (;;) { }", max_steps=2_000).error, BudgetExceeded)
        result = run("var n = 0; while (true) { n = n + 1; }", max_steps=3_000)
        assert isinstance(result.error, BudgetExceeded)


class TestCompletionAndCoercion:
    """Completion values, coercions and loop exits every script relies on."""

    def test_binary_operators_on_a_variable_and_a_literal(self):
        assert value_of("var x = 5; x + 2;") == 7.0
        assert value_of("var x = 5; x - 2;") == 3.0
        assert value_of("var x = 5; x * 2;") == 10.0
        assert value_of("var x = 5; x % 2;") == 1.0
        assert value_of("'n=' + 1;") == "n=1"
        assert value_of("'ring ' + 3;") == "ring 3"
        assert value_of("1 + '2';") == "12"
        assert value_of("1 == '1';") is True

    def test_modulo_by_zero_is_nan(self):
        assert math.isnan(value_of("var x = 5; x % 0;"))

    def test_short_circuit_never_evaluates_the_decided_arm(self):
        assert value_of("false && missing;") is False
        assert value_of("true || missing;") is True

    def test_comparison_driven_loops_and_branches(self):
        assert value_of("var n = 0; for (var i = 0; i < 5; i = i + 1) { n = n + 1; } n;") == 5.0
        assert value_of("var i = 10; while (i > 3) { i = i - 2; } i;") == 2.0
        assert value_of("var x = 1; if (x >= 1) { x = 7; } x;") == 7.0
        assert value_of("var a = 'q'; (a == 'q') ? 1 : 2;") == 1.0

    def test_program_completion_value(self):
        # The last expression statement wins; a write in statement position
        # publishes its value, and a declaration or call of a void function
        # completes with null.
        assert value_of("var x = 1; x = 5;") == 5.0
        assert value_of("var x = 1; x = 5; var y = 2;") is None
        assert value_of("function f() { var z = 9; z = 3; } f();") is None

    def test_break_in_a_callee_exits_the_callers_innermost_loop(self):
        source = (
            "function stop() { break; }"
            "var n = 0;"
            "for (var i = 0; i < 10; i = i + 1) { n = n + 1; stop(); }"
            "n;"
        )
        assert value_of(source) == 1.0


#: Programs whose JavaScript value the interpreter once got wrong or crashed
#: on (an OverflowError, ZeroDivisionError or ValueError escaped ``run``).
JAVASCRIPT_VALUES = [
    ('"" + 1/0;', "Infinity"),
    ('"" + -1/0;', "-Infinity"),
    ('Infinity + "";', "Infinity"),
    ('var o = {}; o[1/0] = 1; o["Infinity"];', 1.0),
    ('var o = {}; o[-1/0] = 2; o["-Infinity"];', 2.0),
    ("JSON.stringify(1/0);", "null"),
    ('Math.floor(1/0) + "";', "Infinity"),
    ("7 % 0;", math.nan),
    ("var x = 4; x /= 0; x;", math.inf),
    ("Math.pow(0, -1);", math.inf),
    ("Math.round(0/0);", math.nan),
    ("Math.ceil(0/0);", math.nan),
    ("Math.sqrt(-1);", math.nan),
    ("Math.max();", -math.inf),
    ('parseInt("abc");', math.nan),
    ('parseInt("12px");', 12.0),
    ('parseInt("10", 99);', math.nan),
    ('parseInt("10", 1/0);', 10.0),
    ('parseInt("10", 0/0);', 10.0),
    ('parseInt("10", 4294967298);', 2.0),
    ('parseInt("10", -4294967294);', 2.0),
    ("0/0 <= 1;", False),
    ("0/0 >= 1;", False),
    ("-7 % 3;", -1.0),
    ("JSON.stringify({a: [1, 2]});", '{"a":[1,2]}'),
    ("Math.round(2.5);", 3.0),
]

#: The operands the seeded test combines: finite, non-finite, non-numeric.
OPERANDS = ["1", "-7", "2.5", "1/0", "0/0", '"abc"', '"12px"', "null"]

#: Operator and builtin uses, each filled with operands ``a`` and ``b``.
TEMPLATES = [
    *(f"({{a}}) {op} ({{b}});" for op in ("+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=")),
    *(f"var x = {{a}}; x {op}= {{b}}; x;" for op in "+-*/"),
    "-({a});", "!({a});", "typeof ({a});",
    *(f"Math.{name}({{a}});" for name in ("floor", "ceil", "round", "abs", "sqrt", "min")),
    "Math.pow({a}, {b});", "Math.max({a}, {b});", "Math.max();",
    "parseInt({a});", "parseInt({a}, {b});", "parseFloat({a});",
    "String({a});", "Number({a});", "isNaN({a});",
    "JSON.stringify([{a}, {b}]);", "JSON.parse({a});",
    "var o = {{}}; o[{a}] = {b}; o[{a}];",
    "var list = []; list[{a}] = {b}; list;",
    '"abcdef".charAt({a});', '"abcdef".slice({a}, {b});', '"abcdef".substring({a});',
    "[1, 2, 3].slice({a}, {b});",
]


class TestJavaScriptNumberSemantics:
    """Script content cannot crash the engine: builtins return JavaScript's values."""

    @pytest.mark.parametrize(("source", "expected"), JAVASCRIPT_VALUES, ids=[s for s, _ in JAVASCRIPT_VALUES])
    def test_javascript_value(self, source, expected):
        value = value_of(source)
        if isinstance(expected, float) and math.isnan(expected):
            assert math.isnan(value)
        else:
            assert value == expected

    def test_bad_json_text_is_a_script_error(self):
        result = run('JSON.parse("{");')
        assert result.failed
        assert isinstance(result.error, RuntimeScriptError)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_python_exception_escapes_run(self, seed):
        rng = random.Random(seed)

        def operand():
            if rng.random() < 0.3:  # one level of nesting
                return f"({rng.choice(OPERANDS)} {rng.choice('+-*/%')} {rng.choice(OPERANDS)})"
            return rng.choice(OPERANDS)

        for _ in range(400):
            source = rng.choice(TEMPLATES).format(a=operand(), b=operand())
            result = Interpreter().run(source)  # raises if anything escapes
            assert result.completed or isinstance(result.error, RuntimeScriptError), source


class _Recorder(HostObject):
    """A mediating host object: every access goes through js_get/js_set/js_call."""

    host_name = "Recorder"

    def __init__(self, deny: bool = False) -> None:
        self.deny = deny
        self.log: list[tuple] = []
        self.fields: dict = {"x": 1.0}

    def js_get(self, name: str):
        self.log.append(("get", name))
        if self.deny:
            raise RuntimeScriptError(f"access to {name!r} denied")
        if name in self.fields:
            return self.fields[name]
        raise RuntimeScriptError(f"Recorder has no property {name!r}")

    def js_set(self, name: str, value) -> None:
        self.log.append(("set", name, value))
        if self.deny:
            raise RuntimeScriptError(f"write to {name!r} denied")
        self.fields[name] = value

    def js_call(self, name: str, args: list):
        self.log.append(("call", name, tuple(args)))
        if self.deny:
            raise RuntimeScriptError(f"call to {name!r} denied")
        if name == "double":
            return args[0] * 2
        raise RuntimeScriptError(f"Recorder.{name} is not a function")


class TestSharedProgramMediation:
    """One cached program serves many runs; each access still reaches the host."""

    def test_every_member_read_reaches_the_host(self):
        recorder = _Recorder()
        result = run(
            "var total = 0; for (var i = 0; i < 10; i = i + 1) { total = total + r.x; } total;",
            {"r": recorder},
        )
        assert result.value == 10.0
        assert recorder.log == [("get", "x")] * 10

    def test_every_method_call_reaches_the_host(self):
        recorder = _Recorder()
        source = "var total = 0; for (var i = 0; i < 5; i = i + 1) { total = total + r.double(i); } total;"
        assert value_of(source, {"r": recorder}) == 20.0
        assert recorder.log == [("call", "double", (float(i),)) for i in range(5)]

    def test_new_routes_writes_and_reads_through_the_host(self):
        built = []

        def factory():
            built.append(_Recorder())
            return built[-1]

        source = "var r = new Recorder(); r.x = 5; r.x;"
        assert value_of(source, {"Recorder": NativeConstructor(factory, "Recorder")}) == 5.0
        assert built[0].log == [("set", "x", 5.0), ("get", "x")]

    def test_a_revoked_access_denies_the_next_run_of_a_shared_program(self):
        recorder = _Recorder()
        program = ScriptCache().parse("r.x;")
        assert not Interpreter({"r": recorder}).run(program).failed
        recorder.deny = True
        result = Interpreter({"r": recorder}).run(program)
        assert result.failed
        assert "denied" in str(result.error)

    def test_one_program_serves_different_receiver_kinds(self):
        program = ScriptCache().parse("obj.x;")
        assert Interpreter({"obj": _Recorder()}).run(program).value == 1.0
        assert Interpreter({"obj": {"x": 9.0}}).run(program).value == 9.0
        assert Interpreter({"obj": _Recorder()}).run(program).value == 1.0

    def test_one_program_keeps_each_interpreters_globals_apart(self):
        program = ScriptCache().parse("var n = base + 1; n;")
        first = Interpreter({"base": 1.0})
        second = Interpreter({"base": 10.0})
        assert first.run(program).value == 2.0
        assert second.run(program).value == 11.0
        assert first.run(program).value == 2.0
