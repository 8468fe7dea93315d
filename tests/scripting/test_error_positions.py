"""Every ScriptError carries a source position.

The lexer and parser have always stamped line/column; this suite pins the
newer guarantee that *runtime* failures are stamped too, by the
interpreter's node-level wrappers.
"""

from __future__ import annotations

import pytest

from repro.scripting.cache import ScriptCache
from repro.scripting.errors import LexError, ParseError, RuntimeScriptError, ScriptError
from repro.scripting.interpreter import Interpreter
from repro.scripting.parser import parse_script


def error_of(source: str) -> ScriptError:
    result = Interpreter(max_steps=50_000).run(parse_script(source))
    assert result.failed, f"expected {source!r} to fail"
    assert isinstance(result.error, ScriptError)
    return result.error


_RUNTIME_CASES = {
    "missing-name": ("var a = 1;\nmissingName;", 2),
    "not-a-function": ("var f = 3;\nvar a = 2;\nf();", 3),
    "bad-member-call": ("var o = 'str';\nvar x = 1;\no.noSuchMethod();", 3),
    "inside-function-body": ("function f() {\n  var x = 1;\n  boom();\n}\nf();", 3),
    "inside-loop-body": ("var i = 0;\nwhile (i < 3) {\n  i = i + 1;\n  nope();\n}", 4),
}


@pytest.mark.parametrize("case", sorted(_RUNTIME_CASES), ids=sorted(_RUNTIME_CASES))
def test_runtime_errors_carry_the_failing_line(case):
    source, expected_line = _RUNTIME_CASES[case]
    error = error_of(source)
    assert isinstance(error, RuntimeScriptError)
    assert error.line == expected_line, f"{case}: expected line {expected_line}, got {error.line}"


@pytest.mark.parametrize("case", sorted(_RUNTIME_CASES), ids=sorted(_RUNTIME_CASES))
def test_every_run_of_a_shared_program_stamps_its_own_error(case):
    # The script cache hands one program to every execution: each run's
    # error must carry the line, whatever an earlier run stamped.
    source, expected_line = _RUNTIME_CASES[case]
    program = ScriptCache().parse(source)
    first, second = (Interpreter(max_steps=50_000).run(program).error for _ in range(2))
    assert first is not second
    assert isinstance(second, RuntimeScriptError)
    assert first.line == second.line == expected_line


def test_error_message_renders_position():
    error = error_of("var a = 1;\nmissingName;")
    assert "line 2" in str(error)


def test_lexer_errors_carry_line_and_column():
    with pytest.raises(LexError) as excinfo:
        parse_script("var a = 1;\nvar b = @;")
    assert excinfo.value.line == 2
    assert excinfo.value.column is not None


def test_parser_errors_carry_line():
    with pytest.raises(ParseError) as excinfo:
        parse_script("var a = 1;\nvar = 2;")
    assert excinfo.value.line == 2


def test_budget_error_is_a_script_error_with_position_fields():
    # A step-budget blowout must still be a well-formed ScriptError (the
    # position attributes exist even when no single line is to blame).
    result = Interpreter(max_steps=50).run(parse_script("var i = 0;\nwhile (true) { i = i + 1; }"))
    assert result.failed
    assert hasattr(result.error, "line")
