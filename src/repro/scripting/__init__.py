"""MiniScript: the reproduction's JavaScript-like scripting substrate."""

from .analysis import (
    ALL_SINKS,
    ScriptReport,
    analyze_program,
    analyze_source,
    script_digest,
)
from .cache import DEFAULT_SCRIPT_CACHE_SIZE, ScriptCache
from .compiler import CodeObject, compile_function, compile_program, fold_program
from .errors import BudgetExceeded, LexError, ParseError, RuntimeScriptError, ScriptError
from .interpreter import (
    Environment,
    ExecutionResult,
    HostObject,
    Interpreter,
    NativeConstructor,
    NativeFunction,
    ScriptFunction,
)
from .lexer import ScriptToken, TokenType, tokenize_script
from .parser import parse_script
from .vm import CompiledFunction, VirtualMachine

__all__ = [
    "ALL_SINKS",
    "BudgetExceeded",
    "CodeObject",
    "CompiledFunction",
    "DEFAULT_SCRIPT_CACHE_SIZE",
    "Environment",
    "ExecutionResult",
    "HostObject",
    "Interpreter",
    "LexError",
    "NativeConstructor",
    "NativeFunction",
    "ParseError",
    "RuntimeScriptError",
    "ScriptCache",
    "ScriptError",
    "ScriptFunction",
    "ScriptReport",
    "ScriptToken",
    "TokenType",
    "VirtualMachine",
    "analyze_program",
    "analyze_source",
    "compile_function",
    "compile_program",
    "fold_program",
    "parse_script",
    "script_digest",
    "tokenize_script",
]
