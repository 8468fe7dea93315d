"""MiniScript: the reproduction's JavaScript-like scripting substrate."""

from .cache import DEFAULT_SCRIPT_CACHE_SIZE, ScriptCache
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

__all__ = [
    "BudgetExceeded",
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
    "ScriptToken",
    "TokenType",
    "parse_script",
    "tokenize_script",
]
