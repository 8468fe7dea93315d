"""Errors raised by the MiniScript substrate."""

from __future__ import annotations


class ScriptError(Exception):
    """Base class for every MiniScript error.

    ``line`` is a property so that late position stamping -- the
    interpreter's node wrappers attach positions after the error is raised
    -- re-renders the displayed message to include it.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.column = column
        self.line = line

    @property
    def line(self) -> int | None:
        return self._line

    @line.setter
    def line(self, value: int | None) -> None:
        self._line = value
        if value is None:
            location = ""
        elif self.column is None:
            location = f" (line {value})"
        else:
            location = f" (line {value}, column {self.column})"
        self.args = (f"{self.message}{location}",)


class LexError(ScriptError):
    """The source text could not be tokenised."""


class ParseError(ScriptError):
    """The token stream could not be parsed into a program."""


class RuntimeScriptError(ScriptError):
    """The program failed while executing (bad member access, type error...)."""


class BudgetExceeded(RuntimeScriptError):
    """The program exceeded its execution step budget.

    The browser gives every script a finite budget so that malicious or
    buggy scripts (infinite loops) cannot hang experiments.
    """
