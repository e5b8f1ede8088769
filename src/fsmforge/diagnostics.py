"""Diagnostics shared by the parser, validator and CLI."""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

_COLORS = {"error": "\033[31m", "warning": "\033[33m"}
_RESET = "\033[0m"


@dataclass(frozen=True)
class SourceSpan:
    """Location of a lexeme in an input file (1-based line/column)."""

    file: str
    line: int
    column: int
    length: int = 0

    def __post_init__(self):
        if self.line < 1 or self.column < 1:
            raise ValueError("line and column are 1-based")


def span_at(text: str, file: str, start: int, length: int) -> SourceSpan:
    """The span of `length` characters at offset `start` of `text`."""
    line_start = text.rfind("\n", 0, start) + 1
    return SourceSpan(file, text.count("\n", 0, start) + 1, start - line_start + 1, length)


class Diagnostic(NamedTuple):
    """One finding of the parser, the validator or the CLI, with where it is."""

    code: str
    severity: str  # "error" | "warning"
    message: str
    path: str = ""
    span: Optional[SourceSpan] = None

    def render(self) -> str:
        parts = [f"{self.severity} {self.code}"]
        if self.span is not None:
            parts.append(f"at {self.span.file}:{self.span.line}:{self.span.column}")
        if self.path:
            parts.append(f"({self.path})")
        text = " ".join(parts) + f": {self.message}"
        if os.environ.get("FSMFORGE_COLOR", "0") == "1":
            return _COLORS.get(self.severity, "") + text + _RESET
        return text


class ParseError(Exception):
    """A DSL or JSON text that is not a model, with the diagnostics saying why."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(d.message for d in diagnostics))
        self.diagnostics = diagnostics


def has_errors(diagnostics) -> bool:
    return any(d.severity == "error" for d in diagnostics)
