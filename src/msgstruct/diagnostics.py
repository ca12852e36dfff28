"""Source positions and diagnostics shared by the parser, linter, and deriver."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class SourceSpan:
    """Region of the input text, 1-based, end-inclusive."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        if (self.end_line, self.end_col) < (self.start_line, self.start_col):
            raise ValueError(f"span end precedes start: {self}")

    def __str__(self) -> str:
        return f"{self.start_line}:{self.start_col}"


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    """One reported finding. Codes are stable across releases for a given rule."""

    severity: Severity
    code: str
    message: str
    span: SourceSpan | None = None

    def render(self, filename: str | None = None) -> str:
        where = filename or "<input>"
        if self.span is not None:
            where = f"{where}:{self.span.start_line}:{self.span.start_col}"
        return f"{where}: {self.severity.value}: {self.code}: {self.message}"

    def to_json_obj(self) -> dict:
        obj: dict = {
            "severity": self.severity.value,
            "code": self.code,
            "message": self.message,
        }
        if self.span is not None:
            obj["span"] = {
                "startLine": self.span.start_line,
                "startCol": self.span.start_col,
                "endLine": self.span.end_line,
                "endCol": self.span.end_col,
            }
        return obj


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)
