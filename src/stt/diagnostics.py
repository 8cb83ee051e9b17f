"""Structured diagnostics shared by the parser, resolver, and checker."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # only in annotations, so the tope solver loads no lexer
    from .lexer import Span


# The codes of an input that could not be read or parsed, or is nested too
# deeply to parse or check: each makes the run exit 2, any other code exit 1.
INPUT_FAILURES = frozenset({
    "E-IO", "E-MANIFEST", "E-INVALID-CHARACTER", "E-UNTERMINATED-COMMENT", "E-PARSE",
    "E-IMPORT-CYCLE", "E-NESTING-DEPTH",
})


def exit_code(diags) -> int:
    """2 if an input failed, else 1 if anything is reported, else 0."""
    codes = {d.code for d in diags}
    return 2 if codes & INPUT_FAILURES else 1 if codes else 0


class Diagnostic:
    """An error: nothing is reported as a warning, so the JSON's ``severity``
    is always ``"error"``."""

    __slots__ = ("code", "message", "span", "file", "expected", "actual", "countermodel", "decl")

    def __init__(self, code: str, message: str, span: Span | None = None,
                 file: str | None = None, expected: str | None = None, actual: str | None = None,
                 countermodel: dict[str, str] | None = None, decl: str | None = None):
        self.code = code  # stable, e.g. E-TYPE-MISMATCH
        self.message, self.span, self.file = message, span, file
        self.expected = expected  # pretty-printed expected term
        self.actual = actual  # pretty-printed actual term
        self.countermodel = countermodel  # atom name -> value
        self.decl = decl  # enclosing declaration, when known

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"Diagnostic({fields})"

    def sort_key(self) -> tuple:
        s = self.span
        return (
            self.file or "",
            s.start if s else -1,
            s.end if s else -1,
            self.code,
            self.message,
        )

    def render(self, line: str | None = None, explain_tope: bool = False) -> str:
        """The human form; ``line`` is the text of the line the span starts on."""
        loc = ""
        if self.span is not None:
            loc = f"{self.span.line}:{self.span.col}: "
        head = f"{self.file + ':' if self.file else ''}{loc}error[{self.code}]: {self.message}"
        lines = [head]
        if self.expected is not None:
            lines.append(f"  expected: {self.expected}")
        if self.actual is not None:
            lines.append(f"  actual:   {self.actual}")
        if line is not None and self.span is not None:
            lines.append(f"  | {line}")
            width = 1
            if self.span.end_line == self.span.line and self.span.end_col > self.span.col:
                width = self.span.end_col - self.span.col
            lines.append("  | " + " " * (self.span.col - 1) + "^" * max(1, width))
        if explain_tope and self.countermodel:
            vals = ", ".join(f"{k} = {v}" for k, v in sorted(self.countermodel.items()))
            lines.append(f"  countermodel: {vals}")
        return "\n".join(lines)


class Failure(Exception):
    """An input that fails: it does not lex, parse, resolve, check or load as
    a manifest, or it exhausts the unfold budget.  ``diag`` is its
    diagnostic, an error with the given code, message, span and fields."""

    def __init__(self, code: str, message: str, span: Span | None = None, **fields):
        super().__init__(message)
        self.diag = Diagnostic(code, message, span, **fields)
