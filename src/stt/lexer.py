"""Lexer for the surface language.

Every operator has one canonical spelling plus (for the Unicode glyphs) an
ASCII alias; both spellings produce a token with the same kind and the same
``canon`` value, so the rest of the pipeline never sees the difference.  The
alias table is fixed and closed.

The lexer is one compiled alternation of named groups (``_TOKEN_RE``).
Alternatives are tried left to right, so their order is the priority
order: whitespace, ``--`` comment, ``{-``, directive, glyph (each fixed
spelling that is not an identifier: glyph keywords, the lambda alias ``\\``
and symbols, longest first), identifier, natural.  Glyphs go ahead of
identifiers because ``U₁`` starts with ``U``; no symbol starts like an
identifier or a natural.  Nested ``{- -}`` comments are not regular, so
they are the one loop.

Source files are UTF-8.  Spans are byte offsets into the encoded source,
with 1-based line and column (in code points) for the start and end.

With a cursor (char offset, byte offset, line, line start), ``tokenize``
lexes one chunk: from the cursor through the first top-level keyword
(``def``, ``postulate``, ``#import``, ``#section``) after the chunk's first
token, that keyword included, and moves the cursor past it.  The parser asks
for one chunk at a time, so it holds one top-level form's tokens, not the
file's: the 102,505 tokens of the benchmark's ``frontend_module(7)`` take
26 MB together, and its largest chunk, 80 tokens, 22 kB.  Lexing that module
in its 2,001 chunks takes 0.21-0.30 s, no longer than one whole-source call
in the same processes, 0.27-0.36 s (median of 8 best-of-5 in each of two
processes, collector off, 2 vCPUs, CPython 3.11).

``Span`` and ``Token`` are named tuples: immutable, and built by
``tuple.__new__`` alone, where a frozen dataclass pays one
``object.__setattr__`` per field.  Built through ``NamedTuple``'s generated
``__new__`` with every lexeme re-encoded, the whole-source call took 0.46 s
where it took 0.37 s this way, on the same host.  A named tuple's equality
ignores the class, which these two records never need.  Core and surface
nodes are tuples too, through ``core.Node``, but their equality also compares
the class, because the checker's ``t == u`` must tell ``Fst(x)`` from
``Snd(x)``.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple


class TokenKind(enum.Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    SYMBOL = "symbol"
    NAT = "natural-literal"
    LAYOUT = "layout"


class Span(NamedTuple):
    start: int  # byte offset, inclusive
    end: int  # byte offset, exclusive
    line: int  # 1-based, at start
    col: int  # 1-based, at start
    end_line: int = 0
    end_col: int = 0

    def cover(self, other: "Span") -> "Span":
        a, b = (self, other) if self.start <= other.start else (other, self)
        return Span(a.start, max(a.end, b.end), a.line, a.col, b.end_line, b.end_col)


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    span: Span
    canon: str  # canonical spelling shared by glyph and ASCII alias


class LexError(Exception):
    def __init__(self, code: str, message: str, span: Span):
        super().__init__(message)
        self.code = code
        self.message = message
        self.span = span


# Glyph -> canonical name.  ASCII aliases map to the same canon, so
# "0 <= x" and "0 ≤ x" tokenize to identical (kind, canon) sequences.
_SYMBOL_CANON = {
    ":=": ":=",
    "|->": "|->",
    "↦": "|->",
    "->": "->",
    "→": "->",
    "<=": "<=",
    "≤": "<=",
    "===": "===",
    "≡": "===",
    "/\\": "/\\",
    "∧": "/\\",
    "\\/": "\\/",
    "∨": "\\/",
    "~": "~",
    "∼": "~",
    "*": "*",
    "×": "*",
    "⟨": "⟨",
    "⟩": "⟩",
    "(": "(",
    ")": ")",
    "[": "[",
    "]": "]",
    "{": "{",
    "}": "}",
    ",": ",",
    ":": ":",
    "|": "|",
}

_KEYWORD_CANON = {
    "def": "def",
    "postulate": "postulate",
    "U": "U",
    "U1": "U1",
    "U₁": "U1",
    "Id": "Id",
    "refl": "refl",
    "ind-path": "ind-path",
    "fst": "fst",
    "snd": "snd",
    "Sigma": "Sigma",
    "Σ": "Sigma",
    "Pi": "Pi",
    "Π": "Pi",
    "lambda": "lambda",
    "λ": "lambda",
    "\\": "lambda",
    "pi1": "pi1",
    "π₁": "pi1",
    "pi2": "pi2",
    "π₂": "pi2",
    "TOP": "TOP",
    "⊤": "TOP",
    "BOT": "BOT",
    "⊥": "BOT",
    "star": "star",
    "⋆": "star",
    "Delta1": "Delta1",
    "Δ¹": "Delta1",
    "Delta2": "Delta2",
    "Δ²": "Delta2",
    "Lambda21": "Lambda21",
    "Λ²₁": "Lambda21",
    "dDelta1": "dDelta1",
    "∂Δ¹": "dDelta1",
}

# Spelling -> (kind, lexeme, canon).  Tokens of a fixed spelling take the
# table's own string as their lexeme instead of a fresh slice of the source.
_SPELLINGS = {s: (TokenKind.KEYWORD, s, c) for s, c in _KEYWORD_CANON.items()}
_SPELLINGS.update((s, (TokenKind.SYMBOL, s, c)) for s, c in _SYMBOL_CANON.items())

# Identifiers: ASCII word chars and primes, with single interior hyphens so
# names like path-inv lex as one token while "->" and "--" stay symbols.
_IDENT = r"[A-Za-z_][A-Za-z0-9_']*(?:-[A-Za-z0-9_']+)*"

# The spellings that are not identifiers: glyph keywords, "\" and symbols.
# Longest first, so that "\/" wins over "\" and "|->" over "|".
_GLYPHS = sorted(
    (s for s in _SPELLINGS if not re.fullmatch(_IDENT, s)), key=len, reverse=True
)

_TOKEN_RE = re.compile(
    "|".join(
        f"(?P<{group}>{pattern})"
        for group, pattern in (
            ("space", r"[ \t\r\n]+"),
            ("line", r"--[^\n]*"),
            ("block", r"\{-"),
            ("directive", r"#(?:import|section)[^\n]*"),
            ("glyph", "|".join(map(re.escape, _GLYPHS))),
            ("ident", _IDENT),
            ("nat", r"[0-9]+"),
        )
    )
)
_NESTING_RE = re.compile(r"\{-|-\}")
# builds a Span or Token from exactly its fields, unchecked
_tuple_new = tuple.__new__
_LAYOUT = {"space", "line", "block"}
# The keywords that begin a top-level form, and so end a chunk.
_TOP_LEVEL = frozenset({"def", "postulate", "#import", "#section"})


def start_cursor() -> list[int]:
    """A cursor at the start of a source: char offset, byte offset, line and
    the char offset where that line starts."""
    return [0, 0, 1, 0]


def tokenize(
    source: str, keep_trivia: bool = False, cursor: list[int] | None = None
) -> list[Token]:
    """Tokenize ``source``, raising :class:`LexError` at the first bad input.

    With ``keep_trivia`` the whitespace and comment stretches are emitted as
    LAYOUT tokens, so that concatenating all lexemes reproduces the source
    exactly.

    With a ``cursor`` (see :func:`start_cursor`) only one chunk is lexed,
    through the first top-level keyword after its first token or to the
    end of the source, and the cursor is moved to the chunk's end.
    """
    out: list[Token] = []
    n = len(source)
    if cursor is None:
        cursor, stops = start_cursor(), frozenset()
    else:
        stops = _TOP_LEVEL
    pos, byte, line, line_start = cursor  # line_start: char offset of the current line
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        group, end = (m.lastgroup, m.end()) if m else ("invalid", pos + 1)
        if group == "block":
            depth = 0
            for delim in _NESTING_RE.finditer(source, pos):
                depth += 1 if delim.group() == "{-" else -1
                if depth == 0:
                    end = delim.end()
                    break
            else:
                group, end = "unterminated", n
        text = source[pos:end]
        # an ASCII lexeme takes one byte per char
        end_byte = byte + (end - pos if text.isascii() else len(text.encode("utf-8")))
        end_line, end_line_start = line, line_start
        if "\n" in text:
            end_line += text.count("\n")
            end_line_start = source.rfind("\n", pos, end) + 1

        if keep_trivia or group not in _LAYOUT:
            col, end_col = pos - line_start + 1, end - end_line_start + 1
            span = _tuple_new(Span, (byte, end_byte, line, col, end_line, end_col))
            if group == "invalid":
                raise LexError("E-INVALID-CHARACTER", f"invalid character {text!r}", span)
            if group == "unterminated":
                raise LexError("E-UNTERMINATED-COMMENT", "unterminated block comment", span)
            if group == "glyph" or (group == "ident" and text in _SPELLINGS):
                kind, text, canon = _SPELLINGS[text]
            elif group == "ident":
                kind, canon = TokenKind.IDENT, text
            elif group == "nat":
                kind, canon = TokenKind.NAT, text
            elif group == "directive":
                kind = TokenKind.KEYWORD
                canon = "#import" if text.startswith("#import") else "#section"
            else:
                kind, canon = TokenKind.LAYOUT, ""
            out.append(_tuple_new(Token, (kind, text, span, canon)))
            if canon in stops and len(out) > 1:
                pos, byte, line, line_start = end, end_byte, end_line, end_line_start
                break
        pos, byte, line, line_start = end, end_byte, end_line, end_line_start
    cursor[:] = pos, byte, line, line_start
    return out
