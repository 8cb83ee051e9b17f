"""Lexer for the surface language.

Every operator has one canonical spelling plus (for the Unicode glyphs) an
ASCII alias; both spellings produce a token with the same kind and the same
``canon`` value, so the rest of the pipeline never sees the difference.  The
alias table is fixed and closed.

Source files are UTF-8.  Spans are byte offsets into the encoded source,
with 1-based line and column (in code points) for the start and end.
"""

from __future__ import annotations

import bisect
import enum
import re
from dataclasses import dataclass


class TokenKind(enum.Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    SYMBOL = "symbol"
    NAT = "natural-literal"
    LAYOUT = "layout"


@dataclass(frozen=True)
class Span:
    start: int  # byte offset, inclusive
    end: int  # byte offset, exclusive
    line: int  # 1-based, at start
    col: int  # 1-based, at start
    end_line: int = 0
    end_col: int = 0

    def cover(self, other: "Span") -> "Span":
        a, b = (self, other) if self.start <= other.start else (other, self)
        return Span(a.start, max(a.end, b.end), a.line, a.col, b.end_line, b.end_col)


@dataclass(frozen=True)
class Token:
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

# Longest match first.
_SYMBOLS = sorted(_SYMBOL_CANON, key=len, reverse=True)

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

# Keyword spellings containing non-ASCII glyphs; tried before the identifier
# rule because U₁ starts with a plain ASCII letter.
_GLYPH_KEYWORDS = sorted(
    (k for k in _KEYWORD_CANON if not k.isascii()), key=len, reverse=True
)

# Identifiers: ASCII word chars and primes, with single interior hyphens so
# names like path-inv lex as one token while "->" and "--" stay symbols.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*(?:-[A-Za-z0-9_']+)*")
_NAT_RE = re.compile(r"[0-9]+")
_DIRECTIVE_RE = re.compile(r"#(import|section)[^\n]*")


def _line_col(offsets: list[int], pos: int) -> tuple[int, int]:
    # offsets holds the char index of each line start
    line = bisect.bisect_right(offsets, pos) - 1
    return line + 1, pos - offsets[line] + 1


class _Cursor:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0  # char position
        self.byte = 0  # byte position of self.pos
        self.line_starts = [0]
        for i, ch in enumerate(source):
            if ch == "\n":
                self.line_starts.append(i + 1)

    def advance(self, n_chars: int) -> None:
        chunk = self.source[self.pos : self.pos + n_chars]
        self.pos += n_chars
        self.byte += len(chunk.encode("utf-8"))

    def span_from(self, start_pos: int, start_byte: int) -> Span:
        line, col = _line_col(self.line_starts, start_pos)
        eline, ecol = _line_col(self.line_starts, self.pos)
        return Span(start_byte, self.byte, line, col, eline, ecol)


def tokenize(source: str, keep_trivia: bool = False) -> list[Token]:
    """Tokenize ``source``, raising :class:`LexError` at the first bad input.

    With ``keep_trivia`` the whitespace and comment stretches are emitted as
    LAYOUT tokens, so that concatenating all lexemes reproduces the source
    exactly.
    """
    cur = _Cursor(source)
    out: list[Token] = []
    n = len(source)

    def emit_trivia(start_pos: int, start_byte: int) -> None:
        if keep_trivia and cur.pos > start_pos:
            span = cur.span_from(start_pos, start_byte)
            out.append(Token(TokenKind.LAYOUT, source[start_pos : cur.pos], span, ""))

    while cur.pos < n:
        start_pos, start_byte = cur.pos, cur.byte
        ch = source[cur.pos]

        if ch in " \t\r\n":
            while cur.pos < n and source[cur.pos] in " \t\r\n":
                cur.advance(1)
            emit_trivia(start_pos, start_byte)
            continue

        if source.startswith("--", cur.pos):
            while cur.pos < n and source[cur.pos] != "\n":
                cur.advance(1)
            emit_trivia(start_pos, start_byte)
            continue

        if source.startswith("{-", cur.pos):
            depth = 0
            while cur.pos < n:
                if source.startswith("{-", cur.pos):
                    depth += 1
                    cur.advance(2)
                elif source.startswith("-}", cur.pos):
                    depth -= 1
                    cur.advance(2)
                    if depth == 0:
                        break
                else:
                    cur.advance(1)
            if depth != 0:
                raise LexError(
                    "E-UNTERMINATED-COMMENT",
                    "unterminated block comment",
                    cur.span_from(start_pos, start_byte),
                )
            emit_trivia(start_pos, start_byte)
            continue

        if ch == "#":
            m = _DIRECTIVE_RE.match(source, cur.pos)
            if m is None:
                cur.advance(1)
                raise LexError(
                    "E-INVALID-CHARACTER",
                    "invalid character '#'",
                    cur.span_from(start_pos, start_byte),
                )
            cur.advance(m.end() - m.start())
            text = m.group(0)
            canon = "#import" if m.group(1) == "import" else "#section"
            out.append(
                Token(TokenKind.KEYWORD, text, cur.span_from(start_pos, start_byte), canon)
            )
            continue

        hit = None
        for glyph in _GLYPH_KEYWORDS:
            if source.startswith(glyph, cur.pos):
                hit = glyph
                break
        if hit is not None:
            cur.advance(len(hit))
            span = cur.span_from(start_pos, start_byte)
            out.append(Token(TokenKind.KEYWORD, hit, span, _KEYWORD_CANON[hit]))
            continue

        m = _IDENT_RE.match(source, cur.pos)
        if m is not None:
            text = m.group(0)
            cur.advance(len(text))
            span = cur.span_from(start_pos, start_byte)
            if text in _KEYWORD_CANON:
                out.append(Token(TokenKind.KEYWORD, text, span, _KEYWORD_CANON[text]))
            else:
                out.append(Token(TokenKind.IDENT, text, span, text))
            continue

        m = _NAT_RE.match(source, cur.pos)
        if m is not None:
            text = m.group(0)
            cur.advance(len(text))
            out.append(Token(TokenKind.NAT, text, cur.span_from(start_pos, start_byte), text))
            continue

        # "\" alone is the lambda alias; "\/" must win first.
        if ch == "\\" and not source.startswith("\\/", cur.pos):
            cur.advance(1)
            out.append(
                Token(TokenKind.KEYWORD, "\\", cur.span_from(start_pos, start_byte), "lambda")
            )
            continue

        sym = None
        for s in _SYMBOLS:
            if source.startswith(s, cur.pos):
                sym = s
                break
        if sym is not None:
            cur.advance(len(sym))
            span = cur.span_from(start_pos, start_byte)
            out.append(Token(TokenKind.SYMBOL, sym, span, _SYMBOL_CANON[sym]))
            continue

        cur.advance(1)
        raise LexError(
            "E-INVALID-CHARACTER",
            f"invalid character {ch!r}",
            cur.span_from(start_pos, start_byte),
        )

    return out
