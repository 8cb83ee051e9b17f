"""Recursive-descent parser for the surface language.

Top-level forms are ``def`` and ``postulate`` declarations plus ``#import``
directives; ``#section`` markers are skipped.  A malformed declaration
produces one diagnostic and the parser resynchronizes at the next top-level
keyword, so one bad declaration never takes the rest of the file with it.
A declaration nested too deeply for the recursive descent is reported the
same way, as ``E-NESTING-DEPTH``.

The parser holds one top-level form's tokens at a time.  It asks the lexer
for the next chunk, which ends at the next top-level keyword, only at top
level: in the module loop and while resynchronizing, never inside the
recursive descent.  No rule below a declaration consumes a top-level
keyword, so a declaration never reads past its chunk.

Binary operators are parsed by precedence climbing over ``surface.BINARY``,
which holds each operator's precedence and associativity; the prefix
operators and leaf keywords come from ``surface.PREFIX`` and
``surface.KEYWORD``.  Application binds tighter than every binary operator.
The right side of ``→`` is a whole expression, and ``λ``, ``Π`` and ``Σ``
extend as far right as possible.
"""

from __future__ import annotations

import re

from .diagnostics import Diagnostic
from .lexer import LexError, Span, Token, TokenKind, start_cursor, tokenize
from . import surface as S


class ParseFailure(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


# Tokens that may begin an atom, used to drive application parsing.
_ATOM_KEYWORDS = {*S.KEYWORD, *S.PREFIX, "Id", "ind-path"}
_ATOM_SYMBOLS = {"(", "[", "⟨"}
# A shape's cube is a product: it stops before any looser operator.
_TIMES = S.BINARY["*"][0]

# The lexer gives a directive the rest of its line; a line comment may
# follow the quoted path.
_IMPORT_RE = re.compile(r'#import\s*"([^"]+)"\s*(?:--.*)?')


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.cursor = start_cursor()
        self.tokens: list[Token] = []  # the current token, then the rest of its chunk
        self.pos = 0
        self.eof_span = Span(0, 0, 1, 1, 1, 1)  # the last token lexed so far
        self.decl_name: str | None = None  # of the declaration being parsed, once read
        self.imports: list[tuple[str | None, Span]] = []
        self.import_diags: list[Diagnostic] = []

    # -- token plumbing ----------------------------------------------------

    def fill(self) -> None:
        """Lex the next chunk once no token is left past the current one.
        Called only at top level, so running out of tokens inside a
        declaration means the end of the source."""
        if self.pos < len(self.tokens) - 1 or self.cursor[0] >= len(self.source):
            return
        chunk = tokenize(self.source, cursor=self.cursor)
        self.tokens = self.tokens[self.pos :] + chunk
        self.pos = 0
        if chunk:
            self.eof_span = chunk[-1].span
        for t in chunk:
            if t.canon == "#import":
                m = _IMPORT_RE.fullmatch(t.lexeme)
                self.imports.append((m and m.group(1), t.span))
                if m is None:
                    found = t.lexeme.strip()
                    message = f"expected #import \"path\", found '{found}'"
                    self.import_diags.append(Diagnostic("error", "E-PARSE", message, t.span))

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, canon: str) -> bool:
        t = self.peek()
        return t is not None and t.canon == canon

    def at_kind(self, kind: TokenKind) -> bool:
        t = self.peek()
        return t is not None and t.kind == kind

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseFailure("unexpected end of input", self.eof_span)
        self.pos += 1
        return t

    def expect(self, canon: str, what: str | None = None) -> Token:
        t = self.peek()
        if t is None or t.canon != canon:
            want = what or f"'{canon}'"
            got = f"'{t.lexeme}'" if t else "end of input"
            raise ParseFailure(f"expected {want}, found {got}", self._here())
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t is None or t.kind != TokenKind.IDENT:
            got = f"'{t.lexeme}'" if t else "end of input"
            raise ParseFailure(f"expected {what}, found {got}", self._here())
        return self.next()

    def _here(self) -> Span:
        t = self.peek()
        return t.span if t is not None else self.eof_span

    # -- expressions -------------------------------------------------------

    def expr(self) -> S.SExpr:
        t = self.peek()
        if t is not None and t.canon == "lambda":
            return self.lam()
        if t is not None and t.canon in ("Pi", "Sigma"):
            return self.quantifier(t.canon)
        return self.binary()

    def lam(self) -> S.SExpr:
        start = self.next().span
        binders: list[S.SLamBinder] = []
        while not self.at("|->"):
            binders.append(self.lam_binder())
        self.expect("|->")
        body = self.expr()
        if not binders:
            raise ParseFailure("λ needs at least one binder", start)
        return S.SLam(start.cover(body.span), tuple(binders), body)

    def lam_binder(self) -> S.SLamBinder:
        if self.at_kind(TokenKind.IDENT):
            return S.SLamBinder(self.next().lexeme, None)
        if self.at("("):
            self.next()
            pat = self.pattern()
            annot = None
            if self.at(":"):
                self.next()
                annot = self.expr()
            self.expect(")")
            return S.SLamBinder(pat, annot)
        raise ParseFailure("expected λ binder", self._here())

    def pattern(self) -> S.Pattern:
        if self.at("("):
            self.next()
            a = self.expect_ident().lexeme
            self.expect(",")
            b = self.expect_ident().lexeme
            self.expect(")")
            return (a, b)
        return self.expect_ident("binder name").lexeme

    def quantifier(self, which: str) -> S.SExpr:
        start = self.next().span
        groups: list[S.SGroup] = []
        while self.at("("):
            groups.append(self.group())
        if not groups:
            raise ParseFailure(f"{which} needs at least one (name : type) group", start)
        self.expect(",")
        body = self.expr()
        span = start.cover(body.span)
        if which == "Pi":
            return S.SPi(span, tuple(groups), body)
        return S.SSigma(span, tuple(groups), body)

    def group(self) -> S.SGroup:
        start = self.expect("(").span
        names = [self.expect_ident("parameter name").lexeme]
        while self.at_kind(TokenKind.IDENT):
            names.append(self.next().lexeme)
        self.expect(":")
        annot = self.expr()
        end = self.expect(")").span
        return S.SGroup(tuple(names), annot, start.cover(end))

    def binary(self, min_prec: int = 0) -> S.SExpr:
        """Operands joined by binary operators of precedence at least
        ``min_prec``.  The operators applied here fall strictly in
        precedence.  A right associative operator's right side takes every
        operator at least as tight as it; a non-associative one's takes only
        tighter ones, and a comparison right after a comparison is an error
        here, at the second operator."""
        lhs = self.app()
        ceiling = float("inf")  # precedence of the operator last applied
        while True:
            t = self.peek()
            entry = S.BINARY.get(t.canon) if t is not None else None
            if entry is not None and entry[0] == ceiling and not entry[1]:
                raise ParseFailure(f"comparisons do not chain, found '{t.lexeme}'", t.span)
            if entry is None or not min_prec <= entry[0] < ceiling:
                return lhs
            prec, right, _ = entry
            self.next()
            if t.canon == "->":
                rhs = self.expr()
            else:
                rhs = self.binary(prec if right else prec + 1)
            lhs = S.SBinary(lhs.span.cover(rhs.span), t.canon, lhs, rhs)
            ceiling = prec

    def _starts_atom(self) -> bool:
        t = self.peek()
        if t is None:
            return False
        if t.kind == TokenKind.IDENT or t.kind == TokenKind.NAT:
            return True
        if t.kind == TokenKind.KEYWORD:
            return t.canon in _ATOM_KEYWORDS
        return t.canon in _ATOM_SYMBOLS

    def app(self) -> S.SExpr:
        head = self.atom()
        while self._starts_atom():
            arg = self.atom()
            head = S.SApp(head.span.cover(arg.span), head, arg)
        return head

    def atom(self) -> S.SExpr:
        t = self.peek()
        if t is None:
            raise ParseFailure("expected expression", self.eof_span)
        if t.kind == TokenKind.IDENT:
            self.next()
            return S.SName(t.span, t.lexeme)
        if t.kind == TokenKind.NAT:
            self.next()
            return S.SNat(t.span, t.lexeme)
        if t.kind == TokenKind.KEYWORD:
            c = t.canon
            if c in S.KEYWORD:
                self.next()
                return S.SKeyword(t.span, c)
            if c in S.PREFIX:
                self.next()
                arg = self.atom()
                return S.SPrefix(t.span.cover(arg.span), c, arg)
            if c == "Id":
                self.next()
                ty = self.atom()
                lhs = self.atom()
                rhs = self.atom()
                return S.SId(t.span.cover(rhs.span), ty, lhs, rhs)
            if c == "ind-path":
                self.next()
                motive = self.atom()
                base = self.atom()
                target = self.atom()
                return S.SIndPath(t.span.cover(target.span), motive, base, target)
            if c in ("lambda", "Pi", "Sigma"):
                return self.expr()
            raise ParseFailure(f"unexpected keyword '{t.lexeme}'", t.span)
        if t.canon == "(":
            self.next()
            inner = self.expr()
            if self.at(","):
                self.next()
                second = self.expr()
                end = self.expect(")").span
                return S.SPair(t.span.cover(end), inner, second)
            if self.at(":"):
                self.next()
                ty = self.expr()
                end = self.expect(")").span
                return S.SAnnot(t.span.cover(end), inner, ty)
            end = self.expect(")").span
            return _respan(inner, t.span.cover(end))
        if t.canon == "[":
            return self.split()
        if t.canon == "⟨":
            return self.ext_type()
        raise ParseFailure(f"unexpected token '{t.lexeme}'", t.span)

    def split(self) -> S.SExpr:
        start = self.expect("[").span
        branches: list[tuple[S.SExpr | None, S.SExpr]] = []
        if not self.at("]"):
            while True:
                first = self.expr()
                if self.at("|->"):
                    self.next()
                    value = self.expr()
                    branches.append((first, value))
                else:
                    branches.append((None, first))
                if self.at(","):
                    self.next()
                    continue
                break
        end = self.expect("]").span
        return S.SSplit(start.cover(end), tuple(branches))

    def ext_type(self) -> S.SExpr:
        start = self.expect("⟨").span
        shape = self.shape()
        self.expect("->")
        codomain = self.expr()
        tope = None
        boundary = None
        if self.at("|"):
            self.next()
            tope = self.expr()
            self.expect("|->")
            boundary = self.expr()
        end = self.expect("⟩").span
        return S.SExt(start.cover(end), shape, codomain, tope, boundary)

    def shape(self) -> S.SExpr:
        if self.at("{"):
            start = self.next().span
            binder = self.pattern()
            self.expect(":")
            cube = self.binary(_TIMES)
            self.expect("|")
            tope = self.expr()
            end = self.expect("}").span
            return S.SShape(start.cover(end), binder, cube, tope)
        # a bare cube expression or canonical shape name
        return self.binary(_TIMES)

    # -- declarations ------------------------------------------------------

    def declaration(self) -> S.SurfaceDecl:
        kw = self.next()
        is_def = kw.canon == "def"
        self.decl_name = None
        name_tok = self.expect_ident("declaration name")
        self.decl_name = name_tok.lexeme
        params: list[S.SParam] = []
        while True:
            if self.at("("):
                params.append(self.group())
            elif self.at("["):
                start = self.next().span
                tope = self.expr()
                end = self.expect("]").span
                params.append(S.STopeParam(tope, start.cover(end)))
            else:
                break
        self.expect(":")
        ty = self.expr()
        body = None
        end_span = ty.span
        if is_def:
            self.expect(":=")
            body = self.expr()
            end_span = body.span
        seen: set[str] = set()
        for p in params:
            if isinstance(p, S.SGroup):
                for n in p.names:
                    if n in seen:
                        raise ParseFailure(
                            f"duplicate parameter name '{n}' in declaration", p.span
                        )
                    seen.add(n)
        return S.SurfaceDecl(
            name_tok.lexeme, name_tok.span, tuple(params), ty, body, kw.span.cover(end_span)
        )


def _respan(e: S.SExpr, span: Span):
    # parenthesized expressions keep their widened span
    return type(e)(span, *e[1:])


def parse_module(
    source: str,
) -> tuple[list[S.SurfaceDecl], list[Diagnostic], list[tuple[str | None, Span]]]:
    """Parse all declarations, reporting one diagnostic per malformed one.
    A declaration that fails after its name was read names it as ``decl``.

    Also returns the ``#import`` directives as (path, span) in source order,
    with path None for a malformed one; a source that does not lex has none.
    The source is lexed one top-level form at a time, so only the tokens of
    the form being parsed are held.
    """
    decls: list[S.SurfaceDecl] = []
    diags: list[Diagnostic] = []
    p = _Parser(source)
    try:
        while True:
            p.fill()
            t = p.peek()
            if t is None:
                break
            if t.canon in ("#import", "#section"):
                p.next()
                continue
            if t.canon not in ("def", "postulate"):
                diags.append(
                    Diagnostic(
                        "error",
                        "E-PARSE",
                        f"expected a declaration, found '{t.lexeme}'",
                        t.span,
                    )
                )
                _resync(p)
                continue
            try:
                decls.append(p.declaration())
            except ParseFailure as e:
                diags.append(Diagnostic("error", "E-PARSE", e.message, e.span, decl=p.decl_name))
                _resync(p)
            except RecursionError:
                message = "declaration is nested too deeply"
                diags.append(
                    Diagnostic("error", "E-NESTING-DEPTH", message, t.span, decl=p.decl_name)
                )
                _resync(p)
    except LexError as e:
        return [], [Diagnostic("error", e.code, e.message, e.span)], []
    return decls, p.import_diags + diags, p.imports


def _resync(p: _Parser) -> None:
    while True:
        p.fill()
        t = p.peek()
        if t is None or t.canon in ("def", "postulate", "#import"):
            return
        p.next()


def imports_of(source: str) -> list[tuple[str, Span]]:
    """Paths of the well-formed ``#import "..."`` directives, in source order."""
    return [(path, span) for path, span in parse_module(source)[2] if path is not None]


def parse_expr(source: str) -> S.SExpr:
    """Parse a single expression; convenience entry point for tests."""
    p = _Parser(source)
    p.fill()
    e = p.expr()
    if p.peek() is not None:
        raise ParseFailure(f"trailing input '{p.peek().lexeme}'", p.peek().span)
    return e
