"""Surface abstract syntax, produced by the parser and consumed by the
resolver and pretty-printer, and the grammar table the lexer, the parser
and the printer share.  Every node carries its source span; structural
comparisons in tests go through :func:`skeleton`, which drops spans."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import Node

if TYPE_CHECKING:
    from .lexer import Span


# The grammar table.  Every spelling, operator and keyword decision of the
# surface syntax is made here, keyed by the lexer's canon: the lexer takes
# each spelling from these entries (see :func:`spellings`), and the parser
# and the printer each precedence, associativity and glyph.
#
# Binary operators: canon -> (precedence, right associative, glyph).  A
# larger precedence binds tighter, and application binds tighter than all
# of them.  An operator that is not right associative does not chain:
# ``a ≤ b ≤ c`` is a parse error.
BINARY = {
    "->": (0, True, "→"),
    "\\/": (1, True, "∨"),
    "/\\": (2, True, "∧"),
    "<=": (3, False, "≤"),
    "===": (3, False, "≡"),
    "~": (3, False, "∼"),
    "*": (4, True, "×"),
}

# Prefix operators, each applied to one atom: canon -> glyph.
PREFIX = {"fst": "fst", "snd": "snd", "pi1": "π₁", "pi2": "π₂", "refl": "refl"}

# Keywords that stand alone as an atom: canon -> glyph.
KEYWORD = {
    "U": "U",
    "U1": "U₁",
    "TOP": "⊤",
    "BOT": "⊥",
    "star": "⋆",
    "Delta1": "Δ¹",
    "Delta2": "Δ²",
    "Lambda21": "Λ²₁",
    "dDelta1": "∂Δ¹",
}

# The binders, and the maps-to arrow of a λ, a boundary or a split branch:
# canon -> glyph.
BINDER = {"lambda": "λ", "Pi": "Π", "Sigma": "Σ", "|->": "↦"}

# The spellings no table above names: spelling -> canon.  "\" is an ASCII
# alias of λ; the rest are spelled one way only, each its own canon.
OTHER = {"\\": "lambda"}
OTHER.update((s, s) for s in "def postulate Id ind-path := ⟨ ⟩ ( ) [ ] { } , : |".split())


def spellings() -> dict[str, str]:
    """Every spelling of the surface syntax -> its canon: each canon of
    BINARY, PREFIX, KEYWORD and BINDER and its glyph, and OTHER."""
    glyphs = {canon: glyph for canon, (_, _, glyph) in BINARY.items()} | PREFIX | KEYWORD | BINDER
    return {s: canon for canon, glyph in glyphs.items() for s in (canon, glyph)} | OTHER


class SExpr(Node):
    span: Span


class SName(SExpr):
    text: str


class SNat(SExpr):
    text: str


class SKeyword(SExpr):
    word: str  # a KEYWORD canon


class SBinary(SExpr):
    op: str  # a BINARY canon
    lhs: SExpr
    rhs: SExpr


class SPrefix(SExpr):
    op: str  # a PREFIX canon
    arg: SExpr


class SApp(SExpr):
    fn: SExpr
    arg: SExpr


class SPair(SExpr):
    fst: SExpr
    snd: SExpr


class SAnnot(SExpr):
    term: SExpr
    type: SExpr


class SId(SExpr):
    type: SExpr
    lhs: SExpr
    rhs: SExpr


class SIndPath(SExpr):
    motive: SExpr
    base: SExpr
    target: SExpr


# Binder patterns: a plain name or a coordinate pair (s, t).
Pattern = str | tuple[str, str]


class SLamBinder(Node):
    pattern: Pattern
    annot: SExpr | None  # a cube annotation selects an extension lambda


class SLam(SExpr):
    binders: tuple[SLamBinder, ...]
    body: SExpr


class SGroup(Node):
    names: tuple[str, ...]
    annot: SExpr
    span: Span


class SPi(SExpr):
    groups: tuple[SGroup, ...]
    body: SExpr


class SSigma(SExpr):
    groups: tuple[SGroup, ...]
    body: SExpr


class SShape(SExpr):
    binder: Pattern
    cube: SExpr
    tope: SExpr


class SExt(SExpr):
    shape: SExpr  # SShape, a shape SKeyword, or a bare cube expression
    codomain: SExpr
    tope: SExpr | None
    boundary: SExpr | None


class SSplit(SExpr):
    branches: tuple[tuple[SExpr | None, SExpr], ...]  # (tope, value); tope None = positional


class STopeParam(Node):
    tope: SExpr
    span: Span


SParam = SGroup | STopeParam


class SurfaceDecl(Node):
    name: str
    name_span: Span
    params: tuple[SParam, ...]
    type: SExpr
    body: SExpr | None  # None marks a postulate
    span: Span

    @property
    def is_postulate(self) -> bool:
        return self.body is None


def skeleton(node) -> object:
    """Span-free structural image of a surface node, for comparisons."""
    if isinstance(node, (str, int, type(None))):
        return node
    if isinstance(node, Node):
        return (type(node).__name__,) + tuple(
            skeleton(v)
            for f, v in zip(node.__match_args__, node)
            if f not in ("span", "name_span")
        )
    if isinstance(node, tuple):
        return tuple(skeleton(x) for x in node)
    raise AssertionError(f"skeleton: {node!r}")
