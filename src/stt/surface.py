"""Surface abstract syntax, produced by the parser and consumed by the
resolver and pretty-printer.  Every node carries its source span; structural
comparisons in tests go through :func:`skeleton`, which drops spans."""

from __future__ import annotations

from .core import Node
from .lexer import Span


class SExpr(Node):
    span: Span


class SName(SExpr):
    text: str


class SNat(SExpr):
    text: str


class SUniv(SExpr):
    level: int


class SShapeName(SExpr):
    name: str  # Delta1 | Delta2 | Lambda21 | dDelta1


class STop(SExpr):
    pass


class SBot(SExpr):
    pass


class SStar(SExpr):
    pass


class SArrow(SExpr):
    lhs: SExpr
    rhs: SExpr


class STimes(SExpr):
    lhs: SExpr
    rhs: SExpr


class SLeq(SExpr):
    lhs: SExpr
    rhs: SExpr


class SEq(SExpr):
    lhs: SExpr
    rhs: SExpr


class SSim(SExpr):
    lhs: SExpr
    rhs: SExpr


class SAnd(SExpr):
    lhs: SExpr
    rhs: SExpr


class SOr(SExpr):
    lhs: SExpr
    rhs: SExpr


class SApp(SExpr):
    fn: SExpr
    arg: SExpr


class SPair(SExpr):
    fst: SExpr
    snd: SExpr


class SAnnot(SExpr):
    term: SExpr
    type: SExpr


class SFst(SExpr):
    arg: SExpr


class SSnd(SExpr):
    arg: SExpr


class SP1(SExpr):
    arg: SExpr


class SP2(SExpr):
    arg: SExpr


class SRefl(SExpr):
    arg: SExpr


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
    shape: SExpr  # SShape, SShapeName, or a bare cube expression
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
