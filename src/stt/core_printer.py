"""Readable rendering of core terms for diagnostics.

Nameless indices are shown through generated names (term variables ``a0,
a1, ...``, coordinates ``t0, t1, ...`` counting from the outside in).  This
printer is for error messages only; round-tripping happens at the surface
level.  The glyphs of operators and keywords come from the grammar table in
``surface``, as in the surface pretty-printer.
"""

from __future__ import annotations

from .core import (
    Annot,
    App,
    Constant,
    CubePoint,
    CubeVar,
    ExtApp,
    ExtLambda,
    ExtType,
    Fst,
    Id,
    IndPath,
    Lambda,
    One,
    Pair,
    Pi,
    PointFst,
    PointPair,
    PointSnd,
    Refl,
    Sigma,
    Snd,
    Split,
    Star,
    Term,
    Tope,
    TopeAnd,
    TopeBottom,
    TopeEq,
    TopeLeq,
    TopeOr,
    TopeTop,
    Universe,
    Var,
    Zero,
)
from . import surface as S


def _infix(left: str, canon: str, right: str) -> str:
    return f"{left} {S.BINARY[canon][2]} {right}"


def print_point(p: CubePoint, cube_depth: int = 0) -> str:
    match p:
        case CubeVar(i):
            return f"t{cube_depth - 1 - i}" if cube_depth > i else f"t?{i}"
        case Zero():
            return "0"
        case One():
            return "1"
        case Star():
            return S.KEYWORD["star"]
        case PointPair(a, b):
            return f"({print_point(a, cube_depth)} , {print_point(b, cube_depth)})"
        case PointFst(q):
            return f"{S.PREFIX['pi1']} {print_point(q, cube_depth)}"
        case PointSnd(q):
            return f"{S.PREFIX['pi2']} {print_point(q, cube_depth)}"
    return "?"


def print_tope(t: Tope, cube_depth: int = 0) -> str:
    match t:
        case TopeTop():
            return S.KEYWORD["TOP"]
        case TopeBottom():
            return S.KEYWORD["BOT"]
        case TopeLeq(l, r):
            return _infix(print_point(l, cube_depth), "<=", print_point(r, cube_depth))
        case TopeEq(l, r):
            return _infix(print_point(l, cube_depth), "===", print_point(r, cube_depth))
        case TopeAnd(l, r):
            return "(" + _infix(print_tope(l, cube_depth), "/\\", print_tope(r, cube_depth)) + ")"
        case TopeOr(l, r):
            return "(" + _infix(print_tope(l, cube_depth), "\\/", print_tope(r, cube_depth)) + ")"
    return "?"


def print_term(t: Term, ctx=None) -> str:
    td = len(ctx.terms) if ctx is not None else 0
    cd = len(ctx.cubes) if ctx is not None else 0
    return _pt(t, td, cd)


def _name(i: int, depth: int, prefix: str) -> str:
    return f"{prefix}{depth - 1 - i}" if depth > i else f"{prefix}?{i}"


def _pt(t: Term, td: int, cd: int) -> str:
    match t:
        case Var(i):
            return _name(i, td, "a")
        case Universe(0):
            return S.KEYWORD["U"]
        case Universe(_):
            return S.KEYWORD["U1"]
        case Constant(name):
            return name
        case Pi(a, b):
            return f"Π (a{td} : {_pt(a, td, cd)}), {_pt(b, td + 1, cd)}"
        case Sigma(a, b):
            return f"Σ (a{td} : {_pt(a, td, cd)}), {_pt(b, td + 1, cd)}"
        case Lambda(b):
            return f"(λ a{td} ↦ {_pt(b, td + 1, cd)})"
        case App(f, a):
            return f"{_paren(f, td, cd)} {_paren(a, td, cd)}"
        case Pair(a, b):
            return f"({_pt(a, td, cd)} , {_pt(b, td, cd)})"
        case Fst(p):
            return f"{S.PREFIX['fst']} {_paren(p, td, cd)}"
        case Snd(p):
            return f"{S.PREFIX['snd']} {_paren(p, td, cd)}"
        case Id(ty, l, r):
            ts = _paren(ty, td, cd) if ty is not None else "_"
            return f"Id {ts} {_paren(l, td, cd)} {_paren(r, td, cd)}"
        case Refl(a):
            return f"{S.PREFIX['refl']} {_paren(a, td, cd)}"
        case IndPath(m, d, p):
            return (
                f"ind-path (λ a{td} a{td + 1} a{td + 2} ↦ {_pt(m, td + 3, cd)}) "
                f"(λ a{td} ↦ {_pt(d, td + 1, cd)}) {_paren(p, td, cd)}"
            )
        case ExtType(sh, cod, bt, bd):
            shape = f"{{t{cd} : {sh.cube} | {print_tope(sh.constraint, cd + 1)}}}"
            head = "⟨" + _infix(shape, "->", _pt(cod, td, cd + 1))
            if bt == TopeBottom() and bd == Split(()):
                return head + "⟩"
            return f"{head} | {print_tope(bt, cd + 1)} ↦ {_pt(bd, td, cd + 1)}⟩"
        case ExtLambda(b):
            return f"(λ (t{cd} : cube) ↦ {_pt(b, td, cd + 1)})"
        case ExtApp(f, p):
            return f"{_paren(f, td, cd)} {print_point(p, cd)}"
        case Split(brs):
            inner = " , ".join(
                f"{print_tope(tp, cd)} ↦ {_pt(b, td, cd)}" for tp, b in brs
            )
            return f"[{inner}]"
        case Annot(a, ty):
            return f"({_pt(a, td, cd)} : {_pt(ty, td, cd)})"
    return "?"


def _paren(t: Term, td: int, cd: int) -> str:
    s = _pt(t, td, cd)
    if isinstance(t, (Var, Universe, Constant, Pair, Split, Annot)) or not (" " in s):
        return s
    return f"({s})"
