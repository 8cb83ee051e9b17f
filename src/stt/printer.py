"""Pretty-printer for surface declarations, and for core terms in
diagnostics.

Prints the glyphs of ``surface.BINARY``, ``surface.PREFIX``,
``surface.KEYWORD`` and ``surface.BINDER`` and parenthesizes by the
precedences of ``surface.BINARY``, minimally, so that reparsing the output
yields a structurally identical declaration.  The output is deterministic
and printing is idempotent.

A core term is printed by reading it back to surface syntax and printing
that (``print_term``, ``print_tope``).  Bound variables get generated names,
counting from the outside in: ``a<level>`` for term binders and
``t<level>`` for cube binders, and ``a?i`` or ``t?i`` for an index outside
the context.  An untyped ``Id`` reads back as ``l ∼ r``.  ``ExtLambda``
stores no cube, so its binder reads back as ``(tₖ : 2)``; the resolver takes
a λ binder's cube only as the mark of a coordinate, so resolving the printed
term still gives back the core term it came from.
"""

from __future__ import annotations

from . import core as C
from . import surface as S
from .lexer import Span

# Context precedences: 0 takes any expression, application binds tighter
# than every binary operator, and an atom tighter still.
_APP = 1 + max(prec for prec, _, _ in S.BINARY.values())
_ATOM = _APP + 1
_OR = S.BINARY["\\/"][0]
_TIMES = S.BINARY["*"][0]
_ARROW_GLYPH = S.BINARY["->"][2]  # also between an extension type's shape and codomain


def _parens(s: str, need: bool) -> str:
    return f"({s})" if need else s


def _pattern(p: S.Pattern) -> str:
    if isinstance(p, tuple):
        return f"({p[0]} , {p[1]})"
    return p


def print_expr(e: S.SExpr, prec: int = 0) -> str:
    match e:
        case S.SName(_, text):
            return text
        case S.SNat(_, text):
            return text
        case S.SKeyword(_, word):
            return S.KEYWORD[word]
        case S.SBinary(_, op, l, r):
            own, right, glyph = S.BINARY[op]
            rhs = print_expr(r, own if right else own + 1)
            return _parens(f"{print_expr(l, own + 1)} {glyph} {rhs}", prec > own)
        case S.SApp(_, f, a):
            s = f"{print_expr(f, _APP)} {print_expr(a, _ATOM)}"
            return _parens(s, prec > _APP)
        case S.SPair(_, a, b):
            return f"({print_expr(a)} , {print_expr(b)})"
        case S.SAnnot(_, t, ty):
            return f"({print_expr(t)} : {print_expr(ty)})"
        case S.SPrefix(_, op, a):
            return _parens(f"{S.PREFIX[op]} {print_expr(a, _ATOM)}", prec > _APP)
        case S.SId() | S.SIndPath():  # a keyword applied to three atoms
            head = "Id" if type(e) is S.SId else "ind-path"
            s = " ".join([head, *(print_expr(x, _ATOM) for x in e[1:])])
            return _parens(s, prec > _APP)
        case S.SLam(_, binders, body):
            bs = " ".join(_lam_binder(b) for b in binders)
            lam, maps_to = S.BINDER["lambda"], S.BINDER["|->"]
            return _parens(f"{lam} {bs} {maps_to} {print_expr(body)}", prec > 0)
        case S.SPi(_, groups, body) | S.SSigma(_, groups, body):
            former = S.BINDER["Pi" if type(e) is S.SPi else "Sigma"]
            gs = " ".join(_group(g) for g in groups)
            return _parens(f"{former} {gs}, {print_expr(body)}", prec > 0)
        case S.SShape(_, binder, cube, tope):
            return f"{{{_pattern(binder)} : {print_expr(cube, _TIMES)} | {print_expr(tope)}}}"
        case S.SExt(_, shape, cod, tope, boundary):
            head = f"⟨{print_expr(shape, _TIMES)} {_ARROW_GLYPH} {print_expr(cod, _OR)}"
            if tope is None:
                return head + "⟩"
            maps_to = S.BINDER["|->"]
            return f"{head} | {print_expr(tope, _OR)} {maps_to} {print_expr(boundary, _OR)}⟩"
        case S.SSplit(_, branches):
            maps_to = S.BINDER["|->"]
            parts = [
                print_expr(value)
                if tope is None
                else f"{print_expr(tope, _OR)} {maps_to} {print_expr(value, _OR)}"
                for tope, value in branches
            ]
            return "[" + " , ".join(parts) + "]"
    raise AssertionError(f"print_expr: {e!r}")


def _lam_binder(b: S.SLamBinder) -> str:
    if b.annot is None:
        if isinstance(b.pattern, tuple):
            return f"({_pattern(b.pattern)})"
        return b.pattern
    return f"({_pattern(b.pattern)} : {print_expr(b.annot)})"


def _group(g: S.SGroup) -> str:
    return f"({' '.join(g.names)} : {print_expr(g.annot)})"


def pretty_print(decl: S.SurfaceDecl) -> str:
    """Render one declaration on a single logical line."""
    parts = ["postulate" if decl.is_postulate else "def", decl.name]
    for p in decl.params:
        if isinstance(p, S.SGroup):
            parts.append(_group(p))
        else:
            parts.append(f"[{print_expr(p.tope)}]")
    parts.append(":")
    parts.append(print_expr(decl.type))
    if not decl.is_postulate:
        parts.append(":=")
        parts.append(print_expr(decl.body))
    return " ".join(parts)


def print_module(decls: list[S.SurfaceDecl]) -> str:
    return "\n".join(pretty_print(d) for d in decls) + ("\n" if decls else "")


# ---------------------------------------------------------------------------
# Readback: core nodes to surface syntax

_NOWHERE = Span(0, 0, 0, 0)  # the span of every node read back

# core node classes that read back as a leaf, a prefix form or a binary
# operator over their fields
_LEAF = {
    C.CubeUnit: S.SNat(_NOWHERE, "1"),
    C.CubeInterval: S.SNat(_NOWHERE, "2"),
    C.Zero: S.SNat(_NOWHERE, "0"),
    C.One: S.SNat(_NOWHERE, "1"),
    C.Star: S.SKeyword(_NOWHERE, "star"),
    C.TopeTop: S.SKeyword(_NOWHERE, "TOP"),
    C.TopeBottom: S.SKeyword(_NOWHERE, "BOT"),
}
_PREFIX = {C.Fst: "fst", C.Snd: "snd", C.Refl: "refl", C.PointFst: "pi1", C.PointSnd: "pi2"}
_BINARY = {C.CubeProd: "*", C.TopeLeq: "<=", C.TopeEq: "===", C.TopeAnd: "/\\", C.TopeOr: "\\/"}


def _var(index: int, depth: int, prefix: str) -> S.SName:
    name = f"{prefix}{depth - 1 - index}" if index < depth else f"{prefix}?{index}"
    return S.SName(_NOWHERE, name)


def _lam(first: int, count: int, body: S.SExpr) -> S.SLam:
    binders = tuple(S.SLamBinder(f"a{first + k}", None) for k in range(count))
    return S.SLam(_NOWHERE, binders, body)


def _read(x, td: int, cd: int) -> S.SExpr:
    """The core term, tope, point or cube ``x``, under ``td`` term and ``cd``
    cube binders, as surface syntax."""
    kind = type(x)
    if kind in _LEAF:
        return _LEAF[kind]
    if kind in _PREFIX:
        return S.SPrefix(_NOWHERE, _PREFIX[kind], _read(x[0], td, cd))
    if kind in _BINARY:
        return S.SBinary(_NOWHERE, _BINARY[kind], _read(x[0], td, cd), _read(x[1], td, cd))
    match x:
        case C.Var(i):
            return _var(i, td, "a")
        case C.CubeVar(i):
            return _var(i, cd, "t")
        case C.Universe(level):
            return S.SKeyword(_NOWHERE, "U1" if level else "U")
        case C.Constant(name):
            return S.SName(_NOWHERE, name)
        case C.Pi(a, b) | C.Sigma(a, b):
            group = S.SGroup((f"a{td}",), _read(a, td, cd), _NOWHERE)
            former = S.SPi if kind is C.Pi else S.SSigma
            return former(_NOWHERE, (group,), _read(b, td + 1, cd))
        case C.Lambda() | C.ExtLambda():
            binders = []  # a run of λs reads back as one λ
            while isinstance(x, (C.Lambda, C.ExtLambda)):
                if isinstance(x, C.Lambda):
                    binders.append(S.SLamBinder(f"a{td}", None))
                    td += 1
                else:
                    binders.append(S.SLamBinder(f"t{cd}", _LEAF[C.CubeInterval]))
                    cd += 1
                x = x.body
            return S.SLam(_NOWHERE, tuple(binders), _read(x, td, cd))
        case C.App(f, a) | C.ExtApp(f, a):
            return S.SApp(_NOWHERE, _read(f, td, cd), _read(a, td, cd))
        case C.Pair(a, b) | C.PointPair(a, b):
            return S.SPair(_NOWHERE, _read(a, td, cd), _read(b, td, cd))
        case C.Id(None, l, r):
            return S.SBinary(_NOWHERE, "~", _read(l, td, cd), _read(r, td, cd))
        case C.Id(ty, l, r):
            return S.SId(_NOWHERE, _read(ty, td, cd), _read(l, td, cd), _read(r, td, cd))
        case C.IndPath(m, d, p):
            motive, base = _lam(td, 3, _read(m, td + 3, cd)), _lam(td, 1, _read(d, td + 1, cd))
            return S.SIndPath(_NOWHERE, motive, base, _read(p, td, cd))
        case C.ExtType(sh, cod, bt, bd):
            cube, tope = _read(sh.cube, td, cd), _read(sh.constraint, td, cd + 1)
            shape, codomain = S.SShape(_NOWHERE, f"t{cd}", cube, tope), _read(cod, td, cd + 1)
            if bt == C.BOT and bd == C.Split(()):
                return S.SExt(_NOWHERE, shape, codomain, None, None)
            boundary = _read(bd, td, cd + 1)
            return S.SExt(_NOWHERE, shape, codomain, _read(bt, td, cd + 1), boundary)
        case C.Split(brs):
            branches = tuple((_read(tp, td, cd), _read(b, td, cd)) for tp, b in brs)
            return S.SSplit(_NOWHERE, branches)
        case C.Annot(a, ty):
            return S.SAnnot(_NOWHERE, _read(a, td, cd), _read(ty, td, cd))
    raise AssertionError(f"_read: {x!r}")


def print_term(t: C.Term, ctx: C.Context | None = None) -> str:
    """The core term ``t``, over ``ctx``, in surface syntax."""
    td, cd = (0, 0) if ctx is None else (len(ctx.terms), len(ctx.cubes))
    return print_expr(_read(t, td, cd))


def print_tope(t, cube_depth: int = 0) -> str:
    """The core tope ``t``, or a point or a cube, under ``cube_depth`` cube
    binders, in surface syntax."""
    return print_expr(_read(t, 0, cube_depth))
