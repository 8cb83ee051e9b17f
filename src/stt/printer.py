"""Pretty-printer for surface declarations.

Prints the glyphs of ``surface.BINARY``, ``surface.PREFIX`` and
``surface.KEYWORD`` and parenthesizes by the precedences of ``surface.BINARY``,
minimally, so that reparsing the output yields a structurally identical
declaration.  The output is deterministic and printing is idempotent.
"""

from __future__ import annotations

from . import surface as S

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
        case S.SId(_, ty, l, r):
            s = f"Id {print_expr(ty, _ATOM)} {print_expr(l, _ATOM)} {print_expr(r, _ATOM)}"
            return _parens(s, prec > _APP)
        case S.SIndPath(_, m, d, p):
            s = (
                f"ind-path {print_expr(m, _ATOM)} {print_expr(d, _ATOM)} "
                f"{print_expr(p, _ATOM)}"
            )
            return _parens(s, prec > _APP)
        case S.SLam(_, binders, body):
            bs = " ".join(_lam_binder(b) for b in binders)
            return _parens(f"λ {bs} ↦ {print_expr(body)}", prec > 0)
        case S.SPi(_, groups, body):
            gs = " ".join(_group(g) for g in groups)
            return _parens(f"Π {gs}, {print_expr(body)}", prec > 0)
        case S.SSigma(_, groups, body):
            gs = " ".join(_group(g) for g in groups)
            return _parens(f"Σ {gs}, {print_expr(body)}", prec > 0)
        case S.SShape(_, binder, cube, tope):
            return f"{{{_pattern(binder)} : {print_expr(cube, _TIMES)} | {print_expr(tope)}}}"
        case S.SExt(_, shape, cod, tope, boundary):
            head = f"⟨{print_expr(shape, _TIMES)} {_ARROW_GLYPH} {print_expr(cod, _OR)}"
            if tope is None:
                return head + "⟩"
            return f"{head} | {print_expr(tope, _OR)} ↦ {print_expr(boundary, _OR)}⟩"
        case S.SSplit(_, branches):
            parts = []
            for tope, value in branches:
                if tope is None:
                    parts.append(print_expr(value))
                else:
                    parts.append(f"{print_expr(tope, _OR)} ↦ {print_expr(value, _OR)}")
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
