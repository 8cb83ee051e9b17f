"""Name resolution: surface declarations to nameless core declarations.

The resolver is untyped but layer-aware: binder annotations decide whether a
λ binds a term variable or an interval coordinate, and application arguments
that are syntactically points become extension applications.  A subterm's
layer is decided by the walk that resolves it: ``point_of`` and ``cube_of``
return the point or cube a subterm denotes, or None, so each grammar is
written once, and ``resolve_point`` and ``resolve_cube`` run the same walks
but raise at the innermost part that is not a point or a cube.  Telescopes are
folded into a closed type and body, so a declaration's interface is a single
Π/extension-type tower and references to it are plain constants.
"""

from __future__ import annotations

from .diagnostics import Failure
from .lexer import Span
from . import surface as S
from .core import (
    Annot,
    App,
    BOT,
    CANONICAL_SHAPES,
    Constant,
    Cube,
    CubePoint,
    CubeProd,
    CubeVar,
    Declaration,
    ExtApp,
    ExtLambda,
    ExtType,
    Fst,
    Id,
    IndPath,
    INTERVAL,
    Lambda,
    ONE,
    Pair,
    Pi,
    PointFst,
    PointPair,
    PointSnd,
    Refl,
    SHAPE_ENDPOINTS,
    Shape,
    Sigma,
    Snd,
    Split,
    STAR,
    Term,
    Tope,
    TopeAnd,
    TopeEq,
    TopeLeq,
    TopeOr,
    TOP,
    UNIT,
    Universe,
    Var,
    ZERO,
    in_scope,
    weaken,
)


FAILED = object()  # env marker for declarations that did not check


class _Entry:
    __slots__ = ("layer", "names")

    def __init__(self, layer: str, names: tuple[str, ...]):
        self.layer = layer  # "term" | "cube"
        self.names = names  # one name, or the two coordinates of a pair


class Resolver:
    def __init__(self, env: dict[str, object]):
        self.env = env
        self.scope: list[_Entry] = []
        self.constants: set[str] = set()  # the names linked to a Constant

    # -- scope -------------------------------------------------------------

    def _lookup(self, name: str) -> tuple[str, int, int, int] | None:
        """(layer, de Bruijn index, coordinate position, names the entry
        binds) for a bound name."""
        term_depth = 0
        cube_depth = 0
        for entry in reversed(self.scope):
            if name in entry.names:
                if entry.layer == "term":
                    return ("term", term_depth, 0, 1)
                return ("cube", cube_depth, entry.names.index(name), len(entry.names))
            if entry.layer == "term":
                term_depth += 1
            else:
                cube_depth += 1
        return None

    def _push(self, layer: str, names: tuple[str, ...]) -> None:
        self.scope.append(_Entry(layer, names))

    # -- cubes and points (``strict`` raises where the walk would return None) --

    def point_of(self, e: S.SExpr, strict: bool = False) -> CubePoint | None:
        match e:
            case S.SNat(_, "0"):
                return ZERO
            case S.SNat(_, "1"):
                return ONE
            case S.SKeyword(_, "star"):
                return STAR
            case S.SName(_, name):
                hit = self._lookup(name)
                if hit is None or hit[0] != "cube":
                    if strict:
                        message = f"'{name}' is not an interval coordinate"
                        raise Failure("E-RESOLVE", message, e.span)
                    return None
                _, index, coord, width = hit
                base: CubePoint = CubeVar(index)
                if width == 2:
                    return PointFst(base) if coord == 0 else PointSnd(base)
                return base
            case S.SPair(_, a, b):
                pa = self.point_of(a, strict)
                pb = None if pa is None else self.point_of(b, strict)
                return None if pb is None else PointPair(pa, pb)
            case S.SPrefix(_, "pi1" | "pi2" as op, a):
                pa = self.point_of(a, strict)
                return None if pa is None else (PointFst if op == "pi1" else PointSnd)(pa)
        if strict:
            raise Failure("E-RESOLVE", "expected an interval point", e.span)
        return None

    @staticmethod
    def cube_of(e: S.SExpr, strict: bool = False) -> Cube | None:
        match e:
            case S.SNat(_, "1"):
                return UNIT
            case S.SNat(_, "2") | S.SKeyword(_, "Delta1"):
                return INTERVAL
            case S.SBinary(_, "*", a, b):
                ca = Resolver.cube_of(a, strict)
                cb = None if ca is None else Resolver.cube_of(b, strict)
                return None if cb is None else CubeProd(ca, cb)
        if strict:
            raise Failure("E-RESOLVE", "expected a cube (1, 2, or a product)", e.span)
        return None

    def resolve_point(self, e: S.SExpr) -> CubePoint:
        return self.point_of(e, strict=True)

    def resolve_cube(self, e: S.SExpr) -> Cube:
        return self.cube_of(e, strict=True)

    # -- topes ----------------------------------------------------------------

    def resolve_tope(self, e: S.SExpr) -> Tope:
        match e:
            case S.SKeyword(_, "TOP"):
                return TOP
            case S.SKeyword(_, "BOT"):
                return BOT
            case S.SBinary(_, "<=", l, r):
                return TopeLeq(self.resolve_point(l), self.resolve_point(r))
            case S.SBinary(_, "===", l, r):
                return TopeEq(self.resolve_point(l), self.resolve_point(r))
            case S.SBinary(_, "/\\", l, r):
                return TopeAnd(self.resolve_tope(l), self.resolve_tope(r))
            case S.SBinary(_, "\\/", l, r):
                return TopeOr(self.resolve_tope(l), self.resolve_tope(r))
            case S.SKeyword(_, "dDelta1"):
                # both endpoints of the innermost bound coordinate
                return SHAPE_ENDPOINTS.constraint
        raise Failure("E-RESOLVE", "expected a tope", e.span)

    # -- terms ----------------------------------------------------------------

    def resolve_term(self, e: S.SExpr) -> Term:
        match e:
            case S.SName(_, name):
                hit = self._lookup(name)
                if hit is not None:
                    layer, index, _, _ = hit
                    if layer == "term":
                        return Var(index)
                    raise Failure(
                        "E-RESOLVE",
                        f"interval coordinate '{name}' used as a term",
                        e.span,
                    )
                target = self.env.get(name)
                if target is None:
                    raise Failure("E-UNBOUND-NAME", f"unbound name '{name}'", e.span)
                if target is FAILED:
                    raise Failure(
                        "E-DEPENDS-ON-FAILED",
                        f"'{name}' did not check; cannot be referenced",
                        e.span,
                    )
                self.constants.add(name)
                return Constant(name)
            case S.SKeyword(_, "U"):
                return Universe(0)
            case S.SKeyword(_, "U1"):
                return Universe(1)
            case S.SBinary(_, "->", l, r):
                dom = self.resolve_term(l)
                cod = self.resolve_term(r)
                return Pi(dom, weaken(cod, 1))
            case S.SBinary(_, "*", l, r):
                if self.cube_of(e) is not None:
                    raise Failure("E-RESOLVE", "cube used as a term", e.span)
                a = self.resolve_term(l)
                b = self.resolve_term(r)
                return Sigma(a, weaken(b, 1))
            case S.SBinary(_, "~", l, r):
                return Id(None, self.resolve_term(l), self.resolve_term(r))
            case S.SId(_, ty, l, r):
                return Id(
                    self.resolve_term(ty), self.resolve_term(l), self.resolve_term(r)
                )
            case S.SApp():
                # a loop over the spine, so a long one costs no stack
                args = []
                while isinstance(e, S.SApp):
                    args.append(e.arg)
                    e = e.fn
                fn = self.resolve_term(e)
                for x in reversed(args):
                    p = self.point_of(x)
                    fn = App(fn, self.resolve_term(x)) if p is None else ExtApp(fn, p)
                return fn
            case S.SPair(_, a, b):
                return Pair(self.resolve_term(a), self.resolve_term(b))
            case S.SAnnot(_, t, ty):
                return Annot(self.resolve_term(t), self.resolve_term(ty))
            case S.SPrefix(_, "fst", a):
                return Fst(self.resolve_term(a))
            case S.SPrefix(_, "snd", a):
                return Snd(self.resolve_term(a))
            case S.SPrefix(_, "refl", a):
                return Refl(self.resolve_term(a))
            case S.SIndPath(_, m, d, p):
                motive = self._binder_body(m, 3, "ind-path motive")
                base = self._binder_body(d, 1, "ind-path base case")
                return IndPath(motive, base, self.resolve_term(p))
            case S.SLam(_, binders, body):
                return self._resolve_lam(binders, body)
            case S.SExt(_, shape, cod, tope, boundary):
                return self._resolve_ext(shape, cod, tope, boundary, e.span)
            case S.SSplit(_, branches):
                resolved = []
                for tope_e, value_e in branches:
                    if tope_e is None:
                        raise Failure(
                            "E-RESOLVE",
                            "positional split branches are only allowed in an "
                            "extension-type boundary",
                            value_e.span,
                        )
                    tope = self.resolve_tope(tope_e)
                    resolved.append((tope, self.resolve_term(value_e)))
                return Split(tuple(resolved))
            case S.SNat(_, _):
                raise Failure(
                    "E-RESOLVE", "numeral is only meaningful as an interval point", e.span
                )
            case S.SPrefix(_, "pi1" | "pi2", _):
                raise Failure(
                    "E-RESOLVE", "point projection used in term position", e.span
                )
            case S.SPi(_, groups, body):
                return self._resolve_quantifier(groups, body, is_pi=True)
            case S.SSigma(_, groups, body):
                return self._resolve_quantifier(groups, body, is_pi=False)
            case S.SKeyword(_, "TOP" | "BOT") | S.SBinary(
                _, "<=" | "===" | "/\\" | "\\/", _, _
            ):
                raise Failure("E-RESOLVE", "tope syntax in term position", e.span)
            case S.SKeyword(_, "star"):
                message = f"point '{S.KEYWORD['star']}' used in term position"
                raise Failure("E-RESOLVE", message, e.span)
            case S.SKeyword(_, name):
                raise Failure(
                    "E-RESOLVE", f"shape '{name}' cannot be used as a term", e.span
                )
        raise Failure("E-RESOLVE", "cannot resolve expression", e.span)

    def _resolve_quantifier(
        self, groups: tuple[S.SGroup, ...], body: S.SExpr, is_pi: bool
    ) -> Term:
        types: list[Term] = []
        for g in groups:
            if self.cube_of(g.annot) is not None:
                raise Failure(
                    "E-RESOLVE",
                    "Π/Σ cannot bind interval coordinates; use an extension type",
                    g.span,
                )
            ty = self.resolve_term(g.annot)
            for i, name in enumerate(g.names):
                types.append(weaken(ty, i))
                self._push("term", (name,))
        result = self.resolve_term(body)
        ctor = Pi if is_pi else Sigma
        for ty in reversed(types):
            self.scope.pop()
            result = ctor(ty, result)
        return result

    def _binder_body(self, e: S.SExpr, arity: int, what: str) -> Term:
        names: list[str] = []
        node = e
        while len(names) < arity:
            if isinstance(node, S.SLam):
                for b in node.binders:
                    if len(names) == arity:
                        raise Failure(
                            "E-RESOLVE", f"{what} must bind exactly {arity} variables", e.span
                        )
                    if b.annot is not None or isinstance(b.pattern, tuple):
                        raise Failure(
                            "E-RESOLVE", f"{what} binders must be plain names", e.span
                        )
                    names.append(b.pattern)
                node = node.body
            else:
                raise Failure(
                    "E-RESOLVE", f"{what} must be a λ binding {arity} variables", e.span
                )
        for n in names:
            self._push("term", (n,))
        body = self.resolve_term(node)
        for _ in names:
            self.scope.pop()
        return body

    def _resolve_lam(self, binders: tuple[S.SLamBinder, ...], body: S.SExpr) -> Term:
        for b in binders:
            if b.annot is not None and self.cube_of(b.annot) is None:
                raise Failure(
                    "E-RESOLVE",
                    "λ binder annotations must be cubes; term binders are typed by "
                    "the expected Π type",
                    b.annot.span,
                )
            if b.annot is not None or isinstance(b.pattern, tuple):
                names = b.pattern if isinstance(b.pattern, tuple) else (b.pattern,)
                self._push("cube", tuple(names))
            else:
                self._push("term", (b.pattern,))
        result = self.resolve_term(body)
        for _ in binders:
            result = ExtLambda(result) if self.scope.pop().layer == "cube" else Lambda(result)
        return result

    def _resolve_ext(
        self,
        shape_e: S.SExpr,
        cod_e: S.SExpr,
        tope_e: S.SExpr | None,
        boundary_e: S.SExpr | None,
        span: Span,
    ) -> Term:
        match shape_e:
            case S.SShape(_, binder, cube_e, constraint_e):
                cube = self.resolve_cube(cube_e)
                names = binder if isinstance(binder, tuple) else (binder,)
                self._push("cube", tuple(names))
                constraint = self.resolve_tope(constraint_e)
            case S.SKeyword(_, name) if name in CANONICAL_SHAPES:
                cube, constraint = CANONICAL_SHAPES[name]
                self._push("cube", ("_",))
            case _:
                cube = self.resolve_cube(shape_e)
                self._push("cube", ("_",))
                constraint = TOP
        codomain = self.resolve_term(cod_e)
        if tope_e is None:
            boundary_tope: Tope = BOT
            boundary: Term = Split(())
        else:
            boundary_tope = self.resolve_tope(tope_e)
            boundary = self._resolve_boundary(boundary_e, boundary_tope)
        self.scope.pop()
        return ExtType(Shape(cube, constraint), codomain, boundary_tope, boundary)

    def _resolve_boundary(self, e: S.SExpr, boundary_tope: Tope) -> Term:
        if isinstance(e, S.SSplit) and any(t is None for t, _ in e.branches):
            if not all(t is None for t, _ in e.branches):
                raise Failure(
                    "E-RESOLVE", "mixed positional and guarded split branches", e.span
                )
            disjuncts = _flatten_or(boundary_tope)
            if len(disjuncts) != len(e.branches):
                raise Failure(
                    "E-RESOLVE",
                    f"positional boundary has {len(e.branches)} branches but the "
                    f"tope has {len(disjuncts)} disjuncts",
                    e.span,
                )
            return Split(
                tuple(
                    (tope, self.resolve_term(value))
                    for tope, (_, value) in zip(disjuncts, e.branches)
                )
            )
        return self.resolve_term(e)


def _flatten_or(t: Tope) -> list[Tope]:
    if isinstance(t, TopeOr):
        return _flatten_or(t.lhs) + _flatten_or(t.rhs)
    return [t]


def resolve(decl: S.SurfaceDecl, env: dict[str, object]) -> Declaration:
    """Resolve one surface declaration against previously checked names."""
    if decl.name in env:
        raise Failure(
            "E-DUPLICATE-NAME", f"duplicate declaration name '{decl.name}'", decl.name_span
        )
    r = Resolver(env)
    folds: list[Term | Shape] = []  # a term parameter's type, or a coordinate's shape
    for p in decl.params:
        if isinstance(p, S.SGroup):
            cube = Resolver.cube_of(p.annot)
            if cube is not None:
                for name in p.names:
                    folds.append(Shape(cube, TOP))
                    r._push("cube", (name,))
            else:
                ty = r.resolve_term(p.annot)
                for i, name in enumerate(p.names):
                    folds.append(weaken(ty, i))
                    r._push("term", (name,))
        else:
            # a tope hypothesis binds an anonymous unit coordinate
            r._push("cube", ("_",))
            folds.append(Shape(UNIT, r.resolve_tope(p.tope)))
    ty = r.resolve_term(decl.type)
    body = r.resolve_term(decl.body) if decl.body is not None else None
    for payload in reversed(folds):
        if isinstance(payload, Shape):
            ty = ExtType(payload, ty, BOT, Split(()))
            if body is not None:
                body = ExtLambda(body)
        else:
            ty = Pi(payload, ty)
            if body is not None:
                body = Lambda(body)
    if not in_scope(ty, 0, 0) or (body is not None and not in_scope(body, 0, 0)):
        raise Failure(
            "E-SCOPE", f"resolved declaration '{decl.name}' escapes its scope", decl.span
        )
    return Declaration(decl.name, ty, body, tuple(sorted(r.constants)))
