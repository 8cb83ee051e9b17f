"""Bidirectional type checking and definitional equality.

Equality is judged under the tope constraints in force: an inconsistent
constraint zone identifies everything, disjunctive constraints are split
before structural comparison, and extension applications reduce to their
boundary values wherever the constraints force the boundary tope.  Two
syntactically equal terms are equal at once, before the constraints are
consulted and before either side is normalized.  Weak-head normalization
performs beta, projections, identity elimination on constant paths,
constant unfolding up to a depth limit, and the boundary rule.

Beta works on a whole application spine ``f a₁ … aₙ``: the head is
normalized once, as many of its leading λs as there are arguments are
instantiated in one simultaneous substitution, and the arguments left over
are applied to the result.  Each other eliminator (the projections,
ind-path, extension application) has one computation rule, ``_contract``.
Every eliminator has one typing rule, ``_elim_type``, shared by the two
walks over stuck spines (``_spine_type`` types one, ``_equal_spine``
compares two) and ``infer``.

``infer`` types an application spine ``f a₁ … aₙ`` in one pass
(``_infer_spine``), following Coquand's one-walk instantiation of a
telescope: the head is inferred once, and while its type is a syntactic
``Π`` each argument takes one binder.  ``aₖ`` is checked against that
binder's domain with ``a₁ … aₖ₋₁`` instantiated in one walk, and then stays
pending instead of being substituted into the codomain.  The pending
arguments are instantiated only when the codomain is not a syntactic ``Π``
(which is then normalized) and at the end of the spine.  Normalizing a
``Π`` spends nothing, so this spends the steps that typing one application
at a time would.  A λ head has no type to walk; a β-redex ``(λ x ↦ b) a₁ …
aₙ`` is typed by the let rule for definitions in context (Coquand, 1996):
``a₁ : A`` is inferred, ``b a₂ … aₙ`` is inferred under ``x : A := a₁``,
and ``a₁`` is put back for ``x`` in the result.  So ``a₁`` must be
inferable, and nothing is reduced.  Every failure propagates.

A type is validated through its weak-head form, unless reducing it put an
introduction form in for a variable, which can land where typing infers
(``E (c , d)`` to ``fst (c , d) ~ c``); then the type as written is.  An
untyped ``Id`` in a well-formed type gets its endpoint type from
``_endpoint_type``, which types a stuck left side by its reduct's spine.

Unfold budget: each declaration has one budget of ``max_unfold`` steps,
spent by every unfolding, every contraction, every λ that beta consumes,
every split of a disjunctive hypothesis and every pair of ``Split``
branches compared on their overlap; syntactically equal sides spend none.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .diagnostics import Diagnostic
from .core import (
    Annot,
    App,
    BOT,
    Constant,
    Context,
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
    Pair,
    Pi,
    Refl,
    Sigma,
    Snd,
    Split,
    Term,
    Tope,
    TopeAnd,
    TopeEq,
    TopeLeq,
    TopeOr,
    Universe,
    Var,
    children,
    instantiate,
    subst_cube,
    subst_tope_point,
    substitute,
    weaken,
    weaken_cube,
)
from . import topes as T
from .core_printer import print_term, print_tope


class CheckFailure(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


class UnfoldDepthExceeded(Exception):
    @property
    def diag(self) -> Diagnostic:  # a resource limit, not a type error
        return Diagnostic("error", "E-UNFOLD-DEPTH", "unfold depth limit exceeded")


@dataclass
class CheckEnv:
    """Append-only table of accepted declarations plus per-run settings."""

    decls: dict[str, Declaration] = field(default_factory=dict)
    axioms: set[str] = field(default_factory=set)
    axiom_usage: dict[str, frozenset[str]] = field(default_factory=dict)
    max_unfold: int = 10_000
    j_fired: int = 0  # identity-eliminator computation counter
    failed: set[str] = field(default_factory=set)  # names that did not check


def _fail(code: str, message: str, **kw) -> CheckFailure:
    return CheckFailure(Diagnostic("error", code, message, **kw))


def _atom_name(atom: T.Atom) -> str:
    pos, path = atom
    return f"x{pos}" + "".join("." + ("1" if c == 0 else "2") for c in path)


def _simplify_tope(t: Tope) -> Tope:
    """Collapse projection-of-pair redexes in displayed topes."""
    match t:
        case TopeLeq(l, r) | TopeEq(l, r):
            return type(t)(T.norm_point(l), T.norm_point(r))
        case TopeAnd(l, r) | TopeOr(l, r):
            return type(t)(_simplify_tope(l), _simplify_tope(r))
        case _:
            return t


def _countermodel_map(model: T.WeakOrderModel) -> dict[str, str]:
    return {_atom_name(a): v for a, v in model.value_strings().items()}


class Checker:
    def __init__(self, env: CheckEnv):
        self.env = env
        self.steps = 0  # unfold steps spent, against env.max_unfold
        self._bound_intro = False  # set when reduction substitutes an introduction form

    def _budget(self) -> None:
        self.steps += 1
        if self.steps > self.env.max_unfold:
            raise UnfoldDepthExceeded()

    # ------------------------------------------------------------------
    # weak-head normalization

    def whnf(self, ctx: Context, t: Term) -> Term:
        while True:
            match t:
                case Annot(a, _):
                    t = a
                case Constant(name):
                    decl = self.env.decls.get(name)
                    if decl is None or decl.body is None:
                        return t
                    self._budget()
                    t = decl.body
                case Var(i):
                    d = ctx.term_def(i) if i < len(ctx.terms) else None
                    if d is None:
                        return t
                    self._budget()
                    t = d
                case App():
                    args = []
                    while isinstance(t, App):
                        args.append(t.arg)
                        t = t.fn
                    args.reverse()
                    hw = self.whnf(ctx, t)
                    n = 0
                    while n < len(args) and isinstance(hw, Lambda):
                        self._budget()  # one step per λ consumed
                        hw = hw.body
                        n += 1
                    if n:
                        self._bound_intro |= any(type(a) in _INTRO for a in args[:n])
                        t = _apply(instantiate(hw, tuple(reversed(args[:n]))), args[n:])
                    elif isinstance(hw, Split):
                        t = Split(tuple((tp, _apply(b, args)) for tp, b in hw.branches))
                    else:
                        return _apply(hw, args)
                case Fst(s) | Snd(s) | IndPath(_, _, s) | ExtApp(s, _):
                    sw = self.whnf(ctx, s)
                    if isinstance(sw, Split):
                        t = Split(tuple((tp, _on(t, b)) for tp, b in sw.branches))
                        continue
                    red = self._contract(ctx, t, sw)
                    if red is None:
                        return _on(t, sw)
                    t = red
                case Split(brs):
                    for tp, b in brs:
                        if T.tope_entails(ctx.cubes, list(ctx.topes), tp):
                            self._budget()
                            t = b
                            break
                    else:
                        return t
                case _:
                    return t

    def _contract(self, ctx: Context, t: Term, sw: Term) -> Term | None:
        """One computation step of eliminator ``t``, not an application, on its
        weak-head scrutinee ``sw``: a projection, J on refl, shape beta, or the
        boundary rule (``f p`` is the boundary value at ``p`` when the
        constraints in force entail the boundary tope there).  None when
        ``t`` is stuck.  Beta is ``whnf``'s, on a whole application spine."""
        match t, sw:
            case Fst(_), Pair(a, _):
                self._budget()
                return a
            case Snd(_), Pair(_, b):
                self._budget()
                return b
            case IndPath(_, d, _), Refl(a):
                self._budget()
                self.env.j_fired += 1
                self._bound_intro |= type(a) in _INTRO
                return substitute(d, 0, a)
            case ExtApp(_, p), ExtLambda(b):
                self._budget()
                return subst_cube(b, 0, p)
            case ExtApp(_, p), _:
                ty = self._spine_type(ctx, sw)
                tyw = None if ty is None else self.whnf(ctx, ty)
                if not isinstance(tyw, ExtType):
                    return None
                bt_at_p = subst_tope_point(tyw.boundary_tope, 0, p)
                if not T.tope_entails(ctx.cubes, list(ctx.topes), bt_at_p):
                    return None
                self._budget()
                return subst_cube(tyw.boundary, 0, p)
        return None

    def _spine_type(self, ctx: Context, t: Term) -> Term | None:
        """Type of the weak-head-stuck term ``t``, or None when unknowable."""
        match t:
            case Var(i):
                return ctx.term_type(i) if i < len(ctx.terms) else None
            case Constant(name):
                decl = self.env.decls.get(name)
                return decl.type if decl is not None else None
            case App(s, _) | Fst(s) | Snd(s) | IndPath(_, _, s) | ExtApp(s, _):
                sty = self._spine_type(ctx, s)
                return None if sty is None else _elim_type(t, self.whnf(ctx, sty))
        return None

    def _equal_spine(self, ctx: Context, t: Term, u: Term) -> Term | None:
        """Compare the weak-head-stuck terms ``t`` and ``u``: None when their
        spines differ, otherwise their common type (best effort), or the
        opaque marker when it cannot be read off."""
        if type(t) is not type(u):
            return None
        match t:
            case Var(i) if u.index == i:
                return ctx.term_type(i) if i < len(ctx.terms) else _OPAQUE
            case Constant(name) if u.name == name:
                decl = self.env.decls.get(name)
                return decl.type if decl is not None else _OPAQUE
            case App(s, _) | Fst(s) | Snd(s) | IndPath(_, _, s) | ExtApp(s, _):
                sty = self._equal_spine(ctx, s, _scrutinee(u))
                if sty is None:
                    return None
                match t, u:
                    case ExtApp(_, p1), ExtApp(_, p2):
                        if not T.tope_entails(ctx.cubes, list(ctx.topes), TopeEq(p1, p2)):
                            return None
                    case IndPath(m1, d1, _), IndPath(m2, d2, _):
                        ctx3 = ctx.extend_term(_OPAQUE).extend_term(_OPAQUE).extend_term(_OPAQUE)
                        if not self._equal(ctx3, m1, m2, None):
                            return None
                        if not self._equal(ctx.extend_term(_OPAQUE), d1, d2, None):
                            return None
                stw = self.whnf(ctx, sty)
                if isinstance(t, App):
                    dom = stw.domain if isinstance(stw, Pi) else None
                    if not self._equal(ctx, t.arg, u.arg, dom):
                        return None
                ty = _elim_type(t, stw)
                return _OPAQUE if ty is None else ty
            case Refl(a):
                return _OPAQUE if self._equal(ctx, a, u.term, None) else None
        return None

    # ------------------------------------------------------------------
    # definitional equality

    def def_equal(self, ctx: Context, t: Term, u: Term, ty: Term | None = None) -> bool:
        """Definitional equality; an exhausted unfold budget propagates as
        ``UnfoldDepthExceeded`` rather than reading as "not equal"."""
        return self._equal(ctx, t, u, ty)

    def _split_or_hypothesis(self, ctx: Context) -> list[Context] | None:
        for i, h in enumerate(ctx.topes):
            if isinstance(h, TopeOr):
                self._budget()
                rest = ctx.topes[:i] + ctx.topes[i + 1 :]
                return [
                    Context(ctx.cubes, rest + (h.lhs,), ctx.terms),
                    Context(ctx.cubes, rest + (h.rhs,), ctx.terms),
                ]
        return None

    def _equal(self, ctx: Context, t: Term, u: Term, ty: Term | None) -> bool:
        if t == u:
            return True
        if not T.tope_consistent(ctx.cubes, list(ctx.topes)):
            return True
        branches = self._split_or_hypothesis(ctx)
        if branches is not None:
            return all(self._equal(c, t, u, ty) for c in branches)

        if ty is not None:
            tyw = self.whnf(ctx, ty)
            match tyw:
                case Pi(dom, cod):
                    ctx2 = ctx.extend_term(dom)
                    return self._equal(
                        ctx2, App(weaken(t, 1), Var(0)), App(weaken(u, 1), Var(0)), cod
                    )
                case Sigma(a, b):
                    if not self._equal(ctx, Fst(t), Fst(u), a):
                        return False
                    return self._equal(ctx, Snd(t), Snd(u), substitute(b, 0, Fst(t)))
                case ExtType(sh, cod, _, _):
                    ctx2 = ctx.extend_cube(sh.cube).extend_tope(sh.constraint)
                    return self._equal(
                        ctx2,
                        ExtApp(weaken_cube(t, 1, 0), CubeVar(0)),
                        ExtApp(weaken_cube(u, 1, 0), CubeVar(0)),
                        cod,
                    )
        return self._equal_whnf(ctx, t, u, ty)

    def _equal_whnf(self, ctx: Context, t: Term, u: Term, ty: Term | None) -> bool:
        tw = self.whnf(ctx, t)
        uw = self.whnf(ctx, u)
        if tw == uw:
            return True
        for w in (tw, uw):
            if isinstance(w, Split) and w.branches:
                # branch topes cover the zone by typing, so casing on them is sound
                return all(self._equal(ctx.extend_tope(tp), tw, uw, ty) for tp, _ in w.branches)

        match (tw, uw):
            case (Universe(l1), Universe(l2)):
                return l1 == l2
            case (Pi(a1, b1), Pi(a2, b2)) | (Sigma(a1, b1), Sigma(a2, b2)):
                return self._equal(ctx, a1, a2, None) and self._equal(
                    ctx.extend_term(a1), b1, b2, None
                )
            case (Id(t1, l1, r1), Id(t2, l2, r2)):
                if t1 is not None and t2 is not None:
                    if not self._equal(ctx, t1, t2, None):
                        return False
                at = t1 if t1 is not None else t2
                return self._equal(ctx, l1, l2, at) and self._equal(ctx, r1, r2, at)
            case (Refl(a1), Refl(a2)):
                return self._equal(ctx, a1, a2, None)
            case (ExtType(sh1, c1, bt1, bd1), ExtType(sh2, c2, bt2, bd2)):
                if sh1.cube != sh2.cube:
                    return False
                cubes = list(ctx.cubes) + [sh1.cube]
                if not T.tope_iff(cubes, sh1.constraint, sh2.constraint):
                    return False
                ctx2 = ctx.extend_cube(sh1.cube)
                if not self._equal(ctx2.extend_tope(sh1.constraint), c1, c2, None):
                    return False
                if not T.tope_iff(cubes, bt1, bt2):
                    return False
                ctxb = ctx2.extend_tope(bt1)
                return self._equal(ctxb, bd1, bd2, c1)
            case (Lambda(b1), Lambda(b2)):
                return self._equal(ctx.extend_term(_OPAQUE), b1, b2, None)
            case (Lambda(b1), _):
                ctx2 = ctx.extend_term(_OPAQUE)
                return self._equal(ctx2, b1, App(weaken(uw, 1), Var(0)), None)
            case (_, Lambda(b2)):
                ctx2 = ctx.extend_term(_OPAQUE)
                return self._equal(ctx2, App(weaken(tw, 1), Var(0)), b2, None)
            case (Pair(a1, b1), Pair(a2, b2)):
                return self._equal(ctx, a1, a2, None) and self._equal(ctx, b1, b2, None)
            case (Pair(a1, b1), _):
                return self._equal(ctx, a1, Fst(uw), None) and self._equal(
                    ctx, b1, Snd(uw), None
                )
            case (_, Pair(a2, b2)):
                return self._equal(ctx, Fst(tw), a2, None) and self._equal(
                    ctx, Snd(tw), b2, None
                )
            case (ExtLambda(b1), ExtLambda(b2)):
                return self._equal(ctx.extend_cube(INTERVAL), b1, b2, None)
            case (ExtLambda(b1), _):
                ctx2 = ctx.extend_cube(INTERVAL)
                return self._equal(
                    ctx2, b1, ExtApp(weaken_cube(uw, 1, 0), CubeVar(0)), None
                )
            case (_, ExtLambda(b2)):
                ctx2 = ctx.extend_cube(INTERVAL)
                return self._equal(
                    ctx2, ExtApp(weaken_cube(tw, 1, 0), CubeVar(0)), b2, None
                )
            case _:
                return self._equal_spine(ctx, tw, uw) is not None

    # ------------------------------------------------------------------
    # inference and checking

    def infer(self, ctx: Context, t: Term) -> Term:
        match t:
            case Var(i):
                if i >= len(ctx.terms):
                    raise _fail("E-SCOPE", f"term index {i} out of scope")
                return ctx.term_type(i)
            case Constant(name):
                decl = self.env.decls.get(name)
                if decl is None:
                    raise _fail("E-UNBOUND-NAME", f"unknown constant '{name}'")
                return decl.type
            case Universe(0):
                return Universe(1)
            case Universe(_):
                raise _fail("E-CANNOT-INFER", "U₁ has no type in this theory")
            case Pi(a, b) | Sigma(a, b):
                la = self.type_level(ctx, a)
                lb = self.type_level(ctx.extend_term(a), b)
                return Universe(max(la, lb))
            case Lambda() | Pair() | Refl() | ExtLambda() | Split():
                raise _fail("E-CANNOT-INFER", _INTRO[type(t)][2])
            case App():
                return self._infer_spine(ctx, t)
            case Fst(s) | Snd(s) | ExtApp(s, _) | IndPath(_, _, s):
                sty = self.whnf(ctx, self.infer(ctx, s))
                ty = _elim_type(t, sty)
                if ty is None:
                    code, message = _NOT_ELIMINABLE[type(t)]
                    raise _fail(code, message, actual=print_term(sty, ctx))
                if isinstance(t, ExtApp):
                    self._check_point(ctx, t.point, sty.shape)
                elif isinstance(t, IndPath):
                    a_ty = self._endpoint_type(ctx, sty)
                    ctx_m = (
                        ctx.extend_term(a_ty)
                        .extend_term(weaken(a_ty, 1))
                        .extend_term(Id(weaken(a_ty, 2), Var(1), Var(0)))
                    )
                    self.type_level(ctx_m, t.motive)
                    ctx_d = ctx.extend_term(a_ty)
                    m_lifted = weaken(t.motive, 1, 3)  # move under the base-case binder
                    base_goal = _inst_motive(m_lifted, Var(0), Var(0), Refl(Var(0)))
                    self.check(ctx_d, t.base, base_goal)
                return ty
            case Id(ty, l, r):
                if ty is None:
                    ty = self.infer(ctx, l)
                    level = self.type_level(ctx, ty)
                    self.check(ctx, r, ty)
                else:
                    level = self.type_level(ctx, ty)
                    self.check(ctx, l, ty)
                    self.check(ctx, r, ty)
                return Universe(level)
            case ExtType():
                return Universe(self._ext_formation(ctx, t, self.type_level))
            case Annot(a, ty):
                self.type_level_or_top(ctx, ty)
                self.check(ctx, a, ty)
                return ty
        raise _fail("E-CANNOT-INFER", f"cannot infer a type for {type(t).__name__}")

    def _check_point(self, ctx: Context, p, sh) -> None:
        """The point ``p`` lies in the shape ``sh`` under the constraints in force."""
        sort = T.sort_of_point(ctx.cubes, p)
        if sort != sh.cube:
            raise _fail(
                "E-POINT-SORT",
                "point sort does not match the shape's cube",
                expected=str(sh.cube),
                actual=str(sort),
            )
        constraint_at_p = subst_tope_point(sh.constraint, 0, p)
        if not T.tope_entails(ctx.cubes, list(ctx.topes), constraint_at_p):
            cm = T.countermodel(ctx.cubes, list(ctx.topes), constraint_at_p)
            raise _fail(
                "E-TOPE-FALSE",
                "point is not constrained into the shape",
                expected=print_tope(_simplify_tope(constraint_at_p), len(ctx.cubes)),
                countermodel=_countermodel_map(cm) if cm else None,
            )

    def _infer_spine(self, ctx: Context, t: Term) -> Term:
        """Type of the application spine ``t = f a₁ … aₙ``; see the module
        docstring for the rule, and for the let rule when ``f`` is a λ."""
        spine = []  # f a₁ … aₙ, then f a₁ … aₙ₋₁, down to f a₁
        while isinstance(t, App):
            spine.append(t)
            t = t.fn
        if isinstance(t, Lambda):  # the let rule: b a₂ … aₙ under x := a₁
            a1 = spine[-1].arg
            rest = [weaken(tk.arg, 1) for tk in reversed(spine[:-1])]
            ty = self.infer(ctx.extend_term(self.infer(ctx, a1), a1), _apply(t.body, rest))
            return substitute(ty, 0, a1)
        ty = self.infer(ctx, t)
        pending: tuple[Term, ...] = ()  # the arguments consumed, the last first
        for tk in reversed(spine):  # tk is f a₁ … aₖ
            if not isinstance(ty, Pi):
                ty, pending = self.whnf(ctx, instantiate(ty, pending)), ()
                if not isinstance(ty, Pi):
                    code, message = _NOT_ELIMINABLE[App]
                    raise _fail(code, message, actual=print_term(ty, ctx))
            self.check(ctx, tk.arg, instantiate(ty.domain, pending))
            ty, pending = ty.codomain, (tk.arg,) + pending
        return instantiate(ty, pending)

    def type_level(self, ctx: Context, t: Term) -> int:
        """Universe level of a term used as a type; U itself has level 1."""
        tw = self._type_whnf(ctx, t)
        if isinstance(tw, Universe):
            if tw.level == 0:
                return 1
            raise _fail("E-NOT-A-TYPE", "U₁ cannot appear inside a type at this level")
        ty = self.whnf(ctx, self.infer(ctx, tw))
        if isinstance(ty, Universe):
            return ty.level
        raise _fail(
            "E-NOT-A-TYPE", "expected a type", actual=print_term(ty, ctx)
        )

    def type_level_or_top(self, ctx: Context, t: Term) -> None:
        """Well-formedness for declaration types.

        Beyond the small types this accepts the sorts themselves and towers
        of Π/extension types landing in a sort, so constants may classify
        families of large types even though such towers live in no universe.
        """
        tw = self._type_whnf(ctx, t)
        match tw:
            case Universe(_):
                return
            case Pi(a, b):
                self.type_level(ctx, a)
                self.type_level_or_top(ctx.extend_term(a), b)
                return
            case ExtType():
                self._ext_formation(ctx, tw, self.type_level_or_top)
                return
        self.type_level(ctx, tw)

    def _type_whnf(self, ctx: Context, t: Term) -> Term:
        """The weak-head form of the type ``t``, validated in its place unless
        reducing ``t`` substituted an introduction form, which may land where
        typing infers (``E (c , d)`` to ``fst (c , d) ~ c``); then ``t``."""
        self._bound_intro = False
        tw = self.whnf(ctx, t)
        return t if self._bound_intro else tw

    def _endpoint_type(self, ctx: Context, idty: Id) -> Term:
        """Type of the endpoints of the well-formed identity type ``idty``; a
        stuck left side (``_stuck``) is well typed, so it is reduced and a
        neutral reduct is typed by its spine, with no argument checked again."""
        if idty.type is not None:
            return idty.type
        if not _stuck(idty.lhs):
            return self.infer(ctx, idty.lhs)
        lw = self.whnf(ctx, idty.lhs)
        return self._spine_type(ctx, lw) or self.infer(ctx, lw)

    def _ext_formation(self, ctx: Context, e: ExtType, codomain_rule):
        """Formation of the extension type ``e``: its boundary tope carves a
        sub-shape of its shape, ``codomain_rule`` accepts its codomain, whose
        result is returned, and the boundary value has the codomain type."""
        sh = e.shape
        cubes = list(ctx.cubes) + [sh.cube]
        if not T.tope_entails(cubes, [e.boundary_tope], sh.constraint):
            raise _fail(
                "E-BOUNDARY",
                "boundary tope does not carve a sub-shape of the domain shape",
            )
        ctx2 = ctx.extend_cube(sh.cube)
        result = codomain_rule(ctx2.extend_tope(sh.constraint), e.codomain)
        self.check(ctx2.extend_tope(e.boundary_tope), e.boundary, e.codomain)
        return result

    def check(self, ctx: Context, t: Term, ty: Term) -> None:
        # glue: under unsatisfiable constraints everything checks
        if ctx.topes and not T.tope_consistent(ctx.cubes, list(ctx.topes)):
            return
        tyw = self.whnf(ctx, ty)
        former, message, _ = _INTRO.get(type(t), (object, "", ""))
        if not isinstance(tyw, former):
            raise _fail("E-TYPE-MISMATCH", message, expected=print_term(tyw, ctx))
        match t:
            case Lambda(body):
                self.check(ctx.extend_term(tyw.domain), body, tyw.codomain)
                return
            case ExtLambda(body):
                sh = tyw.shape
                ctx2 = ctx.extend_cube(sh.cube)
                self.check(ctx2.extend_tope(sh.constraint), body, tyw.codomain)
                ctxb = ctx2.extend_tope(tyw.boundary_tope)
                if not self.def_equal(ctxb, body, tyw.boundary, tyw.codomain):
                    cm = None
                    model = T.countermodel(ctxb.cubes, list(ctxb.topes), BOT)
                    if model is not None:
                        cm = _countermodel_map(model)
                    raise _fail(
                        "E-BOUNDARY",
                        "body disagrees with the required boundary value",
                        expected=print_term(tyw.boundary, ctxb),
                        actual=print_term(body, ctxb),
                        countermodel=cm,
                    )
                return
            case Pair(a, b):
                self.check(ctx, a, tyw.first)
                self.check(ctx, b, substitute(tyw.second, 0, a))
                return
            case Refl(a):
                at = self._endpoint_type(ctx, tyw)
                self.check(ctx, a, at)
                if not self.def_equal(ctx, a, tyw.lhs, at) or not self.def_equal(
                    ctx, a, tyw.rhs, at
                ):
                    raise _fail(
                        "E-TYPE-MISMATCH",
                        "refl endpoints are not definitionally equal",
                        expected=print_term(tyw, ctx),
                        actual=print_term(Refl(a), ctx),
                    )
                return
            case Split(brs):
                cover: Tope = BOT
                for tp, _ in brs:
                    cover = TopeOr(cover, tp)
                if not T.tope_entails(ctx.cubes, list(ctx.topes), cover):
                    cm = T.countermodel(ctx.cubes, list(ctx.topes), cover)
                    raise _fail(
                        "E-SPLIT",
                        "split branches do not cover the constraints in force",
                        countermodel=_countermodel_map(cm) if cm else None,
                    )
                for tp, b in brs:
                    self.check(ctx.extend_tope(tp), b, ty)
                for i in range(len(brs)):
                    for j in range(i + 1, len(brs)):
                        self._budget()
                        ctx_ij = ctx.extend_tope(brs[i][0]).extend_tope(brs[j][0])
                        if not self.def_equal(ctx_ij, brs[i][1], brs[j][1], ty):
                            raise _fail(
                                "E-SPLIT",
                                "split branches disagree on an overlap",
                                expected=print_term(brs[i][1], ctx_ij),
                                actual=print_term(brs[j][1], ctx_ij),
                            )
                return
            case _:
                inferred = self.infer(ctx, t)
                # ty == inferred costs nothing; otherwise compare against the
                # already normalized tyw rather than normalizing ty again
                if inferred != ty and not self.def_equal(ctx, inferred, tyw, None):
                    raise _fail(
                        "E-TYPE-MISMATCH",
                        "inferred type does not match the expected type",
                        expected=print_term(ty, ctx),
                        actual=print_term(inferred, ctx),
                    )
                return


_OPAQUE = Constant("%opaque")

# introduction form -> the type former it checks against, the message when
# the expected type has another former, and the message when it is inferred
_INTRO = {
    Lambda: (Pi, "λ against a non-Π type", "unannotated λ only checks against a Π type"),
    Pair: (Sigma, "pair against a non-Σ type", "a pair only checks against a Σ type"),
    Refl: (Id, "refl against a non-Id type", "refl only checks against an Id type"),
    ExtLambda: (
        ExtType,
        "shape λ against a non-extension type",
        "a shape λ only checks against an extension type",
    ),
    Split: (object, "", "a split only checks against a type"),
}

_NOT_ELIMINABLE = {
    App: ("E-NOT-A-FUNCTION", "application head is not a function"),
    Fst: ("E-NOT-A-PAIR", "projection target is not a pair"),
    Snd: ("E-NOT-A-PAIR", "projection target is not a pair"),
    ExtApp: ("E-NOT-A-FUNCTION", "extension application head has no extension type"),
    IndPath: ("E-TYPE-MISMATCH", "ind-path target is not an identity proof"),
}


def _stuck(t: Term) -> bool:
    """``t`` has an introduction form, which ``infer`` rejects, where typing
    infers it: as an eliminator's scrutinee, as an argument of a spine with a
    λ head, or as the left side of an untyped ``Id``."""
    match t:
        case App(f, a) if type(a) in _INTRO:
            while isinstance(f, App):
                f = f.fn
            if isinstance(f, Lambda):
                return True
        case Fst(s) | Snd(s) | IndPath(_, _, s) | ExtApp(s, _) | Id(None, s, _):
            if type(s) in _INTRO:
                return True
    return any(_stuck(s) for s, _, _ in children(t))


def _inst_motive(m: Term, a: Term, b: Term, q: Term) -> Term:
    """m[x := a, y := b, p := q] for a motive binding x, y, p."""
    return instantiate(m, (q, b, a))


# ---------------------------------------------------------------------------
# eliminators: App, Fst, Snd, IndPath and ExtApp, each with one scrutinee

def _scrutinee(t: Term) -> Term | None:
    match t:
        case App(s, _) | Fst(s) | Snd(s) | IndPath(_, _, s) | ExtApp(s, _):
            return s
    return None


def _on(t: Term, s: Term) -> Term:
    """Eliminator ``t``, not an application, with its scrutinee replaced by ``s``."""
    match t:
        case Fst(_):
            return Fst(s)
        case Snd(_):
            return Snd(s)
        case IndPath(m, d, _):
            return IndPath(m, d, s)
        case ExtApp(_, p):
            return ExtApp(s, p)
    raise AssertionError(f"_on: {t!r}")


def _apply(f: Term, args) -> Term:
    """``f`` applied to ``args``, the first argument innermost."""
    for a in args:
        f = App(f, a)
    return f


def _elim_type(t: Term, stw: Term) -> Term | None:
    """Type of eliminator ``t`` whose scrutinee has weak-head type ``stw``, or
    None when ``stw`` has the wrong former."""
    match t, stw:
        case App(_, a), Pi(_, cod):
            return substitute(cod, 0, a)
        case Fst(_), Sigma(a, _):
            return a
        case Snd(p), Sigma(_, b):
            return substitute(b, 0, Fst(p))
        case IndPath(m, _, q), Id(_, a, b):
            return _inst_motive(m, a, b, q)
        case ExtApp(_, p), ExtType(_, cod, _, _):
            return subst_cube(cod, 0, p)
    return None


# ---------------------------------------------------------------------------
# module-level entry points

def whnf(env: CheckEnv, ctx: Context, t: Term) -> Term:
    return Checker(env).whnf(ctx, t)


def def_equal(env: CheckEnv, ctx: Context, t: Term, u: Term, ty: Term | None = None) -> bool:
    return Checker(env).def_equal(ctx, t, u, ty)


def infer(env: CheckEnv, ctx: Context, t: Term) -> Term:
    return Checker(env).infer(ctx, t)


def check(env: CheckEnv, ctx: Context, t: Term, ty: Term) -> Diagnostic | None:
    try:
        Checker(env).check(ctx, t, ty)
        return None
    except (CheckFailure, UnfoldDepthExceeded) as e:
        return e.diag


def _constants_of(t: Term, acc: set[str]) -> set[str]:
    if isinstance(t, Constant):
        acc.add(t.name)
    for s, _, _ in children(t):
        _constants_of(s, acc)
    return acc


def check_declaration(env: CheckEnv, decl: Declaration) -> list[Diagnostic]:
    """Check one resolved declaration; on success append it to the env."""
    checker = Checker(env)
    try:
        checker.type_level_or_top(Context(), decl.type)
        if decl.body is not None:
            checker.check(Context(), decl.body, decl.type)
    except (CheckFailure, UnfoldDepthExceeded) as e:
        d = e.diag
        d.decl = decl.name
        if d.span is None:
            d.span = decl.span
        return [d]
    refs = _constants_of(decl.type, set())
    if decl.body is not None:
        _constants_of(decl.body, refs)
    usage: set[str] = set()
    for r in refs:
        usage |= env.axiom_usage.get(r, frozenset())
        if r in env.axioms:
            usage.add(r)
    env.decls[decl.name] = decl
    if decl.body is None:
        env.axioms.add(decl.name)
    env.axiom_usage[decl.name] = frozenset(usage)
    return []


def check_module(
    env: CheckEnv, decls: Iterable, import_failed: bool = False
) -> tuple[CheckEnv, list[Diagnostic], dict[str, frozenset[str]]]:
    """Sequentially resolve and check surface declarations.

    A failed declaration is recorded in ``env.failed`` so later references to
    it, here or in an importing file, produce one E-DEPENDS-ON-FAILED
    diagnostic rather than an error cascade.  A declaration too deep for the
    resolver or the kernel to recurse through is reported as
    E-NESTING-DEPTH, a resource limit, like one too deep to parse.  When an
    ``#import`` of the file failed, a name that cannot be found is blamed on
    that import, as E-DEPENDS-ON-FAILED.
    """
    from .resolve import FAILED, ResolveError, resolve

    diags: list[Diagnostic] = []
    name_table: dict[str, object] = dict.fromkeys(env.failed, FAILED)
    name_table.update(env.decls)
    for sdecl in decls:
        try:
            declaration = resolve(sdecl, name_table)
            errs = check_declaration(env, declaration)
        except ResolveError as e:
            code, message = e.code, e.message
            if code == "E-UNBOUND-NAME" and import_failed:
                code, message = "E-DEPENDS-ON-FAILED", f"{message}; an #import of this file failed"
            errs = [Diagnostic("error", code, message, span=e.span or sdecl.span)]
        except RecursionError:
            message = "declaration is nested too deeply to check"
            errs = [Diagnostic("error", "E-NESTING-DEPTH", message, span=sdecl.span)]
        for d in errs:
            d.decl = sdecl.name
        if errs:
            diags.extend(errs)
            name_table[sdecl.name] = FAILED
            env.failed.add(sdecl.name)
        else:
            name_table[sdecl.name] = env.decls[sdecl.name]
    return env, diags, dict(env.axiom_usage)
