"""Bidirectional type checking and definitional equality.

Equality is judged under the tope constraints in force: an inconsistent
constraint zone identifies everything, disjunctive constraints are split
before structural comparison, and extension applications reduce to their
boundary values wherever the constraints force the boundary tope.  Two
syntactically equal terms are equal at once, before the constraints are
consulted and before either side is normalized.  Weak-head normalization
performs beta, projections, identity elimination on constant paths,
constant unfolding up to a depth limit, and the boundary rule.

Conversion decides η for Π, Σ and extension types.  At a known type both
sides are expanded by that type.  Without one, conversion meets an
introduction form (a λ, a pair, a shape λ) by η-expanding the other side
into that form (``_ETA``), and compares the two forms (Coquand, 1996).

Beta works on a whole application spine ``f a₁ … aₙ``: the head is
normalized once, as many of its leading λs as there are arguments are
instantiated in one simultaneous substitution, and the arguments left over
are applied to the result.  Each other eliminator (the projections,
ind-path, extension application) has one computation rule, ``_contract``.
Every eliminator has one typing rule, ``_elim_type``, shared by the two
walks over stuck spines (``_spine_type`` types one, ``_equal_spine``
compares two and takes a common head's type from ``_spine_type``) and
``infer``.

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
inferable, and nothing is reduced.  The leading λs of the head bind their
arguments in one loop, so a long redex costs no stack.  Every failure
propagates.

A type is validated as written, never through its weak-head form: reducing
it could drop an argument that nothing has typed (``(λ x ↦ T) U₁`` to
``T``).  Only a type written as a Π/extension tower is walked as one.
Reducing a well-formed type can still put an introduction form where typing
infers (``E (c , d)`` to ``fst (c , d) ~ c``); an untyped ``Id`` in such a
reduct gets its endpoint type from ``_endpoint_type``, which types a stuck
left side by its reduct's spine.

Unfold budget: each declaration has one budget of ``max_unfold`` steps,
spent by every unfolding, every contraction, every λ that beta consumes,
every split of a disjunctive hypothesis and every pair of ``Split``
branches compared on their overlap; syntactically equal sides spend none.

Sharing: once a declaration has checked, ``check_declaration`` rebuilds its
type and body from ``env.shared``, one node per distinct subterm for a whole
batch run, and only then stores it with its ``axioms``, the postulates it
uses, read off the declarations the resolver recorded.  Sharing waits for
success, so a failed declaration adds nothing, and the check sees the
declaration's terms as the resolver built them, which keeps anything keyed
by node identity during the check valid.

Diagnostics: the ``expected`` and ``actual`` terms of a failure are core
terms read back to surface syntax and printed by ``printer.print_term`` and
``printer.print_tope``, with generated names for bound variables.
"""

from __future__ import annotations

from collections.abc import Iterable

from .diagnostics import Diagnostic, Failure
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
    instantiate,
    share,
    subst_cube,
    substitute,
    subterms,
    weaken,
    weaken_cube,
)
from . import topes as T
from .printer import print_term, print_tope


class CheckEnv:
    """Append-only table of accepted declarations plus per-run settings."""

    def __init__(self, max_unfold: int = 10_000, shared: dict | None = None):
        self.decls: dict[str, Declaration] = {}
        self.max_unfold = max_unfold
        self.j_fired = 0  # identity-eliminator computation counter
        self.failed: set[str] = set()  # names that did not check
        self.shared = {} if shared is None else shared  # the canonical node of each held subterm


def _simplify_tope(t: Tope) -> Tope:
    """Collapse projection-of-pair redexes in displayed topes."""
    match t:
        case TopeLeq(l, r) | TopeEq(l, r):
            return type(t)(T.norm_point(l), T.norm_point(r))
        case TopeAnd(l, r) | TopeOr(l, r):
            return type(t)(_simplify_tope(l), _simplify_tope(r))
        case _:
            return t


class Checker:
    def __init__(self, env: CheckEnv):
        self.env = env
        self.steps = 0  # unfold steps spent, against env.max_unfold

    def _budget(self) -> None:
        self.steps += 1
        if self.steps > self.env.max_unfold:
            # a resource limit, not a type error
            raise Failure("E-UNFOLD-DEPTH", "unfold depth limit exceeded")

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
                        if T.tope_entails(ctx.cubes, ctx.topes, tp):
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
                return substitute(d, 0, a)
            case ExtApp(_, p), ExtLambda(b):
                self._budget()
                return subst_cube(b, 0, p)
            case ExtApp(_, p), _:
                ty = self._spine_type(ctx, sw)
                tyw = None if ty is None else self.whnf(ctx, ty)
                if not isinstance(tyw, ExtType):
                    return None
                bt_at_p = subst_cube(tyw.boundary_tope, 0, p)
                if not T.tope_entails(ctx.cubes, ctx.topes, bt_at_p):
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
            case Var() | Constant() if t == u:
                return self._spine_type(ctx, t) or _OPAQUE
            case App(s, _) | Fst(s) | Snd(s) | IndPath(_, _, s) | ExtApp(s, _):
                sty = self._equal_spine(ctx, s, _scrutinee(u))
                if sty is None:
                    return None
                match t, u:
                    case ExtApp(_, p1), ExtApp(_, p2):
                        if not T.tope_entails(ctx.cubes, ctx.topes, TopeEq(p1, p2)):
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
        its ``Failure`` (E-UNFOLD-DEPTH) rather than reading as "not equal"."""
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
        if ctx.topes and not T.tope_consistent(ctx.cubes, ctx.topes):
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

        if type(tw) is not type(uw):  # η: an intro form meets the other side expanded
            for form, expand in _ETA.items():
                if type(tw) is form:
                    uw = expand(uw)
                    break
                if type(uw) is form:
                    tw = expand(tw)
                    break

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
                cubes = ctx.cubes + (sh1.cube,)
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
            case (Pair(a1, b1), Pair(a2, b2)):
                return self._equal(ctx, a1, a2, None) and self._equal(ctx, b1, b2, None)
            case (ExtLambda(b1), ExtLambda(b2)):
                return self._equal(ctx.extend_cube(INTERVAL), b1, b2, None)
            case _:
                return self._equal_spine(ctx, tw, uw) is not None

    # ------------------------------------------------------------------
    # inference and checking

    def infer(self, ctx: Context, t: Term) -> Term:
        match t:
            case Var(i):
                if i >= len(ctx.terms):
                    raise Failure("E-SCOPE", f"term index {i} out of scope")
                return ctx.term_type(i)
            case Constant(name):
                decl = self.env.decls.get(name)
                if decl is None:
                    raise Failure("E-UNBOUND-NAME", f"unknown constant '{name}'")
                return decl.type
            case Universe(0):
                return Universe(1)
            case Universe(_):
                raise Failure("E-CANNOT-INFER", "U₁ has no type in this theory")
            case Pi(a, b) | Sigma(a, b):
                la = self.type_level(ctx, a)
                lb = self.type_level(ctx.extend_term(a), b)
                return Universe(max(la, lb))
            case Lambda() | Pair() | Refl() | ExtLambda() | Split():
                raise Failure("E-CANNOT-INFER", _INTRO[type(t)][2])
            case App():
                return self._infer_spine(ctx, t)
            case Fst(s) | Snd(s) | ExtApp(s, _) | IndPath(_, _, s):
                sty = self.whnf(ctx, self.infer(ctx, s))
                ty = _elim_type(t, sty)
                if ty is None:
                    code, message = _NOT_ELIMINABLE[type(t)]
                    raise Failure(code, message, actual=print_term(sty, ctx))
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
        raise Failure("E-CANNOT-INFER", f"cannot infer a type for {type(t).__name__}")

    def _check_point(self, ctx: Context, p, sh) -> None:
        """The point ``p`` lies in the shape ``sh`` under the constraints in force."""
        sort = T.sort_of_point(ctx.cubes, p)
        if sort != sh.cube:
            raise Failure(
                "E-POINT-SORT",
                "point sort does not match the shape's cube",
                expected=print_tope(sh.cube),
                actual=print_tope(p if sort is None else sort, len(ctx.cubes)),
            )
        constraint_at_p = subst_cube(sh.constraint, 0, p)
        if not T.tope_entails(ctx.cubes, ctx.topes, constraint_at_p):
            cm = T.countermodel(ctx.cubes, ctx.topes, constraint_at_p)
            raise Failure(
                "E-TOPE-FALSE",
                "point is not constrained into the shape",
                expected=print_tope(_simplify_tope(constraint_at_p), len(ctx.cubes)),
                countermodel=None if cm is None else cm.value_strings(),
            )

    def _infer_spine(self, ctx: Context, t: Term) -> Term:
        """Type of the application spine ``t = f a₁ … aₙ``; see the module
        docstring for the rule, and for the let rule when ``f`` is a λ."""
        spine = []  # f a₁ … aₙ, then f a₁ … aₙ₋₁, down to f a₁
        while isinstance(t, App):
            spine.append(t)
            t = t.fn
        if isinstance(t, Lambda):  # the let rule, in one loop over the leading λs
            args = [tk.arg for tk in reversed(spine)]
            n = 0  # the λs bound; argument k is bound weakened past the k before it
            while isinstance(t, Lambda) and n < len(args):
                args[n] = weaken(args[n], n)
                ctx = ctx.extend_term(self.infer(ctx, args[n]), args[n])
                t, n = t.body, n + 1
            ty = self.infer(ctx, _apply(t, [weaken(a, n) for a in args[n:]]))
            for a in reversed(args[:n]):
                ty = substitute(ty, 0, a)
            return ty
        ty = self.infer(ctx, t)
        pending: tuple[Term, ...] = ()  # the arguments consumed, the last first
        for tk in reversed(spine):  # tk is f a₁ … aₖ
            if not isinstance(ty, Pi):
                ty, pending = self.whnf(ctx, instantiate(ty, pending)), ()
                if not isinstance(ty, Pi):
                    code, message = _NOT_ELIMINABLE[App]
                    raise Failure(code, message, actual=print_term(ty, ctx))
            self.check(ctx, tk.arg, instantiate(ty.domain, pending))
            ty, pending = ty.codomain, (tk.arg,) + pending
        return instantiate(ty, pending)

    def type_level(self, ctx: Context, t: Term) -> int:
        """Universe level of the type ``t`` as written; U itself has level 1."""
        if isinstance(t, Universe):
            if t.level == 0:
                return 1
            raise Failure("E-NOT-A-TYPE", "U₁ cannot appear inside a type at this level")
        ty = self.whnf(ctx, self.infer(ctx, t))
        if isinstance(ty, Universe):
            return ty.level
        raise Failure(
            "E-NOT-A-TYPE", "expected a type", actual=print_term(ty, ctx)
        )

    def type_level_or_top(self, ctx: Context, t: Term) -> None:
        """Well-formedness for declaration types.

        Beyond the small types this accepts the sorts themselves and towers
        of Π/extension types landing in a sort, so constants may classify
        families of large types even though such towers live in no universe.
        A tower must be written as one: a term that only reduces to a tower
        is typed as written, by ``type_level``.
        """
        match t:
            case Universe(_):
                return
            case Pi(a, b):
                self.type_level(ctx, a)
                self.type_level_or_top(ctx.extend_term(a), b)
                return
            case ExtType():
                self._ext_formation(ctx, t, self.type_level_or_top)
                return
        self.type_level(ctx, t)

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
        cubes = ctx.cubes + (sh.cube,)
        if not T.tope_entails(cubes, [e.boundary_tope], sh.constraint):
            raise Failure(
                "E-BOUNDARY",
                "boundary tope does not carve a sub-shape of the domain shape",
            )
        ctx2 = ctx.extend_cube(sh.cube)
        result = codomain_rule(ctx2.extend_tope(sh.constraint), e.codomain)
        self.check(ctx2.extend_tope(e.boundary_tope), e.boundary, e.codomain)
        return result

    def check(self, ctx: Context, t: Term, ty: Term) -> None:
        # glue: under unsatisfiable constraints everything checks
        if ctx.topes and not T.tope_consistent(ctx.cubes, ctx.topes):
            return
        tyw = self.whnf(ctx, ty)
        former, message, _ = _INTRO.get(type(t), (object, "", ""))
        if not isinstance(tyw, former):
            raise Failure("E-TYPE-MISMATCH", message, expected=print_term(tyw, ctx))
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
                    cm = T.countermodel(ctxb.cubes, ctxb.topes, BOT)
                    raise Failure(
                        "E-BOUNDARY",
                        "body disagrees with the required boundary value",
                        expected=print_term(tyw.boundary, ctxb),
                        actual=print_term(body, ctxb),
                        countermodel=None if cm is None else cm.value_strings(),
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
                    raise Failure(
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
                if not T.tope_entails(ctx.cubes, ctx.topes, cover):
                    cm = T.countermodel(ctx.cubes, ctx.topes, cover)
                    raise Failure(
                        "E-SPLIT",
                        "split branches do not cover the constraints in force",
                        countermodel=None if cm is None else cm.value_strings(),
                    )
                for tp, b in brs:
                    self.check(ctx.extend_tope(tp), b, ty)
                for i in range(len(brs)):
                    for j in range(i + 1, len(brs)):
                        self._budget()
                        ctx_ij = ctx.extend_tope(brs[i][0]).extend_tope(brs[j][0])
                        if not self.def_equal(ctx_ij, brs[i][1], brs[j][1], ty):
                            raise Failure(
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
                    raise Failure(
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

# introduction form -> the η-expansion of a term into it, tried in this order
_ETA = {
    Lambda: lambda w: Lambda(App(weaken(w, 1), Var(0))),
    Pair: lambda w: Pair(Fst(w), Snd(w)),
    ExtLambda: lambda w: ExtLambda(ExtApp(weaken_cube(w, 1, 0), CubeVar(0))),
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
    λ head, or as the left side of an untyped ``Id``.  Every subterm is
    visited by ``core.subterms``, so no depth of nesting recurses."""
    for s, _, _ in subterms(t, False):
        match s:
            case App(f, a) if type(a) in _INTRO:
                while isinstance(f, App):
                    f = f.fn
                if isinstance(f, Lambda):
                    return True
            case Fst(x) | Snd(x) | IndPath(_, _, x) | ExtApp(x, _) | Id(None, x, _):
                if type(x) in _INTRO:
                    return True
    return False


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
    except Failure as e:
        return e.diag


def check_declaration(env: CheckEnv, decl: Declaration) -> list[Diagnostic]:
    """Check one resolved declaration; on success share its terms and append
    it to the env.  A failure's diagnostic has no span and names no
    declaration; ``check_module`` gives it both."""
    checker = Checker(env)
    try:
        checker.type_level_or_top(Context(), decl.type)
        if decl.body is not None:
            checker.check(Context(), decl.body, decl.type)
    except Failure as e:
        return [e.diag]
    usage: set[str] = set()
    for r in decl.constants:
        held = env.decls[r]
        usage |= held.axioms
        if held.is_postulate:
            usage.add(r)
    if usage:
        decl.axioms = frozenset(usage)
    decl.type = share(decl.type, env.shared)
    if decl.body is not None:
        decl.body = share(decl.body, env.shared)
    env.decls[decl.name] = decl
    return []


def check_module(env: CheckEnv, decls: Iterable, import_failed: bool = False) -> list[Diagnostic]:
    """Sequentially resolve and check surface declarations into ``env``,
    returning their diagnostics.

    A failed declaration is recorded in ``env.failed`` so later references to
    it, here or in an importing file, produce one E-DEPENDS-ON-FAILED
    diagnostic rather than an error cascade.  So is a declaration that
    failed to parse, which comes in ``decls`` as its parse diagnostic (see
    ``parser._Parser.declarations``); that diagnostic is the parser's to
    report.  A declaration too deep for the
    resolver or the kernel to recurse through is reported as
    E-NESTING-DEPTH, a resource limit, like one too deep to parse.  When an
    ``#import`` of the file failed, a name that cannot be found is blamed on
    that import, as E-DEPENDS-ON-FAILED.  A diagnostic without a span of its
    own, which is every kernel failure, gets its surface declaration's span;
    the core ``Declaration`` that is stored keeps no span.
    """
    from .resolve import FAILED, resolve

    diags: list[Diagnostic] = []
    name_table: dict[str, object] = dict.fromkeys(env.failed, FAILED)
    name_table.update(env.decls)
    for sdecl in decls:
        if isinstance(sdecl, Diagnostic):
            name_table[sdecl.decl] = FAILED
            env.failed.add(sdecl.decl)
            continue
        try:
            declaration = resolve(sdecl, name_table)
            errs = check_declaration(env, declaration)
        except Failure as e:
            errs = [e.diag]
            if e.diag.code == "E-UNBOUND-NAME" and import_failed:
                e.diag.code = "E-DEPENDS-ON-FAILED"
                e.diag.message += "; an #import of this file failed"
        except RecursionError:
            message = "declaration is nested too deeply to check"
            errs = [Diagnostic("E-NESTING-DEPTH", message)]
        for d in errs:
            d.decl = sdecl.name
            if d.span is None:
                d.span = sdecl.span
        if errs:
            diags.extend(errs)
            name_table[sdecl.name] = FAILED
            env.failed.add(sdecl.name)
        else:
            name_table[sdecl.name] = env.decls[sdecl.name]
    return diags
