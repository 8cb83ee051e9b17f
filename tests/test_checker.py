"""Checker contracts: weak-head reduction, definitional equality under
constraints, bidirectional checking, declaration and module processing."""

from __future__ import annotations

import pathlib

import pytest

from stt import core as C
from stt.checker import (
    CheckEnv,
    Checker,
    UnfoldDepthExceeded,
    check,
    check_declaration,
    check_module,
    def_equal,
    infer,
    whnf,
)
from stt.core import (
    App,
    Constant,
    Context,
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
    SHAPE_ENDPOINTS,
    Shape,
    Sigma,
    Snd,
    Split,
    TOP,
    TopeEq,
    TopeOr,
    Universe,
    Var,
    ZERO,
    ONE,
    CubeVar,
)
from stt.parser import parse_module

STDLIB = pathlib.Path(__file__).resolve().parent.parent / "src" / "stt" / "stdlib"

ORDER = [
    "paths.stt",
    "contractible.stt",
    "equiv.stt",
    "hom.stt",
    "segal.stt",
    "covariant.stt",
    "yoneda.stt",
    "univalence.stt",
    "directed.stt",
]


@pytest.fixture(scope="module")
def corpus_env():
    env = CheckEnv()
    for name in ORDER:
        decls, diags, _ = parse_module((STDLIB / name).read_text(encoding="utf-8"))
        assert not diags
        env, cdiags, _ = check_module(env, decls)
        assert not cdiags, [(d.decl, d.code, d.message) for d in cdiags]
    return env


def _check_src(src: str):
    decls, diags, _ = parse_module(src)
    assert not diags, diags
    env = CheckEnv()
    return check_module(env, decls)


# -- whnf ---------------------------------------------------------------------

def test_whnf_beta():
    env = CheckEnv()
    t = App(Lambda(Var(0)), Constant("c"))
    assert whnf(env, Context(), t) == Constant("c")


def test_whnf_beta_on_a_whole_spine():
    env = CheckEnv()
    a, b, c = Constant("a"), Constant("b"), Constant("c")
    k2 = Lambda(Lambda(Pair(Var(1), Var(0))))
    # exactly applied, over-applied (the leftover argument is re-applied)
    # and under-applied (the unconsumed λ stays, its body instantiated)
    assert whnf(env, Context(), App(App(k2, a), b)) == Pair(a, b)
    over = App(App(App(Lambda(Lambda(Var(1))), a), b), c)
    assert whnf(env, Context(), over) == App(a, c)
    assert whnf(env, Context(), App(k2, a)) == Lambda(Pair(a, Var(0)))
    # a head that is itself a redex reduces before the spine
    assert whnf(env, Context(), App(App(App(Lambda(k2), c), a), b)) == Pair(a, b)


def test_whnf_spends_one_step_per_lambda_consumed():
    t = App(App(App(Lambda(Lambda(Lambda(Var(2)))), Constant("a")), Universe(0)), Universe(0))
    assert whnf(CheckEnv(max_unfold=3), Context(), t) == Constant("a")
    with pytest.raises(UnfoldDepthExceeded):
        whnf(CheckEnv(max_unfold=2), Context(), t)


def test_one_budget_spans_every_normalization_of_a_checker():
    env = CheckEnv(max_unfold=3)
    env.decls["two"] = C.Declaration("two", Universe(1), Universe(0))
    checker = Checker(env)
    for _ in range(3):
        assert checker.whnf(Context(), Constant("two")) == Universe(0)
    with pytest.raises(UnfoldDepthExceeded):
        checker.whnf(Context(), Constant("two"))
    assert Checker(env).whnf(Context(), Constant("two")) == Universe(0)  # a fresh budget


def test_disjunction_split_spends_one_step():
    # one step splits t ≡ 0 ∨ t ≡ 1, then each branch contracts fst (a, b) once
    ctx = Context().extend_cube(INTERVAL)
    ctx = ctx.extend_tope(TopeOr(TopeEq(CubeVar(0), ZERO), TopeEq(CubeVar(0), ONE)))
    a = Constant("a")
    t = Fst(Pair(a, Constant("b")))
    assert def_equal(CheckEnv(max_unfold=3), ctx, t, a, None)
    with pytest.raises(UnfoldDepthExceeded):
        def_equal(CheckEnv(max_unfold=2), ctx, t, a, None)


def test_def_equal_is_syntactic_before_unfolding():
    # equal terms are equal without spending the budget on either side
    env = CheckEnv(max_unfold=1)
    env.decls["spin"] = C.Declaration("spin", Universe(0), Constant("spin"))
    assert def_equal(env, Context(), Constant("spin"), Constant("spin"), None)


def test_whnf_projections():
    env = CheckEnv()
    p = Pair(Universe(0), Constant("c"))
    assert whnf(env, Context(), Fst(p)) == Universe(0)
    assert whnf(env, Context(), Snd(p)) == Constant("c")


def test_whnf_j_computation_on_constant_path():
    env = CheckEnv()
    t = IndPath(Id(None, Var(1), Var(0)), Refl(Var(0)), Refl(Constant("a")))
    before = env.j_fired
    out = whnf(env, Context(), t)
    assert out == Refl(Constant("a"))
    assert env.j_fired == before + 1


def test_whnf_unfolds_definitions():
    env = CheckEnv()
    env.decls["two"] = C.Declaration("two", Universe(1), Universe(0))
    assert whnf(env, Context(), Constant("two")) == Universe(0)


def test_whnf_leaves_postulates_stuck():
    env = CheckEnv()
    env.decls["ax"] = C.Declaration("ax", Universe(0), None)
    assert whnf(env, Context(), Constant("ax")) == Constant("ax")


def test_whnf_idempotent_on_corpus_bodies(corpus_env):
    for decl in corpus_env.decls.values():
        if decl.body is None:
            continue
        once = whnf(corpus_env, Context(), decl.body)
        assert whnf(corpus_env, Context(), once) == once


def _endpoint_env():
    """Postulates C, x, y : C and h : hom, where hom is <{t : 2 | TOP} -> C |
    dDelta1 |-> [x, y]>, the type of arrows from x to y."""
    env = CheckEnv()
    env.decls["C"] = C.Declaration("C", Universe(0), None)
    env.decls["x"] = C.Declaration("x", Constant("C"), None)
    env.decls["y"] = C.Declaration("y", Constant("C"), None)
    boundary = Split(
        (
            (TopeEq(CubeVar(0), C.ZERO), Constant("x")),
            (TopeEq(CubeVar(0), C.ONE), Constant("y")),
        )
    )
    homty = ExtType(
        Shape(INTERVAL, TOP), Constant("C"), SHAPE_ENDPOINTS.constraint, boundary
    )
    env.decls["h"] = C.Declaration("h", homty, None)
    return env, homty


def test_whnf_boundary_rule():
    # f : <{t : 2 | TOP} -> C | dDelta1 |-> [x, y]>  gives  f 0 --> x
    env, homty = _endpoint_env()
    ctx = Context().extend_term(homty)
    assert whnf(env, ctx, ExtApp(Var(0), C.ZERO)) == Constant("x")
    assert whnf(env, ctx, ExtApp(Var(0), C.ONE)) == Constant("y")


def _stuck_arrows(homty):
    """(type of the variable, a stuck arrow built on Var(0)) for each eliminator head."""
    C_ = Constant("C")
    return {
        "app": (Pi(C_, homty), App(Var(0), Constant("x"))),
        "fst": (Sigma(homty, C_), Fst(Var(0))),
        "snd": (Sigma(C_, homty), Snd(Var(0))),
        "ind-path": (Id(C_, Constant("x"), Constant("y")), IndPath(homty, Constant("h"), Var(0))),
    }


@pytest.mark.parametrize("head", ["app", "fst", "snd", "ind-path"])
def test_whnf_boundary_rule_through_eliminator_heads(head):
    # e.g. p : Σ(hom, C) gives (fst p) 0 --> x: the arrow's type is read off
    # the stuck spine below it
    env, homty = _endpoint_env()
    ty, arrow = _stuck_arrows(homty)[head]
    ctx = Context().extend_term(ty)
    assert whnf(env, ctx, ExtApp(arrow, C.ZERO)) == Constant("x")
    assert whnf(env, ctx, ExtApp(arrow, C.ONE)) == Constant("y")
    # off the boundary the application stays stuck
    inner = ctx.extend_cube(INTERVAL)
    stuck = ExtApp(C.weaken_cube(arrow, 1, 0), CubeVar(0))
    assert whnf(env, inner, stuck) == stuck


def test_unfold_depth_limit_is_an_error_not_a_hang():
    # a self-unfolding definition cannot be produced by check_declaration,
    # so force one directly to exercise the limiter
    env = CheckEnv(max_unfold=5)
    env.decls["spin"] = C.Declaration("spin", Universe(0), Constant("spin"))
    d = check(env, Context(), Universe(0), Constant("spin"))
    assert d is not None and d.code == "E-UNFOLD-DEPTH"
    # inside an equality the exhausted budget propagates, never "not equal"
    with pytest.raises(UnfoldDepthExceeded):
        def_equal(env, Context(), Constant("spin"), Universe(0), None)


# -- def_equal ----------------------------------------------------------------

def test_def_equal_reflexive():
    env = CheckEnv()
    t = Pi(Universe(0), Var(0))
    assert def_equal(env, Context(), t, t, None)


def test_def_equal_eta_for_functions():
    env = CheckEnv()
    ctx = Context().extend_term(Pi(Universe(0), Universe(0)))
    f = Var(0)
    eta = Lambda(App(Var(1), Var(0)))
    assert def_equal(env, ctx, eta, f, Pi(Universe(0), Universe(0)))


def test_def_equal_stuck_applications_with_arguments_equal_after_beta():
    # f (λz. z) x  versus  f x, for a variable f : C → C
    env, _ = _endpoint_env()
    C_, x, y = Constant("C"), Constant("x"), Constant("y")
    ctx = Context().extend_term(Pi(C_, C_))
    redex = App(Lambda(Var(0)), x)
    assert def_equal(env, ctx, App(Var(0), redex), App(Var(0), x), C_)
    assert def_equal(env, ctx, App(Var(0), redex), App(Var(0), x), None)
    assert not def_equal(env, ctx, App(Var(0), redex), App(Var(0), y), C_)


def test_def_equal_eta_for_pairs():
    env = CheckEnv()
    sig = Sigma(Universe(0), Universe(0))
    ctx = Context().extend_term(sig)
    w = Var(0)
    eta = Pair(Fst(w), Snd(w))
    assert def_equal(env, ctx, eta, w, sig)


def test_def_equal_under_inconsistent_topes_identifies_everything():
    env = CheckEnv()
    ctx = Context().extend_tope(TopeEq(ZERO, ONE))
    assert def_equal(env, ctx, Universe(0), Constant("whatever"), None)


def test_check_accepts_anything_under_inconsistent_topes():
    env = CheckEnv()
    ctx = Context().extend_tope(TopeEq(ZERO, ONE))
    assert check(env, ctx, Pair(Universe(0), Universe(0)), Pi(Universe(0), Universe(0))) is None


def test_def_equal_splits_disjunctive_hypotheses():
    env = CheckEnv()
    env.decls["C"] = C.Declaration("C", Universe(0), None)
    env.decls["x"] = C.Declaration("x", Constant("C"), None)
    env.decls["y"] = C.Declaration("y", Constant("C"), None)
    split = Split(
        (
            (TopeEq(CubeVar(0), ZERO), Constant("x")),
            (TopeEq(CubeVar(0), ONE), Constant("y")),
        )
    )
    ctx = Context().extend_cube(INTERVAL).extend_tope(SHAPE_ENDPOINTS.constraint)
    # under t == 0 \/ t == 1 the split equals x on one branch, y on the other
    ctx0 = Context().extend_cube(INTERVAL).extend_tope(TopeEq(CubeVar(0), ZERO))
    assert def_equal(env, ctx0, split, Constant("x"), Constant("C"))
    assert not def_equal(env, ctx0, split, Constant("y"), Constant("C"))
    # with only the disjunction, neither endpoint alone equals the split
    assert not def_equal(env, ctx, split, Constant("x"), Constant("C"))


def test_def_equal_is_equivalence_on_corpus_samples(corpus_env):
    names = ["path-inv", "concat", "comp", "yoneda-inv", "transport"]
    for n in names:
        body = corpus_env.decls[n].body
        assert def_equal(corpus_env, Context(), body, body, None)
        w = whnf(corpus_env, Context(), body)
        assert def_equal(corpus_env, Context(), body, w, None)
        assert def_equal(corpus_env, Context(), w, body, None)
    # transitivity sample: body ~ whnf(body) ~ whnf(whnf(body))
    b = corpus_env.decls["comp-id"].body
    w1 = whnf(corpus_env, Context(), b)
    assert def_equal(corpus_env, Context(), b, w1, None)
    assert def_equal(corpus_env, Context(), w1, b, None)


# -- infer / check ------------------------------------------------------------

def test_infer_universe():
    env = CheckEnv()
    assert infer(env, Context(), Universe(0)) == Universe(1)


def test_infer_top_universe_fails():
    env = CheckEnv()
    with pytest.raises(Exception) as e:
        infer(env, Context(), Universe(1))
    assert "E-CANNOT-INFER" in str(getattr(e.value, "diag", e.value))


def test_infer_constant_gives_declared_type(corpus_env):
    ty = infer(corpus_env, Context(), Constant("idfun"))
    assert ty == corpus_env.decls["idfun"].type


def test_infer_rejects_bare_lambda_and_pair_and_refl():
    env = CheckEnv()
    for t, code in [
        (Lambda(Var(0)), "E-CANNOT-INFER"),
        (Pair(Universe(0), Universe(0)), "E-CANNOT-INFER"),
        (Refl(Universe(0)), "E-CANNOT-INFER"),
    ]:
        d = None
        try:
            infer(env, Context(), t)
        except Exception as exc:
            d = getattr(exc, "diag", None)
        assert d is not None and d.code == code


def test_not_a_function_and_not_a_pair_codes():
    env = CheckEnv()
    d = None
    try:
        infer(env, Context(), App(Universe(0), Universe(0)))
    except Exception as exc:
        d = exc.diag
    assert d.code == "E-NOT-A-FUNCTION"
    try:
        infer(env, Context(), Fst(Universe(0)))
    except Exception as exc:
        d = exc.diag
    assert d.code == "E-NOT-A-PAIR"


def test_check_refl_accepts_and_rejects():
    _, diags, _ = _check_src(
        "def ok (A : U) (a : A) : Id A a a := refl a"
    )
    assert not diags
    _, diags, _ = _check_src(
        "def no (A : U) (a b : A) : Id A a b := refl a"
    )
    assert [d.code for d in diags] == ["E-TYPE-MISMATCH"]


def test_check_ext_app_outside_shape_reports_tope_false():
    _, diags, _ = _check_src(
        "def f (C : U) (s : ⟨{p : 2 × 2 | π₂ p ≤ π₁ p} → C⟩) : C := s (0 , 1)"
    )
    assert [d.code for d in diags] == ["E-TOPE-FALSE"]
    assert diags[0].countermodel is not None


def test_check_boundary_mismatch_reports_e_boundary():
    _, diags, _ = _check_src(
        "def hom (C : U) (x y : C) : U := ⟨Δ¹ → C | ∂Δ¹ ↦ [x , y]⟩\n"
        "def bad (C : U) (x y : C) (f : hom C x y) : hom C x x := λ (t : 2) ↦ f t"
    )
    assert [d.code for d in diags] == ["E-BOUNDARY"]


def test_check_declaration_extends_env_and_axiom_set():
    env = CheckEnv()
    decls, _, _ = parse_module("postulate ax (A : U) : A\ndef use (A : U) : A := (ax A)")
    env2, diags, usage = check_module(env, decls)
    assert not diags
    assert "ax" in env2.axioms
    assert usage["use"] == frozenset({"ax"})
    assert usage["ax"] == frozenset()


def test_check_module_failure_then_dependency():
    src = (
        "def broken (A : U) : A := A\n"
        "def dependent (A : U) : A := (broken A)"
    )
    _, diags, _ = _check_src(src)
    assert len(diags) == 2
    assert diags[0].decl == "broken"
    assert diags[1].code == "E-DEPENDS-ON-FAILED"
    assert diags[1].decl == "dependent"


def test_body_type_mismatch_leaves_env_unchanged():
    env = CheckEnv()
    decls, _, _ = parse_module("def bad (A : U) : A := U")
    env2, diags, _ = check_module(env, decls)
    assert len(diags) == 1
    assert "bad" not in env2.decls


def test_subject_reduction_over_corpus(corpus_env):
    for name, decl in corpus_env.decls.items():
        if decl.body is None:
            continue
        reduced = whnf(corpus_env, Context(), decl.body)
        assert (
            check(corpus_env, Context(), reduced, decl.type) is None
        ), f"subject reduction failed for {name}"


def test_j_computation_fires_on_corpus(corpus_env):
    assert corpus_env.j_fired > 0


def test_concat_and_inverse_compute_on_constant_paths(corpus_env):
    # refl * refl is definitionally refl, and refl^-1 is definitionally refl
    env = corpus_env
    ctx = Context().extend_term(Universe(0)).extend_term(Var(0))
    a = Var(0)
    A = Var(1)
    rfl = Refl(a)
    concat_app = App(
        App(App(App(App(App(Constant("concat"), A), a), a), a), rfl), rfl
    )
    assert def_equal(env, ctx, concat_app, rfl, Id(A, a, a))
    inv_app = App(App(App(App(Constant("path-inv"), A), a), a), rfl)
    assert def_equal(env, ctx, inv_app, rfl, Id(A, a, a))


def test_boundary_coherence_sweep(corpus_env):
    """Post hoc: every extension lambda accepted in the corpus still agrees
    with its boundary, re-verified by instrumenting the checker."""
    obligations = []

    class Recorder(Checker):
        def check(self, ctx, t, ty):
            if isinstance(t, ExtLambda):
                tyw = self.whnf(ctx, ty)
                if isinstance(tyw, ExtType):
                    obligations.append((ctx, t.body, tyw))
            return super().check(ctx, t, ty)

    env = CheckEnv()
    for name in ORDER:
        decls, _, _ = parse_module((STDLIB / name).read_text(encoding="utf-8"))
        for sdecl in decls:
            from stt.resolve import resolve

            declaration = resolve(sdecl, dict(env.decls))
            rec = Recorder(env)
            rec.type_level_or_top(Context(), declaration.type)
            if declaration.body is not None:
                rec.check(Context(), declaration.body, declaration.type)
            assert not check_declaration(env, declaration)

    assert obligations, "corpus contains extension lambdas"
    verifier = Checker(env)
    for ctx, body, tyw in obligations:
        ctx2 = ctx.extend_cube(tyw.shape.cube).extend_tope(tyw.boundary_tope)
        assert verifier.def_equal(ctx2, body, tyw.boundary, tyw.codomain)


def test_tope_hypothesis_parameters():
    """Constraint hypotheses in telescopes bind an anonymous unit coordinate
    and are discharged at use sites with the unit point."""
    _, diags, _ = _check_src(
        "def under (A : U) (t : 2) [t ≡ 0] : U := A\n"
        "def use (A : U) : U := (under A 0 ⋆)\n"
    )
    assert not diags
    _, diags, _ = _check_src(
        "def under (A : U) (t : 2) [t ≡ 0] : U := A\n"
        "def bad (A : U) : U := (under A 1 ⋆)\n"
    )
    assert [d.code for d in diags] == ["E-TOPE-FALSE"]


def test_annotation_syntax_checks_both_sides():
    _, diags, _ = _check_src("def ok (A : U) (a : A) : A := (a : A)")
    assert not diags
    _, diags, _ = _check_src("def no (A B : U) (a : A) : A := (a : B)")
    assert diags and diags[0].code == "E-TYPE-MISMATCH"


def test_duplicate_declaration_name_rejected():
    _, diags, _ = _check_src(
        "def one (A : U) : U := A\ndef one (B : U) : U := B"
    )
    assert [d.code for d in diags] == ["E-DUPLICATE-NAME"]


def test_id_sugar_infers_type_from_left_endpoint():
    _, diags, _ = _check_src(
        "def sym-type (A : U) (x y : A) (p : x ∼ y) : Id A x y := p"
    )
    assert not diags
