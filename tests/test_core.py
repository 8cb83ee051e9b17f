"""Substitution and weakening against the named-variable oracle, scope
validation, and the canonical shape table."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from stt import core as C
from stt.core import (
    CANONICAL_SHAPES,
    Context,
    CubeProd,
    CubeVar,
    INTERVAL,
    Shape,
    in_scope,
    instantiate,
    subst_cube,
    substitute,
    weaken,
    weaken_cube,
)
from stt.parser import parse_module
from stt.diagnostics import Failure
from stt.resolve import resolve

from gen_terms import children, random_cube_term, random_point, random_term, random_tope
from oracle_named import from_named, fresh, subst as named_subst, to_named


def test_weaken_var_shift():
    assert weaken(C.Var(0), 1, 0) == C.Var(1)
    assert weaken(C.Var(0), 1, 1) == C.Var(0)
    assert weaken(C.Var(3), 2, 1) == C.Var(5)


def test_weaken_closed_constant_unchanged():
    t = C.App(C.Constant("k"), C.Universe(0))
    assert weaken(t, 7, 0) == t


def test_substitute_basics():
    c = C.Constant("c")
    assert substitute(C.Var(0), 0, c) == c
    assert substitute(C.Var(1), 0, c) == C.Var(0)
    assert substitute(C.Var(0), 1, c) == C.Var(0)


def test_weaken_then_substitute_is_identity_500():
    rng = random.Random(20260809)
    for _ in range(500):
        depth = rng.randrange(0, 4)
        t = random_term(rng, depth, rng.randrange(0, 12))
        v = random_term(rng, depth, rng.randrange(0, 6))
        assert substitute(weaken(t, 1, 0), 0, v) == t


def test_substitution_composition_law_500():
    # t[0:=u][k:=v]  ==  t[k+1 := v^][0 := u[k:=v]]
    rng = random.Random(96)
    for _ in range(500):
        k = rng.randrange(0, 3)
        depth = k + 1 + rng.randrange(0, 3)
        t = random_term(rng, depth + 1, rng.randrange(0, 10))
        u = random_term(rng, depth, rng.randrange(0, 6))
        v = random_term(rng, depth - 1, rng.randrange(0, 6))
        lhs = substitute(substitute(t, 0, u), k, v)
        rhs = substitute(
            substitute(t, k + 1, weaken(v, 1, 0)), 0, substitute(u, k, v)
        )
        assert lhs == rhs


def test_weaken_substitute_commutation_500():
    # weaken(t[0:=v], n, k)  ==  weaken(t, n, k+1)[0 := weaken(v, n, k)]
    rng = random.Random(4242)
    for _ in range(500):
        depth = 1 + rng.randrange(0, 3)
        n = 1 + rng.randrange(0, 2)
        k = rng.randrange(0, depth)
        t = random_term(rng, depth, rng.randrange(0, 10))
        v = random_term(rng, depth - 1, rng.randrange(0, 6))
        lhs = weaken(substitute(t, 0, v), n, k)
        rhs = substitute(weaken(t, n, k + 1), 0, weaken(v, n, k))
        assert lhs == rhs


def test_substitute_matches_named_oracle_500():
    rng = random.Random(777)
    for _ in range(500):
        depth = 1 + rng.randrange(0, 3)
        level = rng.randrange(0, depth)
        t = random_term(rng, depth, rng.randrange(0, 10))
        v = random_term(rng, depth - 1, rng.randrange(0, 6))
        stack = [fresh("g") for _ in range(depth)]
        nt = to_named(t, stack)
        # index `level` refers to stack[depth - 1 - level]; after the
        # substitution that slot disappears from the context
        target = stack[depth - 1 - level]
        reduced_stack = [s for s in stack if s != target]
        nv = to_named(v, reduced_stack)
        expected = from_named(named_subst(nt, target, nv), reduced_stack)
        got = substitute(t, level, v)
        assert got == expected


def _one_at_a_time(t, values):
    # the highest index first, each value weakened over the slots still bound
    for j in reversed(range(len(values))):
        t = substitute(t, j, weaken(values[j], j))
    return t


@pytest.mark.parametrize("cube_terms", [False, True], ids=["terms", "cube-terms"])
def test_instantiate_equals_one_substitution_at_a_time_500(cube_terms):
    # values with free term (and cube) indices, placed under term binders
    # and, in cube terms, under cube binders too
    rng = random.Random(8080 + cube_terms)

    def term(depth, size):
        if cube_terms:
            return random_cube_term(rng, depth, 2, size)
        return random_term(rng, depth, size)

    for _ in range(500):
        depth, n = rng.randrange(0, 3), 1 + rng.randrange(0, 4)
        t = term(depth + n, rng.randrange(0, 16))
        values = tuple(term(depth, rng.randrange(0, 6)) for _ in range(n))
        assert instantiate(t, values) == _one_at_a_time(t, values)


def test_instantiate_places_each_value_at_its_index():
    a, b = C.Constant("a"), C.Constant("b")
    body = C.Lambda(C.Pair(C.Var(1), C.Pair(C.Var(2), C.Var(3))))
    assert instantiate(body, (a, b)) == C.Lambda(C.Pair(a, C.Pair(b, C.Var(1))))


def test_inst_motive_equals_three_substitutions_500():
    from stt.checker import _inst_motive

    rng = random.Random(8082)
    for _ in range(500):
        depth, cubes = rng.randrange(0, 3), rng.randrange(0, 2)
        m = random_cube_term(rng, depth + 3, cubes, rng.randrange(0, 14))
        a, b, q = (random_cube_term(rng, depth, cubes, rng.randrange(0, 6)) for _ in range(3))
        three_steps = substitute(
            substitute(substitute(m, 2, weaken(a, 2)), 1, weaken(b, 1)), 0, q
        )
        assert _inst_motive(m, a, b, q) == three_steps


# -- the cube layer: terms with extension types, splits, points and topes ----

def _under_cube_binder(bound, free):
    # every place a point can sit below the cube binder of an extension type
    return C.ExtType(
        Shape(INTERVAL, C.TopeLeq(bound, free)),
        C.ExtApp(C.Var(0), free),
        C.TopeEq(bound, free),
        C.Split(((C.TopeLeq(bound, free), C.ExtApp(C.Var(0), bound)),)),
    )


def test_cube_binders_are_counted_in_every_position():
    t = _under_cube_binder(CubeVar(0), CubeVar(1))
    assert subst_cube(t, 0, C.ONE) == _under_cube_binder(CubeVar(0), C.ONE)
    assert weaken_cube(t, 1, 0) == _under_cube_binder(CubeVar(0), CubeVar(2))
    lam = C.ExtLambda(C.ExtApp(C.Var(0), C.PointPair(CubeVar(0), CubeVar(1))))
    assert subst_cube(lam, 0, C.ZERO) == C.ExtLambda(
        C.ExtApp(C.Var(0), C.PointPair(CubeVar(0), C.ZERO))
    )
    # a substituted term value is shifted over the cube and term binders it lands under
    v = C.ExtApp(C.Var(0), CubeVar(0))
    got = substitute(C.Lambda(C.ExtLambda(C.App(C.Var(1), C.Var(0)))), 0, v)
    assert got == C.Lambda(C.ExtLambda(C.App(C.ExtApp(C.Var(1), CubeVar(1)), C.Var(0))))


def test_cube_weaken_then_subst_cube_is_identity_500():
    rng = random.Random(31)
    for _ in range(500):
        depth, cubes = rng.randrange(0, 3), rng.randrange(0, 3)
        t = random_cube_term(rng, depth, cubes, rng.randrange(0, 14))
        p = random_point(rng, cubes, rng.randrange(0, 4))
        assert subst_cube(weaken_cube(t, 1, 0), 0, p) == t


def test_weaken_then_substitute_is_identity_on_cube_terms_500():
    rng = random.Random(32)
    for _ in range(500):
        depth, cubes = rng.randrange(0, 3), rng.randrange(0, 3)
        t = random_cube_term(rng, depth, cubes, rng.randrange(0, 14))
        v = random_cube_term(rng, depth, cubes, rng.randrange(0, 6))
        assert substitute(weaken(t, 1, 0), 0, v) == t


def test_weaken_cube_commutes_with_substitute_500():
    # weaken_cube(t[0:=v], 1, 0)  ==  weaken_cube(t, 1, 0)[0 := weaken_cube(v, 1, 0)]
    rng = random.Random(33)
    for _ in range(500):
        depth, cubes = 1 + rng.randrange(0, 3), rng.randrange(0, 3)
        t = random_cube_term(rng, depth, cubes, rng.randrange(0, 14))
        v = random_cube_term(rng, depth - 1, cubes, rng.randrange(0, 6))
        lhs = weaken_cube(substitute(t, 0, v), 1, 0)
        rhs = substitute(weaken_cube(t, 1, 0), 0, weaken_cube(v, 1, 0))
        assert lhs == rhs


def test_weaken_cube_commutes_with_subst_cube_500():
    # weaken_cube(t[0:=p], n, k)  ==  weaken_cube(t, n, k+1)[0 := weaken_cube(p, n, k)]
    rng = random.Random(34)
    for _ in range(500):
        depth, cubes = rng.randrange(0, 3), 1 + rng.randrange(0, 3)
        n, k = 1 + rng.randrange(0, 2), rng.randrange(0, cubes)
        t = random_cube_term(rng, depth, cubes, rng.randrange(0, 14))
        p = random_point(rng, cubes - 1, rng.randrange(0, 4))
        lhs = weaken_cube(subst_cube(t, 0, p), n, k)
        rhs = subst_cube(weaken_cube(t, n, k + 1), 0, weaken_cube(p, n, k))
        assert lhs == rhs


def test_tope_weaken_then_subst_and_commutation_500():
    rng = random.Random(35)
    for _ in range(500):
        cubes = 1 + rng.randrange(0, 3)
        n, k = 1 + rng.randrange(0, 2), rng.randrange(0, cubes)
        phi = random_tope(rng, cubes, rng.randrange(0, 8))
        p = random_point(rng, cubes - 1, rng.randrange(0, 4))
        assert subst_cube(weaken_cube(phi, 1, 0), 0, p) == phi
        lhs = weaken_cube(subst_cube(phi, 0, p), n, k)
        rhs = subst_cube(weaken_cube(phi, n, k + 1), 0, weaken_cube(p, n, k))
        assert lhs == rhs


def test_scope_validation_accepts_resolver_output():
    src = """
def k (A : U) : U := A
def f (A : U) (x : A) : A := (λ a ↦ a) x
"""
    decls, diags, _ = parse_module(src)
    assert not diags
    env = {}
    for d in decls:
        res = resolve(d, env)
        assert in_scope(res.type, 0, 0)
        if res.body is not None:
            assert in_scope(res.body, 0, 0)
        env[res.name] = res


def test_scope_validation_rejects_loose_indices():
    assert not in_scope(C.Var(0), 0, 0)
    assert not in_scope(C.Lambda(C.Var(2)), 0, 1)
    assert in_scope(C.Lambda(C.Var(1)), 0, 1)


@pytest.mark.parametrize("name", sorted(CANONICAL_SHAPES))
def test_canonical_shape_constraints_well_scoped(name):
    shape = CANONICAL_SHAPES[name]
    assert in_scope(shape, 0, 0)


def test_canonical_shape_table_entries():
    assert CANONICAL_SHAPES["Delta1"].cube == INTERVAL
    assert CANONICAL_SHAPES["Delta2"].cube == CubeProd(INTERVAL, INTERVAL)
    assert CANONICAL_SHAPES["Lambda21"].cube == CubeProd(INTERVAL, INTERVAL)
    assert CANONICAL_SHAPES["dDelta1"].cube == INTERVAL
    assert CANONICAL_SHAPES["Delta1xDelta1"].constraint == C.TOP


def test_context_zones_shift_under_cube_extension():
    ctx = Context().extend_term(C.Universe(0))
    ctx = ctx.extend_tope(C.TopeEq(C.ZERO, C.ZERO))
    ctx2 = ctx.extend_cube(INTERVAL)
    # a new coordinate at index 0 renumbers nothing in the term zone and
    # leaves constant topes alone
    assert ctx2.term_type(0) == C.Universe(0)
    assert ctx2.topes == (C.TopeEq(C.ZERO, C.ZERO),)
    ctx3 = Context(cubes=(INTERVAL,), topes=(C.TopeEq(CubeVar(0), C.ZERO),))
    ctx4 = ctx3.extend_cube(INTERVAL)
    assert ctx4.topes == (C.TopeEq(CubeVar(1), C.ZERO),)


# twenty hand-written shadowing cases: surface body, context-free, against
# the expected nameless image
_SHADOWING = [
    ("λ a ↦ a", C.Lambda(C.Var(0))),
    ("λ a ↦ λ a ↦ a", C.Lambda(C.Lambda(C.Var(0)))),
    ("λ a ↦ λ b ↦ a", C.Lambda(C.Lambda(C.Var(1)))),
    ("λ a ↦ λ b ↦ b", C.Lambda(C.Lambda(C.Var(0)))),
    ("λ a b ↦ a", C.Lambda(C.Lambda(C.Var(1)))),
    ("λ a ↦ λ b ↦ λ a ↦ a", C.Lambda(C.Lambda(C.Lambda(C.Var(0))))),
    ("λ a ↦ λ b ↦ λ a ↦ b", C.Lambda(C.Lambda(C.Lambda(C.Var(1))))),
    ("λ a ↦ λ a ↦ λ a ↦ a", C.Lambda(C.Lambda(C.Lambda(C.Var(0))))),
    ("λ a ↦ (λ a ↦ a) a", C.Lambda(C.App(C.Lambda(C.Var(0)), C.Var(0)))),
    ("λ a ↦ (λ b ↦ b) a", C.Lambda(C.App(C.Lambda(C.Var(0)), C.Var(0)))),
    ("λ a ↦ (λ b ↦ a) a", C.Lambda(C.App(C.Lambda(C.Var(1)), C.Var(0)))),
    ("λ f a ↦ f a", C.Lambda(C.Lambda(C.App(C.Var(1), C.Var(0))))),
    ("λ f a ↦ f (f a)", C.Lambda(C.Lambda(C.App(C.Var(1), C.App(C.Var(1), C.Var(0)))))),
    ("λ a ↦ (a , a)", C.Lambda(C.Pair(C.Var(0), C.Var(0)))),
    ("λ a ↦ λ b ↦ (b , a)", C.Lambda(C.Lambda(C.Pair(C.Var(0), C.Var(1))))),
    ("λ a ↦ fst a", C.Lambda(C.Fst(C.Var(0)))),
    ("λ a ↦ refl a", C.Lambda(C.Refl(C.Var(0)))),
    (
        "λ a ↦ λ b ↦ Id U a b",
        C.Lambda(C.Lambda(C.Id(C.Universe(0), C.Var(1), C.Var(0)))),
    ),
    (
        "λ p ↦ ind-path (λ x y q ↦ x ∼ y) (λ x ↦ refl x) p",
        C.Lambda(
            C.IndPath(
                C.Id(None, C.Var(2), C.Var(1)),
                C.Refl(C.Var(0)),
                C.Var(0),
            )
        ),
    ),
    (
        "λ a ↦ Σ (a : U), a",
        C.Lambda(C.Sigma(C.Universe(0), C.Var(0))),
    ),
]


@pytest.mark.parametrize("src,expected", _SHADOWING, ids=[s for s, _ in _SHADOWING])
def test_resolver_shadowing_cases(src, expected):
    from stt.parser import parse_expr
    from stt.resolve import Resolver

    got = Resolver({}).resolve_term(parse_expr(src))
    assert got == expected


# a form of one layer written where another is expected: the E-RESOLVE
# each raises, with its message and its (line, col, end_line, end_col)
_MISPLACED = [
    ("def d (A : U) : U := Δ²", "shape 'Delta2' cannot be used as a term", (1, 22, 1, 24)),
    ("def d (A : U) : U := ⋆", "point '⋆' used in term position", (1, 22, 1, 23)),
    ("def d (A : U) : U := ⊤", "tope syntax in term position", (1, 22, 1, 23)),
    ("def d (A : U) : U := ⊥", "tope syntax in term position", (1, 22, 1, 23)),
    ("def d (A : U) : U := A ≤ A", "tope syntax in term position", (1, 22, 1, 27)),
    ("def d (A : U) : U := A ∧ A", "tope syntax in term position", (1, 22, 1, 27)),
    ("def d (A : U) : U := π₁ U", "point projection used in term position", (1, 22, 1, 26)),
    (
        "def d (A : U) : U := 0",
        "numeral is only meaningful as an interval point",
        (1, 22, 1, 23),
    ),
    ("def d (A : U) : U := 2 × 2", "cube used as a term", (1, 22, 1, 27)),
    ("def d (t : 2) [t ≡ 0 ∧ U] : U := U", "expected a tope", (1, 24, 1, 25)),
    ("def d (A : U) : ⟨{t : 2 | U} → A⟩ := A", "expected a tope", (1, 27, 1, 28)),
    ("def d (A : U) : ⟨⋆ → A⟩ := A", "expected a cube (1, 2, or a product)", (1, 18, 1, 19)),
    ("def d (A : U) : ⟨U → A⟩ := A", "expected a cube (1, 2, or a product)", (1, 18, 1, 19)),
    # the innermost part that is not a point or a cube is blamed
    ("def d (t : 2) [t ≤ (t , x)] : U := U", "'x' is not an interval coordinate", (1, 25, 1, 26)),
    ("def d (A : U) : ⟨2 × x → A⟩ := A", "expected a cube (1, 2, or a product)", (1, 22, 1, 23)),
    (
        "def d (A : U) : ⟨2 × (1 × q) → A⟩ := A",
        "expected a cube (1, 2, or a product)",
        (1, 27, 1, 28),
    ),
    (
        "def d (t : 2) [π₁ (t , y) ≤ π₂ t] : U := U",
        "'y' is not an interval coordinate",
        (1, 24, 1, 25),
    ),
    ("def d (t : 2) [π₁ z ≤ t] : U := U", "'z' is not an interval coordinate", (1, 19, 1, 20)),
    ("def d (t : 2) [3 ≤ t] : U := U", "expected an interval point", (1, 16, 1, 17)),
    (
        "def d : U := Π (s : 2 × 2) , U",
        "Π/Σ cannot bind interval coordinates; use an extension type",
        (1, 16, 1, 27),
    ),
    (
        "def d (A : U) : U := λ (t : 2 × z) ↦ A",
        "λ binder annotations must be cubes; term binders are typed by the expected Π type",
        (1, 29, 1, 34),
    ),
]


@pytest.mark.parametrize("src,message,span", _MISPLACED, ids=[s for s, _, _ in _MISPLACED])
def test_misplaced_forms_are_resolve_errors(src, message, span):
    (decl,), diags, _ = parse_module(src)
    assert not diags
    with pytest.raises(Failure) as info:
        resolve(decl, {})
    e = info.value.diag
    got_span = (e.span.line, e.span.col, e.span.end_line, e.span.end_col)
    assert (e.code, e.message, got_span) == ("E-RESOLVE", message, span)


def test_children_enter_the_fields_walk_enters_500():
    # the depth-one nodes of ``subterms``: every term-valued field, and every
    # split branch, is a child, in field order; and each child sits under the
    # binders the index walk counts: weakening the node in both namespaces
    # weakens each child at its depth
    rng = random.Random(36)
    stack = [C.Annot(C.Var(0), C.Id(None, C.Var(1), C.Refl(C.Var(0))))]
    for _ in range(500):
        depth, cubes = rng.randrange(0, 3), rng.randrange(0, 3)
        stack.append(random_cube_term(rng, depth, cubes, rng.randrange(0, 14)))
        stack.append(random_term(rng, depth, rng.randrange(0, 10)))
    seen = set()
    while stack:
        t = stack.pop()
        seen.add(type(t))
        kids = children(t)
        if isinstance(t, C.Split):
            fields = [b for _, b in t.branches]
        else:
            fields = [getattr(t, f) for f in t.__match_args__]
        assert [s for s, _, _ in kids] == [v for v in fields if isinstance(v, C.Term)]
        shifted = children(weaken_cube(weaken(t, 1, 0), 1, 0))
        assert [s for s, _, _ in shifted] == [
            weaken_cube(weaken(s, 1, k), 1, c) for s, k, c in kids
        ]
        stack.extend(s for s, _, _ in kids)
    assert seen == set(C.Term.__args__)


def test_scope_and_stuck_walks_do_not_recurse():
    # 3,000 nodes deep in a Π codomain, in an argument, and inside an Id
    from stt.checker import _stuck

    pis, args = C.Var(0), C.Constant("c")
    loose, redex = C.Var(3000), C.App(C.Lambda(C.Var(0)), C.Lambda(C.Var(0)))
    for _ in range(3000):
        pis, args = C.Pi(C.U0, pis), C.App(C.Constant("f"), args)
        loose, redex = C.Pi(C.U0, loose), C.App(C.Constant("f"), redex)
    for t in (pis, args, C.Id(None, args, args)):
        assert in_scope(t, 0, 0)
        assert not _stuck(t)
    # and each still sees the innermost node
    assert not in_scope(loose, 0, 0) and in_scope(loose, 0, 1)
    assert _stuck(redex)


def test_every_core_node_class_has_one_spec_per_field():
    # a node class left out of the field table would reach no walk
    classes = {
        cls for cls in vars(C).values()
        if isinstance(cls, type) and issubclass(cls, C.Node) and cls.__module__ == C.__name__
    }
    assert set(C.FIELDS) == classes - {C.Node}
    for cls, specs in C.FIELDS.items():
        assert len(specs) == len(cls.__match_args__), cls


def test_node_semantics():
    # nodes are tuples whose equality also compares the class, and which hash
    # like their field tuple, which fixes the iteration order of node sets
    from stt import surface as S
    from stt.lexer import Span

    v, span = C.Var(0), Span(0, 1, 1, 1, 1, 2)
    a, b = C.Universe(0), C.Pi(C.Var(0), C.Var(1))
    assert C.Fst(v) != C.Snd(v) and not C.Fst(v) == C.Snd(v)
    assert C.Var(0) != (0,) and (0,) != C.Var(0)
    assert C.Fst(v) == C.Fst(C.Var(0)) and not C.Fst(v) != C.Fst(C.Var(0))
    assert hash(C.Pi(a, b)) == hash((a, b))
    assert S.SName(span, "x") != S.SNat(span, "x")
    assert hash(S.SName(span, "x")) == hash((span, "x"))
    for node, field in ((C.Pi(a, b), "domain"), (S.SName(span, "x"), "text")):
        with pytest.raises(AttributeError):
            setattr(node, field, a)
        with pytest.raises(AttributeError):
            node.extra = a
    with pytest.raises(TypeError):
        C.Pi(a)
    with pytest.raises(TypeError):
        S.SName(span, "x", "y")
    assert C.Pi.__match_args__ == ("domain", "codomain")
    assert C.ExtType.__match_args__ == ("shape", "codomain", "boundary_tope", "boundary")
    assert S.SName.__match_args__ == ("span", "text")
    assert S.SExt.__match_args__ == ("span", "shape", "codomain", "tope", "boundary")
    assert (C.Pi(a, b).domain, S.SName(span, "x").text) == (a, "x")
    assert repr(C.Pi(a, v)) == "Pi(domain=Universe(level=0), codomain=Var(index=0))"


def test_resolver_walks_a_long_redex_spine_without_recursing():
    """The spine of ``(λ x₀ … xₙ₋₁ ↦ x₀) c … c`` and the λ's binders are
    walked by loops, so n = 600 resolves under the default recursion limit."""
    n = 600
    binders = " ".join(f"x{i}" for i in range(n))
    src = f"def s : T := (λ {binders} ↦ x0)" + " c" * n
    (decl,), diags, _ = parse_module(src)
    assert diags == [] and sys.getrecursionlimit() == 1000
    term = resolve(decl, {"T": object(), "c": object()}).body
    for _ in range(n):
        assert isinstance(term, C.App) and term.arg == C.Constant("c")
        term = term.fn
    for _ in range(n):
        assert isinstance(term, C.Lambda)
        term = term.body
    assert term == C.Var(n - 1)


def _copy(t):
    """A structurally equal term that shares no tuple with ``t``."""
    return tuple.__new__(type(t), [_copy(v) if isinstance(v, tuple) else v for v in t])


def _assert_same_classes(a, b):
    assert type(a) is type(b), (a, b)
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_classes(x, y)


def _nodes(t):
    if isinstance(t, C.Node):
        yield t
    if isinstance(t, tuple):
        for v in t:
            yield from _nodes(v)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_share_returns_the_same_term_built_of_canonical_nodes(rng):
    table: dict = {}
    depth, cubes = rng.randrange(0, 3), rng.randrange(0, 3)
    t = random_cube_term(rng, depth, cubes, rng.randrange(0, 16))
    shared = C.share(t, table)
    assert shared == t
    _assert_same_classes(shared, t)
    assert all(table[n] is n for n in _nodes(shared))
    assert all(isinstance(k, C.Node) for k in table)  # Split branches are not keyed
    assert C.share(shared, table) is shared
    assert C.share(_copy(t), table) is shared
    both = C.share(C.App(_copy(t), _copy(t)), table)
    assert both.fn is shared and both.arg is shared


def test_share_keeps_nodes_of_different_classes_apart():
    table: dict = {}
    x, b = C.Constant("x"), C.Var(1)
    pairs = [(C.Var(0), C.Universe(0)), (C.Fst(x), C.Snd(x)), (C.Lambda(b), C.ExtLambda(b))]
    for p, q in pairs:
        assert hash(p) == hash(q)  # only the class tells them apart
        sp, sq = C.share(p, table), C.share(q, table)
        assert sp is not sq and (type(sp), type(sq)) == (type(p), type(q))
        assert (sp, sq) == (p, q)
    # Var(0), Universe(0), x, Fst(x), Snd(x), Var(1), Lambda(b), ExtLambda(b)
    assert len(table) == 8
