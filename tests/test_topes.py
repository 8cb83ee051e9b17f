"""Tope solver contracts: model counts against an independent generator,
the named order axioms, shape inclusions, and the logic properties."""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings, strategies as st

from stt.core import (
    CubeProd,
    CubeVar,
    INTERVAL,
    ONE,
    PointFst,
    PointSnd,
    SHAPE_ENDPOINTS,
    SHAPE_INNER_HORN,
    SHAPE_SQUARE,
    SHAPE_TRIANGLE,
    Shape,
    TOP,
    BOT,
    TopeAnd,
    TopeEq,
    TopeLeq,
    TopeOr,
    ZERO,
)
from stt.topes import (
    WeakOrderModel,
    atoms,
    clear_memo,
    countermodel,
    enumerate_models,
    shape_included,
    tope_consistent,
    tope_entails,
)

X, Y, Z = CubeVar(2), CubeVar(1), CubeVar(0)
CTX3 = [INTERVAL, INTERVAL, INTERVAL]


# -- independent oracle ------------------------------------------------------

import functools


@functools.lru_cache(maxsize=None)
def oracle_models(n_atoms: int):
    """Exhaustive generation of the weak orderings of n atoms in the closed
    chain, independent of the production enumerator: every rank function
    into a large chain, deduplicated by order type."""
    K = 2 * n_atoms + 2
    seen = {}
    for vals in itertools.product(range(K + 1), repeat=n_atoms):
        items = list(vals) + [0, K]
        sig = tuple(
            tuple(0 if a < b else (1 if a == b else 2) for b in items) for a in items
        )
        if sig not in seen:
            seen[sig] = vals
    return list(seen.values())


def oracle_eval(vals, K, tope, atom_index):
    def pt(p):
        match p:
            case _ if p == ZERO:
                return 0
            case _ if p == ONE:
                return K
            case _:
                return vals[atom_index[_flat(p)]]

    def _flat(p):
        path = []
        while isinstance(p, (PointFst, PointSnd)):
            path.append(0 if isinstance(p, PointFst) else 1)
            p = p.point
        return (p.index, tuple(reversed(path)))

    match tope:
        case _ if tope == TOP:
            return True
        case _ if tope == BOT:
            return False
        case TopeLeq(l, r):
            return pt(l) <= pt(r)
        case TopeEq(l, r):
            return pt(l) == pt(r)
        case TopeAnd(l, r):
            return oracle_eval(vals, K, l, atom_index) and oracle_eval(
                vals, K, r, atom_index
            )
        case TopeOr(l, r):
            return oracle_eval(vals, K, l, atom_index) or oracle_eval(
                vals, K, r, atom_index
            )
    raise AssertionError(tope)


def oracle_entails(n_atoms, hyps, goal):
    """Semantic entailment decided by the independent generator."""
    K = 2 * n_atoms + 2
    atom_index = {(i, ()): i for i in range(n_atoms)}
    for vals in oracle_models(n_atoms):
        if all(oracle_eval(vals, K, h, atom_index) for h in hyps):
            if not oracle_eval(vals, K, goal, atom_index):
                return False
    return True


# -- model counts ------------------------------------------------------------

def test_model_counts_match_independent_generation():
    for n in range(0, 4):
        got = len(enumerate_models([INTERVAL] * n, atoms([INTERVAL] * n), []))
        want = len(oracle_models(n))
        assert got == want, (n, got, want)


def test_one_atom_has_three_models():
    assert len(enumerate_models([INTERVAL], atoms([INTERVAL]), [])) == 3


def test_two_atoms_model_count_frozen():
    # frozen from the independent exhaustive generation above
    assert len(oracle_models(2)) == 11
    assert len(enumerate_models([INTERVAL, INTERVAL], atoms([INTERVAL, INTERVAL]), [])) == 11


def test_atoms_flattening():
    assert atoms([INTERVAL]) == [(0, ())]
    assert atoms([CubeProd(INTERVAL, INTERVAL)]) == [(0, (0,)), (0, (1,))]
    assert atoms([INTERVAL, CubeProd(INTERVAL, INTERVAL)]) == [
        (0, ()),
        (1, (0,)),
        (1, (1,)),
    ]


def test_contradictory_hypotheses_have_no_models():
    hyps = [TopeAnd(TopeEq(CubeVar(0), ZERO), TopeEq(CubeVar(0), ONE))]
    assert enumerate_models([INTERVAL], [(0, ())], hyps) == []


# -- named entailments -------------------------------------------------------

def test_reflexivity():
    assert tope_entails(CTX3, [], TopeLeq(X, X))


def test_antisymmetry_yields_equality():
    assert tope_entails(CTX3, [TopeLeq(X, Y), TopeLeq(Y, X)], TopeEq(X, Y))


def test_transitivity():
    assert tope_entails(CTX3, [TopeLeq(X, Y), TopeLeq(Y, Z)], TopeLeq(X, Z))


def test_totality_disjunction():
    assert tope_entails(CTX3, [], TopeOr(TopeLeq(X, Y), TopeLeq(Y, X)))


def test_endpoints_distinct():
    assert not tope_entails([], [], TopeEq(ZERO, ONE))
    assert not tope_consistent([], [TopeEq(ZERO, ONE)])


def test_converse_of_hypothesis_fails():
    assert not tope_entails(CTX3, [TopeLeq(X, Y)], TopeLeq(Y, X))


def test_consistency_examples():
    assert tope_consistent([], [])
    t = CubeVar(0)
    assert not tope_consistent([INTERVAL], [TopeLeq(t, ZERO), TopeLeq(ONE, t)])


def test_shape_inclusions():
    assert shape_included(SHAPE_INNER_HORN, SHAPE_TRIANGLE)
    assert shape_included(SHAPE_TRIANGLE, SHAPE_SQUARE)
    assert not shape_included(SHAPE_TRIANGLE, SHAPE_INNER_HORN)
    assert shape_included(SHAPE_ENDPOINTS, Shape(INTERVAL, TOP))


def test_shape_inclusion_requires_matching_cube():
    import pytest

    with pytest.raises(ValueError):
        shape_included(SHAPE_ENDPOINTS, SHAPE_TRIANGLE)


def test_countermodel_for_failed_inclusion():
    m = countermodel(
        [SHAPE_TRIANGLE.cube],
        [SHAPE_TRIANGLE.constraint],
        SHAPE_INNER_HORN.constraint,
    )
    assert m is not None
    # the interior diagonal point witnesses the failure
    assert m.value_strings() == {"x0.1": "mid", "x0.2": "mid"}
    assert m.satisfies([SHAPE_TRIANGLE.cube], SHAPE_TRIANGLE.constraint)
    assert not m.satisfies([SHAPE_TRIANGLE.cube], SHAPE_INNER_HORN.constraint)


def test_product_equality_expands_componentwise():
    p, q = CubeVar(1), CubeVar(0)
    ctx = [CubeProd(INTERVAL, INTERVAL), CubeProd(INTERVAL, INTERVAL)]
    assert tope_entails(ctx, [TopeEq(p, q)], TopeEq(PointFst(p), PointFst(q)))
    assert tope_entails(ctx, [TopeEq(p, q)], TopeEq(PointSnd(p), PointSnd(q)))
    assert tope_entails(
        ctx,
        [TopeEq(PointFst(p), PointFst(q)), TopeEq(PointSnd(p), PointSnd(q))],
        TopeEq(p, q),
    )
    assert not tope_entails(ctx, [TopeEq(PointFst(p), PointFst(q))], TopeEq(p, q))


# -- random atomic sequent strategy -------------------------------------------

def _points(n):
    return [ZERO, ONE] + [CubeVar(i) for i in range(n)]


def _tope_over(rng, pts, depth):
    roll = 0.0 if depth == 0 else rng.random()
    if roll < 0.4:
        l, r = rng.choice(pts), rng.choice(pts)
        return TopeLeq(l, r) if rng.random() < 0.5 else TopeEq(l, r)
    ctor = TopeAnd if roll < 0.7 else TopeOr
    return ctor(_tope_over(rng, pts, depth - 1), _tope_over(rng, pts, depth - 1))


def _tope(rng, n, depth):
    return _tope_over(rng, _points(n), depth)


def _coordinate(var, path):
    for step in path:
        var = PointFst(var) if step == 0 else PointSnd(var)
    return var


def _points_of(t):
    match t:
        case TopeLeq(l, r) | TopeEq(l, r):
            return {l, r}
        case TopeAnd(l, r) | TopeOr(l, r):
            return _points_of(l) | _points_of(r)
    return set()


SQUARE = CubeProd(INTERVAL, INTERVAL)


def test_countermodel_is_the_first_violating_model_over_sorted_atoms():
    rng = random.Random(20261018)
    violated = 0
    for ctx in (CTX3, [SQUARE, SQUARE], [SQUARE, INTERVAL, INTERVAL]):
        depth = len(ctx)
        pts = [ZERO, ONE]
        pts += [_coordinate(CubeVar(depth - 1 - pos), path) for pos, path in atoms(ctx)]
        squares = [CubeVar(depth - 1 - pos) for pos, c in enumerate(ctx) if c == SQUARE]
        for _ in range(150):
            hyps = [_tope_over(rng, pts, 2) for _ in range(rng.randrange(0, 3))]
            if len(squares) == 2 and rng.random() < 0.5:
                hyps.append(TopeEq(*squares))  # expands componentwise
            goal = _tope_over(rng, pts, 2)
            seen = set().union(*map(_points_of, hyps + [goal]))
            # a coordinate is mentioned by itself or by an equation between squares
            mentioned = sorted(
                (pos, path)
                for pos, path in atoms(ctx)
                if {CubeVar(depth - 1 - pos), _coordinate(CubeVar(depth - 1 - pos), path)} & seen
            )
            models = enumerate_models(ctx, mentioned, hyps)
            want = next((m for m in models if not m.satisfies(ctx, goal)), None)
            found = countermodel(ctx, hyps, goal)
            assert found == want, (ctx, hyps, goal)
            assert tope_entails(ctx, hyps, goal) == (found is None), (ctx, hyps, goal)
            violated += want is not None
    assert violated > 100


@st.composite
def permuted_queries(draw, n=3):
    def tope(depth):
        pts = _points(n)
        if depth == 0 or draw(st.booleans()):
            l, r = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
            return TopeLeq(l, r) if draw(st.booleans()) else TopeEq(l, r)
        ctor = TopeAnd if draw(st.booleans()) else TopeOr
        return ctor(tope(depth - 1), tope(depth - 1))

    hyps = [tope(2) for _ in range(draw(st.integers(0, 3)))]
    goal = tope(2)
    perm = draw(st.permutations(range(n)))
    order = draw(st.permutations(range(len(hyps))))
    return hyps, goal, perm, order


def _renamed(t, perm):
    def point(p):
        return CubeVar(perm[p.index]) if isinstance(p, CubeVar) else p

    match t:
        case TopeLeq(l, r):
            return TopeLeq(point(l), point(r))
        case TopeEq(l, r):
            return TopeEq(point(l), point(r))
        case TopeAnd(l, r):
            return TopeAnd(_renamed(l, perm), _renamed(r, perm))
        case TopeOr(l, r):
            return TopeOr(_renamed(l, perm), _renamed(r, perm))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(permuted_queries())
def test_verdicts_survive_permuted_coordinates_and_reordered_hypotheses(query):
    hyps, goal, perm, order = query
    want = oracle_entails(3, hyps, goal)
    assert tope_entails(CTX3, hyps, goal) == want
    moved = [_renamed(hyps[i], perm) for i in order]
    assert tope_entails(CTX3, moved, _renamed(goal, perm)) == want


# -- logic properties ---------------------------------------------------------

@st.composite
def atomic_topes(draw, n=2):
    pts = _points(n)
    l = draw(st.sampled_from(pts))
    r = draw(st.sampled_from(pts))
    return TopeLeq(l, r) if draw(st.booleans()) else TopeEq(l, r)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(atomic_topes(), max_size=3),
    atomic_topes(),
    atomic_topes(),
)
def test_monotonicity(hyps, extra, goal):
    ctx = [INTERVAL, INTERVAL]
    if tope_entails(ctx, hyps, goal):
        assert tope_entails(ctx, hyps + [extra], goal)


@settings(max_examples=200, deadline=None)
@given(st.lists(atomic_topes(), max_size=2), atomic_topes(), atomic_topes())
def test_deduction(hyps, psi, goal):
    ctx = [INTERVAL, INTERVAL]
    lhs = tope_entails(ctx, hyps + [psi], goal)
    rhs = oracle_entails(2, hyps + [psi], goal)
    assert lhs == rhs


def test_memoization_transparency():
    ctx = [INTERVAL, INTERVAL]
    query = ([TopeLeq(CubeVar(0), CubeVar(1))], TopeLeq(CubeVar(1), CubeVar(0)))
    clear_memo()
    cold = tope_entails(ctx, *query)
    warm = tope_entails(ctx, *query)
    assert cold == warm
    # hypothesis order does not change results
    h1, h2 = TopeLeq(CubeVar(0), CubeVar(1)), TopeLeq(CubeVar(1), CubeVar(0))
    assert tope_entails(ctx, [h1, h2], TopeEq(CubeVar(0), CubeVar(1))) == tope_entails(
        ctx, [h2, h1], TopeEq(CubeVar(0), CubeVar(1))
    )


def test_memo_stays_within_its_cap(monkeypatch):
    import stt.topes

    rng = random.Random(20260810)
    ctx = [INTERVAL, INTERVAL, INTERVAL]
    queries = []
    for _ in range(200):
        hyps = [_tope(rng, 3, 2) for _ in range(rng.randrange(0, 3))]
        queries.append((hyps, _tope(rng, 3, 2)))
    clear_memo()
    unbounded = [tope_entails(ctx, h, g) for h, g in queries]
    assert len(stt.topes._memo) > 8
    monkeypatch.setattr(stt.topes, "_MEMO_MAX", 8)
    clear_memo()
    for (h, g), want in zip(queries + queries, unbounded + unbounded):
        assert tope_entails(ctx, h, g) == want == oracle_entails(3, h, g)
        assert len(stt.topes._memo) <= 8
    clear_memo()


def test_degenerate_constant_only_queries():
    assert tope_entails([], [], TopeLeq(ZERO, ONE))
    assert tope_entails([], [], TopeEq(ZERO, ZERO))
    assert not tope_entails([], [], TopeLeq(ONE, ZERO))
    assert tope_entails([], [TopeLeq(ONE, ZERO)], BOT)
