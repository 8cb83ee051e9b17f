"""Decision procedure for the constraint logic of the directed interval.

Hypotheses and goals are built from <=, ===, /\\, \\/, TOP, BOT over interval
coordinates and the constants 0, 1.  The axioms of the theory say <= is a
bounded total order with bottom 0 and top 1, so a query has a countermodel
iff it has one among the finite weak orderings of the coordinates it
mentions.  The backend therefore enumerates those orderings exhaustively;
soundness and completeness hold by construction, and exactness is cheap
because realistic queries involve at most four coordinates.

Verdicts are memoized on the query as asked: the cube context, the
hypotheses in their given order and the goal, with no canonical form, so a
reordered or renamed query is a new entry.  The memo is cleared when it
reaches ``_MEMO_MAX`` entries.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import (
    Cube,
    CubeInterval,
    CubePoint,
    CubeProd,
    CubeUnit,
    CubeVar,
    One,
    PointFst,
    PointPair,
    PointSnd,
    Shape,
    Star,
    Tope,
    TopeAnd,
    TopeBottom,
    TopeEq,
    TopeLeq,
    TopeOr,
    TopeTop,
    Zero,
    TOP,
    BOT,
)


Atom = tuple[int, tuple[int, ...]]  # (declaration position, projection path)


class WeakOrderModel(NamedTuple):
    """One weak ordering of the atoms within the closed chain 0 < 1.

    Rank 0 is the bottom, rank ``levels + 1`` the top, and ranks 1..levels
    are the strictly intermediate values in increasing order.
    """

    levels: int
    assignment: tuple[tuple[Atom, int], ...]

    def satisfies(self, tope: Tope) -> bool:
        """Whether the model satisfies a tope in atomic form over its atoms."""
        table = {a: k for k, (a, _) in enumerate(self.assignment, 2)}
        ranks = tuple(r for _, r in self.assignment)
        return _holds(_numbered(tope, table), (0, self.levels + 1, *ranks))

    def value_strings(self) -> dict[Atom, str]:
        out = {}
        for a, r in self.assignment:
            if r == 0:
                out[a] = "0"
            elif r == self.levels + 1:
                out[a] = "1"
            elif self.levels == 1:
                out[a] = "mid"
            else:
                out[a] = f"mid{r}"
        return out


# ---------------------------------------------------------------------------
# Atoms and normalization

def atoms(cube_context: list[Cube] | tuple[Cube, ...]) -> list[Atom]:
    """Flatten a cube context into interval coordinates, declaration order.

    Position j in the result names coordinates of the j-th declared cube
    variable; products contribute one atom per interval leaf, unit cubes
    contribute none.
    """
    out: list[Atom] = []
    for pos, cube in enumerate(cube_context):
        out.extend((pos, path) for path in _leaf_paths(cube))
    return out


def _leaf_paths(cube: Cube) -> list[tuple[int, ...]]:
    match cube:
        case CubeUnit():
            return []
        case CubeInterval():
            return [()]
        case CubeProd(a, b):
            return [(0,) + p for p in _leaf_paths(a)] + [(1,) + p for p in _leaf_paths(b)]
    raise AssertionError(f"_leaf_paths: {cube!r}")


def norm_point(p: CubePoint) -> CubePoint:
    match p:
        case PointFst(q):
            nq = norm_point(q)
            if isinstance(nq, PointPair):
                return nq.fst
            return PointFst(nq)
        case PointSnd(q):
            nq = norm_point(q)
            if isinstance(nq, PointPair):
                return nq.snd
            return PointSnd(nq)
        case PointPair(a, b):
            return PointPair(norm_point(a), norm_point(b))
        case _:
            return p


def _atom_of(p: CubePoint) -> Atom:
    # p must be a projection chain over a cube variable, already normalized,
    # with indices rewritten to declaration positions
    path: list[int] = []
    while True:
        match p:
            case PointFst(q):
                path.append(0)
                p = q
            case PointSnd(q):
                path.append(1)
                p = q
            case CubeVar(i):
                return (i, tuple(reversed(path)))
            case _:
                raise AssertionError(f"not an atomic coordinate: {p!r}")


def sort_of_point(cube_context: tuple[Cube, ...], p: CubePoint) -> Cube | None:
    """Structural sort of a point, or None if ill-sorted."""
    match p:
        case CubeVar(i):
            if 0 <= i < len(cube_context):
                return cube_context[len(cube_context) - 1 - i]
            return None
        case Zero() | One():
            return CubeInterval()
        case Star():
            return CubeUnit()
        case PointPair(a, b):
            sa = sort_of_point(cube_context, a)
            sb = sort_of_point(cube_context, b)
            if sa is None or sb is None:
                return None
            return CubeProd(sa, sb)
        case PointFst(q):
            sq = sort_of_point(cube_context, q)
            return sq.fst if isinstance(sq, CubeProd) else None
        case PointSnd(q):
            sq = sort_of_point(cube_context, q)
            return sq.snd if isinstance(sq, CubeProd) else None
    return None


def _positionalize(p: CubePoint, depth: int) -> CubePoint:
    # rewrite de Bruijn cube indices to declaration positions so atom names
    # are stable regardless of context depth
    match p:
        case CubeVar(i):
            return CubeVar(depth - 1 - i)
        case PointPair(a, b):
            return PointPair(_positionalize(a, depth), _positionalize(b, depth))
        case PointFst(q):
            return PointFst(_positionalize(q, depth))
        case PointSnd(q):
            return PointSnd(_positionalize(q, depth))
        case _:
            return p


def normalize_tope(cube_context: tuple[Cube, ...], t: Tope) -> Tope:
    """Reduce a tope to atomic form: comparisons mention only 0, 1, and
    projection chains over positional variables; product equations are
    expanded componentwise and unit equations collapse to TOP."""
    ctx = tuple(cube_context)
    depth = len(ctx)

    def finalize(p: CubePoint) -> CubePoint:
        return norm_point(_positionalize(p, depth))

    def norm_eq(l: CubePoint, r: CubePoint) -> Tope:
        sort = sort_of_point(ctx, l)
        if sort is None:
            sort = sort_of_point(ctx, r)
        match sort:
            case CubeUnit():
                return TOP
            case CubeProd(_, _):
                return TopeAnd(
                    norm_eq(PointFst(l), PointFst(r)), norm_eq(PointSnd(l), PointSnd(r))
                )
            case _:
                return TopeEq(finalize(l), finalize(r))

    def norm(t: Tope) -> Tope:
        match t:
            case TopeTop() | TopeBottom():
                return t
            case TopeLeq(l, r):
                return TopeLeq(finalize(l), finalize(r))
            case TopeEq(l, r):
                return norm_eq(l, r)
            case TopeAnd(l, r):
                return TopeAnd(norm(l), norm(r))
            case TopeOr(l, r):
                return TopeOr(norm(l), norm(r))
        raise AssertionError(f"normalize_tope: {t!r}")

    return norm(t)


# ---------------------------------------------------------------------------
# Evaluation on rank tuples
#
# A query is decided on value vectors ``(0, top, r_0, ..., r_{n-1})``: slot 0
# holds the rank of 0, slot 1 the rank of 1 and slot k + 2 the rank of atom k.
# A numbered tope names slots instead of points: ``("<=", i, j)`` and
# ``("=", i, j)`` compare two slots, ``("and", a, b)`` and ``("or", a, b)``
# combine numbered topes, and TOP and BOT are ``0 <= 1`` and ``1 <= 0``.


def _numbered(t: Tope, table: dict[Atom, int]) -> tuple:
    """A tope in atomic form with its atoms replaced by slots from the table;
    an atom not yet in the table gets the next free slot."""

    def slot(p: CubePoint) -> int:
        match p:
            case Zero():
                return 0
            case One():
                return 1
        return table.setdefault(_atom_of(p), len(table) + 2)

    match t:
        case TopeTop():
            return ("<=", 0, 1)
        case TopeBottom():
            return ("<=", 1, 0)
        case TopeLeq(l, r):
            return ("<=", slot(l), slot(r))
        case TopeEq(l, r):
            return ("=", slot(l), slot(r))
        case TopeAnd(l, r):
            return ("and", _numbered(l, table), _numbered(r, table))
        case TopeOr(l, r):
            return ("or", _numbered(l, table), _numbered(r, table))
    raise AssertionError(f"_numbered: {t!r}")


def _holds(t: tuple, v: tuple[int, ...]) -> bool:
    match t:
        case ("<=", i, j):
            return v[i] <= v[j]
        case ("=", i, j):
            return v[i] == v[j]
        case ("and", a, b):
            return _holds(a, v) and _holds(b, v)
        case ("or", a, b):
            return _holds(a, v) or _holds(b, v)
    raise AssertionError(f"_holds: {t!r}")


def _models(n: int, hypotheses: list[tuple]):
    """The value vectors of the weak orderings of n atoms that satisfy the
    numbered hypotheses: fewest levels first, then rank tuples in
    lexicographic order."""
    for levels in range(n + 1):
        top = levels + 1
        for ranks in itertools.product(range(top + 1), repeat=n):
            if len({r for r in ranks if 0 < r < top}) != levels:
                continue  # middle levels must all be inhabited
            v = (0, top, *ranks)
            if all(_holds(h, v) for h in hypotheses):
                yield v


def _model(atom_list: list[Atom], v: tuple[int, ...]) -> WeakOrderModel:
    return WeakOrderModel(v[1] - 1, tuple(zip(atom_list, v[2:])))


def enumerate_models(atom_list: list[Atom], hypotheses: list[Tope]) -> list[WeakOrderModel]:
    """All weak orderings of the atoms in the closed chain satisfying the
    hypotheses.  Hypotheses must be in atomic form over ``atom_list``."""
    table = {a: k for k, a in enumerate(atom_list, 2)}
    hyps = [_numbered(h, table) for h in hypotheses]
    return [_model(atom_list, v) for v in _models(len(atom_list), hyps)]


# ---------------------------------------------------------------------------
# Entailment

_memo: dict[object, bool] = {}
_MEMO_MAX = 1 << 16  # cleared when full; C1 fills about 33.7k entries, a corpus run 105


def _numbered_query(
    cube_context: tuple[Cube, ...], hypotheses: list[Tope], goal: Tope, table: dict[Atom, int]
) -> tuple[list[tuple], tuple]:
    hyps = [_numbered(normalize_tope(cube_context, h), table) for h in hypotheses]
    return hyps, _numbered(normalize_tope(cube_context, goal), table)


def tope_entails(
    cube_context: list[Cube] | tuple[Cube, ...], hypotheses: list[Tope], goal: Tope
) -> bool:
    """True iff every weak-order model of the hypotheses satisfies the goal."""
    ctx = tuple(cube_context)
    key = (ctx, tuple(hypotheses), goal)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    table: dict[Atom, int] = {}
    hyps, ngoal = _numbered_query(ctx, hypotheses, goal, table)
    result = all(_holds(ngoal, v) for v in _models(len(table), hyps))
    if len(_memo) >= _MEMO_MAX:
        _memo.clear()
    _memo[key] = result
    return result


def tope_consistent(
    cube_context: list[Cube] | tuple[Cube, ...], hypotheses: list[Tope]
) -> bool:
    """True iff the hypotheses admit at least one model."""
    return not tope_entails(cube_context, hypotheses, BOT)


def tope_iff(
    cube_context: list[Cube] | tuple[Cube, ...], lhs: Tope, rhs: Tope
) -> bool:
    return tope_entails(cube_context, [lhs], rhs) and tope_entails(cube_context, [rhs], lhs)


def countermodel(
    cube_context: list[Cube] | tuple[Cube, ...], hypotheses: list[Tope], goal: Tope
) -> WeakOrderModel | None:
    """The first model of the hypotheses, over the mentioned atoms in sorted
    order, that violates the goal, if any."""
    ctx = tuple(cube_context)
    seen: dict[Atom, int] = {}  # a first pass only collects the atoms
    _numbered_query(ctx, hypotheses, goal, seen)
    mentioned = sorted(seen)
    table = {a: k for k, a in enumerate(mentioned, 2)}
    hyps, ngoal = _numbered_query(ctx, hypotheses, goal, table)
    for v in _models(len(mentioned), hyps):
        if not _holds(ngoal, v):
            return _model(mentioned, v)
    return None


def shape_included(a: Shape, b: Shape) -> bool:
    """Inclusion of shapes over the same cube: a's constraint entails b's."""
    if a.cube != b.cube:
        raise ValueError("shape_included requires shapes over the same cube")
    return tope_entails([a.cube], [a.constraint], b.constraint)


def clear_memo() -> None:
    _memo.clear()
