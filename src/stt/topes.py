"""Decision procedure for the constraint logic of the directed interval.

Hypotheses and goals are built from <=, ===, /\\, \\/, TOP, BOT over interval
coordinates and the constants 0, 1.  The axioms of the theory say <= is a
bounded total order with bottom 0 and top 1, so a query has a countermodel
iff it has one among the finite weak orderings of the coordinates it
mentions.  The backend therefore enumerates those orderings exhaustively;
soundness and completeness hold by construction, and exactness is cheap
because realistic queries involve at most four coordinates.

Results are memoized on a canonical form of the query (hypotheses sorted,
atoms renamed by first occurrence), so hit rates survive reordering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


@dataclass(frozen=True)
class WeakOrderModel:
    """One weak ordering of the atoms within the closed chain 0 < 1.

    Rank 0 is the bottom, rank ``levels + 1`` the top, and ranks 1..levels
    are the strictly intermediate values in increasing order.
    """

    levels: int
    assignment: tuple[tuple[Atom, int], ...]

    def rank_of(self, atom: Atom) -> int:
        for a, r in self.assignment:
            if a == atom:
                return r
        raise KeyError(atom)

    def eval_point(self, p: CubePoint) -> int:
        match p:
            case Zero():
                return 0
            case One():
                return self.levels + 1
            case _:
                return self.rank_of(_atom_of(p))

    def satisfies(self, tope: Tope) -> bool:
        match tope:
            case TopeTop():
                return True
            case TopeBottom():
                return False
            case TopeLeq(l, r):
                return self.eval_point(l) <= self.eval_point(r)
            case TopeEq(l, r):
                return self.eval_point(l) == self.eval_point(r)
            case TopeAnd(l, r):
                return self.satisfies(l) and self.satisfies(r)
            case TopeOr(l, r):
                return self.satisfies(l) or self.satisfies(r)
        raise AssertionError(f"satisfies: {tope!r}")

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


def _mentioned_atoms(topes: list[Tope]) -> list[Atom]:
    seen: dict[Atom, None] = {}

    def walk_point(p: CubePoint) -> None:
        match p:
            case Zero() | One() | Star():
                return
            case _:
                seen.setdefault(_atom_of(p))

    def walk(t: Tope) -> None:
        match t:
            case TopeLeq(l, r) | TopeEq(l, r):
                walk_point(l)
                walk_point(r)
            case TopeAnd(l, r) | TopeOr(l, r):
                walk(l)
                walk(r)
            case _:
                return

    for t in topes:
        walk(t)
    return sorted(seen)


# ---------------------------------------------------------------------------
# Model enumeration

def enumerate_models(atom_list: list[Atom], hypotheses: list[Tope]) -> list[WeakOrderModel]:
    """All weak orderings of the atoms in the closed chain satisfying the
    hypotheses.  Hypotheses must be in atomic form over ``atom_list``."""
    n = len(atom_list)
    out: list[WeakOrderModel] = []
    for levels in range(n + 1):
        for ranks in itertools.product(range(levels + 2), repeat=n):
            used = set(r for r in ranks if 1 <= r <= levels)
            if len(used) != levels:
                continue  # middle levels must all be inhabited
            model = WeakOrderModel(levels, tuple(zip(atom_list, ranks)))
            if all(model.satisfies(h) for h in hypotheses):
                out.append(model)
    return out


# ---------------------------------------------------------------------------
# Entailment

_memo: dict[object, bool] = {}
_MEMO_MAX = 1 << 16  # cleared when full; C1 fills 9761 entries, a corpus run 75


def _blank_repr(t: Tope) -> str:
    match t:
        case TopeTop():
            return "T"
        case TopeBottom():
            return "F"
        case TopeLeq(l, r):
            return f"L({_blank_point(l)},{_blank_point(r)})"
        case TopeEq(l, r):
            return f"E({_blank_point(l)},{_blank_point(r)})"
        case TopeAnd(l, r):
            return f"A({_blank_repr(l)},{_blank_repr(r)})"
        case TopeOr(l, r):
            return f"O({_blank_repr(l)},{_blank_repr(r)})"
    raise AssertionError


def _blank_point(p: CubePoint) -> str:
    match p:
        case Zero():
            return "0"
        case One():
            return "1"
        case _:
            return "x"


def _rename_atoms(topes: list[Tope]) -> tuple[Tope, ...]:
    table: dict[Atom, Atom] = {}

    def ren_point(p: CubePoint) -> CubePoint:
        match p:
            case Zero() | One() | Star():
                return p
            case _:
                a = _atom_of(p)
                if a not in table:
                    table[a] = (len(table), ())
                i, _ = table[a]
                return CubeVar(i)

    def ren(t: Tope) -> Tope:
        match t:
            case TopeTop() | TopeBottom():
                return t
            case TopeLeq(l, r):
                return TopeLeq(ren_point(l), ren_point(r))
            case TopeEq(l, r):
                return TopeEq(ren_point(l), ren_point(r))
            case TopeAnd(l, r):
                return TopeAnd(ren(l), ren(r))
            case TopeOr(l, r):
                return TopeOr(ren(l), ren(r))
        raise AssertionError

    return tuple(ren(t) for t in topes)


def _canonical_key(hyps: list[Tope], goal: Tope) -> object:
    ordered = sorted(hyps, key=lambda t: (_blank_repr(t), repr(t)))
    renamed = _rename_atoms(ordered + [goal])
    return (renamed[:-1], renamed[-1])


def tope_entails(
    cube_context: list[Cube] | tuple[Cube, ...], hypotheses: list[Tope], goal: Tope
) -> bool:
    """True iff every weak-order model of the hypotheses satisfies the goal."""
    ctx = tuple(cube_context)
    nhyps = [normalize_tope(ctx, h) for h in hypotheses]
    ngoal = normalize_tope(ctx, goal)
    key = _canonical_key(nhyps, ngoal)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    mentioned = _mentioned_atoms(nhyps + [ngoal])
    result = all(m.satisfies(ngoal) for m in enumerate_models(mentioned, nhyps))
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
    """A model of the hypotheses violating the goal, if any."""
    ctx = tuple(cube_context)
    nhyps = [normalize_tope(ctx, h) for h in hypotheses]
    ngoal = normalize_tope(ctx, goal)
    mentioned = _mentioned_atoms(nhyps + [ngoal])
    for m in enumerate_models(mentioned, nhyps):
        if not m.satisfies(ngoal):
            return m
    return None


def shape_included(a: Shape, b: Shape) -> bool:
    """Inclusion of shapes over the same cube: a's constraint entails b's."""
    if a.cube != b.cube:
        raise ValueError("shape_included requires shapes over the same cube")
    return tope_entails([a.cube], [a.constraint], b.constraint)


def clear_memo() -> None:
    _memo.clear()
