"""Decision procedure for the constraint logic of the directed interval.

Hypotheses and goals are built from <=, ===, /\\, \\/, TOP, BOT over cube
points.  The axioms of the theory say <= is a bounded total order on the
interval with bottom 0 and top 1, so a query has a countermodel iff it has
one among the finite weak orderings of the interval coordinates it mentions.
The backend therefore enumerates those orderings exhaustively; soundness and
completeness hold by construction, and exactness is cheap because realistic
queries involve at most four coordinates.

A query is first compiled, in one walk over each core tope (``_numbered``),
to a numbered tope over value slots.  The walk reduces projections of pairs
(``norm_point``), names each interval coordinate by its cube variable's
declaration position and its projection path, splits ``===`` on a product
sort componentwise and turns ``===`` on the unit sort into TOP.  It also
checks sorts: ``<=`` relates two interval points and ``===`` two points of
one sort; anything else raises a ``Failure`` with code ``E-POINT-SORT``.

Verdicts and countermodels are answered by one query, ``_first_violation``:
the first model of the hypotheses, over the mentioned coordinates in sorted
order, that violates the goal.  ``tope_entails`` memoizes whether there is
none, keyed on the query as asked: the cube context, the hypotheses in their
given order and the goal, with no canonical form, so a reordered or renamed
query is a new entry.  The memo is cleared when it reaches ``_MEMO_MAX``
entries.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import NamedTuple

from .core import (
    INTERVAL,
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
    BOT,
)
from .diagnostics import Failure


Atom = tuple[int, tuple[int, ...]]  # (declaration position, projection path)


def _sort_failure(relation: str, expected, actual, cube_depth: int) -> Failure:
    """A tope relates points of the wrong sorts.  ``expected`` and ``actual``
    are each a sort, or the point itself when it has none, over
    ``cube_depth`` cube variables."""
    from .printer import print_tope  # here, so the solver alone loads no lexer

    expected, actual = (print_tope(x, cube_depth) for x in (expected, actual))
    message = f"'{relation}' relates points of the wrong sorts"
    return Failure("E-POINT-SORT", message, expected=expected, actual=actual)


class WeakOrderModel(NamedTuple):
    """One weak ordering of the atoms within the closed chain 0 < 1.

    Rank 0 is the bottom, rank ``levels + 1`` the top, and ranks 1..levels
    are the strictly intermediate values in increasing order.
    """

    levels: int
    assignment: tuple[tuple[Atom, int], ...]

    def satisfies(self, cube_context: Sequence[Cube], tope: Tope) -> bool:
        """Whether the model satisfies a tope over ``cube_context`` whose
        coordinates are among its atoms."""
        table = {a: k for k, (a, _) in enumerate(self.assignment, 2)}
        ranks = tuple(r for _, r in self.assignment)
        return _holds(_numbered(cube_context, tope, table), (0, self.levels + 1, *ranks))

    def value_strings(self) -> dict[str, str]:
        """Each atom's printed name mapped to its value.  ``x0.1`` is the
        first component of the first declared cube variable; a value is
        ``0``, ``1``, ``mid`` or, with several middle levels, ``mid<rank>``."""
        out = {}
        for (pos, path), r in self.assignment:
            name = f"x{pos}" + "".join(".1" if c == 0 else ".2" for c in path)
            if r == 0:
                out[name] = "0"
            elif r == self.levels + 1:
                out[name] = "1"
            elif self.levels == 1:
                out[name] = "mid"
            else:
                out[name] = f"mid{r}"
        return out


# ---------------------------------------------------------------------------
# Atoms and points

def atoms(cube_context: Sequence[Cube]) -> list[Atom]:
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


def sort_of_point(cube_context: Sequence[Cube], p: CubePoint) -> Cube | None:
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


# ---------------------------------------------------------------------------
# Compilation to numbered topes, and evaluation on value vectors
#
# A query is decided on value vectors ``(0, top, r_0, ..., r_{n-1})``: slot 0
# holds the rank of 0, slot 1 the rank of 1 and slot k + 2 the rank of atom k.
# A numbered tope names slots instead of points: ``("<=", i, j)`` and
# ``("=", i, j)`` compare two slots, ``("and", a, b)`` and ``("or", a, b)``
# combine numbered topes, and TOP and BOT are ``0 <= 1`` and ``1 <= 0``.


def _numbered(cube_context: Sequence[Cube], t: Tope, table: dict[Atom, int]) -> tuple:
    """The core tope ``t`` over ``cube_context`` with its coordinates
    replaced by slots from the table; a coordinate not yet in the table gets
    the next free slot.  An ill-sorted comparison raises a ``Failure`` with
    code ``E-POINT-SORT``."""
    match t:
        case TopeTop():
            return ("<=", 0, 1)
        case TopeBottom():
            return ("<=", 1, 0)
        case TopeLeq(l, r):
            depth = len(cube_context)
            for p in (l, r):
                sort = sort_of_point(cube_context, p)
                if sort != INTERVAL:
                    raise _sort_failure("≤", INTERVAL, p if sort is None else sort, depth)
            return ("<=", _slot(depth, l, table), _slot(depth, r, table))
        case TopeEq(l, r):
            depth = len(cube_context)
            sort, other = sort_of_point(cube_context, l), sort_of_point(cube_context, r)
            if sort is None or sort != other:
                raise _sort_failure(
                    "≡", l if sort is None else sort, r if other is None else other, depth
                )
            match sort:
                case CubeUnit():
                    return ("<=", 0, 1)
                case CubeProd():
                    return (
                        "and",
                        _numbered(cube_context, TopeEq(PointFst(l), PointFst(r)), table),
                        _numbered(cube_context, TopeEq(PointSnd(l), PointSnd(r)), table),
                    )
            return ("=", _slot(depth, l, table), _slot(depth, r, table))
        case TopeAnd(l, r):
            return ("and", _numbered(cube_context, l, table), _numbered(cube_context, r, table))
        case TopeOr(l, r):
            return ("or", _numbered(cube_context, l, table), _numbered(cube_context, r, table))
    raise AssertionError(f"_numbered: {t!r}")


def _slot(depth: int, p: CubePoint, table: dict[Atom, int]) -> int:
    # p is an interval point, so once normalized it is 0, 1 or a projection
    # chain over a cube variable, named by the variable's declaration position
    p = norm_point(p)
    match p:
        case Zero():
            return 0
        case One():
            return 1
    path: list[int] = []
    while not isinstance(p, CubeVar):
        path.append(0 if isinstance(p, PointFst) else 1)
        p = p.point
    return table.setdefault((depth - 1 - p.index, tuple(reversed(path))), len(table) + 2)


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


def enumerate_models(
    cube_context: Sequence[Cube], atom_list: list[Atom], hypotheses: Sequence[Tope]
) -> list[WeakOrderModel]:
    """All weak orderings of the atoms in the closed chain satisfying the
    hypotheses, core topes over ``cube_context`` whose coordinates are
    among ``atom_list``."""
    table = {a: k for k, a in enumerate(atom_list, 2)}
    hyps = [_numbered(cube_context, h, table) for h in hypotheses]
    return [_model(atom_list, v) for v in _models(len(atom_list), hyps)]


# ---------------------------------------------------------------------------
# Entailment

_memo: dict[object, bool] = {}
_MEMO_MAX = 1 << 16  # cleared when full; C1 fills about 33.7k entries, a corpus run 105


def _first_violation(
    cube_context: Sequence[Cube], hypotheses: Sequence[Tope], goal: Tope
) -> tuple[list[Atom], tuple[int, ...] | None]:
    """The atoms the query mentions, in sorted order, and the first value
    vector over them that satisfies the hypotheses but violates the goal, or
    None when the hypotheses entail the goal."""
    table: dict[Atom, int] = {}
    while True:  # slots go in first-occurrence order; a second pass sorts them
        hyps = [_numbered(cube_context, h, table) for h in hypotheses]
        ngoal = _numbered(cube_context, goal, table)
        mentioned = sorted(table)
        if list(table) == mentioned:
            break
        table = {a: k for k, a in enumerate(mentioned, 2)}
    violations = (v for v in _models(len(mentioned), hyps) if not _holds(ngoal, v))
    return mentioned, next(violations, None)


def tope_entails(cube_context: Sequence[Cube], hypotheses: Sequence[Tope], goal: Tope) -> bool:
    """True iff every weak-order model of the hypotheses satisfies the goal."""
    ctx = tuple(cube_context)
    key = (ctx, tuple(hypotheses), goal)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    result = _first_violation(ctx, hypotheses, goal)[1] is None
    if len(_memo) >= _MEMO_MAX:
        _memo.clear()
    _memo[key] = result
    return result


def tope_consistent(cube_context: Sequence[Cube], hypotheses: Sequence[Tope]) -> bool:
    """True iff the hypotheses admit at least one model."""
    return not tope_entails(cube_context, hypotheses, BOT)


def tope_iff(cube_context: Sequence[Cube], lhs: Tope, rhs: Tope) -> bool:
    return tope_entails(cube_context, [lhs], rhs) and tope_entails(cube_context, [rhs], lhs)


def countermodel(
    cube_context: Sequence[Cube], hypotheses: Sequence[Tope], goal: Tope
) -> WeakOrderModel | None:
    """The first model of the hypotheses, over the mentioned atoms in sorted
    order, that violates the goal, if any."""
    mentioned, v = _first_violation(cube_context, hypotheses, goal)
    return None if v is None else _model(mentioned, v)


def shape_included(a: Shape, b: Shape) -> bool:
    """Inclusion of shapes over the same cube: a's constraint entails b's."""
    if a.cube != b.cube:
        raise ValueError("shape_included requires shapes over the same cube")
    return tope_entails([a.cube], [a.constraint], b.constraint)


def clear_memo() -> None:
    _memo.clear()
