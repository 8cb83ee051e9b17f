"""Nameless core syntax: interval points, topes, shapes, terms, contexts.

Terms use de Bruijn indices, with two independent namespaces: term variables
index into the term zone of the context and cube variables index into the
cube zone.  Index 0 is always the most recently bound variable of its layer.
Extending the cube zone re-scopes the tope and term zones, so every entry
stored in a context is valid in that whole context.
"""

from __future__ import annotations

from operator import is_not, itemgetter


class Node(tuple):
    """Base of the core and surface syntax nodes: an immutable tuple of the
    fields its class annotates, after those of its bases, in declaration
    order.  ``__match_args__`` lists the field names, which class patterns
    bind in order and which read as attributes.  Construction is
    positional.  Equality also compares the class, so ``Fst(x) != Snd(x)``
    and ``Var(0) != (0,)``; a node hashes like its field tuple."""

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = tuple(vars(cls).get("__annotations__", ()))
        for i, name in enumerate(own, len(cls.__match_args__)):
            setattr(cls, name, property(itemgetter(i)))
        cls.__match_args__ += own

    def __new__(cls, *values):
        if len(values) != len(cls.__match_args__):
            raise TypeError(
                f"{cls.__name__} takes {len(cls.__match_args__)} fields, got {len(values)}"
            )
        return tuple.__new__(cls, values)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign '{name}': {type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self))
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# Cubes and points

class CubeUnit(Node):
    pass


class CubeInterval(Node):
    pass


class CubeProd(Node):
    fst: "Cube"
    snd: "Cube"


Cube = CubeUnit | CubeInterval | CubeProd

UNIT = CubeUnit()
INTERVAL = CubeInterval()


class CubeVar(Node):
    index: int


class Zero(Node):
    pass


class One(Node):
    pass


class Star(Node):
    """The unique point of the terminal cube."""


class PointPair(Node):
    fst: "CubePoint"
    snd: "CubePoint"


class PointFst(Node):
    point: "CubePoint"


class PointSnd(Node):
    point: "CubePoint"


CubePoint = CubeVar | Zero | One | Star | PointPair | PointFst | PointSnd

ZERO = Zero()
ONE = One()
STAR = Star()


# ---------------------------------------------------------------------------
# Topes

class TopeTop(Node):
    pass


class TopeBottom(Node):
    pass


class TopeLeq(Node):
    lhs: CubePoint
    rhs: CubePoint


class TopeEq(Node):
    lhs: CubePoint
    rhs: CubePoint


class TopeAnd(Node):
    lhs: "Tope"
    rhs: "Tope"


class TopeOr(Node):
    lhs: "Tope"
    rhs: "Tope"


Tope = TopeTop | TopeBottom | TopeLeq | TopeEq | TopeAnd | TopeOr

TOP = TopeTop()
BOT = TopeBottom()


class Shape(Node):
    """A cube restricted by a tope; the constraint sees the bound coordinate
    as cube index 0 (outer cube variables keep their shifted indices)."""

    cube: Cube
    constraint: Tope


# ---------------------------------------------------------------------------
# Terms

class Var(Node):
    index: int


class Universe(Node):
    level: int  # 0 or 1


class Pi(Node):
    domain: "Term"
    codomain: "Term"  # binds one term variable


class Lambda(Node):
    body: "Term"  # binds one term variable


class App(Node):
    fn: "Term"
    arg: "Term"


class Sigma(Node):
    first: "Term"
    second: "Term"  # binds one term variable


class Pair(Node):
    fst: "Term"
    snd: "Term"


class Fst(Node):
    pair: "Term"


class Snd(Node):
    pair: "Term"


class Id(Node):
    type: "Term | None"  # None: recovered from the left endpoint when checked
    lhs: "Term"
    rhs: "Term"


class Refl(Node):
    term: "Term"


class IndPath(Node):
    """Identity eliminator.  ``motive`` binds three term variables (both
    endpoints and the path), ``base`` binds one (the diagonal point)."""

    motive: "Term"
    base: "Term"
    target: "Term"


class ExtType(Node):
    """Functions out of a shape with a judgmentally fixed boundary.

    ``codomain`` and ``boundary`` bind one cube variable; ``boundary_tope``
    is scoped the same way and must carve a sub-shape of ``shape``.
    """

    shape: Shape
    codomain: "Term"
    boundary_tope: Tope
    boundary: "Term"


class ExtLambda(Node):
    body: "Term"  # binds one cube variable


class ExtApp(Node):
    fn: "Term"
    point: CubePoint


class Split(Node):
    """Case tree over topes: well typed when the branch topes cover the
    current constraints and the branches agree on overlaps.  An empty split
    is the canonical term under an unsatisfiable tope zone."""

    branches: tuple[tuple[Tope, "Term"], ...]


class Constant(Node):
    name: str


class Annot(Node):
    term: "Term"
    type: "Term"


Term = (
    Var
    | Universe
    | Pi
    | Lambda
    | App
    | Sigma
    | Pair
    | Fst
    | Snd
    | Id
    | Refl
    | IndPath
    | ExtType
    | ExtLambda
    | ExtApp
    | Split
    | Constant
    | Annot
)

U0 = Universe(0)
U1 = Universe(1)


# ---------------------------------------------------------------------------
# Context and declarations

class Context:
    """Three-zone typing context: cube sorts, tope constraints, term types.

    Tuples grow on the right; de Bruijn index i of a layer refers to entry
    ``zone[len(zone) - 1 - i]``.  A context is never mutated.  The kernel
    builds one per binder and reads it in every rule, so it is a slotted
    class: it builds faster than a frozen dataclass or a ``NamedTuple``, and
    reads its fields faster than a ``NamedTuple``.
    """

    __slots__ = ("cubes", "topes", "terms")

    def __init__(self, cubes: tuple[Cube, ...] = (), topes: tuple[Tope, ...] = (),
                 terms: tuple[tuple["Term", "Term | None"], ...] = ()):
        self.cubes, self.topes, self.terms = cubes, topes, terms

    def extend_cube(self, cube: Cube) -> "Context":
        # existing tope and term entries gain a fresh cube variable at index 0
        topes = tuple(weaken_tope_cube(t, 1, 0) for t in self.topes)
        terms = tuple(
            (weaken_cube(ty, 1, 0), weaken_cube(d, 1, 0) if d is not None else None)
            for ty, d in self.terms
        )
        return Context(self.cubes + (cube,), topes, terms)

    def extend_tope(self, tope: Tope) -> "Context":
        return Context(self.cubes, self.topes + (tope,), self.terms)

    def extend_term(self, ty: "Term", defn: "Term | None" = None) -> "Context":
        return Context(self.cubes, self.topes, self.terms + ((ty, defn),))

    def term_type(self, index: int) -> "Term":
        ty = self.terms[len(self.terms) - 1 - index][0]
        return weaken(ty, index + 1, 0)

    def term_def(self, index: int) -> "Term | None":
        d = self.terms[len(self.terms) - 1 - index][1]
        return weaken(d, index + 1, 0) if d is not None else None


class Declaration:
    __slots__ = ("name", "type", "body", "constants")

    def __init__(self, name: str, type: "Term", body: "Term | None", constants=()):
        self.name = name
        self.type = type  # closed: the parameters are folded in
        self.body = body  # None marks a postulate
        self.constants: tuple[str, ...] = constants  # the declarations it names, sorted

    @property
    def is_postulate(self) -> bool:
        return self.body is None


# ---------------------------------------------------------------------------
# Weakening and substitution: one walk over both namespaces
#
# ``_walk`` rebuilds a term under one *action* per namespace, term and cube,
# counting the term binders ``k`` and cube binders ``c`` it has crossed.  An
# action is the triple ``(cut, values, by)``, with ``values`` a tuple.  In the
# term namespace, an index below ``cut + k`` is kept, index ``cut + k + j``
# becomes ``values[j]`` shifted over the ``k`` term and ``c`` cube binders
# crossed, and every index above those moves by ``by - len(values)``.  So
# weakening has no values and a positive ``by``, and substitution of ``n``
# values at once has ``by`` 0 and lowers the indices above them by ``n``.
# The cube namespace reads the same with ``c`` in place of ``k``; its values
# are points.  A None action leaves its namespace alone, and a walk with no
# cube action never enters points or topes.  A value is shifted once per
# occurrence, not once per binder.  ``_point`` and ``_tope`` apply a cube
# action below ``c`` binders.

def _point(p: CubePoint, act, c: int) -> CubePoint:
    match p:
        case CubeVar(i):
            cut, values, by = act
            j = i - cut - c
            if j < 0:
                return p
            if j >= len(values):
                return CubeVar(i + by - len(values))
            return _point(values[j], (0, (), c), 0) if c else values[j]
        case Zero() | One() | Star():
            return p
        case PointPair(a, b):
            return PointPair(_point(a, act, c), _point(b, act, c))
        case PointFst(q):
            return PointFst(_point(q, act, c))
        case PointSnd(q):
            return PointSnd(_point(q, act, c))
    raise AssertionError(f"_point: {p!r}")


def _tope(t: Tope, act, c: int) -> Tope:
    match t:
        case TopeTop() | TopeBottom():
            return t
        case TopeLeq(l, r):
            return TopeLeq(_point(l, act, c), _point(r, act, c))
        case TopeEq(l, r):
            return TopeEq(_point(l, act, c), _point(r, act, c))
        case TopeAnd(l, r):
            return TopeAnd(_tope(l, act, c), _tope(r, act, c))
        case TopeOr(l, r):
            return TopeOr(_tope(l, act, c), _tope(r, act, c))
    raise AssertionError(f"_tope: {t!r}")


def _walk(t: Term, tact, cact, k: int, c: int) -> Term:
    match t:
        case Var(i):
            if tact is None:
                return t
            cut, values, by = tact
            j = i - cut - k
            if j < 0:
                return t
            if j >= len(values):
                return Var(i + by - len(values))
            if k or c:
                return _walk(values[j], (0, (), k) if k else None, (0, (), c) if c else None, 0, 0)
            return values[j]
        case Universe() | Constant():
            return t
        case Pi(a, b):
            return Pi(_walk(a, tact, cact, k, c), _walk(b, tact, cact, k + 1, c))
        case Lambda(b):
            return Lambda(_walk(b, tact, cact, k + 1, c))
        case App(f, a):
            return App(_walk(f, tact, cact, k, c), _walk(a, tact, cact, k, c))
        case Sigma(a, b):
            return Sigma(_walk(a, tact, cact, k, c), _walk(b, tact, cact, k + 1, c))
        case Pair(a, b):
            return Pair(_walk(a, tact, cact, k, c), _walk(b, tact, cact, k, c))
        case Fst(p):
            return Fst(_walk(p, tact, cact, k, c))
        case Snd(p):
            return Snd(_walk(p, tact, cact, k, c))
        case Id(ty, l, r):
            return Id(
                _walk(ty, tact, cact, k, c) if ty is not None else None,
                _walk(l, tact, cact, k, c),
                _walk(r, tact, cact, k, c),
            )
        case Refl(a):
            return Refl(_walk(a, tact, cact, k, c))
        case IndPath(m, d, p):
            return IndPath(
                _walk(m, tact, cact, k + 3, c),
                _walk(d, tact, cact, k + 1, c),
                _walk(p, tact, cact, k, c),
            )
        case ExtType(sh, cod, bt, bd):
            if cact is not None:
                sh = Shape(sh.cube, _tope(sh.constraint, cact, c + 1))
                bt = _tope(bt, cact, c + 1)
            cod = _walk(cod, tact, cact, k, c + 1)
            return ExtType(sh, cod, bt, _walk(bd, tact, cact, k, c + 1))
        case ExtLambda(b):
            return ExtLambda(_walk(b, tact, cact, k, c + 1))
        case ExtApp(f, p):
            return ExtApp(_walk(f, tact, cact, k, c), p if cact is None else _point(p, cact, c))
        case Split(brs):
            return Split(
                tuple(
                    (tp if cact is None else _tope(tp, cact, c), _walk(b, tact, cact, k, c))
                    for tp, b in brs
                )
            )
        case Annot(a, ty):
            return Annot(_walk(a, tact, cact, k, c), _walk(ty, tact, cact, k, c))
    raise AssertionError(f"_walk: {t!r}")


def weaken(t: Term, by: int, frm: int = 0) -> Term:
    """Shift term indices >= ``frm`` up by ``by``."""
    return _walk(t, (frm, (), by), None, 0, 0) if by else t


def instantiate(t: Term, values: tuple[Term, ...]) -> Term:
    """Simultaneous substitution of ``values[j]`` for term index ``j``, in one
    walk; the indices above them drop by ``len(values)``."""
    return _walk(t, (0, values, 0), None, 0, 0) if values else t


def substitute(t: Term, level: int, value: Term) -> Term:
    """Capture-avoiding substitution of ``value`` for term index ``level``;
    indices above the level are decremented."""
    return _walk(t, (level, (value,), 0), None, 0, 0)


def weaken_point(p: CubePoint, by: int, frm: int) -> CubePoint:
    """Shift cube indices >= ``frm`` in a point up by ``by``."""
    return _point(p, (frm, (), by), 0)


def weaken_tope_cube(t: Tope, by: int, frm: int) -> Tope:
    """Shift cube indices >= ``frm`` in a tope up by ``by``."""
    return _tope(t, (frm, (), by), 0)


def subst_tope_point(t: Tope, level: int, value: CubePoint) -> Tope:
    """Substitute a point for cube index ``level`` in a tope."""
    return _tope(t, (level, (value,), 0), 0)


def weaken_cube(t: Term, by: int, frm: int) -> Term:
    """Shift cube indices >= ``frm`` up by ``by`` throughout a term."""
    return _walk(t, None, (frm, (), by), 0, 0) if by else t


def subst_cube(t: Term, level: int, value: CubePoint) -> Term:
    """Substitute a point for cube index ``level`` throughout a term."""
    return _walk(t, None, (level, (value,), 0), 0, 0)


# ---------------------------------------------------------------------------
# Immediate subterms

def children(t: Term) -> tuple[tuple[Term, int, int], ...]:
    """The subterms directly below ``t``, each as ``(subterm, k, c)`` with the
    ``k`` term and ``c`` cube binders it sits under.  Points and topes are
    not terms and are left out."""
    match t:
        case Var() | Universe() | Constant():
            return ()
        case Pi(a, b) | Sigma(a, b):
            return ((a, 0, 0), (b, 1, 0))
        case Lambda(b):
            return ((b, 1, 0),)
        case App(a, b) | Pair(a, b) | Annot(a, b):
            return ((a, 0, 0), (b, 0, 0))
        case Fst(a) | Snd(a) | Refl(a) | ExtApp(a, _):
            return ((a, 0, 0),)
        case Id(ty, l, r):
            return ((l, 0, 0), (r, 0, 0)) if ty is None else ((ty, 0, 0), (l, 0, 0), (r, 0, 0))
        case IndPath(m, d, p):
            return ((m, 3, 0), (d, 1, 0), (p, 0, 0))
        case ExtType(_, cod, _, bd):
            return ((cod, 0, 1), (bd, 0, 1))
        case ExtLambda(b):
            return ((b, 0, 1),)
        case Split(brs):
            return tuple((b, 0, 0) for _, b in brs)
    raise AssertionError(f"children: {t!r}")


# ---------------------------------------------------------------------------
# Sharing

def share(t: tuple, table: dict) -> tuple:
    """``t`` with each node replaced by the canonical copy that ``table``
    holds, adding the nodes it lacks: equal nodes shared through one table
    are one object.  The walk is bottom-up, so a node is looked up with
    canonical fields, and comparing it with a held node stops at their
    identity however deep the term is.  Plain tuples (``Split`` branches)
    are rebuilt but never keyed.  One frame per level of nesting."""
    fields = []
    for v in t:
        fields.append(share(v, table) if isinstance(v, tuple) else v)
    if any(map(is_not, fields, t)):
        t = tuple.__new__(type(t), fields)
    return table.setdefault(t, t) if isinstance(t, Node) else t


# ---------------------------------------------------------------------------
# Scope validation

def point_in_scope(p: CubePoint, cube_depth: int) -> bool:
    match p:
        case CubeVar(i):
            return 0 <= i < cube_depth
        case Zero() | One() | Star():
            return True
        case PointPair(a, b):
            return point_in_scope(a, cube_depth) and point_in_scope(b, cube_depth)
        case PointFst(q) | PointSnd(q):
            return point_in_scope(q, cube_depth)
    return False


def tope_in_scope(t: Tope, cube_depth: int) -> bool:
    match t:
        case TopeTop() | TopeBottom():
            return True
        case TopeLeq(l, r) | TopeEq(l, r):
            return point_in_scope(l, cube_depth) and point_in_scope(r, cube_depth)
        case TopeAnd(l, r) | TopeOr(l, r):
            return tope_in_scope(l, cube_depth) and tope_in_scope(r, cube_depth)
    return False


def term_in_scope(t: Term, cube_depth: int, term_depth: int) -> bool:
    """Full index-bounds check; every resolver output must satisfy it.
    The first subterm is entered by the loop, so a spine's heads and a run
    of λs cost no stack; the others are entered by recursion."""
    while True:
        match t:
            case Var(i):
                return 0 <= i < term_depth
            case ExtType(sh, _, bt, _):
                if not all(tope_in_scope(tp, cube_depth + 1) for tp in (sh.constraint, bt)):
                    return False
            case ExtApp(_, p):
                if not point_in_scope(p, cube_depth):
                    return False
            case Split(brs):
                if not all(tope_in_scope(tp, cube_depth) for tp, _ in brs):
                    return False
        below = children(t)
        if not below:
            return True
        for s, k, c in below[1:]:
            if not term_in_scope(s, cube_depth + c, term_depth + k):
                return False
        t, k, c = below[0]
        cube_depth, term_depth = cube_depth + c, term_depth + k


# ---------------------------------------------------------------------------
# Canonical shapes

def _v0() -> CubePoint:
    return CubeVar(0)


SQUARE = CubeProd(INTERVAL, INTERVAL)

# Constraints are over the single bound coordinate of the shape's cube.
SHAPE_ARROW = Shape(INTERVAL, TOP)  # the walking arrow
SHAPE_TRIANGLE = Shape(SQUARE, TopeLeq(PointSnd(_v0()), PointFst(_v0())))
SHAPE_INNER_HORN = Shape(
    SQUARE, TopeOr(TopeEq(PointSnd(_v0()), ZERO), TopeEq(PointFst(_v0()), ONE))
)
SHAPE_ENDPOINTS = Shape(INTERVAL, TopeOr(TopeEq(_v0(), ZERO), TopeEq(_v0(), ONE)))
SHAPE_SQUARE = Shape(SQUARE, TOP)

CANONICAL_SHAPES: dict[str, Shape] = {
    "Delta1": SHAPE_ARROW,
    "Delta2": SHAPE_TRIANGLE,
    "Lambda21": SHAPE_INNER_HORN,
    "dDelta1": SHAPE_ENDPOINTS,
    "Delta1xDelta1": SHAPE_SQUARE,
}
