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
    """A cube restricted by a tope on its coordinate, which the constraint
    binds (see ``FIELDS``)."""

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
    codomain: "Term"


class Lambda(Node):
    body: "Term"


class App(Node):
    fn: "Term"
    arg: "Term"


class Sigma(Node):
    first: "Term"
    second: "Term"


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
    """Identity eliminator.  ``motive`` binds both endpoints and the path,
    ``base`` the diagonal point."""

    motive: "Term"
    base: "Term"
    target: "Term"


class ExtType(Node):
    """Functions out of a shape with a judgmentally fixed boundary.

    The fields after ``shape`` bind its coordinate, and ``boundary_tope``
    must carve a sub-shape of ``shape``.
    """

    shape: Shape
    codomain: "Term"
    boundary_tope: Tope
    boundary: "Term"


class ExtLambda(Node):
    body: "Term"


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
        topes = tuple(weaken_cube(t, 1, 0) for t in self.topes)
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


_NO_AXIOMS: frozenset[str] = frozenset()  # the usage of every axiom-free declaration


class Declaration:
    __slots__ = ("name", "type", "body", "constants", "axioms")

    def __init__(self, name: str, type: "Term", body: "Term | None", constants=()):
        self.name = name
        self.type = type  # closed: the parameters are folded in
        self.body = body  # None marks a postulate
        self.constants: tuple[str, ...] = constants  # the declarations it names, sorted
        self.axioms = _NO_AXIOMS  # the postulates it uses, transitively; set once checked

    @property
    def is_postulate(self) -> bool:
        return self.body is None


# ---------------------------------------------------------------------------
# The field table
#
# ``FIELDS`` gives each node class one spec per field, ``(kind, k, c)``: what
# the field holds and the ``k`` term and ``c`` cube binders it sits under
# inside the node.  Every walk below reads binders from it alone.

INDEX = 0  # the de Bruijn index of a Var (term) or CubeVar (cube)
LEAF = 1  # data no walk enters: a level, a name, a cube
TERM = 2  # a term, or None (an Id's type left to be recovered)
CUBE = 3  # a point, tope or shape: only cube actions enter it
BRANCHES = 4  # a Split's (tope, term) pairs

_LEAF, _TERM, _CUBE = (LEAF, 0, 0), (TERM, 0, 0), (CUBE, 0, 0)

FIELDS: dict[type, tuple[tuple[int, int, int], ...]] = {
    CubeUnit: (), CubeInterval: (), CubeProd: (_LEAF, _LEAF), CubeVar: ((INDEX, 0, 0),),
    Zero: (), One: (), Star: (), PointPair: (_CUBE, _CUBE), PointFst: (_CUBE,), PointSnd: (_CUBE,),
    TopeTop: (), TopeBottom: (), TopeLeq: (_CUBE, _CUBE), TopeEq: (_CUBE, _CUBE),
    TopeAnd: (_CUBE, _CUBE), TopeOr: (_CUBE, _CUBE),
    Shape: (_LEAF, (CUBE, 0, 1)),
    Var: ((INDEX, 0, 0),), Universe: (_LEAF,), Constant: (_LEAF,),
    Pi: (_TERM, (TERM, 1, 0)),
    Lambda: ((TERM, 1, 0),),
    App: (_TERM, _TERM),
    Sigma: (_TERM, (TERM, 1, 0)),
    Pair: (_TERM, _TERM), Fst: (_TERM,), Snd: (_TERM,),
    Id: (_TERM, _TERM, _TERM), Refl: (_TERM,),
    IndPath: ((TERM, 3, 0), (TERM, 1, 0), _TERM),
    ExtType: (_CUBE, (TERM, 0, 1), (CUBE, 0, 1), (TERM, 0, 1)),
    ExtLambda: ((TERM, 0, 1),),
    ExtApp: (_TERM, _CUBE),
    Split: ((BRANCHES, 0, 0),),
    Annot: (_TERM, _TERM),
}

# FIELDS, with None for a class whose fields no walk enters (kinds up to LEAF)
_ENTERED = {
    cls: specs if any(k > LEAF for k, _, _ in specs) else None for cls, specs in FIELDS.items()
}


# The entered fields of each class as ``(position, spec)``, last field first:
# ``subterms`` pushes them on its stack in this order, so they come off in field order
_PUSHED = {cls: tuple(enumerate(specs or ()))[::-1] for cls, specs in _ENTERED.items()}


# ---------------------------------------------------------------------------
# Weakening and substitution: one walk over both namespaces
#
# ``_walk`` rebuilds a node under one *action* per namespace, term and cube,
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
# occurrence, not once per binder.  Each field is rebuilt under the binders
# its ``FIELDS`` spec adds.

def _walk(t, tact, cact, k: int, c: int):
    cls = type(t)
    if cls is Var or cls is CubeVar:
        act, d = (tact, k) if cls is Var else (cact, c)
        if act is None:
            return t
        cut, values, by = act
        j = t[0] - cut - d
        if j < 0:
            return t
        if j >= len(values):
            return tuple.__new__(cls, (t[0] + by - len(values),))
        if cls is CubeVar:
            return _walk(values[j], None, (0, (), c), 0, 0) if c else values[j]
        if k or c:
            return _walk(values[j], (0, (), k) if k else None, (0, (), c) if c else None, 0, 0)
        return values[j]
    specs = _ENTERED[cls]
    if specs is None:
        return t
    fields = []
    for v, (kind, dk, dc) in zip(t, specs):
        if kind is TERM:
            if v is not None:
                v = _walk(v, tact, cact, k + dk, c + dc)
        elif kind is CUBE:
            if cact is not None:
                v = _walk(v, None, cact, k, c + dc)
        elif kind is BRANCHES:
            v = tuple(
                (tp if cact is None else _walk(tp, None, cact, k + dk, c + dc),
                 _walk(b, tact, cact, k + dk, c + dc))
                for tp, b in v
            )
        fields.append(v)
    return tuple.__new__(cls, fields)


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


def weaken_cube(t, by: int, frm: int):
    """Shift cube indices >= ``frm`` up by ``by`` in a term, point, tope or shape."""
    return _walk(t, None, (frm, (), by), 0, 0) if by else t


def subst_cube(t, level: int, value: CubePoint):
    """Substitute a point for cube index ``level`` in a term, point, tope or shape."""
    return _walk(t, None, (level, (value,), 0), 0, 0)


# ---------------------------------------------------------------------------
# Subterms and scope

def subterms(t, cubes: bool):
    """Every node of ``t``, ``t`` first, as ``(node, k, c)`` with the ``k``
    term and ``c`` cube binders above it in ``t``, in pre-order by
    ``FIELDS``; points, topes and shapes only if ``cubes``.  The walk keeps
    its own stack, so no depth of nesting exhausts Python's."""
    stack = [(t, 0, 0)]
    while stack:
        node = t, k, c = stack.pop()
        yield node
        for i, (kind, dk, dc) in _PUSHED[type(t)]:
            v = t[i]
            if kind is BRANCHES:
                for tp, b in reversed(v):
                    stack.append((b, k + dk, c + dc))
                    if cubes:
                        stack.append((tp, k + dk, c + dc))
            elif kind is TERM and v is not None or kind is CUBE and cubes:
                stack.append((v, k + dk, c + dc))


def in_scope(t, cube_depth: int, term_depth: int) -> bool:
    """Full index-bounds check of a term, point, tope or shape under
    ``cube_depth`` cube and ``term_depth`` term binders; every resolver
    output must satisfy it."""
    for s, k, c in subterms(t, True):
        cls = type(s)
        if cls is Var and not 0 <= s[0] < term_depth + k:
            return False
        if cls is CubeVar and not 0 <= s[0] < cube_depth + c:
            return False
    return True


# ---------------------------------------------------------------------------
# Sharing

def share(t: tuple, table: dict) -> tuple:
    """``t`` with each node replaced by the canonical copy that ``table``
    holds, adding the nodes it lacks: equal nodes shared through one table
    are one object.  The walk is bottom-up, so a node is looked up with
    canonical fields, and comparing it with a held node stops at their
    identity however deep the term is.  Plain tuples (``Split`` branches)
    are rebuilt but never keyed.  The first field is entered by the loop, so
    a spine's heads and a run of λs cost no stack; the others are entered by
    recursion."""
    path = []
    while isinstance(t, tuple) and t:
        path.append(t)
        t = t[0]
    if isinstance(t, Node):
        t = table.setdefault(t, t)
    for node in reversed(path):
        if len(node) == 1:
            if t is not node[0]:
                node = tuple.__new__(type(node), (t,))
        else:
            fields = [t]
            for v in node[1:]:
                fields.append(share(v, table) if isinstance(v, tuple) else v)
            if any(map(is_not, fields, node)):
                node = tuple.__new__(type(node), fields)
        t = table.setdefault(node, node) if isinstance(node, Node) else node
    return t


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
