"""Seeded random generator of well-scoped nameless terms for property tests,
and the immediate subterms of a term."""

from __future__ import annotations

import random

from stt import core as C


def random_term(rng: random.Random, depth: int, size: int) -> C.Term:
    """A well-scoped term with `depth` free term indices available."""
    if size <= 0:
        leaves = []
        if depth > 0:
            leaves.append(lambda: C.Var(rng.randrange(depth)))
        leaves.append(lambda: C.Constant(rng.choice(["k0", "k1", "k2"])))
        leaves.append(lambda: C.Universe(rng.choice([0, 1])))
        return rng.choice(leaves)()
    size -= 1
    pick = rng.randrange(10)
    if pick == 0:
        return C.Lambda(random_term(rng, depth + 1, size))
    if pick == 1:
        s = rng.randrange(size + 1)
        return C.Pi(random_term(rng, depth, s), random_term(rng, depth + 1, size - s))
    if pick == 2:
        s = rng.randrange(size + 1)
        return C.Sigma(random_term(rng, depth, s), random_term(rng, depth + 1, size - s))
    if pick == 3:
        s = rng.randrange(size + 1)
        return C.App(random_term(rng, depth, s), random_term(rng, depth, size - s))
    if pick == 4:
        s = rng.randrange(size + 1)
        return C.Pair(random_term(rng, depth, s), random_term(rng, depth, size - s))
    if pick == 5:
        return C.Fst(random_term(rng, depth, size))
    if pick == 6:
        return C.Snd(random_term(rng, depth, size))
    if pick == 7:
        s = rng.randrange(size + 1)
        u = rng.randrange(size - s + 1)
        return C.Id(
            random_term(rng, depth, s),
            random_term(rng, depth, u),
            random_term(rng, depth, size - s - u),
        )
    if pick == 8:
        return C.Refl(random_term(rng, depth, size))
    s = rng.randrange(size + 1)
    u = rng.randrange(size - s + 1)
    return C.IndPath(
        random_term(rng, depth + 3, s),
        random_term(rng, depth + 1, u),
        random_term(rng, depth, size - s - u),
    )


def children(t: C.Term) -> list[tuple[C.Term, int, int]]:
    """The depth-one entries of ``core.subterms(t, False)``: the walk is in
    pre-order, so each child is followed by its own subtree."""
    walk = list(C.subterms(t, False))
    out, i = [], 1
    while i < len(walk):
        out.append(walk[i])
        i += sum(1 for _ in C.subterms(walk[i][0], False))
    return out


def _split_size(rng: random.Random, size: int, parts: int) -> list[int]:
    cuts = sorted(rng.randrange(size + 1) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [size])]


def random_point(rng: random.Random, cubes: int, size: int) -> C.CubePoint:
    """A point with `cubes` free cube indices available."""
    if size <= 0:
        leaves = [C.ZERO, C.ONE, C.STAR]
        if cubes > 0:
            leaves.append(C.CubeVar(rng.randrange(cubes)))
        return rng.choice(leaves)
    size -= 1
    pick = rng.randrange(3)
    if pick == 0:
        s, r = _split_size(rng, size, 2)
        return C.PointPair(random_point(rng, cubes, s), random_point(rng, cubes, r))
    if pick == 1:
        return C.PointFst(random_point(rng, cubes, size))
    return C.PointSnd(random_point(rng, cubes, size))


def random_tope(rng: random.Random, cubes: int, size: int) -> C.Tope:
    """A tope with `cubes` free cube indices available."""
    if size <= 0:
        return rng.choice([C.TOP, C.BOT])
    s, r = _split_size(rng, size - 1, 2)
    pick = rng.randrange(4)
    if pick < 2:
        node = C.TopeLeq if pick == 0 else C.TopeEq
        return node(random_point(rng, cubes, s), random_point(rng, cubes, r))
    node = C.TopeAnd if pick == 2 else C.TopeOr
    return node(random_tope(rng, cubes, s), random_tope(rng, cubes, r))


def random_cube_term(rng: random.Random, depth: int, cubes: int, size: int) -> C.Term:
    """A well-scoped term with `depth` free term and `cubes` free cube indices
    that interleaves term binders with extension types, cube abstractions and
    applications, and splits, so topes and points occur under both kinds of
    binder."""
    if size <= 0:
        return random_term(rng, depth, 0)
    size -= 1
    pick = rng.randrange(8)
    if pick == 0:
        a, b, c, d = _split_size(rng, size, 4)
        cube = rng.choice([C.UNIT, C.INTERVAL, C.CubeProd(C.INTERVAL, C.INTERVAL)])
        return C.ExtType(
            C.Shape(cube, random_tope(rng, cubes + 1, a)),
            random_cube_term(rng, depth, cubes + 1, b),
            random_tope(rng, cubes + 1, c),
            random_cube_term(rng, depth, cubes + 1, d),
        )
    if pick == 1:
        return C.ExtLambda(random_cube_term(rng, depth, cubes + 1, size))
    if pick == 2:
        s, r = _split_size(rng, size, 2)
        return C.ExtApp(random_cube_term(rng, depth, cubes, s), random_point(rng, cubes, r))
    if pick == 3:
        branches = rng.randrange(3)  # 0 builds the empty split
        sizes = _split_size(rng, size, 2 * branches) if branches else []
        return C.Split(
            tuple(
                (random_tope(rng, cubes, s), random_cube_term(rng, depth, cubes, r))
                for s, r in zip(sizes[::2], sizes[1::2])
            )
        )
    if pick == 4:
        return C.Lambda(random_cube_term(rng, depth + 1, cubes, size))
    if pick == 5:
        s, r = _split_size(rng, size, 2)
        return C.Pi(
            random_cube_term(rng, depth, cubes, s), random_cube_term(rng, depth + 1, cubes, r)
        )
    if pick == 6:
        a, b, c = _split_size(rng, size, 3)
        return C.IndPath(
            random_cube_term(rng, depth + 3, cubes, a),
            random_cube_term(rng, depth + 1, cubes, b),
            random_cube_term(rng, depth, cubes, c),
        )
    s, r = _split_size(rng, size, 2)
    return C.App(random_cube_term(rng, depth, cubes, s), random_cube_term(rng, depth, cubes, r))
