"""Seeded inputs for the benchmark workloads and the answers known for them.

Everything here is derived from the seed and from the repository's data
files; nothing is computed by asking stt.  ``run.py`` and its
worker processes both call these functions, so a worker rebuilds exactly the
inputs ``run.py`` later checks its verdicts against.
"""

from __future__ import annotations

import os
import random
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STDLIB = os.path.join(SRC, "stt", "stdlib")

_DECL_LINE = re.compile(r"^(def|postulate)\s")


def stdlib_declarations() -> int:
    """Top-level declarations in the bundled stdlib, counted from the source text."""
    count = 0
    for name in os.listdir(STDLIB):
        if name.endswith(".stt"):
            with open(os.path.join(STDLIB, name), encoding="utf-8") as fh:
                count += sum(1 for line in fh if _DECL_LINE.match(line))
    return count


# ---------------------------------------------------------------------------
# topes

# Random sequents are stratified by the number of coordinates they mention,
# because a cold query's cost is set by that number (about 12x per extra
# coordinate), so every seed gets the same mix of cheap and costly misses.
RANDOM_SEQUENTS = {3: 160, 4: 60, 5: 20}
CHAIN_LENGTHS = (4, 5, 6)
REPEATS = 5


def _atomic(rng, n):
    from stt.core import ONE, ZERO, CubeVar, TopeEq, TopeLeq

    pts = [ZERO, ONE] + [CubeVar(i) for i in range(n)]
    l, r = rng.choice(pts), rng.choice(pts)
    return TopeLeq(l, r) if rng.random() < 0.5 else TopeEq(l, r)


def _tope(rng, n, depth):
    """Random tope, drawn as ``tests/test_topes.py::_tope`` draws them."""
    from stt.core import TopeAnd, TopeOr

    if depth == 0:
        return _atomic(rng, n)
    roll = rng.random()
    if roll < 0.4:
        return _atomic(rng, n)
    ctor = TopeAnd if roll < 0.7 else TopeOr
    return ctor(_tope(rng, n, depth - 1), _tope(rng, n, depth - 1))


def _coordinates(t, acc: set[int]) -> set[int]:
    from stt.core import CubeVar

    if isinstance(t, CubeVar):
        acc.add(t.index)
    elif hasattr(t, "lhs"):
        _coordinates(t.lhs, acc)
        _coordinates(t.rhs, acc)
    return acc


def tope_sequents(seed: int):
    """Distinct sequents ``(n, hyps, goal, answer)``.

    ``answer`` is None for random sequents (``run.py`` asks the independent
    oracle) and the answer known by construction for the ≤-chains.
    """
    from stt.core import CubeVar, TopeLeq

    rng = random.Random(seed)
    out = []
    for n, count in RANDOM_SEQUENTS.items():
        made = 0
        while made < count:
            hyps = [_tope(rng, n, 2) for _ in range(rng.randrange(0, 3))]
            goal = _tope(rng, n, 2)
            mentioned: set[int] = set()
            for t in hyps + [goal]:
                _coordinates(t, mentioned)
            if len(mentioned) == n:
                out.append((n, hyps, goal, None))
                made += 1
    for k in CHAIN_LENGTHS:
        perm = rng.sample(range(k), k)
        hyps = [TopeLeq(CubeVar(perm[i]), CubeVar(perm[i + 1])) for i in range(k - 1)]
        rng.shuffle(hyps)
        low, high = CubeVar(perm[0]), CubeVar(perm[-1])
        out.append((k, hyps, TopeLeq(low, high), True))
        out.append((k, hyps, TopeLeq(high, low), False))
    return out


def tope_jobs(seed: int, n_sequents: int) -> list[int]:
    """Indices into ``tope_sequents(seed)``: each asked REPEATS times, shuffled."""
    order = [i for i in range(n_sequents) for _ in range(REPEATS)]
    random.Random(seed + 1).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# frontend

FRONTEND_DECLS = 2000
_RECENT = 8  # how far back a body may refer


def frontend_module(seed: int) -> str:
    """A well-typed module of small declarations.

    Each declaration takes a type, 1 to 6 points and an identity proof
    between two of them, and returns that proof through an annotated
    λ-redex, a call to one of the previous few declarations, or both.
    Unicode and ASCII spellings are mixed, as in hand-written files.
    """
    rng = random.Random(seed)
    sigs: list[tuple[int, int, int]] = []  # (points, a, b) per declaration
    out = [f"-- generated benchmark module, seed {seed}", "", "#section generated", ""]
    for i in range(FRONTEND_DECLS):
        k = rng.randint(1, 6)
        a, b = rng.randint(1, k), rng.randint(1, k)
        sigs.append((k, a, b))
        lam, to, arr = rng.choice((("λ", "↦", "→"), ("lambda", "|->", "->")))
        pts = [f"x{j}" for j in range(1, k + 1)]
        if rng.random() < 0.5:
            binders = f"({' '.join(pts)} : A)"
        else:
            binders = " ".join(f"({p} : A)" for p in pts)
        goal = f"Id A x{a} x{b}"
        call = None
        for j in rng.sample(range(max(0, i - _RECENT), i), min(i, _RECENT)):
            kj, aj, bj = sigs[j]
            if (aj == bj) != (a == b):
                continue
            args = [rng.choice(pts) for _ in range(kj)]
            args[aj - 1], args[bj - 1] = f"x{a}", f"x{b}"
            call = f"g{j} A {' '.join(args)} p"
            break
        redex = f"(({lam} q {to} q) : {goal} {arr} {goal})"
        roll = rng.random()
        if call is None or roll < 0.3:
            body = f"{redex} p"
        elif roll < 0.65:
            body = call
        else:
            body = f"{redex} ({call})"
        if rng.random() < 0.1:
            out.append(f"-- step {i}")
        out.append(f"def g{i} (A : U) {binders} (p : {goal}) : {goal} :=")
        out.append(f"  {body}")
        out.append("")
    return "\n".join(out)
