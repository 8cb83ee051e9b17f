"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from stt import core as C
from stt.checker import CheckEnv, check_module, def_equal, whnf
from stt.core import (
    Constant,
    Context,
    CubeVar,
    Id,
    INTERVAL,
    Refl,
    App,
    SHAPE_INNER_HORN,
    SHAPE_TRIANGLE,
    TopeEq,
    TopeLeq,
    TopeOr,
    Universe,
    Var,
    ONE,
    ZERO,
    substitute,
    weaken,
)
from stt.corpus import corpus_check
from stt.parser import parse_module
from stt.printer import print_module
from stt.surface import skeleton
from stt.topes import shape_included, tope_consistent, tope_entails

from gen_terms import random_term
from oracle_named import from_named, fresh, subst as named_subst, to_named
from test_topes import _points, _tope, oracle_entails

ROOT = pathlib.Path(__file__).resolve().parent.parent
STDLIB = ROOT / "src" / "stt" / "stdlib"
MUTANTS = pathlib.Path(__file__).resolve().parent / "mutants"
CORPUS_FILES = sorted(STDLIB.glob("*.stt"))

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


def _report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def test_c1_tope_solver_agrees_with_oracle():
    """Exhaustive small sequents plus 1000 seeded 3-atom sequents, 100%
    agreement with the independent model enumeration, in under 10 s."""
    start = time.monotonic()
    ctx2 = [INTERVAL, INTERVAL]
    pts = _points(2)
    atomics = [TopeLeq(a, b) for a in pts for b in pts] + [
        TopeEq(a, b) for a in pts for b in pts
    ]
    checked = disagreements = 0
    for goal in atomics:  # empty hypothesis set
        if tope_entails(ctx2, [], goal) != oracle_entails(2, [], goal):
            disagreements += 1
        checked += 1
    for h1 in atomics:  # one- and two-element hypothesis sets
        for h2 in atomics:
            for goal in atomics:
                if tope_entails(ctx2, [h1, h2], goal) != oracle_entails(
                    2, [h1, h2], goal
                ):
                    disagreements += 1
                checked += 1
    rng = random.Random(20260809)
    ctx3 = [INTERVAL, INTERVAL, INTERVAL]
    for _ in range(1000):
        hyps = [_tope(rng, 3, 2) for _ in range(rng.randrange(0, 3))]
        goal = _tope(rng, 3, 2)
        if tope_entails(ctx3, hyps, goal) != oracle_entails(3, hyps, goal):
            disagreements += 1
        checked += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 10.0, f"criterion allows 10 s, took {elapsed:.2f}"
    _report(f"C1 tope-solver-vs-oracle: PASS ({checked} sequents, {elapsed:.2f}s)")


def test_c2_named_entailments_exact():
    x, y, z = CubeVar(2), CubeVar(1), CubeVar(0)
    ctx = [INTERVAL, INTERVAL, INTERVAL]
    assert tope_entails(ctx, [], TopeLeq(x, x)) is True
    assert tope_entails(ctx, [TopeLeq(x, y), TopeLeq(y, x)], TopeEq(x, y)) is True
    assert tope_entails(ctx, [TopeLeq(x, y), TopeLeq(y, z)], TopeLeq(x, z)) is True
    assert tope_entails(ctx, [], TopeOr(TopeLeq(x, y), TopeLeq(y, x))) is True
    assert tope_entails([], [], TopeEq(ZERO, ONE)) is False
    assert tope_consistent([], [TopeEq(ZERO, ONE)]) is False
    assert tope_entails(ctx, [TopeLeq(x, y)], TopeLeq(y, x)) is False
    assert shape_included(SHAPE_INNER_HORN, SHAPE_TRIANGLE) is True
    assert shape_included(SHAPE_TRIANGLE, SHAPE_INNER_HORN) is False
    _report("C2 named-entailments: PASS (exact)")


@pytest.fixture(scope="module")
def corpus_env():
    env = CheckEnv()
    for name in ORDER:
        decls, diags, _ = parse_module((STDLIB / name).read_text(encoding="utf-8"))
        assert not diags
        cdiags = check_module(env, decls)
        assert not cdiags, [(d.decl, d.code) for d in cdiags]
    return env


def test_c3_identity_eliminator_computes(corpus_env):
    """The eliminator fires on constant paths throughout the corpus, and the
    concatenation and inversion units hold definitionally."""
    assert corpus_env.j_fired > 0
    ctx = Context().extend_term(Universe(0)).extend_term(Var(0))
    A, a = Var(1), Var(0)
    rfl = Refl(a)
    concat_refl = App(
        App(App(App(App(App(Constant("concat"), A), a), a), a), rfl), rfl
    )
    inv_refl = App(App(App(App(Constant("path-inv"), A), a), a), rfl)
    assert def_equal(corpus_env, ctx, concat_refl, rfl, Id(A, a, a))
    assert def_equal(corpus_env, ctx, inv_refl, rfl, Id(A, a, a))
    assert whnf(corpus_env, ctx, concat_refl) == rfl
    assert whnf(corpus_env, ctx, inv_refl) == rfl
    _report(
        f"C3 identity-eliminator-computation: PASS "
        f"(fired {corpus_env.j_fired} times; units definitional)"
    )


TIER1_NAMED = [
    "path-inv",
    "concat",
    "transport",
    "concat-refl-unit",
    "inv-refl",
    "isContr",
    "isProp",
    "singleton-contr",
    "fib",
    "isEquiv",
    "Equiv",
    "id-isEquiv",
    "hom",
    "id-arrow",
    "isSegal",
    "comp",
    "comp-id",
    "id-comp",
    "isIso",
    "Iso",
    "isRezk",
    "isGroupoidal",
    "isCovariant",
    "cov-transport",
    "yoneda-ev",
    "yoneda-inv",
    "yoneda-comput",
]


def test_c4_corpus_acceptance():
    """All PROVED entries check with zero diagnostics inside their recorded
    axiom budgets; the no-axiom tier is empty, the univalence consequences
    use exactly ua, and the full run stays under 60 s."""
    report = corpus_check()
    assert report.ok, [
        (r.entry.name, r.status, r.detail) for r in report.results if not r.ok
    ]
    assert not report.diagnostics
    by_name = {r.entry.name: r for r in report.results}
    for name in TIER1_NAMED:
        assert by_name[name].entry.tier == "PROVED", name
        assert by_name[name].axioms == frozenset(), (name, sorted(by_name[name].axioms))
    for name in ("eq-to-path", "ua-transport-equiv"):
        assert by_name[name].axioms == frozenset({"ua"}), name
    # the dependent form is recorded as stated; the corollary is proved from
    # it, and the manifest records exactly that budget
    assert by_name["yoneda-dependent"].entry.tier == "STATED"
    assert by_name["yoneda"].entry.tier == "PROVED"
    assert by_name["yoneda"].axioms == frozenset({"yoneda-dependent"})
    assert report.wall_seconds < 60.0
    _report(
        f"C4 corpus-acceptance: PASS ({len(report.results)} entries, "
        f"{report.wall_seconds:.2f}s)"
    )


def test_c5_mutation_suite_killed_at_target(mutant_reports):
    rows = []
    for line in (MUTANTS / "index.txt").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append(tuple(p.strip() for p in line.split("|")))
    assert len(rows) >= 20
    killed = 0
    for mutant, base, target in rows:
        rep = mutant_reports[mutant]
        if rep.ok:
            continue
        errs = [d for d in rep.diagnostics if d.decl == target]
        decls, _, _ = parse_module((MUTANTS / mutant).read_text(encoding="utf-8"))
        tspan = next(d.span for d in decls if d.name == target)
        if any(
            d.span is not None
            and tspan.start <= d.span.start
            and d.span.end <= tspan.end
            for d in errs
        ):
            killed += 1
    assert killed == len(rows), f"killed {killed}/{len(rows)}"
    _report(f"C5 mutation-suite: PASS ({killed}/{len(rows)} killed at target)")


def _round_trip(src: str, label: str) -> int:
    """Parse, print and parse ``src``: the same skeletons and the same print."""
    decls, diags, _ = parse_module(src)
    assert not diags, label
    printed = print_module(decls)
    decls2, diags2, _ = parse_module(printed)
    assert not diags2, label
    assert [skeleton(d) for d in decls] == [skeleton(d) for d in decls2], label
    assert print_module(decls2) == printed, label
    return len(decls)


def test_c6_parser_round_trip_fixpoint():
    total = sum(_round_trip(p.read_text(encoding="utf-8"), p.name) for p in CORPUS_FILES)
    _report(
        f"C6 parser-round-trip: PASS ({len(CORPUS_FILES)} files, {total} declarations)"
    )


@pytest.mark.parametrize("seed", [1, 3])
def test_c6_parser_round_trip_fixpoint_on_generated_modules(seed, perfbench_inputs):
    total = _round_trip(perfbench_inputs.frontend_module(seed), f"frontend_module({seed})")
    _report(f"C6 parser-round-trip: PASS (frontend_module({seed}), {total} declarations)")


def _json_run(hash_seed: str) -> str:
    r = subprocess.run(
        [sys.executable, "-m", "stt.cli", "check", "--json"] + [str(p) for p in CORPUS_FILES],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    doc.pop("timing")
    return json.dumps(doc, sort_keys=True)


def test_c7_json_determinism():
    # different hash seeds expose any output that depends on set or dict order
    seed_0, seed_1 = _json_run("0"), _json_run("1")
    assert seed_0.encode() == seed_1.encode()
    _report("C7 json-determinism: PASS (byte-identical under PYTHONHASHSEED 0 and 1)")


def test_c8_substitution_laws_against_named_oracle():
    rng = random.Random(8675309)
    discrepancies = 0
    for _ in range(500):
        depth = 1 + rng.randrange(0, 3)
        level = rng.randrange(0, depth)
        t = random_term(rng, depth, rng.randrange(0, 10))
        v = random_term(rng, depth - 1, rng.randrange(0, 6))
        stack = [fresh("g") for _ in range(depth)]
        target = stack[depth - 1 - level]
        reduced = [s for s in stack if s != target]
        expected = from_named(
            named_subst(to_named(t, stack), target, to_named(v, reduced)), reduced
        )
        if substitute(t, level, v) != expected:
            discrepancies += 1
        # weakening then substituting at the fresh slot is the identity
        if substitute(weaken(t, 1, 0), 0, random_term(rng, depth, 3)) != t:
            discrepancies += 1
    assert discrepancies == 0
    _report("C8 substitution-laws: PASS (500 cases, 0 discrepancies)")
