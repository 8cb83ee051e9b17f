"""Mutation suite: every shipped mutant corpus must be rejected, with at
least one error anchored inside the mutated declaration.  Each corpus is
checked once per session, by the ``mutant_reports`` fixture."""

from __future__ import annotations

import pathlib

import pytest

from stt.parser import parse_module

import golden

ROOT = pathlib.Path(__file__).resolve().parent.parent
STDLIB = ROOT / "src" / "stt" / "stdlib"
MUTANTS = pathlib.Path(__file__).resolve().parent / "mutants"


INDEX = golden.mutant_index()


def test_at_least_twenty_mutants_shipped():
    assert len(INDEX) >= 20


def test_mutants_differ_from_their_bases():
    for mutant, base, _ in INDEX:
        assert (MUTANTS / mutant).read_text(encoding="utf-8") != (
            STDLIB / base
        ).read_text(encoding="utf-8"), mutant


@pytest.mark.parametrize(
    "mutant,base,target", INDEX, ids=[m for m, _, _ in INDEX]
)
def test_mutant_is_killed_at_target(mutant_reports, mutant, base, target):
    report = mutant_reports[mutant]
    assert not report.ok, f"{mutant} was accepted"

    at_target = [d for d in report.diagnostics if d.decl == target]
    assert at_target, f"{mutant}: no error at declaration {target!r}"

    decls, _, _ = parse_module((MUTANTS / mutant).read_text(encoding="utf-8"))
    tspan = next(d.span for d in decls if d.name == target)
    assert any(
        d.span is not None and tspan.start <= d.span.start and d.span.end <= tspan.end
        for d in at_target
    ), f"{mutant}: error span escapes the mutated declaration"


def test_kill_rate_is_total(mutant_reports):
    killed = 0
    for mutant, base, target in INDEX:
        if not mutant_reports[mutant].ok:
            killed += 1
    assert killed == len(INDEX)
