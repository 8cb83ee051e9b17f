"""Mutation suite: every shipped mutant corpus must be rejected, with at
least one error anchored inside the mutated declaration."""

from __future__ import annotations

import pathlib
import shutil

import pytest

from stt.corpus import corpus_check
from stt.parser import parse_module

ROOT = pathlib.Path(__file__).resolve().parent.parent
STDLIB = ROOT / "src" / "stt" / "stdlib"
MUTANTS = pathlib.Path(__file__).resolve().parent / "mutants"


def _load_index():
    rows = []
    for line in (MUTANTS / "index.txt").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        mutant, base, target = (p.strip() for p in line.split("|"))
        rows.append((mutant, base, target))
    return rows


INDEX = _load_index()


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
def test_mutant_is_killed_at_target(tmp_path, mutant, base, target):
    for f in STDLIB.glob("*.stt"):
        shutil.copy(f, tmp_path)
    shutil.copy(STDLIB / "manifest.txt", tmp_path)
    shutil.copy(MUTANTS / mutant, tmp_path / base)

    report = corpus_check(str(tmp_path / "manifest.txt"))
    assert not report.ok, f"{mutant} was accepted"

    errors = [d for d in report.diagnostics if d.severity == "error"]
    at_target = [d for d in errors if d.decl == target]
    assert at_target, f"{mutant}: no error at declaration {target!r}"

    decls, _, _ = parse_module((MUTANTS / mutant).read_text(encoding="utf-8"))
    tspan = next(d.span for d in decls if d.name == target)
    assert any(
        d.span is not None and tspan.start <= d.span.start and d.span.end <= tspan.end
        for d in at_target
    ), f"{mutant}: error span escapes the mutated declaration"


def test_kill_rate_is_total(tmp_path):
    killed = 0
    for mutant, base, target in INDEX:
        case_dir = tmp_path / mutant
        case_dir.mkdir()
        for f in STDLIB.glob("*.stt"):
            shutil.copy(f, case_dir)
        shutil.copy(STDLIB / "manifest.txt", case_dir)
        shutil.copy(MUTANTS / mutant, case_dir / base)
        if not corpus_check(str(case_dir / "manifest.txt")).ok:
            killed += 1
    assert killed == len(INDEX)
