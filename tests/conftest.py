"""Shared fixtures.  Each mutant corpus is checked once per test session and
its report shared by every test that inspects mutants."""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import golden  # noqa: E402


@pytest.fixture(scope="session")
def mutant_reports(tmp_path_factory):
    """Mutant file -> ``CorpusReport`` of the corpus carrying that mutant."""
    return {
        mutant: golden.run_mutant(mutant, base, tmp_path_factory.mktemp(mutant))
        for mutant, base, _ in golden.mutant_index()
    }
