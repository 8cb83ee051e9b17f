"""Golden diagnostics: the JSON emitted on the corpus (at four unfold
budgets), the stdlib and every mutant corpus stays byte-identical to
``tests/golden/diagnostics.json``.  Regenerate it with ``tools/golden.py``
only when a change of output is intended."""

from __future__ import annotations

import difflib
import itertools

import pytest

import golden


def test_diagnostics_match_golden(mutant_reports):
    expected = golden.GOLDEN.read_text(encoding="utf-8")
    actual = golden.document(mutant_reports)
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(), actual.splitlines(), "golden", "now", lineterm="", n=1
        )
        pytest.fail("\n".join(itertools.islice(diff, 80)))
