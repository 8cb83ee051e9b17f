"""Batch driver: every file is lexed once per run, and a declaration that
failed to check stays failed in the files that import it."""

from __future__ import annotations

import pytest

import stt.parser
from stt.batch import check_files
from stt.corpus import corpus_check


def _two_file_chain(tmp_path, base_type: str) -> str:
    (tmp_path / "base.stt").write_text(
        f"def base (A : U) : {base_type} := A\n", encoding="utf-8"
    )
    (tmp_path / "main.stt").write_text(
        '#import "base.stt"\ndef use (A : U) : U := (base A)\n', encoding="utf-8"
    )
    return str(tmp_path / "main.stt")


@pytest.fixture
def tokenize_calls(monkeypatch):
    calls = []
    real = stt.parser.tokenize

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(stt.parser, "tokenize", counting)
    return calls


def test_corpus_lexes_each_file_once(tokenize_calls):
    report = corpus_check()
    assert report.ok
    assert len(report.manifest.files()) == 9
    assert len(tokenize_calls) == 9


def test_import_chain_lexes_each_file_once(tmp_path, tokenize_calls):
    batch = check_files([_two_file_chain(tmp_path, "U")])
    assert batch.exit_code() == 0
    assert len(tokenize_calls) == 2


def test_failed_import_is_reported_as_failed_not_unbound(tmp_path):
    batch = check_files([_two_file_chain(tmp_path, "A")])
    codes = {d.decl: d.code for d in batch.all_diagnostics}
    assert codes == {"base": "E-TYPE-MISMATCH", "use": "E-DEPENDS-ON-FAILED"}
    assert batch.exit_code() == 1


def test_declaration_that_fails_to_parse_is_failed_here_and_in_importers(tmp_path):
    (tmp_path / "base.stt").write_text(
        "def base (A : U : U := A\ndef use (A : U) : U := base A\n", encoding="utf-8"
    )
    (tmp_path / "main.stt").write_text(
        '#import "base.stt"\ndef use2 (A : U) : U := base A\n', encoding="utf-8"
    )
    batch = check_files([str(tmp_path / "main.stt")])
    found = sorted((d.decl, d.code) for d in batch.all_diagnostics)
    assert found == [
        ("base", "E-PARSE"),
        ("use", "E-DEPENDS-ON-FAILED"),
        ("use2", "E-DEPENDS-ON-FAILED"),
    ]
    assert batch.exit_code() == 2
