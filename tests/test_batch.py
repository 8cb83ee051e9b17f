"""Batch driver: every file is lexed once per run, one top-level form at a
time, a declaration that failed to check stays failed in the files that
import it, and a file's syntax is not held twice over."""

from __future__ import annotations

import tracemalloc

import pytest

import stt.batch
import stt.parser
import stt.resolve  # noqa: F401  (imported by checking; not counted against it)
from stt.batch import check_files
from stt.corpus import corpus_check
from stt.lexer import start_cursor


def _two_file_chain(tmp_path, base_type: str) -> str:
    (tmp_path / "base.stt").write_text(
        f"def base (A : U) : {base_type} := A\n", encoding="utf-8"
    )
    (tmp_path / "main.stt").write_text(
        '#import "base.stt"\ndef use (A : U) : U := (base A)\n', encoding="utf-8"
    )
    return str(tmp_path / "main.stt")


@pytest.fixture
def lexed(monkeypatch):
    """source -> the cursors before and after each ``tokenize`` call on it."""
    calls: dict[str, list[tuple[tuple, tuple]]] = {}
    real = stt.parser.tokenize

    def spy(source, keep_trivia=False, cursor=None):
        before = tuple(cursor) if cursor is not None else None
        out = real(source, keep_trivia, cursor)
        after = tuple(cursor) if cursor is not None else None
        calls.setdefault(source, []).append((before, after))
        return out

    monkeypatch.setattr(stt.parser, "tokenize", spy)
    return calls


def _lexed_once(source: str, cursors: list[tuple[tuple, tuple]]) -> bool:
    """The calls' ranges cover ``[0, len(source))`` exactly once, in order,
    each call resuming where the one before it stopped."""
    expected = tuple(start_cursor())
    for before, after in cursors:
        if before != expected or not before[0] < after[0]:
            return False
        expected = after
    return expected[0] == len(source)


def test_corpus_lexes_each_file_once(lexed):
    report = corpus_check()
    assert report.ok
    assert len(report.manifest.files()) == 9
    assert len(lexed) == 9
    assert all(_lexed_once(source, cursors) for source, cursors in lexed.items())


def test_import_chain_lexes_each_file_once(tmp_path, lexed):
    batch = check_files([_two_file_chain(tmp_path, "U")])
    assert batch.exit_code() == 0
    assert len(lexed) == 2
    assert all(_lexed_once(source, cursors) for source, cursors in lexed.items())


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


def test_frontend_peak_memory_stays_near_the_surface_tree(tmp_path, monkeypatch, perfbench_inputs):
    """Only one top-level form's tokens are alive while parsing, and each
    surface declaration is let go once checked, so neither parsing nor
    checking a 2000-declaration module peaks much above its surface tree.
    One traced ``check_files`` call measures both: the spy on its
    ``parse_module`` reads what parsing keeps and its peak."""
    path = tmp_path / "generated.stt"
    path.write_text(perfbench_inputs.frontend_module(3), encoding="utf-8")
    real = stt.batch.parse_module
    parse = {}

    def spy(source):
        parse["base"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = real(source)
        parse["surface"], parse["peak"] = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(stt.batch, "parse_module", spy)
    tracemalloc.start()
    try:
        batch = check_files([str(path)])
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.exit_code() == 0
    surface = parse["surface"] - parse["base"]
    assert parse["peak"] - parse["base"] <= 1.1 * surface
    assert check_peak - parse["base"] <= 1.1 * surface
