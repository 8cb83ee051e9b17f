"""Batch driver: every file is lexed once per run, one top-level form at a
time, a declaration that failed to check stays failed in the files that
import it, and a file's syntax is held one declaration at a time."""

from __future__ import annotations

import tracemalloc

import pytest

import stt.batch
import stt.parser
import stt.resolve  # noqa: F401  (imported by checking; not counted against it)
from stt.batch import check_files
from stt.corpus import corpus_check
from stt.lexer import start_cursor
from stt.parser import parse_module


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


@pytest.mark.parametrize(
    "source",
    ["def base : U1 := U\ndef bad : U1 := U $\n", "$\ndef base : U1 := U\n"],
    ids=["last-declaration", "header"],
)
def test_import_that_does_not_lex_is_a_failed_import(tmp_path, source):
    """A file that does not lex keeps none of its names, so a name taken
    from it is blamed on the import, as for an unreadable file."""
    (tmp_path / "lexbad.stt").write_text(source, encoding="utf-8")
    (tmp_path / "imp.stt").write_text(
        '#import "lexbad.stt"\ndef use : U1 := base\n', encoding="utf-8"
    )
    batch = check_files([str(tmp_path / "imp.stt")])
    found = [(d.decl, d.code) for d in batch.all_diagnostics]
    assert found == [("use", "E-DEPENDS-ON-FAILED"), (None, "E-INVALID-CHARACTER")]
    assert batch.all_diagnostics[0].message.endswith("; an #import of this file failed")
    assert batch.exit_code() == 2


@pytest.mark.parametrize(
    "bottom", ["lexbad.stt", "missing.stt"], ids=["does-not-lex", "unreadable"]
)
def test_failed_import_two_levels_down_is_a_failed_import(tmp_path, bottom):
    """A failure anywhere in the import closure, not only in a direct
    import, turns a name that cannot be found into E-DEPENDS-ON-FAILED."""
    (tmp_path / "lexbad.stt").write_text(
        "def base : U1 := U\ndef bad : U1 := U $\n", encoding="utf-8"
    )
    (tmp_path / "mid.stt").write_text(f'#import "{bottom}"\n', encoding="utf-8")
    (tmp_path / "top.stt").write_text(
        '#import "mid.stt"\ndef use : U1 := base\n', encoding="utf-8"
    )
    batch = check_files([str(tmp_path / "top.stt")])
    [use] = [d for d in batch.all_diagnostics if d.decl == "use"]
    assert use.code == "E-DEPENDS-ON-FAILED"
    assert use.message.endswith("; an #import of this file failed")
    assert batch.exit_code() == 2


def test_a_name_from_two_files_is_one_duplicate_and_a_diamond_is_none(tmp_path):
    files = {
        "a1.stt": "def x : U1 := U\n",
        "a2.stt": "def x : U1 := U\n",
        "b.stt": '#import "a1.stt"\n',
        "c.stt": '#import "a2.stt"\n',
        "d.stt": '#import "b.stt"\n#import "c.stt"\n',
        "e.stt": '#import "d.stt"\n',
        "p.stt": '#import "a1.stt"\n',
        "q.stt": '#import "a1.stt"\n',
        "dia.stt": '#import "p.stt"\n#import "q.stt"\ndef y : U1 := x\n',
    }
    for name, source in files.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    a1, a2 = (str(tmp_path / n) for n in ("a1.stt", "a2.stt"))
    for top in ("d.stt", "e.stt"):  # the clash arises in d, and e only imports it
        clash = check_files([str(tmp_path / top)])
        found = [(d.code, d.message, d.file) for d in clash.all_diagnostics]
        message = f"'x' is declared by both '{a1}' and '{a2}'"
        assert found == [("E-DUPLICATE-NAME", message, str(tmp_path / "d.stt"))], top
    diamond = check_files([str(tmp_path / "dia.stt")])
    assert diamond.all_diagnostics == []
    assert diamond.exit_code() == 0


class _CountingDict(dict):
    """A dict that counts the entries put into it, however they are put."""

    def __init__(self):
        super().__init__()
        self.inserted = 0

    def __setitem__(self, key, value):
        self.inserted += 1
        super().__setitem__(key, value)

    def update(self, *args, **kwargs):
        other = dict(*args, **kwargs)
        self.inserted += len(other)
        super().update(other)

    def setdefault(self, key, default=None):
        self.inserted += 1
        return super().setdefault(key, default)


def test_scope_insertions_grow_at_most_quadratically_in_an_import_chain(
    tmp_path, monkeypatch
):
    """Each file's scope takes each declaration of its closure once, so a
    chain of n files costs about n^2 insertions; re-copying each imported
    file's whole scope costs about n^3, eight times as many at 2n."""
    tables: list[_CountingDict] = []

    class CountingEnv(stt.batch.CheckEnv):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.decls = _CountingDict()
            tables.append(self.decls)

    monkeypatch.setattr(stt.batch, "CheckEnv", CountingEnv)

    def insertions(n: int) -> int:
        chain = tmp_path / f"chain{n}"
        chain.mkdir()
        for i in range(n):
            head = f'#import "f{i - 1}.stt"\n' if i else ""
            body = f"def a{i} : U1 := U\ndef b{i} : U1 := U\n"
            (chain / f"f{i}.stt").write_text(head + body, encoding="utf-8")
        tables.clear()
        batch = check_files([str(chain / f"f{n - 1}.stt")])
        assert batch.exit_code() == 0
        return sum(t.inserted for t in tables)

    small, large = insertions(20), insertions(40)
    assert small > 0
    assert large <= 4.5 * small, (small, large)


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


def test_forward_reference_to_a_later_parse_failure_is_unbound(tmp_path):
    """Declarations are checked as they are parsed, so a later declaration
    that fails to parse is not yet known, like any later declaration."""
    path = tmp_path / "main.stt"
    path.write_text("def use (A : U) : U := b A\ndef b (A : U : U := A\n", encoding="utf-8")
    batch = check_files([str(path)])
    found = sorted((d.decl, d.code) for d in batch.all_diagnostics)
    assert found == [("b", "E-PARSE"), ("use", "E-UNBOUND-NAME")]
    assert batch.exit_code() == 2


def test_frontend_peak_memory_stays_under_a_quarter_of_the_surface_tree(
    tmp_path, perfbench_inputs
):
    """``check_files`` parses, resolves and checks one declaration at a time,
    so on a 2000-declaration module it peaks at under 0.25 of the surface
    tree that ``parse_module`` keeps for the same source: the core
    declarations it keeps are smaller than their syntax, hold one object
    for each distinct subterm, and carry no span."""
    source = perfbench_inputs.frontend_module(3)
    path = tmp_path / "generated.stt"
    path.write_text(source, encoding="utf-8")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parsed = parse_module(source)
        surface = tracemalloc.get_traced_memory()[0] - base
        del parsed
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        batch = check_files([str(path)])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert batch.exit_code() == 0
    assert peak <= 0.25 * surface, (peak, surface)
