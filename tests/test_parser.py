"""Parser and printer contracts: declaration forms, error recovery at the
boundaries of the lexer's chunks, the round-trip and idempotence properties
over the bundled corpus, and the single-token-deletion resilience
invariant."""

from __future__ import annotations

import pathlib
import re

import pytest

from stt.batch import check_files
from stt import lexer
from stt.core import (
    ZERO,
    CubeVar,
    Fst,
    Lambda,
    Pi,
    Sigma,
    TopeAnd,
    TopeLeq,
    TopeTop,
    Universe,
    Var,
)
from stt.corpus import load_manifest
from stt.lexer import TokenKind, tokenize
from stt import surface as S
from stt.diagnostics import Failure
from stt.parser import imports_of, parse_expr, parse_module
from stt.printer import pretty_print, print_module, print_term, print_tope
from stt.resolve import Resolver, resolve
from stt.surface import SurfaceDecl, skeleton

STDLIB = pathlib.Path(__file__).resolve().parent.parent / "src" / "stt" / "stdlib"
CORPUS = sorted(STDLIB.glob("*.stt"))


def test_simple_def():
    decls, diags, _ = parse_module("def idfun (A : U) : A → A := λ a ↦ a")
    assert not diags
    (d,) = decls
    assert d.name == "idfun"
    assert len(d.params) == 1
    assert not d.is_postulate


def test_postulate_marker():
    decls, diags, _ = parse_module("postulate ua (A : U) : A")
    assert not diags
    (d,) = decls
    assert d.is_postulate
    assert d.body is None
    assert pretty_print(d).startswith("postulate")


def test_malformed_first_declaration_second_survives():
    src = "def broken (A : U := A\ndef fine (A : U) : U := A"
    decls, diags, _ = parse_module(src)
    assert len(diags) == 1
    assert diags[0].code == "E-PARSE"
    assert [d.name for d in decls] == ["fine"]


def test_stray_tokens_resync():
    decls, diags, _ = parse_module("⟨ def ok (A : U) : U := A")
    assert len(diags) == 1
    assert [d.name for d in decls] == ["ok"]


def test_duplicate_parameter_rejected():
    decls, diags, _ = parse_module("def f (a a : U) : U := a")
    assert len(diags) == 1
    assert not decls


def test_imports_of():
    src = '#import "a.stt"\n#import "sub/b.stt"\ndef x : U := U'
    assert [p for p, _ in imports_of(src)] == ["a.stt", "sub/b.stt"]


def test_parse_is_deterministic():
    src = CORPUS[0].read_text(encoding="utf-8")
    a = parse_module(src)
    b = parse_module(src)
    assert [skeleton(d) for d in a[0]] == [skeleton(d) for d in b[0]]


@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_round_trip_over_corpus(path):
    src = path.read_text(encoding="utf-8")
    decls, diags, _ = parse_module(src)
    assert not diags
    printed = print_module(decls)
    decls2, diags2, _ = parse_module(printed)
    assert not diags2
    assert [skeleton(d) for d in decls] == [skeleton(d) for d in decls2]


@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_print_is_idempotent_over_corpus(path):
    src = path.read_text(encoding="utf-8")
    decls, _, _ = parse_module(src)
    once = print_module(decls)
    twice = print_module(parse_module(once)[0])
    assert once == twice


def _decl_token_slices(src: str):
    """Token index ranges of each top-level declaration, by lexeme scan."""
    toks = [t for t in tokenize(src) if t.kind != TokenKind.LAYOUT]
    starts = [i for i, t in enumerate(toks) if t.canon in ("def", "postulate")]
    slices = []
    for j, s in enumerate(starts):
        end = starts[j + 1] if j + 1 < len(starts) else len(toks)
        slices.append((s, end))
    return toks, slices


@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_single_token_deletion_resilience(path):
    """Deleting any declaration's final token loses exactly that declaration
    and produces exactly one parse diagnostic."""
    src = path.read_text(encoding="utf-8")
    base_decls, base_diags, _ = parse_module(src)
    assert not base_diags
    toks, slices = _decl_token_slices(src)
    for start, end in slices:
        victim = toks[end - 1]
        mutated = src[: _byte_to_char(src, victim.span.start)] + src[
            _byte_to_char(src, victim.span.end) :
        ]
        decls, diags, _ = parse_module(mutated)
        assert len(diags) == 1, (path.name, victim.lexeme, [d.message for d in diags])
        assert len(decls) == len(base_decls) - 1, (path.name, victim.lexeme)


def _byte_to_char(src: str, byte_off: int) -> int:
    return len(src.encode("utf-8")[:byte_off].decode("utf-8"))


def test_pair_annotation_grouping_disambiguation():
    assert skeleton(parse_expr("(a , b)")) != skeleton(parse_expr("(a : b)"))
    # plain grouping returns the inner expression
    assert skeleton(parse_expr("((a))")) == skeleton(parse_expr("a"))


def test_precedence_shapes():
    # → is right associative and looser than ∧/∨; application binds tightest
    a = parse_expr("A → B → C")
    b = parse_expr("A → (B → C)")
    assert skeleton(a) == skeleton(b)
    c = parse_expr("a ≡ 0 ∨ b ≡ 1 ∧ c ≡ 0")
    d = parse_expr("(a ≡ 0) ∨ ((b ≡ 1) ∧ (c ≡ 0))")
    assert skeleton(c) == skeleton(d)
    e = parse_expr("f x → g y")
    f = parse_expr("(f x) → (g y)")
    assert skeleton(e) == skeleton(f)


def test_extension_type_forms():
    plain = parse_expr("⟨2 × 2 → C⟩")
    bounded = parse_expr("⟨Δ¹ → C | ∂Δ¹ ↦ [x , y]⟩")
    shaped = parse_expr("⟨{p : 2 × 2 | π₂ p ≤ π₁ p} → C⟩")
    assert skeleton(plain) != skeleton(bounded)
    assert "SShape" in str(skeleton(shaped))


# The binary operators by level, loosest first, each level with its
# associativity.  Written out here, not read from surface.BINARY, which the
# tests below check.
_LEVELS = [
    (("→",), "right"),
    (("∨",), "right"),
    (("∧",), "right"),
    (("≤", "≡", "∼"), "none"),
    (("×",), "right"),
]
_LEVEL = {op: (i, assoc) for i, (ops, assoc) in enumerate(_LEVELS) for op in ops}
_COMPARISONS = _LEVELS[3][0]
_GROUPABLE = [
    (a, b) for a in _LEVEL for b in _LEVEL if not (a in _COMPARISONS and b in _COMPARISONS)
]


@pytest.mark.parametrize("o1,o2", _GROUPABLE, ids=[f"{a}{b}" for a, b in _GROUPABLE])
def test_binary_operators_group_by_level(o1, o2):
    (p1, assoc), (p2, _) = _LEVEL[o1], _LEVEL[o2]
    right = f"x {o1} (y {o2} z)"
    left = f"(x {o1} y) {o2} z"
    if p1 < p2 or (p1 == p2 and assoc == "right"):
        grouped, other = right, left
    else:
        grouped, other = left, right
    got = skeleton(parse_expr(f"x {o1} y {o2} z"))
    assert got == skeleton(parse_expr(grouped))
    assert got != skeleton(parse_expr(other))


@pytest.mark.parametrize("o2", _COMPARISONS)
@pytest.mark.parametrize("o1", _COMPARISONS)
def test_chained_comparisons_are_one_parse_error(o1, o2):
    src = f"def d (a b c : U) : a {o1} b {o2} c := U\ndef ok : U := U"
    decls, diags, _ = parse_module(src)
    message = f"comparisons do not chain, found '{o2}'"
    assert [(d.code, d.message) for d in diags] == [("E-PARSE", message)]
    start = len(f"def d (a b c : U) : a {o1} b ".encode())
    assert diags[0].span[:2] == (start, start + len(o2.encode()))
    assert [d.name for d in decls] == ["ok"]
    with pytest.raises(Failure) as info:
        parse_expr(f"a {o1} b {o2} c")
    assert (info.value.diag.code, info.value.diag.message) == ("E-PARSE", message)


def test_every_table_glyph_lexes_to_its_canon():
    binary = [(canon, glyph) for canon, (_, _, glyph) in S.BINARY.items()]
    pairs = binary + [*S.PREFIX.items(), *S.KEYWORD.items(), *S.BINDER.items()]
    named = {s: canon for canon, glyph in pairs for s in (canon, glyph)} | S.OTHER
    # the lexer accepts exactly these spellings; a canon that is an
    # identifier makes a keyword, any other canon a symbol
    assert lexer._SPELLINGS.keys() == named.keys()
    for spelling, canon in named.items():
        kind = TokenKind.KEYWORD if re.fullmatch(lexer._IDENT, canon) else TokenKind.SYMBOL
        (token,) = tokenize(spelling)
        assert (token.kind, token.lexeme, token.canon) == (kind, spelling, canon), spelling
    keyword, symbol = TokenKind.KEYWORD, TokenKind.SYMBOL
    assert [t.kind for t in tokenize("\\ ↦ Σ ⟨")] == [keyword, symbol, keyword, symbol]


def test_diagnostic_printer_takes_its_glyphs_from_the_table(monkeypatch):
    tope = TopeAnd(TopeLeq(ZERO, CubeVar(0)), TopeTop())
    assert print_tope(tope, 1) == "0 ≤ t0 ∧ ⊤"
    assert print_term(Fst(Var(0))) == "fst a?0"
    monkeypatch.setitem(S.BINARY, "<=", (3, False, "LEQ"))
    monkeypatch.setitem(S.KEYWORD, "TOP", "TT")
    monkeypatch.setitem(S.PREFIX, "fst", "FST")
    assert print_tope(tope, 1) == "0 LEQ t0 ∧ TT"
    assert print_term(Fst(Var(0))) == "FST a?0"
    assert print_term(Lambda(Var(0))) == "λ a0 ↦ a0"
    monkeypatch.setitem(S.BINDER, "lambda", "LAM")
    monkeypatch.setitem(S.BINDER, "|->", "=>")
    assert print_term(Lambda(Var(0))) == "LAM a0 => a0"
    monkeypatch.setitem(S.BINDER, "Pi", "PI")
    monkeypatch.setitem(S.BINDER, "Sigma", "SIGMA")
    assert print_term(Pi(Universe(0), Sigma(Var(0), Var(1)))) == "PI (a0 : U), SIGMA (a1 : a0), a0"


def test_core_terms_read_back_print_parse_and_resolve_to_themselves(perfbench_inputs):
    # every declaration type and body of the stdlib and of a generated module:
    # read back and printed, it parses and resolves to the same core term
    sources = [(STDLIB / f).read_text(encoding="utf-8") for f in load_manifest().files()]
    sources.append(perfbench_inputs.frontend_module(1))
    env: dict[str, object] = {}  # every name resolved so far, in any file
    terms = 0
    for source in sources:
        decls, diags, _ = parse_module(source)
        assert not diags
        for sdecl in decls:
            decl = resolve(sdecl, env)
            env[decl.name] = decl
            for t in (decl.type, decl.body):
                if t is not None:
                    assert Resolver(env).resolve_term(parse_expr(print_term(t))) == t, decl.name
                    terms += 1
    assert terms > 4000


# Sources whose top-level forms, comments and errors sit at the boundaries
# where the lexer ends one chunk and the parser asks for the next:
# (source, declaration names, diagnostics as (code, message, span, decl),
# imports as (path, span)).
_LATE = "#import after a declaration; imports come first"
_CHUNK_CASES = {
    "lex error in the last declaration": (
        "def a : U := U\n#section part 2\ndef b : U := $\n",
        [],
        [("E-INVALID-CHARACTER", "invalid character '$'", (44, 45, 3, 14, 3, 15), None)],
        [],
    ),
    "declaration cut short by the next one": (
        "def a : U :=\ndef b : U := U\n",
        ["b"],
        [("E-PARSE", "unexpected keyword 'def'", (13, 16, 2, 1, 2, 4), "a")],
        [],
    ),
    "end of input inside parentheses": (
        "def a : U := U\ndef b (A : U) : A → (A",
        ["a"],
        [("E-PARSE", "expected ')', found end of input", (38, 39, 2, 22, 2, 23), "b")],
        [],
    ),
    "end of input after ':='": (
        "def a : U := U\n#section s\ndef b (A : U) : U :=\n  -- nothing follows\n",
        ["a"],
        [("E-PARSE", "expected expression", (44, 46, 3, 19, 3, 21), "b")],
        [],
    ),
    "malformed #import before three declarations": (
        "#import nope\ndef a : U := U\ndef b : U := )\ndef c : U := U\n",
        ["a", "c"],
        [
            ("E-PARSE", "expected #import \"path\", found '#import nope'", (0, 12, 1, 1, 1, 13),
             None),
            ("E-PARSE", "unexpected token ')'", (41, 42, 3, 14, 3, 15), "b"),
        ],
        [(None, (0, 12, 1, 1, 1, 13))],
    ),
    "#import after a declaration": (
        'def a : U := U\n#import "x.stt"\n#import nope\ndef b : U := a\n',
        ["a", "b"],
        [
            ("E-PARSE", _LATE, (15, 30, 2, 1, 2, 16), None),
            ("E-PARSE", _LATE, (31, 43, 3, 1, 3, 13), None),
        ],
        [],
    ),
    "keywords inside comments": (
        "def a : U {- def x -} := -- def\n  U\npostulate p {- postulate -} : a\n",
        ["a", "p"],
        [],
        [],
    ),
    "#section between declarations": (
        "def a : U := U\n#section two\ndef b : U := a\n#section three\n",
        ["a", "b"],
        [],
        [],
    ),
    "#section after a malformed declaration": (
        "def a : U := )\n#section s\ndef b : U := U\n",
        ["b"],
        [("E-PARSE", "unexpected token ')'", (13, 14, 1, 14, 1, 15), "a")],
        [],
    ),
    "empty file": ("", [], [], []),
    "comments only": ('-- def a : U := U\n{- postulate\n#import "x.stt" -}\n', [], [], []),
}


@pytest.mark.parametrize("case", _CHUNK_CASES)
def test_chunk_boundaries(case):
    source, names, diagnostics, imports = _CHUNK_CASES[case]
    decls, diags, found = parse_module(source)
    assert [d.name for d in decls] == names
    assert [(d.code, d.message, tuple(d.span), d.decl) for d in diags] == diagnostics
    assert [(path, tuple(span)) for path, span in found] == imports


def test_lex_error_in_the_last_declaration_fails_the_whole_file(tmp_path):
    path = tmp_path / "bad.stt"
    path.write_text(_CHUNK_CASES["lex error in the last declaration"][0], encoding="utf-8")
    batch = check_files([str(path)])
    assert [d.code for d in batch.all_diagnostics] == ["E-INVALID-CHARACTER"]
    assert batch.reports[str(path)].decls == []
    assert batch.exit_code() == 2
