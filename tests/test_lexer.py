"""Token-level contracts: alias equivalence, span coverage, error cases."""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from stt.diagnostics import Failure
from stt.lexer import Span, Token, TokenKind, tokenize


def kinds(src: str):
    return [(t.kind, t.canon) for t in tokenize(src)]


def test_empty_input():
    assert tokenize("") == []


def test_basic_classes():
    toks = tokenize("0 ≤ x")
    assert [t.kind for t in toks] == [TokenKind.NAT, TokenKind.SYMBOL, TokenKind.IDENT]
    assert [t.lexeme for t in toks] == ["0", "≤", "x"]


ALIASES = [
    ("Σ", "Sigma"),
    ("Π", "Pi"),
    ("0 ≤ x", "0 <= x"),
    ("x ≡ y", "x === y"),
    ("a ∧ b", "a /\\ b"),
    ("a ∨ b", "a \\/ b"),
    ("⊤", "TOP"),
    ("⊥", "BOT"),
    ("x ∼ y", "x ~ y"),
    ("A → B", "A -> B"),
    ("λ a ↦ a", "\\ a |-> a"),
    ("2 × 2", "2 * 2"),
    ("U₁", "U1"),
    ("π₁ p", "pi1 p"),
    ("π₂ p", "pi2 p"),
    ("Δ¹", "Delta1"),
    ("Δ²", "Delta2"),
    ("Λ²₁", "Lambda21"),
    ("∂Δ¹", "dDelta1"),
    ("⋆", "star"),
]


@pytest.mark.parametrize("glyph,ascii_", ALIASES, ids=[a for _, a in ALIASES])
def test_alias_table_produces_identical_kind_sequences(glyph, ascii_):
    assert kinds(glyph) == kinds(ascii_)


def test_spans_cover_input_modulo_trivia():
    src = "def f (A : U) : A → A := λ a ↦ a -- tail\n{- block {- nested -} -} x"
    toks = tokenize(src, keep_trivia=True)
    # exact coverage, in order, no overlaps
    pos = 0
    for t in toks:
        assert t.span.start == pos
        pos = t.span.end
    assert pos == len(src.encode("utf-8"))
    # concatenating lexemes reproduces the source exactly
    assert "".join(t.lexeme for t in toks) == src
    # without trivia, the same tokens minus layout
    code = tokenize(src)
    assert code == [t for t in toks if t.kind != TokenKind.LAYOUT]


def test_line_and_column_positions():
    toks = tokenize("def f\n  : U")
    by_lex = {t.lexeme: t.span for t in toks}
    assert (by_lex["def"].line, by_lex["def"].col) == (1, 1)
    assert (by_lex["f"].line, by_lex["f"].col) == (1, 5)
    assert (by_lex[":"].line, by_lex[":"].col) == (2, 3)


@pytest.mark.parametrize(
    "src,start,line,col",
    [("def f : U := €", 13, 1, 14), ("λ ↦ €", 7, 1, 5), ("Δ¹ x\n  €", 9, 2, 3)],
    ids=["ascii", "after-glyphs", "second-line"],
)
def test_invalid_character(src, start, line, col):
    with pytest.raises(Failure) as e:
        tokenize(src)
    d = e.value.diag
    assert d.code == "E-INVALID-CHARACTER"
    assert d.message == "invalid character '€'"
    assert (d.span.start, d.span.end) == (start, start + 3)
    assert (d.span.line, d.span.col) == (line, col)


@pytest.mark.parametrize(
    "src,start,line,col",
    [("{- {- -}", 0, 1, 1), ("Δ¹\n{- {- -}", 5, 2, 1)],
    ids=["ascii", "after-glyphs"],
)
def test_unterminated_comment(src, start, line, col):
    with pytest.raises(Failure) as e:
        tokenize(src)
    d = e.value.diag
    assert d.code == "E-UNTERMINATED-COMMENT"
    assert (d.span.start, d.span.end) == (start, len(src.encode("utf-8")))
    assert (d.span.line, d.span.col) == (line, col)


def test_hyphenated_identifiers_do_not_eat_operators():
    toks = tokenize("path-inv x->y a --c")
    assert [t.lexeme for t in toks] == ["path-inv", "x", "->", "y", "a"]


def test_directives_are_single_tokens():
    toks = tokenize('#import "lib/core.stt"\n#section arrows\ndef')
    assert toks[0].canon == "#import"
    assert toks[1].canon == "#section"
    assert toks[2].canon == "def"


def test_determinism():
    src = "def f (A : U) : A → A := λ a ↦ a"
    assert tokenize(src) == tokenize(src)


def _recount(encoded: bytes, offset: int) -> tuple[int, int]:
    prefix = encoded[:offset].decode("utf-8")
    return prefix.count("\n") + 1, len(prefix) - (prefix.rfind("\n") + 1) + 1


def test_line_and_column_agree_with_a_recount_from_byte_offsets():
    stdlib = pathlib.Path(__file__).resolve().parent.parent / "src" / "stt" / "stdlib"
    sources = [f.read_text(encoding="utf-8") for f in sorted(stdlib.glob("*.stt"))]
    sources.append("-- Δ¹ → ≤\n\ndef idΣ (A : U) : A → A :=\n  λ a ↦ a\n{- π₁\n ⊤ -} ∧ ⊥\n")
    assert len(sources) == 10
    for src in sources:
        encoded = src.encode("utf-8")
        for t in tokenize(src, keep_trivia=True):
            s = t.span
            assert (s.line, s.col) == _recount(encoded, s.start), t
            assert (s.end_line, s.end_col) == _recount(encoded, s.end), t


# Pieces of source over the lexer's alphabet.  The rejects (stray glyph
# parts, comment delimiters, quotes, invalid characters) fail on their own
# outside a comment or directive; half the drawn texts leave them out, so
# that long texts that lex are drawn as often as texts that do not.
_LEXABLE = (
    list("λ↦→≤≡∧∨∼×⟨⟩ΣΠ⊤⊥⋆") + ["U₁", "Δ¹", "Δ²", "Λ²₁", "∂Δ¹", "π₁", "π₂"]
    + ["{- a -}", "{- {- -} -}", "--", "#import", "#section", "\n", "\r", " ", "\t"]
    + ["->", "|->", "<=", "===", ":=", ":", "|", "~", "*", "(", ")", "[", "]", "{", "}"]
    + ["\\", "\\/", "/\\", ",", "x", "a-b", "def", "U1", "ind-path", "0", "42", "_"]
)
_REJECTS = ["{-", "-}", "#", '"', "-", "'", "Δ", "¹", "₁", "€", "é", "\x00"]
_SOURCES = st.one_of(
    st.lists(st.sampled_from(_LEXABLE), max_size=30).map("".join),
    st.lists(st.sampled_from(_LEXABLE + _REJECTS), max_size=30).map("".join),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SOURCES)
def test_tokens_tile_the_source_or_the_error_lies_inside_it(src):
    encoded = src.encode("utf-8")
    try:
        toks = tokenize(src, keep_trivia=True)
    except Failure as e:
        span = e.diag.span
        assert 0 <= span.start < span.end <= len(encoded)
        assert (span.line, span.col) == _recount(encoded, span.start)
        assert (span.end_line, span.end_col) == _recount(encoded, span.end)
        with pytest.raises(Failure):
            tokenize(src)
        return
    pos = 0
    for t in toks:
        assert t.span.start == pos < t.span.end, t
        assert (t.span.line, t.span.col) == _recount(encoded, t.span.start), t
        assert (t.span.end_line, t.span.end_col) == _recount(encoded, t.span.end), t
        pos = t.span.end
    assert pos == len(encoded)
    assert "".join(t.lexeme for t in toks) == src
    assert tokenize(src) == [t for t in toks if t.kind != TokenKind.LAYOUT]


def test_spans_and_tokens_are_immutable():
    tok = tokenize("def")[0]
    with pytest.raises(AttributeError):
        tok.span.start = 1
    with pytest.raises(AttributeError):
        tok.canon = "postulate"
    assert tok.span.cover(tok.span) == tok.span


def test_skeleton_never_descends_into_a_span():
    # every span moves when a comment line is put in front of the source; if
    # skeleton read a span (spans are tuples, which it does walk) the
    # skeletons would differ
    from stt.parser import parse_module
    from stt.surface import skeleton

    stdlib = pathlib.Path(__file__).resolve().parent.parent / "src" / "stt" / "stdlib"
    for f in sorted(stdlib.glob("*.stt")):
        src = f.read_text(encoding="utf-8")
        decls, diags, _ = parse_module(src)
        moved, moved_diags, _ = parse_module("-- Δ¹\n  \n" + src)
        assert not diags and not moved_diags
        assert decls != moved, f.name  # the spans did move
        assert [skeleton(d) for d in decls] == [skeleton(d) for d in moved], f.name


def test_every_token_is_a_token_of_four_fields_with_a_span_of_six(perfbench_inputs):
    # tokenize builds both records with tuple.__new__, which checks no field count
    from stt.lexer import Span

    stdlib = pathlib.Path(__file__).resolve().parent.parent / "src" / "stt" / "stdlib"
    sources = [f.read_text(encoding="utf-8") for f in sorted(stdlib.glob("*.stt"))]
    sources.append(perfbench_inputs.frontend_module(3))
    for src in sources:
        for keep_trivia in (False, True):
            for t in tokenize(src, keep_trivia=keep_trivia):
                assert type(t) is Token and len(t) == 4, t
                assert type(t.span) is Span and len(t.span) == 6, t


@pytest.mark.parametrize("keep_trivia", [False, True])
def test_ascii_tokens_after_non_ascii_ones_count_bytes(keep_trivia):
    # λ takes 2 bytes, ↦ 3 and ü 2
    toks = tokenize("λ x ↦ x -- ü\nf y\n", keep_trivia=keep_trivia)
    idents = [t for t in toks if t.lexeme in ("x", "f", "y")]
    assert [(t.lexeme, t.span.start, t.span.end, t.span.line, t.span.col) for t in idents] == [
        ("x", 3, 4, 1, 3),
        ("x", 9, 10, 1, 7),
        ("f", 17, 18, 2, 1),
        ("y", 19, 20, 2, 3),
    ]
    if keep_trivia:
        assert [(t.lexeme, t.span.start, t.span.end) for t in toks[8:10]] == [
            ("-- ü", 11, 16),
            ("\n", 16, 17),
        ]


def test_cover_takes_its_end_from_the_span_that_ends_last():
    outer, inner = Span(0, 10, 1, 1, 1, 11), Span(2, 4, 1, 3, 1, 5)
    assert outer.cover(inner) == inner.cover(outer) == outer
    first, second = Span(0, 4, 1, 1, 1, 5), Span(2, 9, 1, 3, 2, 3)
    assert first.cover(second) == second.cover(first) == Span(0, 9, 1, 1, 2, 3)
