"""Parser and printer contracts: declaration forms, error recovery, the
round-trip and idempotence properties over the bundled corpus, and the
single-token-deletion resilience invariant."""

from __future__ import annotations

import pathlib

import pytest

from stt.lexer import TokenKind, tokenize
from stt import surface as S
from stt.parser import ParseFailure, imports_of, parse_expr, parse_module
from stt.printer import pretty_print, print_module
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
    assert [(d.code, d.message) for d in diags] == [("E-PARSE", f"expected ':=', found '{o2}'")]
    assert [d.name for d in decls] == ["ok"]
    with pytest.raises(ParseFailure):
        parse_expr(f"a {o1} b {o2} c")


def test_every_table_glyph_lexes_to_its_canon():
    binary = [(canon, glyph) for canon, (_, _, glyph) in S.BINARY.items()]
    for canon, glyph in binary + [*S.PREFIX.items(), *S.KEYWORD.items()]:
        (token,) = tokenize(glyph)
        assert token.canon == canon, glyph
