"""Command-line contract: exit codes, axiom listings, import directives and
machine-readable diagnostics."""

from __future__ import annotations

import ast
import builtins
import contextlib
import gc
import importlib
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import stt.cli
from stt.lexer import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
STDLIB = ROOT / "src" / "stt" / "stdlib"
CORPUS_FILES = sorted(STDLIB.glob("*.stt"))


def run_cli(*args: str, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "stt.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_help_is_short_and_lists_the_commands():
    r = run_cli("--help")
    assert r.returncode == 0
    for command in ("check", "axioms", "corpus"):
        assert command in r.stdout
    assert "collector" not in r.stdout
    assert "exit codes" in r.stdout


def test_check_pristine_corpus_exits_zero():
    r = run_cli("check", *[str(p) for p in CORPUS_FILES])
    assert r.returncode == 0, r.stderr


def test_check_type_error_exits_one(tmp_path):
    bad = tmp_path / "bad.stt"
    bad.write_text("def oops (A : U) : A := A\n", encoding="utf-8")
    r = run_cli("check", str(bad))
    assert r.returncode == 1
    assert "E-TYPE-MISMATCH" in r.stderr


def test_check_missing_path_exits_two():
    r = run_cli("check", "definitely/not/here.stt")
    assert r.returncode == 2


def test_check_parse_failure_exits_two(tmp_path):
    f = tmp_path / "broken.stt"
    f.write_text("def broken (A : U := A\n", encoding="utf-8")
    r = run_cli("check", str(f))
    assert r.returncode == 2


def test_mutant_check_exits_one(tmp_path):
    for f in CORPUS_FILES:
        shutil.copy(f, tmp_path)
    mutant = ROOT / "tests" / "mutants" / "m01_concat_projected.stt"
    shutil.copy(mutant, tmp_path / "paths.stt")
    r = run_cli("check", str(tmp_path / "paths.stt"))
    assert r.returncode == 1
    assert "E-" in r.stderr


def test_json_summary_counts():
    r = run_cli("check", "--json", str(STDLIB / "paths.stt"))
    doc = json.loads(r.stdout)
    assert doc["summary"]["errors"] == 0
    assert doc["summary"]["files"] == 1
    assert doc["summary"]["declarations"] > 0


_TOPE_FAILURE = (
    "def f (C : U) (s : ⟨{p : 2 × 2 | π₂ p ≤ π₁ p} → C⟩) : ⟨2 → C⟩ := "
    "λ (t : 2) ↦ s (t , 1)\n"
)


def test_json_diagnostic_carries_countermodel(tmp_path):
    f = tmp_path / "tope.stt"
    f.write_text(_TOPE_FAILURE, encoding="utf-8")
    r = run_cli("check", "--json", str(f))
    doc = json.loads(r.stdout)
    (diag,) = doc["diagnostics"]
    assert diag["code"] == "E-TOPE-FALSE"
    assert diag["countermodel"]  # a coordinate assignment such as {"x0": "0"}
    assert set(diag["countermodel"].values()) <= {"0", "1", "mid"}
    assert diag["start"]["line"] == 1


def test_explain_tope_prints_countermodel(tmp_path):
    f = tmp_path / "tope.stt"
    f.write_text(_TOPE_FAILURE, encoding="utf-8")
    plain = run_cli("check", str(f))
    explained = run_cli("check", "--explain-tope", str(f))
    assert "countermodel" not in plain.stderr
    assert "countermodel" in explained.stderr


def test_excerpt_counts_lines_as_the_lexer_does(tmp_path, capsys):
    # U+2028 inside a comment is no line break: the excerpt of an error on
    # line 2 is line 2
    f = tmp_path / "sep.stt"
    f.write_text("-- note more\ndef oops (A : U) : A := A\n", encoding="utf-8")
    assert stt.cli.main(["check", str(f)]) == 1
    err = capsys.readouterr().err
    assert f"{f}:2:" in err
    assert "  | def oops (A : U) : A := A\n" in err and "  | more" not in err


class _CountingSource(str):
    def split(self, *args, **kwargs):
        self.splits += 1
        return super().split(*args, **kwargs)

    def splitlines(self, *args, **kwargs):
        self.splits += 1
        return super().splitlines(*args, **kwargs)


def test_human_diagnostics_split_each_source_once(tmp_path, capsys):
    f = tmp_path / "three.stt"
    f.write_text("".join(f"def d{i} : U := U\n" for i in range(3)), encoding="utf-8")
    batch = stt.cli.check_files([str(f)])
    (report,) = batch.reports.values()
    report.source = _CountingSource(report.source)
    report.source.splits = 0
    diags = batch.all_diagnostics
    assert len(diags) == 3
    stt.cli._print_human(batch, diags, explain_tope=False)
    assert report.source.splits == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("  | def")] == [
        f"  | def d{i} : U := U" for i in range(3)
    ]


# ill-sorted topes: <= relates interval points only, === points of one sort
_ILL_SORTED = {
    "leq-unit": ": ⟨{t : 2 | t ≤ ⋆} → A⟩ := λ (t : 2) ↦ a",
    "eq-unit": ": ⟨{t : 2 | t ≡ ⋆} → A⟩ := λ (t : 2) ↦ a",
    "leq-pair": ": ⟨{t : 2 × 2 | t ≤ (0 , 1)} → A⟩ := λ (t : 2 × 2) ↦ a",
    "hypothesis": "[⋆ ≤ 0] : A := a",
    "leq-unit-variable": ": ⟨{t : 1 | t ≤ 0} → A⟩ := λ (t : 1) ↦ a",
    "leq-product": ": ⟨{t : 2 × 2 | t ≤ t} → A⟩ := λ (t : 2 × 2) ↦ a",
    "leq-projection": ": ⟨{t : 2 | π₁ t ≤ 0} → A⟩ := λ (t : 2) ↦ a",
    "applied-projection": "(f : ⟨2 → A⟩) : ⟨2 → A⟩ := λ (t : 2) ↦ f (π₁ t)",
}


@pytest.mark.parametrize("kind", sorted(_ILL_SORTED))
def test_ill_sorted_tope_is_a_point_sort_error(tmp_path, kind):
    f = tmp_path / "sorts.stt"
    f.write_text(f"def bad (A : U) (a : A) {_ILL_SORTED[kind]}\n", encoding="utf-8")
    r = run_cli("check", "--json", str(f))
    assert r.returncode == 1, r.stderr
    (diag,) = json.loads(r.stdout)["diagnostics"]
    assert diag["code"] == "E-POINT-SORT"
    assert diag["start"]["line"] == 1
    # a point with no sort is named, not shown as a missing sort
    assert "None" not in (diag["expected"], diag["actual"])


def test_axioms_tier_one_file_lists_dashes():
    r = run_cli("axioms", str(STDLIB / "paths.stt"))
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    assert lines and all(l.endswith(": -") for l in lines)


def test_axioms_univalence_lists_ua():
    r = run_cli("axioms", str(STDLIB / "univalence.stt"))
    assert r.returncode == 0
    entries = dict(l.split(": ") for l in r.stdout.splitlines() if ": " in l)
    assert entries["eq-to-path"] == "ua"
    assert entries["ua-transport-equiv"] == "ua"
    assert entries["path-to-eq"] == "-"


def test_axioms_failed_file_exits_one_without_listing(tmp_path):
    f = tmp_path / "bad.stt"
    f.write_text("def oops (A : U) : A := A\n", encoding="utf-8")
    r = run_cli("axioms", str(f))
    assert r.returncode == 1
    assert "oops:" not in r.stdout


def test_axioms_json_on_a_failed_file_prints_the_check_document(tmp_path):
    f = tmp_path / "bad.stt"
    f.write_text("def oops (A : U) : A := A\n", encoding="utf-8")
    r = run_cli("axioms", "--json", str(f))
    assert r.returncode == 1 and r.stderr == ""
    doc = json.loads(r.stdout)
    assert "axioms" not in doc
    assert [(d["code"], d["decl"]) for d in doc["diagnostics"]] == [("E-TYPE-MISMATCH", "oops")]
    check = json.loads(run_cli("check", "--json", str(f)).stdout)
    assert check["diagnostics"] == doc["diagnostics"]


def test_axioms_json_lists_each_declaration_of_an_import_chain(tmp_path):
    # an importer's declaration uses the postulate its import's definition uses
    (tmp_path / "base.stt").write_text(
        "postulate ax (A : U) : A\ndef f (A : U) : A := ax A\n", encoding="utf-8"
    )
    (tmp_path / "main.stt").write_text(
        '#import "base.stt"\ndef g (A : U) : A := f A\n', encoding="utf-8"
    )
    r = run_cli("axioms", "--json", str(tmp_path / "main.stt"))
    assert r.returncode == 0 and r.stderr == ""
    base, main = str(tmp_path / "base.stt"), str(tmp_path / "main.stt")
    assert json.loads(r.stdout) == {
        "version": 1,
        "axioms": [
            {"file": base, "name": "ax", "axioms": []},
            {"file": base, "name": "f", "axioms": ["ax"]},
            {"file": main, "name": "g", "axioms": ["ax"]},
        ],
    }


def test_imports_are_resolved_relative_to_the_file(tmp_path):
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "base.stt").write_text(
        "def base (A : U) : U := A\n", encoding="utf-8"
    )
    (tmp_path / "main.stt").write_text(
        '#import "lib/base.stt"\ndef use (A : U) : U := (base A)\n', encoding="utf-8"
    )
    r = run_cli("check", str(tmp_path / "main.stt"))
    assert r.returncode == 0, r.stderr


def _import_lib(tmp_path, directive: str):
    (tmp_path / "lib.stt").write_text("def base (A : U) : U := A\n", encoding="utf-8")
    (tmp_path / "main.stt").write_text(
        f"{directive}\ndef use (A : U) : U := (base A)\n", encoding="utf-8"
    )
    return run_cli("check", "--json", str(tmp_path / "main.stt"))


def test_import_may_end_in_a_line_comment(tmp_path):
    r = _import_lib(tmp_path, '#import "lib.stt" -- the library')
    assert r.returncode == 0, r.stdout
    assert json.loads(r.stdout)["summary"]["files"] == 2


@pytest.mark.parametrize("directive", ["#import lib.stt", '#importx "lib.stt"', '#import ""'])
def test_malformed_import_is_a_parse_error(tmp_path, directive):
    r = _import_lib(tmp_path, directive)
    assert r.returncode == 2
    diags = json.loads(r.stdout)["diagnostics"]
    parse = [d for d in diags if d["code"] == "E-PARSE"]
    assert len(parse) == 1
    assert '#import "path"' in parse[0]["message"]
    assert parse[0]["start"] == {"line": 1, "col": 1}
    assert parse[0]["end"] == {"line": 1, "col": len(directive) + 1}


def test_import_after_a_declaration_is_one_parse_error(tmp_path):
    (tmp_path / "lib.stt").write_text("def base (A : U) : U := A\n", encoding="utf-8")
    (tmp_path / "main.stt").write_text(
        'def early (A : U) : U := A\n#import "lib.stt"\n', encoding="utf-8"
    )
    r = run_cli("check", "--json", str(tmp_path / "main.stt"))
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert [(d["code"], d["start"]["line"]) for d in out["diagnostics"]] == [("E-PARSE", 2)]
    assert "imports come first" in out["diagnostics"][0]["message"]
    assert out["summary"]["files"] == 1


def test_unreadable_import_is_reported_at_each_directive(tmp_path):
    (tmp_path / "lib.stt").write_text(
        '#import "nope.stt"\ndef base (A : U) : U := A\n', encoding="utf-8"
    )
    (tmp_path / "main.stt").write_text(
        '#import "lib.stt"\n#import "nope.stt"\ndef use (A : U) : U := A\n', encoding="utf-8"
    )
    r = run_cli("check", "--json", str(tmp_path / "main.stt"))
    assert r.returncode == 2
    io = [d for d in json.loads(r.stdout)["diagnostics"] if d["code"] == "E-IO"]
    where = sorted((pathlib.Path(d["file"]).name, d["start"]["line"]) for d in io)
    assert where == [("lib.stt", 1), ("main.stt", 2)]
    assert all("cannot read" in d["message"] and "nope.stt" in d["message"] for d in io)


@pytest.mark.parametrize(
    "directive,failure", [("#import lib.stt", "E-PARSE"), ('#import "nope.stt"', "E-IO")]
)
def test_names_lost_to_a_failed_import_depend_on_it(tmp_path, directive, failure):
    (tmp_path / "lib.stt").write_text("def base (A : U) : U := A\n", encoding="utf-8")
    (tmp_path / "main.stt").write_text(
        directive + "\ndef use (A : U) : U := (base A)\ndef use2 (A : U) : U := (base A)\n",
        encoding="utf-8",
    )
    r = run_cli("check", "--json", str(tmp_path / "main.stt"))
    assert r.returncode == 2
    diags = json.loads(r.stdout)["diagnostics"]
    assert [(d.get("decl"), d["code"]) for d in diags] == [
        (None, failure),
        ("use", "E-DEPENDS-ON-FAILED"),
        ("use2", "E-DEPENDS-ON-FAILED"),
    ]
    assert all("an #import of this file failed" in d["message"] for d in diags[1:])


def test_only_files_that_were_read_are_counted(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "main.stt").write_text(
        '#import "nope.stt"\n#import "sub"\ndef a (A : U) : U := A\n', encoding="utf-8"
    )
    r = run_cli("check", str(tmp_path / "main.stt"))
    assert r.returncode == 2
    assert "checked 1 file(s), 1 declaration(s), 2 error(s)" in r.stdout
    doc = json.loads(run_cli("check", "--json", str(tmp_path / "main.stt")).stdout)
    assert doc["summary"]["files"] == 1


# One budget per declaration.  Normalizing `k5 X X X X X` spends 1 + 5 = 6
# steps: one to unfold `k5`, then one per λ consumed.  `use` normalizes it
# once, reading the type the body `x` is checked against; checking its type
# is well formed infers it as written and unfolds nothing.  Comparing `X`,
# the type inferred for `x`, with that type reuses the normal form already
# read, which is `X`, so it spends nothing.
_UNFOLD_BOUNDARY = (
    "def k5 (A : U) (B : U) (C : U) (D : U) (E : U) : U := A\n"
    "def use (X : U) (x : X) : k5 X X X X X := x\n"
)


def test_applied_definition_spends_one_step_per_parameter(tmp_path):
    f = tmp_path / "k5.stt"
    f.write_text(_UNFOLD_BOUNDARY, encoding="utf-8")
    r = run_cli("check", "--json", "--max-unfold", "5", str(f))
    assert r.returncode == 1
    assert [(d["decl"], d["code"]) for d in json.loads(r.stdout)["diagnostics"]] == [
        ("use", "E-UNFOLD-DEPTH")
    ]
    assert run_cli("check", "--max-unfold", "6", str(f)).returncode == 0


def test_generated_module_of_long_spines_checks(tmp_path, perfbench_inputs):
    # the benchmark's frontend module: up to 8 arguments applied to 8-binder
    # telescopes
    f = tmp_path / "frontend.stt"
    f.write_text(perfbench_inputs.frontend_module(3), encoding="utf-8")
    r = run_cli("check", "--json", str(f))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["diagnostics"] == []
    assert doc["summary"]["declarations"] == 2000


_H_PRELUDE = "postulate T : U\npostulate c : T\ndef h (A : U) (x : T) : T := x\n"


def test_argument_without_a_type_is_rejected_even_when_reduction_drops_it(tmp_path):
    f = tmp_path / "dropped.stt"
    f.write_text(
        _H_PRELUDE
        + "def bad1 : T := h U₁ c\n"
        + "def bad2 : T := h (fst (λ x ↦ x)) c\n"
        + "def bad3 : T := (λ x ↦ c) U₁\n"
        # types are validated as written, not through a reduct that drops U₁
        + "def tl : (λ x ↦ T) U₁ := c\n"
        + "def tl2 : (λ x ↦ U) U₁ := T\n"
        + "def k5 (A : U) (B : U) (C : U) (D : U) (E : U) : U := A\n"
        + "def use (X : U) (x : X) : k5 X U U U U := x\n"
        + "def dom : ((λ x ↦ T) U₁) → T := λ y ↦ c\n"
        + "def ann : T := (c : (λ x ↦ T) U₁)\n"
        + "def idt : Id ((λ x ↦ T) U₁) c c := refl c\n"
        + "def bnd (y : (λ x ↦ T) U₁) : T := y\n"
        # a redex whose reduct is a tower in no universe is not a tower
        + "postulate F3 : (λ x ↦ T → U₁) c\n"
        + "postulate F1 : T → U₁\n"
        + "postulate F2 : (λ x ↦ T → U) c\n",
        encoding="utf-8",
    )
    r = run_cli("check", "--json", str(f))
    assert r.returncode == 1
    assert [(d["decl"], d["code"]) for d in json.loads(r.stdout)["diagnostics"]] == [
        ("bad1", "E-CANNOT-INFER"),
        ("bad2", "E-CANNOT-INFER"),
        ("bad3", "E-CANNOT-INFER"),
        ("tl", "E-CANNOT-INFER"),
        ("tl2", "E-CANNOT-INFER"),
        ("use", "E-TYPE-MISMATCH"),
        ("dom", "E-CANNOT-INFER"),
        ("ann", "E-CANNOT-INFER"),
        ("idt", "E-CANNOT-INFER"),
        ("bnd", "E-CANNOT-INFER"),
        ("F3", "E-NOT-A-TYPE"),
    ]


_STUCK_PRELUDE = (
    "postulate T : U\npostulate c : T\npostulate d : T\npostulate f : T → T\n"
    "def E (P : Σ (x : T) , T) : U := fst P ~ c\n"
    "def E1 (F : (T → T) → T) : U := F (λ y ↦ y) ~ c\n"
    "def Ex (a : ⟨Δ¹ → T⟩) : U := a 0 ~ c\n"
)


def test_types_that_unfold_to_redexes_of_checked_arguments_check(tmp_path):
    # beta, J on refl or instantiating a telescope puts a pair, a λ or a shape
    # λ where typing infers (fst (c , c), (λ g ↦ g c) (λ y ↦ y), (λ t ↦ c) 0);
    # the written types and the identity types they reduce to are well formed
    f = tmp_path / "unfolded.stt"
    f.write_text(
        _STUCK_PRELUDE
        + "def k : E (c , c) := refl c\n"
        + "def k1 : E1 (λ g ↦ g c) := refl c\n"
        + "def k2 : E (c , d) := refl c\n"
        + "def E2 (P : Σ (x : T) , T) : U := f (fst P) ~ f c\n"
        + "def k3 : E2 (c , c) := refl (f c)\n"
        + "def E3 (P : Σ (x : T) , T) : U := (fst P ~ c) → T\n"
        + "def k4 : E3 (c , c) := λ q ↦ c\n"
        + "def k5 (q : E (c , c)) : T := ind-path (λ x y p ↦ T) (λ x ↦ x) q\n"
        + "def k6 : Ex (λ (t : 2) ↦ c) := refl c\n"
        + "def useE (P : Σ (x : T) , T) (q : fst P ~ c) : T := c\n"
        + "def k7 : T := useE (c , c) (refl c)\n"
        + "def p0 : Id (Σ (x : T) , T) (c , c) (c , c) := refl (c , c)\n"
        + "def EJ (q : Id (Σ (x : T) , T) (c , c) (c , c)) : U :=\n"
        + "  ind-path (λ x y p ↦ U) (λ x ↦ fst x ~ c) q\n"
        + "def k8 : EJ p0 := refl c\n",
        encoding="utf-8",
    )
    r = run_cli("check", "--json", str(f))
    assert r.returncode == 0, r.stdout
    assert json.loads(r.stdout)["diagnostics"] == []


def test_types_that_unfold_to_redexes_still_check_their_arguments(tmp_path):
    f = tmp_path / "unfolded-bad.stt"
    f.write_text(
        _STUCK_PRELUDE
        + "def bad1 : E (c , U) := refl c\n"
        + "def bad2 : E1 (λ g ↦ U₁) := refl c\n"
        + "def bad3 : E (d , c) := refl c\n",
        encoding="utf-8",
    )
    r = run_cli("check", "--json", str(f))
    assert r.returncode == 1
    assert [(d["decl"], d["code"]) for d in json.loads(r.stdout)["diagnostics"]] == [
        ("bad1", "E-TYPE-MISMATCH"),
        ("bad2", "E-CANNOT-INFER"),
        ("bad3", "E-TYPE-MISMATCH"),
    ]


def test_long_lambda_spine_binds_its_arguments_without_unfolding(tmp_path):
    # (λ x₀ … x₂₉₉ ↦ x₀) c … c: the let rule binds each argument and reduces
    # nothing, so one unfold step of budget is plenty
    n = 300
    f = tmp_path / "spine.stt"
    f.write_text(
        "postulate T : U\npostulate c : T\n"
        f"def big : T := (λ {' '.join(f'x{i}' for i in range(n))} ↦ x0) {' '.join(['c'] * n)}\n",
        encoding="utf-8",
    )
    r = run_cli("check", "--max-unfold", "1", str(f))
    assert r.returncode == 0, r.stderr


def test_a_long_lambda_spine_declared_twice_checks_twice(tmp_path):
    # the second copy is equal to the first, which the environment already
    # holds: finding it there must not compare the two 600-deep terms by a
    # recursion through them
    n = 300
    redex = f"(λ {' '.join(f'x{i}' for i in range(n))} ↦ x0) {' '.join(['c'] * n)}"
    f = tmp_path / "spines.stt"
    f.write_text(
        f"postulate T : U\npostulate c : T\ndef big : T := {redex}\ndef big2 : T := {redex}\n",
        encoding="utf-8",
    )
    r = run_cli("check", "--json", str(f))
    assert r.returncode == 0, r.stdout
    assert json.loads(r.stdout)["summary"]["declarations"] == 4


def test_split_overlap_pairs_spend_the_budget(tmp_path):
    # nothing unfolds; the three branches make three overlap pairs, one step each
    f = tmp_path / "split.stt"
    f.write_text(
        "def s (A : U) (t : 2) : U := [t ≡ 0 ↦ A, t ≤ 1 ↦ A, t ≡ 1 ↦ A]\n", encoding="utf-8"
    )
    r = run_cli("check", "--json", "--max-unfold", "2", str(f))
    assert r.returncode == 1
    assert [(d["decl"], d["code"]) for d in json.loads(r.stdout)["diagnostics"]] == [
        ("s", "E-UNFOLD-DEPTH")
    ]
    assert run_cli("check", "--max-unfold", "3", str(f)).returncode == 0


def test_corpus_subcommand():
    r = run_cli("corpus")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "corpus ok" in r.stdout
    rj = run_cli("corpus", "--json")
    doc = json.loads(rj.stdout)
    assert doc["summary"]["failed"] == 0


def test_bad_flag_values_exit_two():
    assert run_cli("check", "--jobs", "1", "x.stt").returncode == 2  # no such option
    assert run_cli("check", "--max-unfold", "0", "x.stt").returncode == 2


def test_import_cycle_is_reported(tmp_path):
    (tmp_path / "a.stt").write_text(
        '#import "b.stt"\ndef a0 (A : U) : U := A\n', encoding="utf-8"
    )
    (tmp_path / "b.stt").write_text(
        '#import "a.stt"\ndef b0 (A : U) : U := A\n', encoding="utf-8"
    )
    r = run_cli("check", str(tmp_path / "a.stt"))
    assert r.returncode == 2
    assert "E-IMPORT-CYCLE" in r.stderr


def test_duplicate_name_across_imports(tmp_path):
    (tmp_path / "one.stt").write_text("def same (A : U) : U := A\n", encoding="utf-8")
    (tmp_path / "two.stt").write_text("def same (B : U) : U := B\n", encoding="utf-8")
    (tmp_path / "main.stt").write_text(
        '#import "one.stt"\n#import "two.stt"\ndef use (A : U) : U := (same A)\n',
        encoding="utf-8",
    )
    r = run_cli("check", str(tmp_path / "main.stt"))
    assert r.returncode == 1
    assert "E-DUPLICATE-NAME" in r.stderr


_DEEP_INPUTS = {
    "parentheses": "def deep : U := " + "(" * 3000 + "U" + ")" * 3000 + "\n",
    "arrows": "def chain : " + " → ".join(["U"] * 2001) + " := U\n",
}


@pytest.mark.parametrize("kind", sorted(_DEEP_INPUTS))
def test_deep_nesting_is_a_diagnostic_not_a_traceback(tmp_path, kind):
    f = tmp_path / "deep.stt"
    f.write_text(_DEEP_INPUTS[kind] + "def ok (A : U) : U := A\n", encoding="utf-8")
    r = run_cli("check", "--json", str(f))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    doc = json.loads(r.stdout)
    assert [d["code"] for d in doc["diagnostics"]] == ["E-NESTING-DEPTH"]
    assert doc["summary"]["declarations"] == 1  # the parser resynchronized


def test_internal_error_is_one_diagnostic(monkeypatch, capsys):
    import stt.cli

    _broken_check_files(monkeypatch)
    assert stt.cli.main(["check", "x.stt"]) == 2
    err = capsys.readouterr().err
    assert err.count("E-INTERNAL") == 1
    assert "broken on purpose" in err
    assert "test_cli.py" in err  # names where it was raised
    assert "Traceback" not in err


def test_import_loads_neither_dataclasses_nor_traceback():
    # -S keeps the host's site hooks, which may import these, out of the check
    probe = "import {}, sys; print(sorted(m for m in {} if m in sys.modules))"
    heavy = ("dataclasses", "inspect", "traceback", "importlib.resources")
    # the tope solver alone loads no front end: the topes benchmark's setup
    frontend = ("stt.lexer", "stt.parser", "stt.printer")
    for module, unwanted in (("stt.cli", heavy), ("stt.topes", frontend)):
        r = subprocess.run(
            [sys.executable, "-S", "-c", probe.format(module, unwanted)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]", module


def test_every_input_failure_is_the_one_failure_class():
    # each input error raises diagnostics.Failure, which carries its diagnostic
    exceptions = {
        n for n, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)
    }
    classes = {}  # name -> (module, base names)
    for path in sorted((ROOT / "src" / "stt").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases = {b.id if isinstance(b, ast.Name) else ast.unparse(b) for b in node.bases}
                classes[node.name] = (path.stem, bases)
        gone = r"\b(LexError|ParseFailure|ResolveError|CheckFailure|UnfoldDepthExceeded"
        gone += r"|TopeSortError|ManifestError|_fail|_FAILURES)\b"
        assert not re.findall(gone, source), path.name
    while True:  # close under subclassing
        more = {n for n, (_, bases) in classes.items() if bases & exceptions} - exceptions
        if not more:
            break
        exceptions |= more
    assert {(classes[n][0], n) for n in exceptions if n in classes} == {("diagnostics", "Failure")}


def test_every_lex_and_parse_code_exits_two_and_no_check_code_does():
    # a code the lexer or parser can report is an input failure; a code of
    # the resolver, kernel or tope solver is not, except a resource limit
    from stt.diagnostics import INPUT_FAILURES

    def codes(module: str) -> set[str]:
        tree = ast.parse((ROOT / "src" / "stt" / f"{module}.py").read_text(encoding="utf-8"))
        return {
            n.value
            for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and re.fullmatch(r"E-[A-Z-]+", n.value)
        }

    front = codes("lexer") | codes("parser")
    assert {"E-INVALID-CHARACTER", "E-UNTERMINATED-COMMENT", "E-PARSE"} <= front
    assert front <= INPUT_FAILURES
    back = codes("resolve") | codes("checker") | codes("topes")
    assert {"E-UNBOUND-NAME", "E-TYPE-MISMATCH", "E-POINT-SORT"} <= back
    assert back & INPUT_FAILURES == {"E-NESTING-DEPTH"}


def test_every_traced_function_resolves(perfbench_spans):
    # the benchmark's tracer wraps these by name, so a rename must fail here
    for _, module, attr in perfbench_spans.TRACED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), (module, attr)
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def _broken_check_files(monkeypatch):
    import stt.cli

    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(stt.cli, "check_files", broken)


# exit path -> (source of x.stt or None, extra arguments, exit code)
_EXIT_PATHS = {
    "clean": ("def ok (A : U) : U := A\n", [], 0),
    "type-error": ("def oops (A : U) : A := A\n", [], 1),
    "internal-error": (None, [], 2),
    "bad-max-unfold": ("def ok (A : U) : U := A\n", ["--max-unfold", "0"], 2),
    "unknown-flag": ("def ok (A : U) : U := A\n", ["--no-such-flag"], SystemExit),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("path", sorted(_EXIT_PATHS))
def test_main_leaves_the_collector_as_it_found_it(
    tmp_path, monkeypatch, capsys, path, enabled
):
    import stt.cli

    source, extra, code = _EXIT_PATHS[path]
    f = tmp_path / "x.stt"
    if source is None:
        _broken_check_files(monkeypatch)
    else:
        f.write_text(source, encoding="utf-8")
    if not enabled:
        gc.disable()
    try:
        if code is SystemExit:
            with pytest.raises(SystemExit):
                stt.cli.main(["check", *extra, str(f)])
        else:
            assert stt.cli.main(["check", *extra, str(f)]) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_check_runs_no_collection(tmp_path, capsys, perfbench_inputs):
    import stt.cli

    f = tmp_path / "frontend.stt"
    f.write_text(perfbench_inputs.frontend_module(3), encoding="utf-8")
    # get_stats snapshots the counts before it allocates; the collect leaves
    # no pending allocations to trigger one while the first snapshot is built
    gc.collect()
    before = gc.get_stats()
    assert stt.cli.main(["check", "--json", str(f)]) == 0
    after = gc.get_stats()
    assert [s["collections"] for s in after] == [s["collections"] for s in before]
    assert json.loads(capsys.readouterr().out)["summary"]["declarations"] == 2000


# parse and resolve fine, then recurse once per binder group of a Π in the
# kernel
_DEEP_BINDERS = {
    "pi": "def deep : U₁ := Π " + " ".join(f"(x{i} : U)" for i in range(2000)) + ", U\n",
}


def test_a_redex_of_a_thousand_lambdas_checks_cleanly(tmp_path):
    # the kernel binds the leading λs in one loop, and the sharing walk after
    # the check enters a spine's heads and a λ run by a loop too
    f = tmp_path / "deep.stt"
    f.write_text(
        "def deep : U₁ := (λ " + " ".join(f"x{i}" for i in range(1000)) + " ↦ x0)"
        + " U" * 1000 + "\n",
        encoding="utf-8",
    )
    r = run_cli("check", "--json", str(f))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["diagnostics"] == [] and doc["summary"]["declarations"] == 1


def test_path_induction_on_an_identity_over_a_deep_redex_checks_cleanly(tmp_path):
    # the search for a stuck left side of the path type enters a spine's
    # heads and a λ run by a loop
    redex = "((λ " + " ".join(f"x{i}" for i in range(400)) + " ↦ x0)" + " c" * 400 + ")"
    f = tmp_path / "deep.stt"
    body = "ind-path (λ x y q ↦ A) (λ x ↦ x) p"
    f.write_text(f"def j (A : U) (c : A) (p : {redex} ~ c) : A := {body}\n", encoding="utf-8")
    r = run_cli("check", "--json", str(f))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["diagnostics"] == [] and doc["summary"]["declarations"] == 1


@pytest.mark.parametrize("kind", sorted(_DEEP_BINDERS))
def test_deep_binders_are_a_resource_limit_naming_the_declaration(tmp_path, kind):
    f = tmp_path / "deep.stt"
    f.write_text(_DEEP_BINDERS[kind] + "def ok (A : U) : U := A\n", encoding="utf-8")
    r = run_cli("check", "--json", str(f))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr and "E-INTERNAL" not in r.stderr
    doc = json.loads(r.stdout)
    (d,) = doc["diagnostics"]
    assert (d["code"], d["decl"], d["file"]) == ("E-NESTING-DEPTH", "deep", str(f))
    assert d["start"] == {"line": 1, "col": 1}
    assert doc["summary"]["declarations"] == 1  # `ok` still checked


def test_deep_binders_fail_their_importers(tmp_path):
    (tmp_path / "deep.stt").write_text(_DEEP_BINDERS["pi"], encoding="utf-8")
    (tmp_path / "main.stt").write_text(
        '#import "deep.stt"\ndef use : U₁ := deep\n', encoding="utf-8"
    )
    r = run_cli("check", "--json", str(tmp_path / "main.stt"))
    assert r.returncode == 2
    codes = sorted(d["code"] for d in json.loads(r.stdout)["diagnostics"])
    assert codes == ["E-DEPENDS-ON-FAILED", "E-NESTING-DEPTH"]


def _one_entry_manifest(tmp_path, source: bytes | None) -> str:
    if source is not None:
        (tmp_path / "one.stt").write_bytes(source)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("one.stt | one | anchor | - | PROVED\n", encoding="utf-8")
    return str(manifest)


@pytest.mark.parametrize(
    "source,code",
    [(b"def one : U := (U\n", "E-PARSE"), (None, "E-IO"), (b"def one : U := U\n\xff\n", "E-IO")],
    ids=["unclosed", "missing", "not-utf8"],
)
def test_corpus_input_failure_exits_two(tmp_path, source, code):
    r = run_cli("corpus", "--json", "--manifest", _one_entry_manifest(tmp_path, source))
    assert r.returncode == 2, r.stdout + r.stderr
    doc = json.loads(r.stdout)
    assert code in [d["code"] for d in doc["diagnostics"]]
    assert doc["summary"]["failed"] == 1


def test_corpus_missing_manifest_is_an_io_diagnostic(tmp_path):
    missing = str(tmp_path / "nowhere.txt")
    r = run_cli("corpus", "--manifest", missing)
    assert r.returncode == 2
    assert "E-IO" in r.stderr and missing in r.stderr
    assert "E-INTERNAL" not in r.stderr and "Traceback" not in r.stderr


def test_corpus_manifest_not_utf8_is_an_io_diagnostic(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(b"one.stt | one | anchor | - | PROVED\n\xff\xfe\n")
    r = run_cli("corpus", "--manifest", str(manifest))
    assert r.returncode == 2
    assert f"{manifest}:error[E-IO]: cannot read manifest '{manifest}': not valid UTF-8" in r.stderr
    assert "E-INTERNAL" not in r.stderr and "Traceback" not in r.stderr


def test_corpus_malformed_manifest_names_the_record(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# header\n\nok.stt | ok | a | - | PROVED\nbroken | record\n", "utf-8")
    r = run_cli("corpus", "--manifest", str(manifest))
    assert r.returncode == 2
    assert f"{manifest}:4:1: error[E-MANIFEST]: malformed manifest record" in r.stderr
    assert "E-INTERNAL" not in r.stderr and "Traceback" not in r.stderr
    rj = run_cli("corpus", "--json", "--manifest", str(manifest))
    assert rj.returncode == 2
    (d,) = json.loads(rj.stdout)["diagnostics"]
    assert (d["code"], d["file"], d["start"]["line"]) == ("E-MANIFEST", str(manifest), 4)


# In-process robustness: `stt check --json` on mutated stdlib sources and on
# sources built around the places where the parser resumes between forms.
# The stdlib is copied beside the mutant, so its imports resolve.
_STDLIB_BYTES = {p.name: p.read_bytes() for p in CORPUS_FILES}
_NOISE = st.one_of(st.sampled_from(b'()[]{}-:=,|#"\n $'), st.integers(0, 255))


@st.composite
def _byte_mutants(draw):
    data = bytearray(_STDLIB_BYTES[draw(st.sampled_from(sorted(_STDLIB_BYTES)))])
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(["delete", "insert", "replace"]))
        data[i : i + (op != "insert")] = b"" if op == "delete" else bytes([draw(_NOISE)])
    return bytes(data)


@st.composite
def _token_mutants(draw):
    source = _STDLIB_BYTES[draw(st.sampled_from(sorted(_STDLIB_BYTES)))].decode("utf-8")
    lexemes = [t.lexeme for t in tokenize(source, keep_trivia=True)]
    extra = ["def", "postulate", '#import "paths.stt"', "#section s", "(", ")", "↦", "$"]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lexemes) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        if op == "delete":
            del lexemes[i]
        elif op == "duplicate":
            lexemes.insert(i, lexemes[i])
        else:
            lexemes[i] = draw(st.sampled_from(lexemes + extra))
    return "".join(lexemes).encode("utf-8")


_EDGE_PIECES = [
    "def a : U := U",
    "def b (A : U) : U := A",
    "postulate p : U",
    "def c : U := a",
    "def d : U {- def x : U := U -} := -- postulate q : U\n  U",
    "-- def y : U := U",
    "{- postulate z : U\n#import \"paths.stt\" -}",
    '#import "paths.stt"',
    "#section s",
]


@st.composite
def _streaming_edges(draw):
    """Keywords in comments, late imports, input ending inside a
    declaration and a lex error in the last declaration."""
    text = "\n".join(draw(st.lists(st.sampled_from(_EDGE_PIECES), min_size=1, max_size=6)))
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    if draw(st.booleans()):
        text += "\ndef last : U := $"
    return text.encode("utf-8")


@pytest.fixture(scope="module")
def stdlib_copy(tmp_path_factory):
    directory = tmp_path_factory.mktemp("stdlib")
    for name, data in _STDLIB_BYTES.items():
        (directory / name).write_bytes(data)
    return directory


def _check_in_process(directory, data: bytes) -> None:
    path = directory / "mutant.stt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = stt.cli.main(["check", "--json", str(path)])
    assert code in (0, 1, 2)
    assert "E-INTERNAL" not in out.getvalue() + err.getvalue()
    assert "Traceback" not in err.getvalue()
    json.loads(out.getvalue())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.one_of(_byte_mutants(), _token_mutants()))
def test_check_survives_mutated_stdlib_sources(stdlib_copy, data):
    _check_in_process(stdlib_copy, data)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=_streaming_edges())
def test_check_survives_the_streaming_edges(stdlib_copy, data):
    _check_in_process(stdlib_copy, data)
