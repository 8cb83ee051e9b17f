"""Command-line contract: exit codes, axiom listings, import directives and
machine-readable diagnostics."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

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


def test_unreadable_import_is_reported_at_each_directive(tmp_path):
    (tmp_path / "lib.stt").write_text(
        '#import "nope.stt"\ndef base (A : U) : U := A\n', encoding="utf-8"
    )
    (tmp_path / "main.stt").write_text(
        'def use (A : U) : U := A\n#import "lib.stt"\n#import "nope.stt"\n', encoding="utf-8"
    )
    r = run_cli("check", "--json", str(tmp_path / "main.stt"))
    assert r.returncode == 2
    io = [d for d in json.loads(r.stdout)["diagnostics"] if d["code"] == "E-IO"]
    where = sorted((pathlib.Path(d["file"]).name, d["start"]["line"]) for d in io)
    assert where == [("lib.stt", 1), ("main.stt", 3)]
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


# One budget per declaration.  Normalizing `k5 X U U U U` spends 1 + 5 = 6
# steps: one to unfold `k5`, then one per λ consumed.  `use` normalizes it
# twice: checking its type is well formed, and reading the type the body `x`
# is checked against.  Comparing `X`, the type inferred for `x`, with that
# type reuses the normal form already read, which is `X`, so it spends
# nothing.  2 × 6 = 12.
_UNFOLD_BOUNDARY = (
    "def k5 (A : U) (B : U) (C : U) (D : U) (E : U) : U := A\n"
    "def use (X : U) (x : X) : k5 X U U U U := x\n"
)


def test_applied_definition_spends_one_step_per_parameter(tmp_path):
    f = tmp_path / "k5.stt"
    f.write_text(_UNFOLD_BOUNDARY, encoding="utf-8")
    r = run_cli("check", "--json", "--max-unfold", "11", str(f))
    assert r.returncode == 1
    assert [(d["decl"], d["code"]) for d in json.loads(r.stdout)["diagnostics"]] == [
        ("use", "E-UNFOLD-DEPTH")
    ]
    assert run_cli("check", "--max-unfold", "12", str(f)).returncode == 0


def test_generated_module_of_long_spines_checks(tmp_path):
    # the benchmark's frontend module: up to 8 arguments applied to 8-binder
    # telescopes; the generator is loaded from its file, not edited
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    f = tmp_path / "frontend.stt"
    f.write_text(inputs.frontend_module(3), encoding="utf-8")
    r = run_cli("check", "--json", str(f))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["diagnostics"] == []
    assert doc["summary"]["declarations"] == 2000


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

    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(stt.cli, "check_files", broken)
    assert stt.cli.main(["check", "x.stt"]) == 2
    err = capsys.readouterr().err
    assert err.count("E-INTERNAL") == 1
    assert "broken on purpose" in err
    assert "test_cli.py" in err  # names where it was raised
    assert "Traceback" not in err


# parse fine, then recurse once per binder in the resolver (λ) or the kernel (Π)
_DEEP_BINDERS = {
    "lambda": "def deep : U → U := λ " + " ".join(f"x{i}" for i in range(2000)) + " ↦ x0\n",
    "pi": "def deep : U₁ := Π " + " ".join(f"(x{i} : U)" for i in range(2000)) + ", U\n",
}


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
