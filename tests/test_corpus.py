"""Corpus gate: every manifest entry checks under its contract, axiom
hygiene holds per tier, and manifest anchors resolve into the docs."""

from __future__ import annotations

import json
import os
import pathlib
import re

import pytest

from stt.corpus import corpus_check, load_manifest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs" / "THEORY.md"

# the minimum content contract: these names must exist with these tiers
REQUIRED_PROVED_NO_AXIOMS = [
    "path-inv",
    "concat",
    "transport",
    "concat-refl-unit",
    "inv-refl",
    "isContr",
    "isProp",
    "singleton-contr",
    "fib",
    "isEquiv",
    "Equiv",
    "id-isEquiv",
    "hom",
    "id-arrow",
    "isSegal",
    "comp",
    "comp-id",
    "id-comp",
    "isIso",
    "Iso",
    "isRezk",
    "isGroupoidal",
    "isCovariant",
    "cov-transport",
    "path-to-eq",
]
REQUIRED_STATED = [
    "ua",
    "assoc",
    "cov-fibers-groupoidal",
    "cov-functorial",
    "naturality-free",
    "yoneda-dependent",
    "S",
    "S-pt",
    "dua",
]
REQUIRED_UA_CONSEQUENCES = ["eq-to-path", "ua-transport-equiv"]


@pytest.fixture(scope="module")
def report():
    return corpus_check()


def test_every_entry_ok(report):
    bad = [(r.entry.name, r.status, r.detail) for r in report.results if not r.ok]
    assert not bad, bad
    assert not report.diagnostics
    assert report.ok


def test_required_proved_entries_have_no_axioms(report):
    by_name = {r.entry.name: r for r in report.results}
    for name in REQUIRED_PROVED_NO_AXIOMS:
        r = by_name[name]
        assert r.entry.tier == "PROVED", name
        assert r.axioms == frozenset(), (name, sorted(r.axioms))


def test_required_stated_entries_are_postulates_that_check(report):
    by_name = {r.entry.name: r for r in report.results}
    for name in REQUIRED_STATED:
        r = by_name[name]
        assert r.entry.tier == "STATED", name
        assert r.ok


def test_ua_consequences_use_exactly_ua(report):
    by_name = {r.entry.name: r for r in report.results}
    for name in REQUIRED_UA_CONSEQUENCES:
        r = by_name[name]
        assert r.entry.tier == "PROVED"
        assert r.axioms == frozenset({"ua"}), (name, sorted(r.axioms))


def test_yoneda_budget_matches_manifest(report):
    by_name = {r.entry.name: r for r in report.results}
    yon = by_name["yoneda"]
    assert yon.entry.tier == "PROVED"
    assert yon.axioms == yon.entry.axioms == frozenset({"yoneda-dependent"})
    # the computation half of the roundtrip is machine-proved with no axioms
    assert by_name["yoneda-comput"].axioms == frozenset()
    assert by_name["yoneda-ev"].axioms == frozenset()
    assert by_name["yoneda-inv"].axioms == frozenset()


def test_axiom_usage_within_budget_everywhere(report):
    for r in report.results:
        if r.entry.tier == "PROVED":
            assert r.axioms <= r.entry.axioms, (r.entry.name, sorted(r.axioms))


def test_magma_checks_against_postulated_universe(report):
    by_name = {r.entry.name: r for r in report.results}
    m = by_name["Magma"]
    assert m.ok and m.axioms == frozenset({"S", "S-pt"})


def test_corpus_wall_time_under_budget(report):
    assert report.wall_seconds < 60.0


def test_manifest_anchors_resolve_into_docs(report):
    text = DOCS.read_text(encoding="utf-8")
    headings = {
        re.sub(r"[^a-z0-9]+", "-", h.strip().lower()).strip("-")
        for h in re.findall(r"^##\s+(.*)$", text, flags=re.M)
    }
    for entry in report.manifest.entries:
        assert entry.anchor in headings, (entry.name, entry.anchor)


def test_manifest_covers_every_corpus_declaration(report):
    from stt.parser import parse_module

    base = pathlib.Path(report.manifest.path).parent
    listed = {(e.file, e.name) for e in report.manifest.entries}
    for f in report.manifest.files():
        decls, _, _ = parse_module((base / f).read_text(encoding="utf-8"))
        for d in decls:
            assert (f, d.name) in listed, (f, d.name)


def test_removing_a_stated_postulate_breaks_dependents(tmp_path, report):
    """Dropping a postulate makes later references unbound."""
    import shutil

    base = pathlib.Path(report.manifest.path).parent
    for f in base.glob("*.stt"):
        shutil.copy(f, tmp_path)
    shutil.copy(base / "manifest.txt", tmp_path)
    univ = (tmp_path / "univalence.stt").read_text(encoding="utf-8")
    start = univ.index("postulate ua")
    end = univ.index("def eq-to-path")
    (tmp_path / "univalence.stt").write_text(
        univ[:start] + univ[end:], encoding="utf-8"
    )
    rep = corpus_check(str(tmp_path / "manifest.txt"))
    assert not rep.ok
    codes = {d.code for d in rep.diagnostics}
    assert "E-UNBOUND-NAME" in codes


def test_manifest_paths_are_looked_up_normalized(tmp_path, report, capsys):
    """A manifest may spell a file ``./paths.stt`` or by its absolute path;
    its entries are found, and the JSON names the file as the manifest wrote
    it."""
    import shutil

    import stt.cli

    base = pathlib.Path(report.manifest.path).parent
    for f in base.glob("*.stt"):
        shutil.copy(f, tmp_path)
    lines = (base / "manifest.txt").read_text(encoding="utf-8").splitlines()
    records = [l for l in lines if l.strip() and not l.startswith("#")]
    manifest = tmp_path / "manifest.txt"
    for prefix in ("./", f"{tmp_path}{os.sep}"):
        manifest.write_text("".join(f"{prefix}{l.strip()}\n" for l in records), encoding="utf-8")
        assert stt.cli.main(["corpus", "--json", "--manifest", str(manifest)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [e["status"] for e in doc["summary"]["corpus"]] == ["ok"] * len(report.results)
        files = [e["file"] for e in doc["summary"]["corpus"]]
        assert files == [prefix + r.entry.file for r in report.results]


def test_a_failure_counts_against_an_entry_only_in_its_own_file(tmp_path):
    """An entry is looked up by its file and its name: a declaration that
    fails in one file does not reject an entry naming it in another file,
    where it is missing."""
    (tmp_path / "a.stt").write_text("def good : U1 := U\n", encoding="utf-8")
    (tmp_path / "b.stt").write_text("def bad : U := U\n", encoding="utf-8")
    (tmp_path / "manifest.txt").write_text(
        "a.stt | good | x | - | PROVED\n"
        "b.stt | bad | x | - | PROVED\n"
        "a.stt | bad | x | - | PROVED\n",
        encoding="utf-8",
    )
    rep = corpus_check(str(tmp_path / "manifest.txt"))
    assert [(r.entry.file, r.status) for r in rep.results] == [
        ("a.stt", "ok"),
        ("b.stt", "rejected"),
        ("a.stt", "missing"),
    ]
    assert [(d.file, d.decl, d.code) for d in rep.diagnostics] == [
        (str(tmp_path / "b.stt"), "bad", "E-TYPE-MISMATCH")
    ]


@pytest.mark.parametrize(
    "name, old, new, detail",
    [
        ("ua", "STATED", "PROVED", "expected a proof, found a postulate"),
        ("idfun", "PROVED", "STATED", "expected a postulate, found a proof"),
    ],
)
def test_tier_mismatch_is_a_tier_violation(tmp_path, report, name, old, new, detail):
    """Listing a postulate as PROVED, or a proof as STATED, fails that entry."""
    import shutil

    base = pathlib.Path(report.manifest.path).parent
    for f in base.glob("*.stt"):
        shutil.copy(f, tmp_path)
    lines = []
    for line in (base / "manifest.txt").read_text(encoding="utf-8").splitlines():
        fields = [p.strip() for p in line.split("|")]
        if len(fields) == 5 and fields[1] == name:
            assert fields[4] == old
            line = line[: line.rindex(old)] + new
        lines.append(line)
    (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rep = corpus_check(str(tmp_path / "manifest.txt"))
    (flipped,) = [r for r in rep.results if r.entry.name == name]
    assert (flipped.status, flipped.detail) == ("tier-violation", detail)
    assert all(r.ok for r in rep.results if r is not flipped)


def test_exhausted_unfold_budget_is_a_resource_limit_not_a_type_error():
    """At --max-unfold 50 a declaration's budget runs out inside conversion
    checks; the declarations that hit it say so instead of reporting a type
    mismatch."""
    rep = corpus_check(max_unfold=50)
    codes = [d.code for d in rep.diagnostics]
    assert "E-UNFOLD-DEPTH" in codes
    assert "E-TYPE-MISMATCH" not in codes
    hit = {d.decl for d in rep.diagnostics if d.code == "E-UNFOLD-DEPTH"}
    assert {
        "cov-pullback",
        "filler-id-left",
        "filler-id-right",
        "id-transport",
        "transport-U-equiv",
    } <= hit


def test_a_failing_entry_names_its_file_and_detail(tmp_path, capsys):
    """Each FAIL line ends with the entry's manifest file and its detail, and
    the JSON entry carries the detail; an entry without one has no key."""
    import stt.cli

    (tmp_path / "a.stt").write_text("def good : U1 := U\n", encoding="utf-8")
    (tmp_path / "b.stt").write_text("def good : U := U\n", encoding="utf-8")
    (tmp_path / "manifest.txt").write_text(
        "a.stt | good | x | - | STATED\nb.stt | good | x | - | PROVED\n", encoding="utf-8"
    )
    manifest = str(tmp_path / "manifest.txt")
    assert stt.cli.main(["corpus", "--manifest", manifest]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL(tier-violation) STATED good ")
    assert lines[0].endswith("axioms: -  in a.stt: expected a postulate, found a proof")
    assert lines[1].startswith("FAIL(rejected) ") and lines[1].endswith("axioms: -  in b.stt")
    assert stt.cli.main(["corpus", "--json", "--manifest", manifest]) == 1
    entries = json.loads(capsys.readouterr().out)["summary"]["corpus"]
    assert entries[0]["detail"] == "expected a postulate, found a proof"
    assert "detail" not in entries[1]


def test_corpus_diagnostics_quote_their_source_line(tmp_path, capsys):
    """`stt corpus` prints each diagnostic with its source line and carets,
    as `stt check` prints it for the same file."""
    import stt.cli

    (tmp_path / "a.stt").write_text("def good : U := U\n", encoding="utf-8")
    (tmp_path / "manifest.txt").write_text("a.stt | good | x | - | STATED\n", encoding="utf-8")
    assert stt.cli.main(["check", str(tmp_path / "a.stt")]) == 1
    checked = capsys.readouterr().err.splitlines()
    assert stt.cli.main(["corpus", "--manifest", str(tmp_path / "manifest.txt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert "  | def good : U := U" in err
    assert err == checked
