"""Corpus gate: every manifest entry checks under its contract, axiom
hygiene holds per tier, and manifest anchors resolve into the docs."""

from __future__ import annotations

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
        "filler-id-left",
        "filler-id-right",
        "id-isEquiv",
        "isCovariant",
        "isGroupoidal",
    } <= hit
