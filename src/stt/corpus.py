"""The formalized corpus: manifest loading and the corpus gate.

The manifest lists one record per declaration: ``file | name | anchor |
axioms | tier``.  PROVED entries must have a body, check cleanly, and stay
within their expected axiom set; STATED entries are postulates whose types
must check.  ``corpus_check`` runs the whole corpus and reports per-entry
status.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources

from .batch import check_files


@dataclass(frozen=True)
class ManifestEntry:
    file: str
    name: str
    anchor: str
    axioms: frozenset[str]
    tier: str  # PROVED | STATED


@dataclass
class CorpusManifest:
    path: str
    entries: list[ManifestEntry]

    def files(self) -> list[str]:
        out: list[str] = []
        for e in self.entries:
            if e.file not in out:
                out.append(e.file)
        return out


@dataclass
class EntryResult:
    entry: ManifestEntry
    status: str  # ok | rejected | missing | axiom-violation | tier-violation
    axioms: frozenset[str] = frozenset()
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class CorpusReport:
    manifest: CorpusManifest
    results: list[EntryResult] = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results) and not self.diagnostics


def default_manifest_path() -> str:
    return str(resources.files("stt").joinpath("stdlib/manifest.txt"))


def load_manifest(path: str | None = None) -> CorpusManifest:
    path = path or default_manifest_path()
    entries: list[ManifestEntry] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: malformed manifest record")
            file, name, anchor, axioms, tier = parts
            if tier not in ("PROVED", "STATED"):
                raise ValueError(f"{path}:{lineno}: unknown tier {tier!r}")
            axiom_set = (
                frozenset()
                if axioms == "-"
                else frozenset(a.strip() for a in axioms.split(",") if a.strip())
            )
            entries.append(ManifestEntry(file, name, anchor, axiom_set, tier))
    return CorpusManifest(path, entries)


def corpus_check(
    manifest: CorpusManifest | str | None = None, max_unfold: int = 10_000
) -> CorpusReport:
    """Check every corpus file and verify each manifest entry's contract."""
    if not isinstance(manifest, CorpusManifest):
        manifest = load_manifest(manifest)
    base = os.path.dirname(manifest.path)
    files = [os.path.join(base, f) for f in manifest.files()]
    batch = check_files(files, max_unfold=max_unfold)
    report = CorpusReport(manifest=manifest)
    report.diagnostics = batch.all_diagnostics
    report.wall_seconds = batch.wall_seconds
    by_file = {os.path.relpath(key, base): batch.reports[key] for key in batch.order}

    for entry in manifest.entries:
        fr = by_file.get(entry.file)
        if fr is None or entry.name not in fr.axiom_usage:
            report.results.append(EntryResult(entry, "rejected" if any(
                d.decl == entry.name for d in report.diagnostics
            ) else "missing"))
            continue
        usage = fr.axiom_usage[entry.name]
        is_post = entry.name in fr.postulates
        if entry.tier == "PROVED" and is_post:
            report.results.append(
                EntryResult(entry, "tier-violation", usage, "expected a proof, found a postulate")
            )
            continue
        if entry.tier == "STATED" and not is_post:
            report.results.append(
                EntryResult(entry, "tier-violation", usage, "expected a postulate, found a proof")
            )
            continue
        if entry.tier == "PROVED" and not usage <= entry.axioms:
            extra = ", ".join(sorted(usage - entry.axioms))
            report.results.append(
                EntryResult(entry, "axiom-violation", usage, f"uses unbudgeted axioms: {extra}")
            )
            continue
        report.results.append(EntryResult(entry, "ok", usage))
    return report
