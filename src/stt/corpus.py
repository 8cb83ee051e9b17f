"""The formalized corpus: manifest loading and the corpus gate.

The manifest lists one record per declaration: ``file | name | anchor |
axioms | tier``.  PROVED entries must have a body, check cleanly, and stay
within their expected axiom set; STATED entries are postulates whose types
must check.  ``corpus_check`` runs the whole corpus and reports per-entry
status.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .batch import BatchResult, check_files, file_key, read_failure
from .diagnostics import Failure, exit_code
from .lexer import Span


class ManifestEntry(NamedTuple):
    file: str
    name: str
    anchor: str
    axioms: frozenset[str]
    tier: str  # PROVED | STATED


class CorpusManifest:
    def __init__(self, path: str, entries: list[ManifestEntry]):
        self.path, self.entries = path, entries

    def files(self) -> list[str]:
        return list(dict.fromkeys(e.file for e in self.entries))


class EntryResult:
    def __init__(self, entry: ManifestEntry, status: str, axioms=frozenset(), detail=""):
        self.entry, self.axioms, self.detail = entry, axioms, detail
        self.status = status  # ok | rejected | missing | axiom-violation | tier-violation

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class CorpusReport:
    def __init__(self, manifest: CorpusManifest, batch: BatchResult, diagnostics=None):
        self.manifest, self.batch = manifest, batch  # the run, whose sources excerpts quote
        self.results: list[EntryResult] = []
        self.diagnostics = batch.all_diagnostics if diagnostics is None else diagnostics

    @property
    def wall_seconds(self) -> float:
        return self.batch.wall_seconds

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results) and not self.diagnostics

    def exit_code(self) -> int:
        return max(exit_code(self.diagnostics), 0 if self.ok else 1)


def default_manifest_path() -> str:
    return os.path.join(os.path.dirname(__file__), "stdlib", "manifest.txt")


def _record_error(path: str, start: int, lineno: int, raw: str, message: str) -> Failure:
    text = raw.rstrip("\r\n")
    span = Span(start, start + len(text.encode("utf-8")), lineno, 1, lineno, len(text) + 1)
    return Failure("E-MANIFEST", message, span, file=path)


def load_manifest(path: str | None = None) -> CorpusManifest:
    """A manifest that cannot be read raises a ``Failure`` with code E-IO,
    one that holds a malformed record E-MANIFEST, spanning the record's line."""
    path = path or default_manifest_path()
    entries: list[ManifestEntry] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = list(fh)  # line ends kept as written, so offsets are exact
    except (OSError, UnicodeDecodeError) as e:
        message = f"cannot read manifest '{path}': {read_failure(e)}"
        raise Failure("E-IO", message, file=path) from None
    offset = 0
    for lineno, raw in enumerate(lines, 1):
        start, offset = offset, offset + len(raw.encode("utf-8"))
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 5:
            raise _record_error(path, start, lineno, raw, "malformed manifest record")
        file, name, anchor, axioms, tier = parts
        if tier not in ("PROVED", "STATED"):
            raise _record_error(path, start, lineno, raw, f"unknown tier {tier!r}")
        axiom_set = (
            frozenset()
            if axioms == "-"
            else frozenset(a.strip() for a in axioms.split(",") if a.strip())
        )
        entries.append(ManifestEntry(file, name, anchor, axiom_set, tier))
    return CorpusManifest(path, entries)


def corpus_check(path: str | None = None, max_unfold: int = 10_000) -> CorpusReport:
    """Check every corpus file and verify each manifest entry's contract.  A
    manifest that cannot be loaded gives a report holding its diagnostic."""
    try:
        manifest = load_manifest(path)
    except Failure as e:
        return CorpusReport(CorpusManifest(e.diag.file, []), BatchResult({}, []), [e.diag])
    base = os.path.dirname(manifest.path)
    files = [os.path.join(base, f) for f in manifest.files()]
    batch = check_files(files, max_unfold=max_unfold)
    report = CorpusReport(manifest, batch)
    decls, failed = {}, set()  # (file_key, name)
    for key in batch.order:
        decls.update(((key, d.name), d) for d in batch.reports[key].decls)
        failed.update((key, d.decl) for d in batch.reports[key].diagnostics)

    for entry in manifest.entries:
        at = (file_key(os.path.join(base, entry.file)), entry.name)
        decl = decls.get(at)
        if decl is None:
            report.results.append(EntryResult(entry, "rejected" if at in failed else "missing"))
            continue
        usage = decl.axioms
        if decl.is_postulate != (entry.tier == "STATED"):
            detail = (
                "expected a proof, found a postulate"
                if decl.is_postulate
                else "expected a postulate, found a proof"
            )
            report.results.append(EntryResult(entry, "tier-violation", usage, detail))
            continue
        if entry.tier == "PROVED" and not usage <= entry.axioms:
            extra = ", ".join(sorted(usage - entry.axioms))
            report.results.append(
                EntryResult(entry, "axiom-violation", usage, f"uses unbudgeted axioms: {extra}")
            )
            continue
        report.results.append(EntryResult(entry, "ok", usage))
    return report
