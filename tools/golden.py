"""Golden diagnostics: what the checker reports on the corpus, the stdlib and
every mutant corpus, with ``timing`` dropped and paths made placeholders.

The document records ``stt corpus --json`` at the default budget and at
``--max-unfold`` 5, 20 and 50, ``stt check --json`` on the stdlib files, and
for each mutant corpus its entry statuses and every diagnostic as the CLI
renders it.  ``tests/test_golden.py`` compares it byte for byte against
``tests/golden/diagnostics.json``, so any change to a verdict, code, span,
message or printed term shows up there.

    python3 tools/golden.py  # rewrite tests/golden/diagnostics.json
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stt import cli  # noqa: E402
from stt.corpus import CorpusReport, corpus_check  # noqa: E402

STDLIB = ROOT / "src" / "stt" / "stdlib"
MUTANTS = ROOT / "tests" / "mutants"
GOLDEN = ROOT / "tests" / "golden" / "diagnostics.json"
BUDGETS = (None, 5, 20, 50)


def mutant_index() -> list[tuple[str, str, str]]:
    """(mutant file, corpus file it replaces, declaration that must reject)."""
    rows = []
    for line in (MUTANTS / "index.txt").read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            mutant, base, target = (p.strip() for p in line.split("|"))
            rows.append((mutant, base, target))
    return rows


def run_mutant(mutant: str, base: str, directory: pathlib.Path) -> CorpusReport:
    """Check the corpus with ``base`` replaced by ``mutant``, inside ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for f in STDLIB.glob("*.stt"):
        shutil.copy(f, directory)
    shutil.copy(STDLIB / "manifest.txt", directory)
    shutil.copy(MUTANTS / mutant, directory / base)
    return corpus_check(str(directory / "manifest.txt"))


def _scrub(obj, path: str, placeholder: str):
    if isinstance(obj, str):
        return obj.replace(path, placeholder)
    if isinstance(obj, list):
        return [_scrub(x, path, placeholder) for x in obj]
    if isinstance(obj, dict):
        return {k: _scrub(v, path, placeholder) for k, v in obj.items()}
    return obj


def _cli_json(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--json"])
    doc = json.loads(out.getvalue())
    doc.pop("timing")
    return {"exit": code, "output": _scrub(doc, str(ROOT), "<ROOT>")}


def _mutant_record(report: CorpusReport) -> dict:
    directory = str(pathlib.Path(report.manifest.path).parent)
    return {
        "statuses": [[r.entry.file, r.entry.name, r.status] for r in report.results],
        "diagnostics": _scrub(
            [cli._diag_json(d) for d in report.diagnostics], directory, "<MUTANT>"
        ),
    }


def document(mutant_reports: dict[str, CorpusReport]) -> str:
    """The golden document, given each mutant's report keyed by mutant file."""
    corpus = {}
    for budget in BUDGETS:
        flags = () if budget is None else ("--max-unfold", str(budget))
        corpus[str(budget or "default")] = _cli_json("corpus", *flags)
    doc = {
        "corpus": corpus,
        "stdlib": _cli_json("check", *map(str, sorted(STDLIB.glob("*.stt")))),
        "mutants": {m: _mutant_record(r) for m, r in sorted(mutant_reports.items())},
    }
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=1) + "\n"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        reports = {
            m: run_mutant(m, base, pathlib.Path(tmp) / m) for m, base, _ in mutant_index()
        }
        text = document(reports)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
