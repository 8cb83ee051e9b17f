"""Command-line front end.

``stt check``  checks files (honoring ``#import`` directives) and prints
diagnostics in deterministic (file, span) order; ``stt axioms`` prints each
declaration's transitive postulate set, or what ``stt check`` prints when an
input fails; ``stt corpus`` runs the bundled corpus against its manifest.
``--json`` switches to machine-readable output whose content, apart from the
``timing`` object, is byte-identical across runs on identical inputs.  Files
are checked one after another in one thread.

Exit codes: 0 clean, 1 type errors, 2 I/O or parse failure of any input
(including ``E-NESTING-DEPTH`` for a declaration nested too deeply to parse
or check), a bad flag value, or an internal error, which is reported as one
``E-INTERNAL`` diagnostic on stderr instead of a traceback.  Past those
two, the exit code is decided in one place, ``diagnostics.exit_code``, from
the codes of the diagnostics (``stt corpus`` also exits 1 when an entry
fails its contract).  ``traceback`` is imported only on the internal-error
path, to name where the fault was raised, so a normal run never loads it.

The cyclic garbage collector is off while ``main`` runs and is left as it
was found on every exit path.  Syntax trees, tokens and spans are tuple
subclasses, which CPython never untracks, so each collection rescans the
retained trees and frees next to nothing.  The library API is unaffected.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .batch import BatchResult, check_files
from .corpus import corpus_check
from .diagnostics import Diagnostic, exit_code


def _span_json(d: Diagnostic) -> dict:
    if d.span is None:
        return {}
    return {
        "start": {"line": d.span.line, "col": d.span.col},
        "end": {"line": d.span.end_line, "col": d.span.end_col},
    }


def _diag_json(d: Diagnostic) -> dict:
    out = {
        "code": d.code,
        "severity": "error",
        "file": d.file or "",
        "message": d.message,
    }
    out.update(_span_json(d))
    if d.decl is not None:
        out["decl"] = d.decl
    if d.expected is not None:
        out["expected"] = d.expected
    if d.actual is not None:
        out["actual"] = d.actual
    if d.countermodel is not None:
        out["countermodel"] = dict(sorted(d.countermodel.items()))
    return out


def emit_json(diagnostics: list[Diagnostic], report: dict, wall_seconds: float) -> str:
    """Deterministic JSON rendering; only the timing object varies by run."""
    doc = {
        "version": 1,
        "diagnostics": [_diag_json(d) for d in diagnostics],
        "summary": {"errors": len(diagnostics), "warnings": 0, **report},
        "timing": {"wall_ms": round(wall_seconds * 1000.0, 3)},
    }
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=None)


def _print_human(batch: BatchResult, diags: list[Diagnostic], explain_tope: bool) -> None:
    # each file with a diagnostic is split once, on the lexer's line break
    named = {d.file for d in diags}
    lines = {
        rep.path: rep.source.split("\n")
        for rep in batch.reports.values()
        if rep.path in named and rep.source is not None
    }
    for d in diags:
        text, span = lines.get(d.file), d.span
        line = None
        if text is not None and span is not None and 1 <= span.line <= len(text):
            line = text[span.line - 1]
        print(d.render(line=line, explain_tope=explain_tope), file=sys.stderr)


def _print_check(
    batch: BatchResult, diags: list[Diagnostic], as_json: bool, explain_tope: bool
) -> int:
    checked = sum(len(r.decls) for r in batch.reports.values())
    if as_json:
        report = {"files": batch.files_read, "declarations": checked}
        print(emit_json(diags, report, batch.wall_seconds))
    else:
        _print_human(batch, diags, explain_tope)
        counts = f"{batch.files_read} file(s), {checked} declaration(s), {len(diags)} error(s)"
        print(f"checked {counts}")
    return exit_code(diags)


def cmd_check(args) -> int:
    batch = check_files(args.paths, max_unfold=args.max_unfold)
    return _print_check(batch, batch.all_diagnostics, args.json, args.explain_tope)


def cmd_axioms(args) -> int:
    batch = check_files(args.paths, max_unfold=args.max_unfold)
    diags = batch.all_diagnostics
    code = exit_code(diags)
    if code != 0:
        if args.json:  # the document `stt check --json` prints
            return _print_check(batch, diags, True, False)
        _print_human(batch, diags, explain_tope=False)
        return code
    records = [
        {"file": rep.path, "name": d.name, "axioms": sorted(d.axioms)}
        for rep in map(batch.reports.get, batch.order)
        for d in rep.decls
    ]
    if args.json:
        print(json.dumps({"version": 1, "axioms": records}, sort_keys=True, ensure_ascii=False))
    else:
        for r in records:
            listing = ", ".join(r["axioms"]) if r["axioms"] else "-"
            print(f"{r['name']}: {listing}")
    return 0


def cmd_corpus(args) -> int:
    report = corpus_check(args.manifest, max_unfold=args.max_unfold)
    if args.json:
        entries = [
            {
                "file": r.entry.file,
                "name": r.entry.name,
                "anchor": r.entry.anchor,
                "tier": r.entry.tier,
                "expected_axioms": sorted(r.entry.axioms),
                "axioms": sorted(r.axioms),
                "status": r.status,
                **({"detail": r.detail} if r.detail else {}),
            }
            for r in report.results
        ]
        print(
            emit_json(
                report.diagnostics,
                {
                    "entries": len(report.results),
                    "failed": sum(1 for r in report.results if not r.ok),
                    "corpus": entries,
                },
                report.wall_seconds,
            )
        )
    else:
        for r in report.results:
            mark = "ok" if r.ok else f"FAIL({r.status})"
            axioms = ", ".join(sorted(r.axioms)) if r.axioms else "-"
            line = f"{mark:18} {r.entry.tier:6} {r.entry.name:22} axioms: {axioms}"
            if not r.ok:  # which record failed, and why
                line += f"  in {r.entry.file}" + (f": {r.detail}" if r.detail else "")
            print(line)
        _print_human(report.batch, report.diagnostics, explain_tope=False)
        status = "corpus ok" if report.ok else "corpus FAILED"
        print(f"{status}: {len(report.results)} entries in {report.wall_seconds:.2f}s")
    return report.exit_code()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stt",
        description="Type check files of the directed-interval type theory.",
        epilog="exit codes: 0 clean, 1 type errors, 2 I/O, parse, flag or internal failure",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--max-unfold", type=int, default=10_000, help="unfold steps per declaration"
        )

    pc = sub.add_parser("check", help="type check files")
    pc.add_argument("paths", nargs="+")
    common(pc)
    pc.add_argument(
        "--explain-tope",
        action="store_true",
        help="print countermodels for failed interval constraints",
    )
    pc.set_defaults(fn=cmd_check)

    pa = sub.add_parser("axioms", help="report transitive postulate usage")
    pa.add_argument("paths", nargs="+")
    common(pa)
    pa.set_defaults(fn=cmd_axioms)

    pr = sub.add_parser("corpus", help="check the bundled corpus against its manifest")
    pr.add_argument("--manifest", default=None)
    common(pr)
    pr.set_defaults(fn=cmd_corpus)
    return ap


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        if args.max_unfold < 1:
            print("error: --max-unfold must be at least 1", file=sys.stderr)
            return 2
        return args.fn(args)
    except Exception as e:  # a fault in stt, not in the input: no traceback
        import traceback

        where = traceback.extract_tb(e.__traceback__)[-1]
        message = f"internal error: {type(e).__name__}: {e}"
        message += f" (raised at {os.path.basename(where.filename)}:{where.lineno})"
        print(Diagnostic("E-INTERNAL", message).render(), file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
