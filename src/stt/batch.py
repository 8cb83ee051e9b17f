"""Batch checking of files with hermetic relative imports.

Each file names its dependencies with ``#import "path"`` directives, at its
head, resolved relative to its own directory; there is no search path.
Checking runs in two phases, and every file is read and lexed once.

Phase 1 reads each file when it is first reached and parses only its import
header, then queues the files it imports.  A file that cannot be read is an
E-IO at each ``#import`` naming it, or in itself if named directly.  A file
has a failed ``#import`` when one anywhere in its import closure is
unreadable or malformed or names a file that does not lex: there a name that
cannot be found is E-DEPENDS-ON-FAILED rather than E-UNBOUND-NAME.

Phase 2 checks the files one after another, in one thread, in a
deterministic dependency order.  A file sees what each file of its import
closure declares itself: the declarations that checked, and the names that
failed to parse or check, which its diagnostics name.  Its parser resumes
after the header and hands over one declaration at a time, which is resolved
and checked before the next is parsed, so a surface declaration lives only
while it is checked.  A declaration that failed to parse is failed from
there on.  A lex error anywhere fails the whole file: it publishes no names
and reports only that error.
"""

from __future__ import annotations

import os
import time

from .checker import CheckEnv, check_module
from .core import Declaration
from .diagnostics import Diagnostic, exit_code
from .parser import _Parser


def read_failure(e: OSError | UnicodeDecodeError) -> str:
    """Why a file could not be read, for an E-IO message."""
    return "not valid UTF-8" if isinstance(e, UnicodeDecodeError) else e.strerror


class FileReport:
    def __init__(self, path: str):
        self.path = path  # as given on the command line or via imports
        self.source: str | None = None  # None if the file could not be read
        self.diagnostics: list[Diagnostic] = []  # parse failures first, then check failures
        self.decls: list[Declaration] = []  # its own checked declarations, in order


class BatchResult:
    def __init__(self, reports: dict[str, FileReport], order: list[str]):
        self.reports = reports  # keyed by normalized absolute path
        self.order = order  # normalized paths in deterministic processing order
        self.j_fired = 0
        self.wall_seconds = 0.0

    @property
    def files_read(self) -> int:
        """The files that were read; ``order`` also holds the unreadable ones."""
        return sum(1 for r in self.reports.values() if r.source is not None)

    @property
    def all_diagnostics(self) -> list[Diagnostic]:
        out = []
        for key in self.order:
            out.extend(self.reports[key].diagnostics)
        return sorted(out, key=lambda d: d.sort_key())

    def exit_code(self) -> int:
        return exit_code(self.all_diagnostics)


def file_key(path: str) -> str:
    """The key a file's report is kept under: its normalized absolute path."""
    return os.path.normpath(os.path.abspath(path))


def _closure(key: str, imports: dict[str, list[str]], closures: dict[str, set[str]]) -> set[str]:
    """The files ``key`` imports, directly or not, kept in ``closures``."""
    # iterative so import cycles terminate (they are diagnosed separately);
    # a closure kept already is taken whole, so the walk skips what it holds
    got: set[str] = set()
    stack = list(imports[key])
    while stack:
        d = stack.pop()
        if d not in got:
            got.add(d)
            got.update(closures.get(d, ()))
            stack.extend(imports[d])
    closures[key] = got
    return got


def check_files(paths: list[str], max_unfold: int = 10_000) -> BatchResult:
    """Parse, resolve and check the given files plus their import closures."""
    start = time.monotonic()
    reports: dict[str, FileReport] = {}
    parsers: dict[str, _Parser] = {}  # each readable file's, past its import header
    imports: dict[str, list[str]] = {}
    unreadable: dict[str, str] = {}  # key -> why the file could not be read
    import_failed: set[str] = set()  # files with a failed #import, and those that do not lex
    # (shown path, key, (importing key, directive span) or None)
    queue = [(p, file_key(p), None) for p in paths]

    for shown, key, directive in queue:  # the queue grows as imports are found
        if key not in reports:
            report = reports[key] = FileReport(path=shown)
            imports[key] = []
            try:
                with open(key, "r", encoding="utf-8") as fh:
                    report.source = fh.read()
            except (OSError, UnicodeDecodeError) as e:
                unreadable[key] = read_failure(e)
            else:
                parser = parsers[key] = _Parser(report.source)
                parser.header()
                for rel, span in parser.imports:
                    if rel is None:
                        import_failed.add(key)
                        continue
                    dep_key = file_key(os.path.join(os.path.dirname(key), rel))
                    imports[key].append(dep_key)
                    dep_shown = os.path.join(os.path.dirname(shown), rel)
                    queue.append((dep_shown, dep_key, (key, span)))
        elif directive is None:
            continue  # named twice on the command line
        if key in unreadable:
            # an unreadable import is reported at each directive naming it
            owner_key, span = directive or (key, None)
            import_failed.add(owner_key)
            owner = reports[owner_key]
            message = f"cannot read '{shown}': {unreadable[key]}"
            owner.diagnostics.append(Diagnostic("E-IO", message, span, file=owner.path))

    # deterministic topological order: each round places, in sorted order,
    # every file whose imports are all placed
    order: list[str] = []
    remaining = set(reports)
    while remaining:
        ready = sorted(k for k in remaining if not remaining.intersection(imports[k]))
        if not ready:
            for k in sorted(remaining):
                path = reports[k].path
                reports[k].diagnostics.append(
                    Diagnostic("E-IMPORT-CYCLE", f"import cycle involving '{path}'", file=path)
                )
            ready = sorted(remaining)
        order.extend(ready)
        remaining.difference_update(ready)

    shared: dict = {}  # one copy of each subterm the checked declarations hold
    closures: dict[str, set[str]] = {}
    result = BatchResult(reports=reports, order=order)
    for key in order:
        report = reports[key]
        env = CheckEnv(max_unfold=max_unfold, shared=shared)
        owner: dict[str, str] = {}  # name -> the closure file its declaration is from
        for dep_key in sorted(_closure(key, imports, closures)):
            dep = reports[dep_key]  # each publishes only what it declares itself
            for decl in dep.decls:
                first = owner.get(decl.name)
                # a clash is reported once, where no one import brings both files
                if first is not None and not any(
                    {first, dep_key} <= closures.get(d, set()) | {d} for d in imports[key]
                ):
                    shown = f"'{reports[first].path}' and '{dep.path}'"
                    message = f"'{decl.name}' is declared by both {shown}"
                    report.diagnostics.append(
                        Diagnostic("E-DUPLICATE-NAME", message, file=report.path)
                    )
                env.decls[decl.name], owner[decl.name] = decl, dep_key
            env.failed.update(d.decl for d in dep.diagnostics if d.decl is not None)
        if import_failed.intersection(imports[key]):
            import_failed.add(key)
        parser = parsers.pop(key, None)
        if parser is not None:
            imported = len(env.decls)
            # each declaration is parsed, resolved and checked, then let go
            cdiags = check_module(env, parser.declarations(), key in import_failed)
            if parser.lex_error is None:
                report.decls = list(env.decls.values())[imported:]
            else:
                # a source that does not lex publishes nothing, and fails its importers
                cdiags = []
                import_failed.add(key)
            for d in parser.diags + cdiags:
                d.file = report.path
            report.diagnostics[:0] = parser.diags
            report.diagnostics.extend(cdiags)
        result.j_fired += env.j_fired

    result.wall_seconds = time.monotonic() - start
    return result
