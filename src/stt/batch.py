"""Batch checking of files with hermetic relative imports.

Each file names its dependencies with ``#import "path"`` directives resolved
relative to its own directory; there is no search path.  Every file is read,
lexed and parsed once, when it is first reached, and the parser holds only
one top-level form's tokens at a time.  A file that cannot be read is an
E-IO at each ``#import`` naming it, or in itself if named directly.  In a
file with a failed ``#import``, unreadable or malformed, a name that cannot
be found is E-DEPENDS-ON-FAILED rather than E-UNBOUND-NAME.
Files are then checked one after another, in one thread, in a deterministic
dependency order.  Every file sees exactly the declarations of its transitive
import closure, and the names in that closure that failed to parse or check.
A file's surface declarations live until it is checked, and each is let go
once it is resolved and checked, so a file's syntax and core terms are not
held in full at the same time.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

from .checker import CheckEnv, check_module
from .diagnostics import Diagnostic
from .parser import parse_module


def read_failure(e: OSError | UnicodeDecodeError) -> str:
    """Why a file could not be read, for an E-IO message."""
    return "not valid UTF-8" if isinstance(e, UnicodeDecodeError) else e.strerror


@dataclass
class FileReport:
    path: str  # as given on the command line or via imports
    source: str | None = None  # None if the file could not be read
    io_error: bool = False
    parse_diagnostics: list[Diagnostic] = field(default_factory=list)
    check_diagnostics: list[Diagnostic] = field(default_factory=list)
    decl_names: list[str] = field(default_factory=list)
    postulates: frozenset[str] = frozenset()  # the accepted decl_names without a body
    axiom_usage: dict[str, frozenset[str]] = field(default_factory=dict)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return self.parse_diagnostics + self.check_diagnostics


@dataclass
class BatchResult:
    reports: dict[str, FileReport]  # keyed by normalized absolute path
    order: list[str]  # normalized paths in deterministic processing order
    j_fired: int = 0
    wall_seconds: float = 0.0

    @property
    def files_read(self) -> int:
        """The files that were read; ``order`` also holds the unreadable ones."""
        return sum(1 for r in self.reports.values() if not r.io_error)

    @property
    def all_diagnostics(self) -> list[Diagnostic]:
        out = []
        for key in self.order:
            out.extend(self.reports[key].diagnostics)
        return sorted(out, key=lambda d: d.sort_key())

    @property
    def has_io_or_parse_failure(self) -> bool:
        """An unreadable or unparsable input, or one nested too deeply to check."""
        return any(
            r.io_error
            or r.parse_diagnostics
            or any(d.code == "E-NESTING-DEPTH" for d in r.check_diagnostics)
            for r in self.reports.values()
        )

    @property
    def has_errors(self) -> bool:
        return any(
            d.severity == "error" for r in self.reports.values() for d in r.diagnostics
        )

    def exit_code(self) -> int:
        if self.has_io_or_parse_failure:
            return 2
        if self.has_errors:
            return 1
        return 0


def _norm(path: str) -> str:
    return os.path.normpath(os.path.abspath(path))


def _closure(key: str, imports: dict[str, list[str]]) -> set[str]:
    # iterative so import cycles terminate (they are diagnosed separately)
    got: set[str] = set()
    stack = list(imports[key])
    while stack:
        d = stack.pop()
        if d not in got:
            got.add(d)
            stack.extend(imports[d])
    return got


def _drain(items: list) -> Iterator:
    """The items in order, each let go by the list as it is taken."""
    items.reverse()
    while items:
        yield items.pop()


def check_files(paths: list[str], max_unfold: int = 10_000) -> BatchResult:
    """Parse, resolve and check the given files plus their import closures."""
    start = time.monotonic()
    reports: dict[str, FileReport] = {}
    decls: dict[str, list] = {}
    imports: dict[str, list[str]] = {}
    unreadable: dict[str, str] = {}  # key -> why the file could not be read
    import_failed: set[str] = set()  # keys of files with an #import that failed
    # (shown path, key, (importing key, directive span) or None)
    queue = [(p, _norm(p), None) for p in paths]

    while queue:
        shown, key, directive = queue.pop(0)
        if key not in reports:
            report = reports[key] = FileReport(path=shown)
            decls[key], imports[key] = [], []
            try:
                with open(key, "r", encoding="utf-8") as fh:
                    report.source = fh.read()
            except (OSError, UnicodeDecodeError) as e:
                report.io_error = True
                unreadable[key] = read_failure(e)
            else:
                decls[key], pdiags, found = parse_module(report.source)
                for d in pdiags:
                    d.file = shown
                report.parse_diagnostics.extend(pdiags)
                for rel, span in found:
                    if rel is None:
                        import_failed.add(key)
                        continue
                    dep_key = _norm(os.path.join(os.path.dirname(key), rel))
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
            owner.parse_diagnostics.append(
                Diagnostic("error", "E-IO", message, span, file=owner.path)
            )

    # deterministic topological order: repeatedly take the lexicographically
    # first file whose imports are all placed
    order: list[str] = []
    remaining = set(reports)
    while remaining:
        ready = sorted(k for k in remaining if not remaining.intersection(imports[k]))
        if not ready:
            for k in sorted(remaining):
                path = reports[k].path
                reports[k].parse_diagnostics.append(
                    Diagnostic(
                        "error", "E-IMPORT-CYCLE", f"import cycle involving '{path}'", file=path
                    )
                )
            ready = sorted(remaining)
        order.extend(ready)
        remaining.difference_update(ready)

    envs: dict[str, CheckEnv] = {}
    result = BatchResult(reports=reports, order=order)
    for key in order:
        report = reports[key]
        env = CheckEnv(max_unfold=max_unfold)
        for dep in sorted(_closure(key, imports)):
            dep_env = envs.get(dep)
            if dep_env is None:
                continue
            for name, decl in dep_env.decls.items():
                held = env.decls.get(name)
                if held is not None and held is not decl:
                    report.check_diagnostics.append(
                        Diagnostic(
                            "error",
                            "E-DUPLICATE-NAME",
                            f"'{name}' is declared by two different imports",
                            file=report.path,
                        )
                    )
                env.decls[name] = decl
            env.axioms.update(dep_env.axioms)
            env.axiom_usage.update(dep_env.axiom_usage)
            env.failed.update(dep_env.failed)
        # a declaration that failed to parse after its name was read
        env.failed.update(d.decl for d in report.parse_diagnostics if d.decl is not None)
        before = set(env.decls)
        pending = _drain(decls.pop(key))
        _, cdiags, _ = check_module(env, pending, import_failed=key in import_failed)
        for d in cdiags:
            d.file = report.path
        report.check_diagnostics.extend(cdiags)
        report.decl_names = [n for n in env.decls if n not in before]
        report.postulates = frozenset(n for n in report.decl_names if env.decls[n].is_postulate)
        report.axiom_usage = {n: env.axiom_usage[n] for n in report.decl_names}
        result.j_fired += env.j_fired
        envs[key] = env

    result.wall_seconds = time.monotonic() - start
    return result
