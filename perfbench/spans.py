"""Spans and counts recorded around stt's public functions, from outside.

``install`` replaces each traced function by a wrapper at every name under
which an ``stt`` module holds it, so calls are seen wherever the callers
look the function up (``stt.batch.parse_module`` as well as
``stt.parser.parse_module``).  A wrapper records a span (name, start, end,
parent span) for every call, re-entries included, so a function's spans also
count its calls.  Spans are kept in memory and reduced to per-layer numbers
by ``Tracer.report`` when the traced pass ends: a function's self time is the
sum over its spans of the span minus its child spans, so when ``infer`` calls
``check`` which calls ``infer`` again, the inner call's time is charged to
``infer`` and no time is counted twice.
"""

from __future__ import annotations

import importlib
import time
from array import array

# (layer metric prefix, module, attribute); "Class.method" patches the class.
TRACED = [
    ("cli.main", "stt.cli", "main"),
    ("corpus.corpus_check", "stt.corpus", "corpus_check"),
    ("batch.check_files", "stt.batch", "check_files"),
    ("lexer.tokenize", "stt.lexer", "tokenize"),
    ("parser.parse_module", "stt.parser", "parse_module"),
    ("parser.imports_of", "stt.parser", "imports_of"),
    ("resolve.resolve", "stt.resolve", "resolve"),
    ("checker.check_declaration", "stt.checker", "check_declaration"),
    ("checker.Checker.def_equal", "stt.checker", "Checker.def_equal"),
    ("checker.Checker.whnf", "stt.checker", "Checker.whnf"),
    ("checker.Checker.infer", "stt.checker", "Checker.infer"),
    ("core.substitute", "stt.core", "substitute"),
    ("core.subst_cube", "stt.core", "subst_cube"),
    ("core.weaken", "stt.core", "weaken"),
    ("topes.tope_entails", "stt.topes", "tope_entails"),
    ("topes.enumerate_models", "stt.topes", "enumerate_models"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters = {
            "lexer.tokens": 0,
            "topes.models_enumerated": 0,
            "topes.memo_misses": 0,
            "checker.j_fired": 0,
            "batch.files": 0,
        }
        self.decl_of_span: dict[int, str] = {}

    def wrap(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self.stack
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    # per-layer counts that need the call's arguments or result
    def _after_tokenize(self, idx, args, result):
        self.counters["lexer.tokens"] += len(result)

    def _after_enumerate(self, idx, args, result):
        self.counters["topes.models_enumerated"] += len(result)
        parent = self.span_parent[idx]
        if parent >= 0 and self.names[self.span_name[parent]] == "topes.tope_entails":
            self.counters["topes.memo_misses"] += 1

    def _after_check_files(self, idx, args, result):
        self.counters["checker.j_fired"] += result.j_fired
        self.counters["batch.files"] += len(result.order)

    def _after_check_declaration(self, idx, args, result):
        self.decl_of_span[idx] = args[1].name

    def install(self) -> None:
        after = {
            "lexer.tokenize": self._after_tokenize,
            "topes.enumerate_models": self._after_enumerate,
            "batch.check_files": self._after_check_files,
            "checker.check_declaration": self._after_check_declaration,
        }
        modules = [importlib.import_module(m) for m in dict.fromkeys(m for _, m, _ in TRACED)]
        for name, module, attr in TRACED:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), after.get(name)))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, after.get(name))
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, traced)

    def report(self) -> tuple[dict[str, float], str]:
        """Per-layer metrics, and the name of the slowest declaration."""
        n = len(self.span_name)
        child = [0.0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[names[i]] += 1
            self_s[names[i]] += ends[i] - starts[i] - child[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        out.update(self.counters)
        tok_s = out["lexer.tokenize.self_s"]
        out["lexer.tokens_per_s"] = out["lexer.tokens"] / tok_s if tok_s > 0 else 0.0
        entails = out["topes.tope_entails.calls"]
        misses = out["topes.memo_misses"]
        out["topes.memo_hit_ratio"] = (entails - misses) / entails if entails else 0.0
        slowest, max_s = "-", 0.0
        for idx, decl in self.decl_of_span.items():
            if ends[idx] - starts[idx] > max_s:
                slowest, max_s = decl, ends[idx] - starts[idx]
        out["checker.check_declaration.max_s"] = max_s
        return out, slowest
