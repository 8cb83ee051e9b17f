"""One pass of one workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/worker.py WORKLOAD SEED WORKDIR
[--trace] [--setup-only]`` with ``src`` on ``PYTHONPATH``.  The worker sets up
(imports stt and builds the seeded inputs), records the moment
the first job can be issued, runs the jobs one after another on one thread,
and prints one JSON line: the clock readings, the raw outputs ``run.py``
checks, its peak resident memory and, when traced, the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

import inputs


def _cli(argv: list[str]) -> dict:
    import stt.cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = stt.cli.main(argv)
    return {"ms": (time.perf_counter() - start) * 1000.0, "exit": code, "out": buf.getvalue()}


def setup_corpus(seed: int, workdir: str):
    import stt.cli  # noqa: F401  (the import a user's `stt corpus` pays)

    return lambda: [_cli(["corpus", "--json"])]


def setup_frontend(seed: int, workdir: str):
    import stt.cli  # noqa: F401

    path = os.path.join(workdir, "generated.stt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.frontend_module(seed))
    return lambda: [_cli(["check", "--json", path])]


def setup_topes(seed: int, workdir: str):
    import stt.topes
    from stt.core import INTERVAL

    sequents = [
        ([INTERVAL] * n, hyps, goal) for n, hyps, goal, _ in inputs.tope_sequents(seed)
    ]
    order = inputs.tope_jobs(seed, len(sequents))

    def run():
        ms, verdicts = [], []
        clock = time.perf_counter
        for i in order:
            ctx, hyps, goal = sequents[i]
            start = clock()
            v = stt.topes.tope_entails(ctx, hyps, goal)
            ms.append((clock() - start) * 1000.0)
            verdicts.append(v)
        return [{"ms": ms, "verdicts": "".join("1" if v else "0" for v in verdicts)}]

    return run


SETUP = {
    "corpus": setup_corpus,
    "frontend": setup_frontend,
    "topes": setup_topes,
}


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    traced, setup_only = "--trace" in argv, "--setup-only" in argv
    os.makedirs(workdir)
    try:
        run = SETUP[workload](seed, workdir)
        tracer = None
        if traced:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        t_ready = time.monotonic()
        jobs = [] if setup_only else run()
        t_done = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "t_ready": t_ready,
        "t_done": t_done,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": jobs,
    }
    if tracer is not None:
        result["layers"], result["slowest_decl"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
