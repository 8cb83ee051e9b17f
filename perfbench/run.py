"""The stt benchmark: three workloads, end-to-end metrics and per-layer numbers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 36 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json):

* ``corpus``   -- ``stt corpus --json`` on the bundled stdlib.
* ``topes``    -- seeded sequents decided by ``topes.tope_entails``.
* ``frontend`` -- ``stt check --json`` on one seeded, generated module.

Every pass runs in a fresh interpreter (``worker.py``), because the tope
solver's memo is global and users start cold.  Load is closed-loop from one
process on one thread: a job starts when the previous verdict is in.  With
``--trace 0`` run.py runs passes until the next one would end after
``--seconds`` and prints the end-to-end metrics (each computed per pass, or
per set-up for set-up time, then taken at the slow end of the run, see
``_slow_pass`` and ``_slow_setup``); with ``--trace 1`` it runs one untraced
and two traced passes and prints the per-layer metrics, the
tracing overhead, and fails the run if the two traced passes disagree on any
count.  Every verdict is checked against an answer that does not come from
stt; a wrong, missing or crashed verdict counts as failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = inputs.ROOT
WORKLOADS = ("corpus", "topes", "frontend")
REQUIRED = (
    os.path.join("src", "stt", "__init__.py"),
    os.path.join("src", "stt", "stdlib", "manifest.txt"),
    os.path.join("tests", "test_topes.py"),
)
SETUP_EVERY_S = 2.0  # at least one set-up is timed per this many seconds of a run
DEADLINE_S = 170.0  # workers still running then are stopped, so a run ends within 180 s


class Workers:
    def __init__(self, workload: str, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.spawned = 0

    def spawn(self, traced: bool = False, setup_only: bool = False) -> dict | None:
        """One worker process; None if it crashed or ran out of time."""
        self.spawned += 1
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), self.workload,
               str(self.seed), os.path.join(self.workdir, f"pass{self.spawned}")]
        if traced:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, PYTHONPATH=inputs.SRC)
        # An installed stt runs from cached bytecode; the warm-up pass writes it.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"worker timed out: {' '.join(cmd[2:])}", file=sys.stderr)
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
            return None
        r = json.loads(proc.stdout.splitlines()[-1])
        r["setup_s"] = r["t_ready"] - t_spawn
        r["wall_s"] = r["t_done"] - r["t_ready"]
        return r


# ---------------------------------------------------------------------------
# verdict checks: each returns (jobs attempted, jobs failed, items checked)

_TIMING = re.compile(r'"timing": \{[^}]*\}')


class Verdicts:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.reference_output: str | None = None
        if workload == "topes":
            self.sequents = inputs.tope_sequents(seed)
            self.order = inputs.tope_jobs(seed, len(self.sequents))
            self.answers: list[bool] | None = None
        elif workload == "corpus":
            self.decls = inputs.stdlib_declarations()
        else:
            self.decls = inputs.FRONTEND_DECLS

    def expected_jobs(self) -> int:
        if self.workload == "topes":
            return len(self.order)
        return 1

    def check(self, r: dict | None) -> tuple[int, int, int]:
        if r is None:
            return self.expected_jobs(), self.expected_jobs(), 0
        return getattr(self, "_check_" + self.workload)(r["jobs"])

    @staticmethod
    def _json(job: dict) -> dict | None:
        """The CLI's JSON document, or None if it exited non-zero or printed
        something else."""
        if job["exit"] != 0:
            return None
        try:
            return json.loads(job["out"])
        except json.JSONDecodeError:
            return None

    def _same_output(self, out: str) -> bool:
        stripped = _TIMING.sub("", out)
        if self.reference_output is None:
            self.reference_output = stripped
        return stripped == self.reference_output

    def _check_corpus(self, jobs) -> tuple[int, int, int]:
        job = jobs[0]
        doc = self._json(job)
        good = (
            doc is not None
            and doc["summary"]["failed"] == 0
            and doc["summary"]["entries"] == self.decls
            and len(doc["summary"]["corpus"]) == self.decls
            and all(e["status"] == "ok" for e in doc["summary"]["corpus"])
            and self._same_output(job["out"])
        )
        return 1, 0 if good else 1, self.decls

    def _check_frontend(self, jobs) -> tuple[int, int, int]:
        job = jobs[0]
        doc = self._json(job)
        good = (
            doc is not None
            and doc["diagnostics"] == []
            and doc["summary"]["declarations"] == self.decls
            and self._same_output(job["out"])
        )
        return 1, 0 if good else 1, self.decls

    def _check_topes(self, jobs) -> tuple[int, int, int]:
        if self.answers is None:
            self.answers = self._oracle_answers()
        verdicts = jobs[0]["verdicts"]
        failed = len(self.order) - len(verdicts)
        for i, v in zip(self.order, verdicts):
            failed += (v == "1") != self.answers[i]
        return len(self.order), failed, len(self.order)

    def _oracle_answers(self) -> list[bool]:
        """Chains answer by construction; random sequents ask the independent
        oracle of ``tests/test_topes.py``.  Computed after the timed passes."""
        sys.path.insert(0, os.path.join(ROOT, "tests"))
        from test_topes import oracle_entails

        return [
            known if known is not None else oracle_entails(n, hyps, goal)
            for n, hyps, goal, known in self.sequents
        ]


# ---------------------------------------------------------------------------
# metrics

def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else float("nan")


def _p99(xs: list[float]) -> float:
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


def _slow_pass(xs: list[float], higher_is_better: bool = False) -> float:
    """The value nine passes in ten beat: the 90th percentile of a cost, the
    10th of a rate.

    On a shared machine a pass runs in one of a few speed states, up to about
    twice apart, that last for several seconds.  The slow state shows up in
    nearly every run, the fast one only in some, so a run's median moves with
    the share of fast time it caught while its slow end stays put.
    """
    if len(xs) < 2:
        return xs[0]
    deciles = statistics.quantiles(xs, n=10, method="inclusive")
    return deciles[0] if higher_is_better else deciles[-1]


def _slow_setup(setups: list[float]) -> float:
    """The upper quartile of the set-ups timed in a run.

    A run times 16 to 28 set-ups of about 0.2 s, so a tenth of them is two or
    three samples and their 90th percentile follows single outliers.  In six
    sets of runs on a shared 2-vCPU machine, the upper quartile spread less
    across runs than both the median and the 90th percentile in five.
    """
    if len(setups) < 2:
        return setups[0]
    return statistics.quantiles(setups, n=4, method="inclusive")[-1]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Each metric per pass, then its slow-pass value across the run; set-up
    time is the slow end of all the set-ups timed."""
    job_ms = [
        [m for job in r["jobs"] for m in (job["ms"] if isinstance(job["ms"], list) else [job["ms"]])]
        for r in passes
    ]
    return {
        "setup_s": (_slow_setup(setups), "s"),
        "wall_s": (_slow_pass([r["wall_s"] for r in passes]), "s"),
        "items_per_s": (_slow_pass([r["items"] / r["wall_s"] for r in passes], True), "1/s"),
        "job_ms_p50": (_slow_pass([_median(ms) for ms in job_ms]), "ms"),
        "job_ms_p99": (_slow_pass([_p99(ms) for ms in job_ms]), "ms"),
        "peak_rss_mb": (_slow_pass([r["rss_kb"] / 1024.0 for r in passes]), "MB"),
    }


LAYER_UNITS = {"calls": "count", "self_s": "s", "max_s": "s", "tokens_per_s": "1/s",
               "memo_hit_ratio": "ratio"}


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict, list[str]]:
    """Median of the traced passes, plus tracing overhead; and the names of
    counts that differ between the traced passes."""
    keys = traced[0]["layers"].keys()
    out = {}
    for k in keys:
        unit = LAYER_UNITS.get(k.rsplit(".", 1)[-1], "count")
        out[k] = (_median([r["layers"][k] for r in traced]), unit)
    traced_wall = _median([r["wall_s"] for r in traced])
    out["trace.overhead_s"] = (traced_wall - untraced["wall_s"], "s")
    differ = [k for k in keys
              if out[k][1] == "count" and len({r["layers"][k] for r in traced}) > 1]
    return out, differ


def context() -> dict:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    lines = 0
    pkg = os.path.join(inputs.SRC, "stt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_stt_lines": lines}


# ---------------------------------------------------------------------------

def measure(workers: Workers, verdicts: Verdicts, seconds: int, trace: bool):
    """Run the passes, then check every verdict (outside the measured time).

    Returns (metrics or None, jobs attempted, jobs failed, slowest declaration).
    """
    workers.spawn(setup_only=True)  # warm-up: byte-compiles the sources once
    setups: list[float] = []
    if trace:
        results = [workers.spawn(traced=t) for t in (False, True, True)]
    else:
        start = time.monotonic()
        results, durations = [], []
        while not durations or time.monotonic() - start + _median(durations) <= seconds:
            t0 = time.monotonic()
            r = workers.spawn()
            results.append(r)
            if r is not None:
                setups.append(r["setup_s"])
            # Set-ups are sampled all through the run, not in one burst, so
            # that the slow speed state of the host is among them.
            while len(setups) < (time.monotonic() - start) / SETUP_EVERY_S:
                s = workers.spawn(setup_only=True)
                if s is None:
                    break
                setups.append(s["setup_s"])
            durations.append(time.monotonic() - t0)
            if time.monotonic() > workers.deadline:
                break

    attempted = failed = 0
    for r in results:
        a, f, n = verdicts.check(r)
        attempted += a
        failed += f
        if r is not None:
            r["items"] = n
    passes = [r for r in results if r is not None]
    if trace:
        if len(passes) < 3:
            return None, attempted, failed, None
        metrics, differ = per_layer(passes[0], passes[1:])
        for k in differ:
            print(f"count differs between traced passes: {k}", file=sys.stderr)
        return metrics, attempted, failed + len(differ), passes[1]["slowest_decl"]
    if not passes:
        return None, attempted, failed, None
    return end_to_end(passes, setups), attempted, failed, None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not an stt checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    sys.path.insert(0, inputs.SRC)
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        workers = Workers(args.workload, args.seed, workdir)
        verdicts = Verdicts(args.workload, args.seed)
        metrics, attempted, failed, slowest = measure(workers, verdicts, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    if metrics is None:
        print("error: the passes needed for the metrics did not complete", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40} {value:14.6f} {unit}")
    ratio = failed / attempted if attempted else float("nan")
    print(f"  {'fail_ratio':40} {ratio:14.6f} -  ({failed} of {attempted} jobs)")
    if slowest is not None:
        print(f"  slowest declaration: {slowest}")
    print("context " + json.dumps(context(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
