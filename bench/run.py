"""Run one gradcv benchmark workload and print its metrics.

    python3 bench/run.py --workload register --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: gradcv is imported from ``src/`` beside this
directory.  ``--trace 0`` measures the end-to-end metrics with one hook (the
returns of the workload's step function); ``--trace 1`` alternates plain and
traced operations and reports per-layer metrics from the traced ones.  The
last line of standard output is the result as one JSON object; the line
before it records the environment.  Full results, and the spans of a traced
run, are also written under ``bench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import Tracer, rebind

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_blas_thread() -> None:
    """Pin BLAS to one thread; must run before numpy is imported.  gradcv's
    arrays are small, and a second thread only adds waits on a shared host
    (on 2 vCPUs, run-to-run spreads of the timings halved with one thread)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def _fresh_import():
    for name in [n for n in sys.modules if n == "gradcv" or n.startswith("gradcv.")]:
        del sys.modules[name]
    return importlib.import_module("gradcv")


def setup(workload, seed: int):
    """Import gradcv and build the inputs SETUP_REPEATS times; the last
    build is the one measured.  Returns (case, errors, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # drop the previous repetition's modules before timing the next
        t0 = time.perf_counter()
        gradcv = _fresh_import()
        case = workload.build(seed)
        times.append(time.perf_counter() - t0)
    if Path(gradcv.__file__).resolve().parent != (SRC / "gradcv").resolve():
        raise SystemExit(f"bench: imported gradcv from {gradcv.__file__}, not {SRC}")
    return case, gradcv.GradcvError, statistics.median(times)


class Runner:
    """Runs operations, timing and checking each, and counts the outcomes."""

    def __init__(self, case, errors):
        self.case = case
        self.errors = errors
        self.attempted = 0
        self.failed = 0

    def attempt(self):
        """One operation: its wall time, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.case.run()
        except self.errors as exc:
            self.failed += 1
            print(f"op {self.attempted}: raised {exc!r}", file=sys.stderr)
            return None
        dt = time.perf_counter() - t0
        ok, detail = self.case.check(result)
        self.failed += not ok
        print(f"op {self.attempted}: {dt:.4f} s {'ok' if ok else 'FAILED'} ({detail})",
              file=sys.stderr)
        return dt


def _p90(values) -> float:
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _op_steps(marks, mode: str) -> dict:
    """Step samples (seconds) of each operation, keyed by operation number."""
    by_op = defaultdict(list)
    for op, t0, t1 in marks:
        by_op[op].append((t0, t1))
    if mode == "calls":
        return {op: [t1 - t0 for t0, t1 in calls] for op, calls in by_op.items()}
    return {op: [b[1] - a[1] for a, b in zip(calls, calls[1:])] for op, calls in by_op.items()}


def untraced(workload, runner: Runner, seconds: float) -> tuple:
    marks = []  # (op, entry, return) of the step hook

    def hook_factory(fn):
        def hook(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            marks.append((runner.attempted, t0, time.perf_counter()))
            return out

        return hook

    solve = {}  # operation number -> wall time
    with rebind({workload.step_hook: hook_factory}):
        deadline = time.perf_counter() + seconds
        while True:
            dt = runner.attempt()
            if dt is not None:
                solve[runner.attempted] = dt
            if time.perf_counter() >= deadline:
                break
    if not solve:
        raise SystemExit("bench: no operation completed")
    op_steps = _op_steps(marks, workload.step_mode)
    steps = [s for op in solve for s in op_steps.get(op, [])]
    metrics = {
        "solve_s.p90": (_p90(solve.values()), "s"),
        "step_ms.p90": (1e3 * _p90(steps), "ms"),
    }
    extra = {
        "solve_s.p50": statistics.median(solve.values()),
        "step_ms.p50": 1e3 * statistics.median(steps),
        "solve_s": list(solve.values()),
        "op_steps": [op_steps.get(op, []) for op in solve],
    }
    return metrics, extra


def traced(runner: Runner, seconds: float, spans_path: Path) -> tuple:
    """Alternate plain and traced operations; per-layer metrics come from
    the traced ones, the overhead from the difference of the two medians."""
    tracer = Tracer()
    plain, traced_s, coverage = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        if runner.attempted % 2 == 0:
            dt = runner.attempt()
            if dt is not None:
                plain.append(dt)
        else:
            op = runner.attempted
            with tracer.operation(op):
                dt = runner.attempt()
            if dt is not None:
                traced_s.append(dt)
                coverage.append(tracer.self_time_s(op) / dt)
        if time.perf_counter() >= deadline and (
                (plain and traced_s) or runner.failed == runner.attempted):
            break
    if not (plain and traced_s):
        raise SystemExit("bench: no plain or no traced operation completed")
    tracer.write_spans(spans_path)
    metrics = tracer.per_op_metrics(len(traced_s))
    metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain), "s")
    metrics["trace.coverage"] = (statistics.median(coverage), "ratio")
    return metrics, {"plain_s": plain, "traced_s": traced_s, "coverage": coverage}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "gradcv" / "__init__.py").is_file():
        print(f"bench: no gradcv sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    _one_blas_thread()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (after the thread limit; kept out of setup_s)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    workload = WORKLOADS[args.workload]
    case, errors, setup_s = setup(workload, args.seed)
    runner = Runner(case, errors)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, extra = traced(runner, args.seconds, OUT / f"{stem}-spans.jsonl")
    else:
        metrics, extra = untraced(workload, runner, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(nproc)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "extra": extra, **result}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
