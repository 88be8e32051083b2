"""Wall-time benchmark over batch sizes for a few representative operators.

Each timed repeat runs the operator forward on an input that requires a
gradient, sums the result and runs ``backward``, so forward and backward are
measured together.  Reports the median over repeats after warmup;
per-sample time is the median divided by the batch size.  Absolute numbers
are hardware-specific; the useful signal is the per-sample trend as batches
grow.
"""
from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..filters import gaussian_blur2d, sobel_edges
from ..geometry.transforms import warp_perspective
from ..tape import Var, backward

_WARMUP = 3


@dataclass
class BenchRow:
    batch: int
    median_ms: float
    per_sample_ms: float


def _op_fn(op: str):
    if op == "sobel":
        return lambda x: sobel_edges(x)
    if op == "gaussian":
        return lambda x: gaussian_blur2d(x, (5, 5), (1.5, 1.5))
    if op == "warp":
        h = np.array([[0.98, 0.02, 3.0], [-0.02, 1.01, -2.0], [1e-5, 0.0, 1.0]])
        return lambda x: warp_perspective(x, h)
    raise ParameterError(f"unknown bench op {op!r} (want sobel|gaussian|warp)")


def run_bench(op: str, batch_sizes, image_size: int = 256, repeats: int = 10) -> list:
    """One BenchRow per batch size (float32 inputs, channels=3), forward + backward."""
    if repeats < 3:
        raise ParameterError(f"repeats must be >= 3, got {repeats}")
    fn = _op_fn(op)
    rows = []
    rng = np.random.default_rng(0)
    for batch in sorted(int(b) for b in batch_sizes):
        x = Var(rng.random((batch, 3, image_size, image_size)).astype(np.float32),
                requires_grad=True)
        for _ in range(_WARMUP):
            backward(fn(x).sum())
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            backward(fn(x).sum())
            times.append((time.perf_counter() - t0) * 1e3)
        med = float(np.median(times))
        rows.append(BenchRow(batch=batch, median_ms=med, per_sample_ms=med / batch))
    return rows


def write_bench_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["batch", "median_ms", "per_sample_ms"])
        for r in rows:
            writer.writerow([r.batch, f"{r.median_ms:.6g}", f"{r.per_sample_ms:.6g}"])
