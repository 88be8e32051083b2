"""Array helpers behind :class:`~gradcv.tape.Var`.

A Var holds an immutable, row-major, contiguous float array.  Image batches
always use the NCHW layout (batch x channel x height x width); public image
operations require 4-D input and callers unsqueeze as needed.

These helpers stay a module of their own, not folded into `tape.py`: the
benchmark (`bench/workloads.py`) imports `gradcv.tensor.as_array`, and the
benchmark's files change only together with the benchmark itself.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from .errors import ParameterError, ShapeError

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _coerce(data: Any, dtype) -> np.ndarray:
    try:
        arr = np.array(data, copy=True)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"tensor data is not numeric: {exc}") from exc
    if arr.dtype not in FLOAT_DTYPES:
        raise ParameterError(f"tensors are 32- or 64-bit float, got {arr.dtype}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr marked read-only (a copy when its flag cannot be cleared); every
    extent must be >= 1."""
    if arr.size == 0:
        raise ShapeError(f"tensor extents must be >= 1, got shape {arr.shape}")
    try:
        arr.flags.writeable = False
    except ValueError:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def as_array(x: Any, dtype=None) -> np.ndarray:
    """Raw ndarray from a Var, ndarray, scalar, or nested sequence."""
    arr = np.asarray(x)
    if dtype is not None and arr.dtype != dtype:
        arr = arr.astype(dtype)
    return arr
