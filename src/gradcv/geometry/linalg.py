"""Rigid-body and projective transforms on point sets."""
from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..tape import Var, as_var, matmul
from ..tensor import as_array
from .conversions import (
    convert_points_from_homogeneous,
    convert_points_to_homogeneous,
)
from .transforms import mat3_inverse


def transform_points(t, points) -> Var:
    """Apply a (3,3) or (4,4) transform to (...,2) / (...,3) points.

    Homogeneous division guards |w| > 1e-12 and raises
    :class:`~gradcv.errors.DegenerateError` otherwise.
    """
    t = as_var(t)
    pts = as_var(points)
    d = t.shape[-1] - 1
    if t.shape[-2:] not in ((3, 3), (4, 4)):
        raise ShapeError(f"transform must be (3,3) or (4,4), got {t.shape}")
    if pts.shape[-1] != d:
        raise ShapeError(f"{t.shape[-1]}x{t.shape[-1]} transform needs (...,{d}) points")
    ph = convert_points_to_homogeneous(pts)
    out = matmul(ph, t.swapaxes(-1, -2))
    return convert_points_from_homogeneous(out)


def compose_transforms(t2, t1) -> np.ndarray:
    """Matrix of `t1 followed by t2` (column-vector convention)."""
    return as_array(t2, np.float64) @ as_array(t1, np.float64)


def inverse_transform(t) -> np.ndarray:
    """Inverse transform; 4x4 inputs use the rigid closed form and 3x3 inputs
    :func:`~gradcv.geometry.transforms.mat3_inverse`, which raises
    EstimationError for a singular matrix."""
    m = as_array(t, np.float64)
    if m.shape == (4, 4):
        r = m[:3, :3]
        out = np.eye(4)
        out[:3, :3] = r.T
        out[:3, 3] = -r.T @ m[:3, 3]
        return out
    if m.shape == (3, 3):
        return mat3_inverse(m).numpy()[0]
    raise ShapeError(f"transform must be (3,3) or (4,4), got {m.shape}")


def relative_transform(t_a, t_b) -> np.ndarray:
    """Transform taking frame a to frame b: T_b @ T_a^-1."""
    return as_array(t_b, np.float64) @ inverse_transform(t_a)
