"""Angle, coordinate, and rotation-parameterization conversions.

Rotation conversions operate on plain numpy values (they parameterize
constants such as camera poses); point conversions accept Vars so they can
sit on the differentiable path.
"""
from __future__ import annotations

import numpy as np

from ..errors import DegenerateError, ParameterError, ShapeError
from ..tape import Var, as_var, concat
from .transforms import _normal_to_pixel, _require_invertible, normal_transform_pixel

_W_EPS = 1e-12


def deg2rad(x):
    if isinstance(x, Var):
        return x * (np.pi / 180.0)
    return np.asarray(x, dtype=np.float64) * (np.pi / 180.0)


def rad2deg(x):
    if isinstance(x, Var):
        return x * (180.0 / np.pi)
    return np.asarray(x, dtype=np.float64) * (180.0 / np.pi)


def convert_points_to_homogeneous(points) -> Var:
    """(..., D) -> (..., D+1) by appending a unit coordinate."""
    pts = as_var(points)
    ones = np.ones(pts.shape[:-1] + (1,), dtype=pts.dtype)
    return concat([pts, as_var(ones)], axis=-1)


def convert_points_from_homogeneous(points) -> Var:
    """(..., D+1) -> (..., D); raises on points at infinity (|w| <= 1e-12)."""
    pts = as_var(points)
    w = pts[..., -1:]
    if np.any(np.abs(w.data) <= _W_EPS):
        raise DegenerateError("homogeneous point with |w| <= 1e-12")
    return pts[..., :-1] / w


def normalize_pixel_coordinates(points, height: int, width: int) -> Var:
    """Map pixel (u,v) into [-1,1]^2 with -1/+1 at the outer pixel centers,
    by :func:`~gradcv.geometry.transforms.normal_transform_pixel`."""
    _require_invertible((height, width), "normalize_pixel_coordinates")
    return _scale_and_shift(points, normal_transform_pixel(height, width))


def denormalize_pixel_coordinates(points, height: int, width: int) -> Var:
    """Inverse of :func:`normalize_pixel_coordinates`."""
    _require_invertible((height, width), "denormalize_pixel_coordinates")
    return _scale_and_shift(points, _normal_to_pixel((height, width)))


def _scale_and_shift(points, m: np.ndarray) -> Var:
    """(...,2) points through the diagonal 3x3 coordinate map m."""
    pts = as_var(points)
    if pts.shape[-1] != 2:
        raise ShapeError(f"expected (...,2) coordinates, got {pts.shape}")
    return pts * m[[0, 1], [0, 1]] + m[:2, 2]


# --- rotations (numpy, wxyz quaternions, w >= 0 canonical) -------------------


def quaternion_to_rotation_matrix(q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (4,):
        raise ShapeError(f"quaternion must be (4,) wxyz, got {q.shape}")
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ParameterError("zero quaternion has no rotation")
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_matrix_to_quaternion(m) -> np.ndarray:
    """Shepperd's method (1978); returns wxyz with w >= 0."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ShapeError(f"rotation matrix must be (3,3), got {m.shape}")
    tr = np.trace(m)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    else:
        # the largest diagonal entry i and its cyclic successors j, k
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        d = np.diag(m) * np.where(np.arange(3) == i, 1.0, -1.0)
        s = np.sqrt(1.0 + d[0] + d[1] + d[2]) * 2
        q = np.empty(4)
        q[0] = (m[k, j] - m[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (m[i, j] + m[j, i]) / s
        q[1 + k] = (m[i, k] + m[k, i]) / s
    q /= np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def axis_angle_to_rotation_matrix(v) -> np.ndarray:
    """Rodrigues formula; the rotation angle is the vector norm."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise ShapeError(f"axis-angle vector must be (3,), got {v.shape}")
    theta = np.linalg.norm(v)
    if theta < 1e-12:
        return np.eye(3)
    k = v / theta
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(theta) * kx + (1.0 - np.cos(theta)) * (kx @ kx)


def rotation_matrix_to_axis_angle(m) -> np.ndarray:
    q = rotation_matrix_to_quaternion(m)
    w = np.clip(q[0], -1.0, 1.0)
    angle = 2.0 * np.arccos(w)
    s = np.sqrt(max(1.0 - w * w, 0.0))
    if s < 1e-12:
        return np.zeros(3)
    return q[1:] / s * angle
