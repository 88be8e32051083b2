"""Pinhole camera model: intrinsics K, rigid world->camera extrinsics T,
projection/unprojection, and the plain-text camera file format
(line 1: fx fy cx cy; lines 2-5: the 4x4 T, row-major)."""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateError, ParameterError, ShapeError
from ..tensor import as_array


@dataclass(frozen=True)
class PinholeCamera:
    k: np.ndarray  # 3x3 intrinsics, zero skew
    extrinsics: np.ndarray  # 4x4 rigid world->camera
    height: int
    width: int

    def __post_init__(self):
        k = as_array(self.k, np.float64)
        t = as_array(self.extrinsics, np.float64)
        if k.shape != (3, 3) or t.shape != (4, 4):
            raise ShapeError(f"K must be (3,3) and T (4,4), got {k.shape}/{t.shape}")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise ParameterError("focal lengths must be positive")
        if k[0, 1] != 0 or k[1, 0] != 0 or not np.array_equal(k[2], [0.0, 0.0, 1.0]):
            raise ParameterError(f"K must have zero skew and a last row (0, 0, 1), got\n{k}")
        r = t[:3, :3]
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-9 or np.linalg.det(r) < 0:
            raise ParameterError("extrinsic rotation must be orthonormal with det +1")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "extrinsics", t)

    @property
    def fx(self) -> float:
        return float(self.k[0, 0])

    @property
    def fy(self) -> float:
        return float(self.k[1, 1])

    @property
    def cx(self) -> float:
        return float(self.k[0, 2])

    @property
    def cy(self) -> float:
        return float(self.k[1, 2])


def make_camera(fx, fy, cx, cy, extrinsics=None, size=(0, 0)) -> PinholeCamera:
    k = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    t = np.eye(4) if extrinsics is None else as_array(extrinsics, np.float64)
    return PinholeCamera(k, t, int(size[0]), int(size[1]))


def project_points(cam: PinholeCamera, points) -> np.ndarray:
    """Camera-frame 3-D points (...,3) -> pixel coordinates (...,2)."""
    pts = as_array(points, np.float64)
    if pts.shape[-1] != 3:
        raise ShapeError(f"expected (...,3) points, got {pts.shape}")
    z = pts[..., 2]
    if np.any(z <= 0):
        raise DegenerateError("point behind the camera (Z <= 0)")
    u = cam.fx * pts[..., 0] / z + cam.cx
    v = cam.fy * pts[..., 1] / z + cam.cy
    return np.stack([u, v], axis=-1)


def unproject_points(cam: PinholeCamera, pixels, depth) -> np.ndarray:
    """Pixels (...,2) plus depth (broadcastable) -> camera-frame points."""
    px = as_array(pixels, np.float64)
    if px.shape[-1] != 2:
        raise ShapeError(f"expected (...,2) pixels, got {px.shape}")
    d = np.broadcast_to(as_array(depth, np.float64), px.shape[:-1])
    if np.any(d <= 0):
        raise DegenerateError("depth must be positive")
    x = (px[..., 0] - cam.cx) / cam.fx * d
    y = (px[..., 1] - cam.cy) / cam.fy * d
    return np.stack([x, y, d], axis=-1)


def save_camera(path: str | os.PathLike, cam: PinholeCamera) -> None:
    with open(path, "w") as fh:
        fh.write(f"{cam.fx:.17g} {cam.fy:.17g} {cam.cx:.17g} {cam.cy:.17g}\n")
        for row in cam.extrinsics:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def _camera_row(path, n: int, line: str, count: int) -> list:
    try:
        values = [float(v) for v in line.split()]
    except ValueError:
        values = []
    if len(values) != count or not np.isfinite(values).all():
        raise ParameterError(f"reading camera file {path}: data line {n} must hold {count} finite numbers, got {line!r}")
    return values


def load_camera(path: str | os.PathLike, size=(0, 0)) -> PinholeCamera:
    """Read a camera file; a malformed file raises ParameterError naming it."""
    path = os.fspath(path)
    with open(path) as fh:
        lines = [ln for ln in (l.strip() for l in fh) if ln and not ln.startswith("#")]
    if len(lines) < 5:
        raise ParameterError(f"reading camera file {path}: needs 5 data lines, got {len(lines)}")
    fx, fy, cx, cy = _camera_row(path, 1, lines[0], 4)
    t = np.array([_camera_row(path, i, ln, 4) for i, ln in enumerate(lines[1:5], start=2)])
    try:
        return make_camera(fx, fy, cx, cy, t, size)
    except (ParameterError, ShapeError) as exc:
        raise ParameterError(f"reading camera file {path}: {exc}") from None
