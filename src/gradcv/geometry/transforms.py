"""Planar transforms: the 4-point DLT, perspective/affine warps, and the
normalized-coordinate homography warp used by registration.

Warp convention: the matrix maps input pixel coordinates to output pixel
coordinates; warps are inverse-sampling (each output pixel back-projects
into the source), so outputs have no holes and warping is differentiable
w.r.t. both the image and the transform.

Every warp takes one path, `_warp`: a 3x3 map from output to input pixel
coordinates, one matmul over the homogeneous output pixel grid, the
perspective divide, and one `sample_bilinear`.  `warp_perspective` (and
`warp_affine` through it) hands `_warp` the inverse homography;
`homography_warp` wraps its normalized map between the constant
pixel -> normalized and normalized -> pixel matrices.
"""
from __future__ import annotations

import numpy as np

from ..errors import EstimationError, ParameterError, ShapeError
from ..kernels import sample_bilinear
from ..tape import Var, as_var, concat, matmul, stack, where
from ..tensor import Tensor, as_array

_DET_EPS = 1e-12


def _as_batched_mat3(h) -> Var:
    h = as_var(h)
    if h.ndim == 2:
        h = h.reshape((1, 3, 3))
    if h.ndim != 3 or h.shape[1:] != (3, 3):
        raise ShapeError(f"expected (N,3,3) or (3,3) matrix, got {h.shape}")
    return h


def mat3_inverse(h) -> Var:
    """Differentiable batched 3x3 inverse via the adjugate formula."""
    h = _as_batched_mat3(h)
    m = [[h[:, i, j] for j in range(3)] for i in range(3)]
    c00 = m[1][1] * m[2][2] - m[1][2] * m[2][1]
    c01 = m[0][2] * m[2][1] - m[0][1] * m[2][2]
    c02 = m[0][1] * m[1][2] - m[0][2] * m[1][1]
    c10 = m[1][2] * m[2][0] - m[1][0] * m[2][2]
    c11 = m[0][0] * m[2][2] - m[0][2] * m[2][0]
    c12 = m[0][2] * m[1][0] - m[0][0] * m[1][2]
    c20 = m[1][0] * m[2][1] - m[1][1] * m[2][0]
    c21 = m[0][1] * m[2][0] - m[0][0] * m[2][1]
    c22 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    det = m[0][0] * c00 + m[0][1] * c10 + m[0][2] * c20
    if np.any(np.abs(det.data) < _DET_EPS):
        raise EstimationError("singular 3x3 matrix (|det| < 1e-12)")
    rows = [
        stack([c00, c01, c02], axis=1),
        stack([c10, c11, c12], axis=1),
        stack([c20, c21, c22], axis=1),
    ]
    return stack(rows, axis=1) / det.reshape((-1, 1, 1))


_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def _has_collinear_triple(pts: np.ndarray) -> np.ndarray:
    """Whether any 3 of 4 points are collinear, for (..., 4, 2) point sets.

    A triple counts as collinear when its doubled signed area is at most
    1e-8 * s^2, with s the larger coordinate extent of the set (at least 1).
    """
    scale = np.maximum(np.maximum(np.ptp(pts[..., 0], axis=-1), np.ptp(pts[..., 1], axis=-1)), 1.0)
    p = pts[..., _TRIPLES, :]  # (..., 4 triples, 3 points, 2)
    u = p[..., 1, :] - p[..., 0, :]
    v = p[..., 2, :] - p[..., 0, :]
    area = np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    return (area <= (1e-8 * scale * scale)[..., None]).any(axis=-1)


def _dlt_system(src: np.ndarray, dst: np.ndarray) -> tuple:
    """DLT rows (A, b) of A h = b, with h the first 8 entries of H and
    H[2,2] = 1, for (..., n, 2) point pairs: A is (..., 2n, 8), b (..., 2n)."""
    x, y = src[..., 0], src[..., 1]
    u, v = dst[..., 0], dst[..., 1]
    one, zero = np.ones_like(x), np.zeros_like(x)
    row_u = np.stack([x, y, one, zero, zero, zero, -x * u, -y * u], axis=-1)
    row_v = np.stack([zero, zero, zero, x, y, one, -x * v, -y * v], axis=-1)
    batch, n = src.shape[:-2], src.shape[-2]
    a = np.stack([row_u, row_v], axis=-2).reshape(batch + (2 * n, 8))
    b = np.stack([u, v], axis=-1).reshape(batch + (2 * n,))
    return a, b


def get_perspective_transform(src, dst) -> np.ndarray:
    """Homography H with dst_i ~ H @ [src_i, 1] from 4 point pairs.

    Solved as the exactly-determined 8x8 DLT system (LU with partial
    pivoting); H[2,2] is fixed to 1.  Configurations with three collinear
    points (either side) are rejected as degenerate.
    """
    src = as_array(src, np.float64).reshape(4, 2)
    dst = as_array(dst, np.float64).reshape(4, 2)
    if _has_collinear_triple(src) or _has_collinear_triple(dst):
        raise EstimationError("degenerate configuration: three points collinear")
    a, b = _dlt_system(src, dst)
    try:
        h = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"degenerate point configuration: {exc}") from exc
    if not np.isfinite(h).all():
        raise EstimationError("degenerate point configuration (non-finite solution)")
    return np.append(h, 1.0).reshape(3, 3)


def _warp(img: Var, m: Var, dsize) -> Var:
    """Sample img at m @ [x, y, 1] for every pixel (x, y) of a dsize output.

    m is (1|N,3,3) and maps output pixel coordinates to input pixel
    coordinates: one matmul over the constant homogeneous pixel grid, the
    perspective divide, then one bilinear lookup.
    """
    n = img.shape[0]
    if m.shape[0] not in (1, n):
        raise ShapeError(f"{m.shape[0]} transforms for batch of {n}")
    if m.shape[0] != n:
        m = m * np.ones((n, 1, 1), m.dtype)  # one shared map for the whole batch
    ho, wo = dsize
    grid = np.ones((3, ho, wo), dtype=m.dtype)  # homogeneous (x, y, 1) per output pixel
    grid[0], grid[1] = np.arange(wo), np.arange(ho)[:, None]
    p = matmul(m, Var(Tensor._wrap(grid.reshape(3, -1))))  # (N,3,H'W'); the grid is not copied
    w = p[:, 2:]
    ok = np.abs(w.data) > _DET_EPS
    degenerate = not ok.all()
    if degenerate:
        w = where(ok, w, 1.0)
    xy = p[:, :2] / w
    if degenerate:
        # points mapped to infinity fall far outside -> zero-border samples
        xy = where(ok, xy, -1e9)
    xy = xy.reshape((n, 2, ho, wo))
    return sample_bilinear(img, xy[:, 0], xy[:, 1])


def warp_perspective(img, h, dsize=None) -> Var:
    """Warp an NCHW image by a homography in pixel coordinates.

    out(u) = img(H^-1 u); dsize is (H', W') and defaults to the input size.
    """
    img = as_var(img)
    if img.ndim != 4:
        raise ShapeError(f"warp_perspective expects NCHW input, got {img.shape}")
    return _warp(img, mat3_inverse(h), dsize if dsize is not None else img.shape[2:])


def warp_affine(img, m, dsize=None) -> Var:
    """Warp by a (N,2,3)/(2,3) affine matrix; same path as warp_perspective."""
    m = as_var(m)
    if m.ndim == 2:
        m = m.reshape((1, 2, 3))
    if m.ndim != 3 or m.shape[1:] != (2, 3):
        raise ShapeError(f"expected (N,2,3) affine matrix, got {m.shape}")
    bottom = np.tile(np.array([[[0.0, 0.0, 1.0]]]), (m.shape[0], 1, 1))
    return warp_perspective(img, concat([m, as_var(bottom)], axis=1), dsize)


def get_rotation_matrix2d(center, angle_deg: float, scale: float) -> np.ndarray:
    """2x3 matrix rotating by angle (counter-clockwise, degrees) about
    `center` with isotropic `scale`; matches the warp convention above."""
    if scale == 0:
        raise ParameterError("scale must be nonzero")
    cx, cy = (float(v) for v in center)
    t = np.deg2rad(angle_deg)
    a = scale * np.cos(t)
    b = scale * np.sin(t)
    return np.array([[a, b, (1 - a) * cx - b * cy], [-b, a, b * cx + (1 - a) * cy]])


def normal_transform_pixel(height: int, width: int) -> np.ndarray:
    """Pixel -> normalized [-1,1] coordinate matrix for an HxW image.

    An extent of 1 maps its only pixel to normalized 0.
    """
    sx, ox = (2.0 / (width - 1), -1.0) if width > 1 else (0.0, 0.0)
    sy, oy = (2.0 / (height - 1), -1.0) if height > 1 else (0.0, 0.0)
    return np.array([[sx, 0.0, ox], [0.0, sy, oy], [0.0, 0.0, 1.0]])


def normalize_homography(h_pix: np.ndarray, src_size, dst_size) -> np.ndarray:
    """Pixel-coordinate homography -> normalized-coordinate homography."""
    n_src = normal_transform_pixel(*src_size)
    n_dst = normal_transform_pixel(*dst_size)
    return n_dst @ as_array(h_pix, np.float64) @ np.linalg.inv(n_src)


def denormalize_homography(h_norm: np.ndarray, src_size, dst_size) -> np.ndarray:
    n_src = normal_transform_pixel(*src_size)
    n_dst = normal_transform_pixel(*dst_size)
    return np.linalg.inv(n_dst) @ as_array(h_norm, np.float64) @ n_src


def homography_warp(img, h, dsize=None, inverse_map: bool = False) -> Var:
    """Warp with a homography acting on normalized [-1,1] coordinates.

    The normalized frame is resolution-independent, so the same matrix warps
    any pyramid level.  With inverse_map=True, h already maps output
    coordinates to input coordinates and no differentiable inverse is needed.
    """
    img = as_var(img)
    if img.ndim != 4:
        raise ShapeError(f"homography_warp expects NCHW input, got {img.shape}")
    h = _as_batched_mat3(h)
    hi, wi = img.shape[2:]
    ho, wo = dsize if dsize is not None else (hi, wi)
    m = h if inverse_map else mat3_inverse(h)
    # output pixel -> output normalized -> (m) input normalized -> input pixel
    sx, sy = 0.5 * (wi - 1), 0.5 * (hi - 1)
    to_pix = np.array([[sx, 0.0, sx], [0.0, sy, sy], [0.0, 0.0, 1.0]])
    return _warp(img, matmul(matmul(to_pix, m), normal_transform_pixel(ho, wo)), (ho, wo))
