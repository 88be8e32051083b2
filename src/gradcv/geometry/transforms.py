"""Planar transforms: the DLT homography solvers, perspective/affine warps,
and the normalized-coordinate homography warp used by registration.

Every homography fit builds its rows with `_dlt_system`: the exact 4-point
solve of a batch (`_solve_minimal`, used by `get_perspective_transform` and
the RANSAC hypotheses of `features.ransac_homography`) and the least-squares
refit on the inliers (`_dlt_least_squares`), which solves on Hartley-normalized
points so that its normal equations stay well conditioned far from the origin.

Warp convention: the matrix maps input pixel coordinates to output pixel
coordinates; warps are inverse-sampling (each output pixel back-projects
into the source), so outputs have no holes and warping is differentiable
w.r.t. both the image and the transform.

Every warp takes one path.  `_warp` maps the homogeneous output pixel grid
(`_pixel_grid`) through a 3x3 output -> input matrix in one matmul;
`warp_perspective` (and `warp_affine` through it) hands it the inverse
homography, and `homography_warp` wraps its normalized map between the
constant pixel -> normalized and normalized -> pixel matrices.  The
homogeneous points then go through one tail, `_dehomogenize_and_sample`:
the perspective divide, guarded by a caller's validity mask, and one
`sample_bilinear`.  `geometry.depth.depth_warp` builds its homogeneous
source pixels from the reference depth and ends in the same tail.

`normal_transform_pixel` (pixel -> normalized [-1,1]) and its closed-form
inverse `_normal_to_pixel` are the one pixel <-> normalized map, for the
homography normalizers, `homography_warp` and the point normalizers.
"""
from __future__ import annotations

import numpy as np

from ..errors import EstimationError, ParameterError, ShapeError
from ..kernels import sample_bilinear
from ..tape import Var, _record, as_var, concat, matmul, where
from ..tensor import as_array

_DET_EPS = 1e-12


def _as_batched(m, shape=(3, 3)) -> Var:
    """m as a (N,)+shape batch of matrices; a single matrix becomes N = 1."""
    m = as_var(m)
    if m.ndim == 2:
        m = m.reshape((1,) + m.shape)
    if m.ndim != 3 or m.shape[1:] != shape:
        raise ShapeError(f"expected (N,{shape[0]},{shape[1]}) or {shape} matrix, got {m.shape}")
    return m


def mat3_inverse(h) -> Var:
    """Differentiable batched 3x3 inverse: one tape node whose vjp maps G to
    -H^-T G H^-T.  Raises EstimationError when some |det H| < 1e-12; a NaN
    matrix passes the check and inverts to NaN."""
    h = _as_batched(h)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN or huge entries: no warning
        det = np.linalg.det(h.data)
    if np.any(np.abs(det) < _DET_EPS):
        raise EstimationError("singular 3x3 matrix (|det| < 1e-12)")
    inv = np.linalg.inv(h.data)
    inv_t = np.swapaxes(inv, -1, -2)
    return _record(inv, (h,), lambda g: (-(inv_t @ g @ inv_t),))


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


def _solve_minimal(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """(B,3,3) homographies of B 4-point samples, NaN where the 8x8 DLT
    system is singular or its solution is not finite."""
    a, b = _dlt_system(src, dst)
    try:
        h = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # rare exact singularity: solve one by one so the rest survive
        h = np.full(b.shape, np.nan)
        for i in range(len(a)):
            try:
                h[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
    h[~np.isfinite(h).all(axis=1)] = np.nan
    return np.concatenate([h, np.ones((len(h), 1))], axis=1).reshape(-1, 3, 3)


def _hartley(p: np.ndarray) -> tuple:
    """Similarity T taking (n, 2) points' centroid to 0 and their mean distance
    from it to sqrt(2) (Hartley & Zisserman, section 4.4), and the points T p."""
    c = p.mean(axis=0)
    d = np.hypot(*(p - c).T).mean()
    s = np.sqrt(2.0) / d if d > 0 else 1.0
    return np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]]), (p - c) * s


def _dlt_least_squares(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Overdetermined DLT via normal equations, on Hartley-normalized points
    with h22 = 1 there; returns T_dst^-1 H T_src scaled to H[2,2] = 1."""
    t_src, src_n = _hartley(src)
    t_dst, dst_n = _hartley(dst)
    a, b = _dlt_system(src_n, dst_n)
    h = np.append(np.linalg.solve(a.T @ a, a.T @ b), 1.0).reshape(3, 3)
    h = np.linalg.solve(t_dst, h @ t_src)
    return h / h[2, 2]


def get_perspective_transform(src, dst) -> np.ndarray:
    """Homography H with dst_i ~ H @ [src_i, 1] from 4 point pairs.

    Solved as the exactly-determined 8x8 DLT system (LU with partial
    pivoting, :func:`_solve_minimal`); H[2,2] is fixed to 1.  Configurations
    with three collinear points (either side) are rejected as degenerate.
    """
    src = as_array(src, np.float64).reshape(4, 2)
    dst = as_array(dst, np.float64).reshape(4, 2)
    if _has_collinear_triple(src) or _has_collinear_triple(dst):
        raise EstimationError("degenerate configuration: three points collinear")
    h = _solve_minimal(src[None], dst[None])[0]
    if np.isnan(h).any():
        raise EstimationError("degenerate point configuration (singular or non-finite DLT solution)")
    return h


def _pixel_grid(h: int, w: int, dtype) -> np.ndarray:
    """Homogeneous pixel coordinates (x, y, 1), (3, H*W) in row-major order."""
    grid = np.ones((3, h, w), dtype=dtype)
    grid[0], grid[1] = np.arange(w), np.arange(h)[:, None]
    return grid.reshape(3, -1)


def _dehomogenize_and_sample(img: Var, p: Var, ok: np.ndarray, dsize) -> Var:
    """Sample img at the pixels (x/w, y/w) of homogeneous points p (N,3,H'W').

    ok is the caller's constant mask (N,1,H'W') of points with a usable w;
    the others are sent far outside the image and sample the zero border.
    """
    w = p[:, 2:]
    degenerate = not ok.all()
    if degenerate:
        w = where(ok, w, 1.0)
    xy = p[:, :2] / w
    if degenerate:
        xy = where(ok, xy, -1e9)
    xy = xy.reshape((p.shape[0], 2) + tuple(dsize))
    return sample_bilinear(img, xy[:, 0], xy[:, 1])


def _warp(img: Var, m: Var, dsize) -> Var:
    """Sample img at m @ [x, y, 1] for every pixel (x, y) of a dsize output.

    m is (1|N,3,3) and maps output pixel coordinates to input pixel
    coordinates: one matmul over the constant homogeneous pixel grid, then
    the shared divide-and-sample tail with the guard |w| > 1e-12.
    """
    n = img.shape[0]
    if m.shape[0] not in (1, n):
        raise ShapeError(f"{m.shape[0]} transforms for batch of {n}")
    if m.shape[0] != n:
        m = m * np.ones((n, 1, 1), m.dtype)  # one shared map for the whole batch
    grid = Var._wrap(_pixel_grid(*dsize, m.dtype))  # the grid is not copied
    p = matmul(m, grid)  # (N,3,H'W')
    return _dehomogenize_and_sample(img, p, np.abs(p.data[:, 2:]) > _DET_EPS, dsize)


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
    m = _as_batched(m, (2, 3))
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


def _normal_to_pixel(size, dtype=np.float64) -> np.ndarray:
    """Normalized -> pixel matrix of an (H, W) image, the closed-form inverse
    of :func:`normal_transform_pixel` for extents >= 2."""
    height, width = size
    sx, sy = 0.5 * (width - 1), 0.5 * (height - 1)
    return np.array([[sx, 0.0, sx], [0.0, sy, sy], [0.0, 0.0, 1.0]], dtype)


def _require_invertible(size, who: str) -> None:
    """A 1-pixel extent maps every pixel to normalized 0, so its map has no inverse."""
    if min(size) < 2:
        raise ParameterError(f"{who} needs extents of at least 2 pixels, got {size[0]}x{size[1]}")


def normalize_homography(h_pix: np.ndarray, src_size, dst_size) -> np.ndarray:
    """Pixel-coordinate homography -> normalized-coordinate homography.

    Raises ParameterError for a 1-pixel extent in src_size.
    """
    _require_invertible(src_size, "normalize_homography")
    n_dst = normal_transform_pixel(*dst_size)
    return n_dst @ as_array(h_pix, np.float64) @ _normal_to_pixel(src_size)


def denormalize_homography(h_norm: np.ndarray, src_size, dst_size) -> np.ndarray:
    """Normalized-coordinate homography -> pixel-coordinate homography.

    Raises ParameterError for a 1-pixel extent in dst_size.
    """
    _require_invertible(dst_size, "denormalize_homography")
    n_src = normal_transform_pixel(*src_size)
    return _normal_to_pixel(dst_size) @ as_array(h_norm, np.float64) @ n_src


def homography_warp(img, h, dsize=None, inverse_map: bool = False) -> Var:
    """Warp with a homography acting on normalized [-1,1] coordinates.

    The normalized frame is resolution-independent, so the same matrix warps
    any pyramid level.  With inverse_map=True, h already maps output
    coordinates to input coordinates and no differentiable inverse is needed.
    """
    img = as_var(img)
    if img.ndim != 4:
        raise ShapeError(f"homography_warp expects NCHW input, got {img.shape}")
    h = _as_batched(h)
    hi, wi = img.shape[2:]
    ho, wo = dsize if dsize is not None else (hi, wi)
    m = h if inverse_map else mat3_inverse(h)
    # output pixel -> output normalized -> (m) input normalized -> input pixel
    to_pix = _normal_to_pixel((hi, wi), m.dtype)
    return _warp(img, matmul(matmul(to_pix, m), normal_transform_pixel(ho, wo).astype(m.dtype)), (ho, wo))
