"""Classical local features, differentiable end to end where it matters.

Pipeline (wide-baseline matching): Gaussian pyramid -> Hessian blob response
per level -> hard NMS -> patch extraction at keypoint scale -> dominant
gradient orientation -> SIFT description by sparse trilinear voting -> mutual
nearest-neighbor matching -> RANSAC homography verification.

Detection (integer NMS locations, orientation assignment, match indices) is
discrete; responses, subpixel refinement, and descriptors are Var-valued, so
gradients flow from descriptor/position losses back into image pixels.

Keypoints are described level by level through one path: `_per_level` groups
them by pyramid level with their centers in level pixels, and
`_in_keypoint_order` restores their order.  `describe` and the feature-matching
attack's gradient pass (`demos.attack`) both use it.

Each level takes one patch pass.  `extract_patches_at` reads every patch as
an integer (size+1)^2 window of the level image, behind a zero border of
size+2 pixels, and blends its four shifted slices with the patch's one
subpixel offset.  `describe` then takes the patch gradients once and hands
them to both the orientation histogram and the SIFT histogram; the public
`dominant_orientations` and `sift_describe` wrap the same two helpers.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, NoConsensusError, ParameterError, ShapeError, UsageError
from .filters import gaussian_blur2d, pyramid_down, spatial_gradient
from .geometry.transforms import _dlt_system, _has_collinear_triple
from .kernels import _snap
from .tape import Var, _record, as_var, concat, sqrt, where
from .tensor import as_array

PATCH_SIZE = 32
DESC_SPATIAL_BINS = 4
DESC_ORI_BINS = 8
ORI_HIST_BINS = 36
PYRAMID_BASE_SIGMA = 1.6
_MAG_EPS = 1e-12
_PATCH_BLOCK = 64  # patches per block in the patch loops, so their temporaries stay cache-sized


@dataclass
class Keypoint:
    """Subpixel detection: image coords at full resolution, scale in pixels,
    orientation in radians, detector response, source pyramid level."""

    x: float
    y: float
    scale: float = 1.0
    orientation: float = 0.0
    response: float = 0.0
    level: int = 0


@dataclass
class MatchPair:
    ia: int
    ib: int
    distance: float


def _blocks(n: int, size: int) -> list:
    return [slice(i, i + size) for i in range(0, n, size)]


def _require_gray(img: Var, who: str) -> None:
    if img.ndim != 4 or img.shape[1] != 1:
        raise ShapeError(f"{who} expects Nx1xHxW grayscale input, got {img.shape}")


# ---------------------------------------------------------------------------
# response maps


def _structure_tensor(img: Var, sigma_int: float, sigma_window: float):
    ksize = 2 * int(3 * sigma_int) + 1
    smoothed = gaussian_blur2d(img, (ksize, ksize), (sigma_int, sigma_int))
    grad = spatial_gradient(smoothed, mode="diff")
    ix, iy = grad[:, :, 0], grad[:, :, 1]
    wsize = 2 * int(3 * sigma_window) + 1
    blur = lambda t: gaussian_blur2d(t, (wsize, wsize), (sigma_window, sigma_window))
    return blur(ix * ix), blur(iy * iy), blur(ix * iy)


def corner_response(
    img,
    mode: str = "harris",
    sigma_int: float = 1.0,
    sigma_window: float = 1.5,
    k: float = 0.04,
) -> Var:
    """Interest-point response map (harris | shi_tomasi | hessian).

    harris: det(M) - k tr(M)^2 of the structure tensor; shi_tomasi: its
    smaller eigenvalue; hessian: determinant of the second-derivative matrix
    of the sigma_int-smoothed image.
    """
    img = as_var(img)
    _require_gray(img, "corner_response")
    if mode in ("harris", "shi_tomasi"):
        ixx, iyy, ixy = _structure_tensor(img, sigma_int, sigma_window)
        if mode == "harris":
            return ixx * iyy - ixy * ixy - k * (ixx + iyy) * (ixx + iyy)
        tr_half = (ixx + iyy) * 0.5
        rad = sqrt((ixx - iyy) * (ixx - iyy) * 0.25 + ixy * ixy + _MAG_EPS)
        return tr_half - rad
    if mode == "hessian":
        ksize = 2 * int(3 * sigma_int) + 1
        smoothed = gaussian_blur2d(img, (ksize, ksize), (sigma_int, sigma_int))
        grad = spatial_gradient(smoothed, mode="diff")
        # one pass over both first derivatives: second[:, c, d] is the derivative
        # of channel c (dx, dy) along axis d (x, y)
        second = spatial_gradient(grad[:, 0], mode="diff")
        ixx, ixy, iyy = second[:, 0:1, 0], second[:, 0:1, 1], second[:, 1:2, 1]
        return ixx * iyy - ixy * ixy
    raise ParameterError(f"unknown response mode {mode!r}")


# ---------------------------------------------------------------------------
# non-maxima suppression


def _quad_offset(fm: np.ndarray, f0: np.ndarray, fp: np.ndarray) -> np.ndarray:
    denom = fm + fp - 2.0 * f0
    off = np.where(np.abs(denom) > 1e-12, 0.5 * (fm - fp) / np.where(denom == 0, 1, denom), 0.0)
    return np.clip(off, -0.5, 0.5)


def _window_extreme(r: np.ndarray, rad: int, op, fill: float) -> np.ndarray:
    """Separable (2*rad+1)^2 window max or min (op = np.maximum | np.minimum)
    of a 2-D map, with `fill` beyond the border."""
    for axis in (0, 1):
        n = r.shape[axis]
        p = np.pad(r, [(rad, rad) if ax == axis else (0, 0) for ax in (0, 1)], constant_values=fill)
        shifted = lambda d: p[d : d + n] if axis == 0 else p[:, d : d + n]
        r = shifted(0).copy()
        for d in range(1, 2 * rad + 1):
            op(r, shifted(d), out=r)
    return r


def nms2d(response, window: int = 5, threshold: float = 0.0) -> list:
    """Hard NMS: strict window maxima above `threshold` as Keypoints.

    A candidate is a pixel above `threshold` that equals its window maximum
    in a window that is not flat.  Ties inside a window go to the first
    pixel in scan order: a candidate is dropped when any of the window^2 // 2
    window positions before it in scan order holds its value.  Positions
    are refined by a 1-D quadratic fit per axis, clamped to +-0.5 px (no
    refinement along an axis at the map border).  Keypoints come in scan
    order.
    """
    if window < 1 or window % 2 == 0:
        raise ParameterError(f"window must be odd and positive, got {window}")
    r = as_array(response, np.float64)
    if r.ndim == 4:
        if r.shape[0] != 1 or r.shape[1] != 1:
            raise ShapeError("nms2d takes a single-image response map")
        r = r[0, 0]
    if r.ndim != 2:
        raise ShapeError(f"response must be 2-D, got shape {r.shape}")
    h, w = r.shape
    rad = window // 2
    wmax = _window_extreme(r, rad, np.maximum, -np.inf)
    # a perfectly flat window (constant regions) is not a maximum at all
    wmin = _window_extreme(r, rad, np.minimum, np.inf)
    ys, xs = np.nonzero((r >= wmax) & (r > threshold) & (wmin < r))
    v = r[ys, xs]
    # scan-order tie-break: drop if an equal value precedes this pixel
    padded = np.pad(r, rad, mode="constant", constant_values=-np.inf)
    keep = np.ones(len(v), dtype=bool)
    for dy in range(-rad, 1):
        for dx in range(-rad, rad + 1 if dy < 0 else 0):
            keep &= padded[ys + rad + dy, xs + rad + dx] != v
    ys, xs, v = ys[keep], xs[keep], v[keep]
    off_x = np.zeros(len(v))
    off_y = np.zeros(len(v))
    inner = (xs > 0) & (xs < w - 1)
    off_x[inner] = _quad_offset(r[ys[inner], xs[inner] - 1], v[inner], r[ys[inner], xs[inner] + 1])
    inner = (ys > 0) & (ys < h - 1)
    off_y[inner] = _quad_offset(r[ys[inner] - 1, xs[inner]], v[inner], r[ys[inner] + 1, xs[inner]])
    return [
        Keypoint(x=x, y=y, response=resp)
        for x, y, resp in zip((xs + off_x).tolist(), (ys + off_y).tolist(), v.tolist())
    ]


def refine_positions(response: Var, ys: np.ndarray, xs: np.ndarray, clamp: bool = True):
    """Differentiable subpixel positions (x+dx, y+dy) at integer maxima.

    The quadratic-fit offsets are Var-valued functions of the response map,
    so position losses propagate into the image; offsets at the map border
    are zero.  clamp=False skips the +-0.5 saturation: useful when the
    offsets feed an optimization loss, where saturation would kill the
    gradient once the fit wants the peak beyond the neighbor pixel.
    """
    response = as_var(response)
    r = response.reshape(response.shape[-2:]) if response.ndim == 4 else response
    h, w = r.shape
    ys = np.asarray(ys, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.int64)
    interior_x = (xs > 0) & (xs < w - 1)
    interior_y = (ys > 0) & (ys < h - 1)

    def axis_offset(fm, f0, fp, interior):
        denom = fm + fp - 2.0 * f0
        ok = np.abs(denom.data) > 1e-12
        half = 0.5 * (fm - fp) / where(ok, denom, 1.0)
        off = where(ok & interior, half, 0.0)
        return off.clamp(-0.5, 0.5) if clamp else off

    f0 = r[ys, xs]
    # neighbor gathers clamp only their own axis; the mask zeroes border offsets
    dx = axis_offset(r[ys, np.maximum(xs - 1, 0)], f0, r[ys, np.minimum(xs + 1, w - 1)], interior_x)
    dy = axis_offset(r[np.maximum(ys - 1, 0), xs], f0, r[np.minimum(ys + 1, h - 1), xs], interior_y)
    return as_var(xs.astype(np.float64)) + dx, as_var(ys.astype(np.float64)) + dy


# ---------------------------------------------------------------------------
# orientation


def _patch_gradients(patches: Var):
    grad = spatial_gradient(patches, mode="diff")
    return grad[:, :, 0], grad[:, :, 1]


def _orientations(dx: np.ndarray, dy: np.ndarray) -> tuple:
    """(theta, degenerate) of the patch gradients dx, dy (N,1,s,s): the body
    of :func:`dominant_orientations`."""
    n, _, s, _ = dx.shape
    sigma = s / 4.0  # Gaussian window: sigma = (patch/2) * 0.5
    c = (s - 1) / 2.0
    yy, xx = np.mgrid[0:s, 0:s]
    gauss = np.exp(-(((xx - c) ** 2 + (yy - c) ** 2) / (2.0 * sigma**2)))
    hist = np.empty((n, ORI_HIST_BINS))
    for blk in _blocks(n, _PATCH_BLOCK):
        bx, by = dx[blk, 0], dy[blk, 0]
        wgt = np.sqrt(bx * bx + by * by) * gauss  # no eps: a constant patch stays degenerate
        ang = np.arctan2(by, bx)
        ang += (ang < 0) * (2.0 * np.pi)  # atan2's range wrapped to [0, 2pi), as np.mod does
        bins = np.minimum((ang * (ORI_HIST_BINS / (2.0 * np.pi))).astype(int), ORI_HIST_BINS - 1)
        bins += np.arange(len(bx))[:, None, None] * ORI_HIST_BINS
        h = hist[blk]
        h[...] = np.bincount(bins.ravel(), wgt.ravel(), h.size).reshape(h.shape)
    degenerate = hist.sum(axis=1) < 1e-9
    peak = hist.argmax(axis=1)
    fm = hist[np.arange(n), (peak - 1) % ORI_HIST_BINS]
    f0 = hist[np.arange(n), peak]
    fp = hist[np.arange(n), (peak + 1) % ORI_HIST_BINS]
    off = _quad_offset(fm, f0, fp)
    theta = (peak + off) * (2.0 * np.pi / ORI_HIST_BINS)
    theta = np.mod(theta, 2.0 * np.pi)
    theta[degenerate] = 0.0
    return theta, degenerate


def dominant_orientations(patches) -> tuple:
    """Peak of the magnitude-weighted 36-bin gradient histogram per patch.

    Returns (theta (N,), degenerate (N,) bool).  Histogram voting is hard
    (this is detection machinery, treated as constant); the peak is refined
    by parabolic interpolation over the circular neighbors.
    """
    patches = as_var(patches)
    _require_gray(patches, "dominant_orientations")
    _, _, s, s2 = patches.shape
    if s != s2:
        raise ShapeError(f"patches must be square, got {s}x{s2}")
    dx, dy = _patch_gradients(patches)
    return _orientations(dx.data, dy.data)


def dominant_orientation(patch) -> tuple:
    """Single-patch convenience wrapper: (theta, degenerate flag)."""
    arr = as_array(patch, np.float64)
    if arr.ndim == 2:
        arr = arr[None, None]
    theta, degenerate = dominant_orientations(Var(arr))
    return float(theta[0]), bool(degenerate[0])


# ---------------------------------------------------------------------------
# SIFT description


_DESC_BLOCK = 16  # keypoints binned per block, so every block temporary stays cache-sized
# votes land on a grid with a 2-bin border that is dropped (rotated patches reach 2.24 bins out)
_GRID = DESC_SPATIAL_BINS + 4
_CORNERS = np.array([0, 1, _GRID, _GRID + 1])[:, None, None] * DESC_ORI_BINS  # y0x0 y0x1 y1x0 y1x1


def _sift_histogram(dx: Var, dy: Var, thetas: np.ndarray) -> Var:
    """Raw (N,128) SIFT histograms of per-pixel gradients dx, dy (N,P).

    Each pixel adds |grad| * Gaussian * wy * wx * wo to bin (by*4+bx)*8+o of its
    2x2 spatial bins (theta-rotated) and 2 orientation bins (modulo 8).  The vjp
    gathers the same <= 8 bins per pixel and folds them back through atan2 and sqrt.
    The votes accumulate in float64; the histogram and both gradients have the
    dtypes of dx and dy.
    """
    dxa, dya = dx.data, dy.data
    n, p = dxa.shape
    spacing = PATCH_SIZE / DESC_SPATIAL_BINS  # offsets from the patch center are in bins
    v, u = (np.indices((PATCH_SIZE, PATCH_SIZE)).reshape(2, p) - (PATCH_SIZE - 1) / 2.0) / spacing
    gauss = np.exp(-(u * u + v * v) / (2.0 * (0.5 * DESC_SPATIAL_BINS) ** 2))  # sigma: half the patch
    center = (_GRID - 1) / 2.0  # padded-grid bin coordinate of the patch center
    per_rad = DESC_ORI_BINS / (2.0 * np.pi)
    mag = np.sqrt(dxa * dxa + dya * dya + _MAG_EPS)
    blocks = _blocks(n, _DESC_BLOCK)

    def votes(blk):
        # rotate offsets by -theta so the descriptor frame tracks the keypoint
        cos_t, sin_t = np.cos(thetas[blk, None]), np.sin(thetas[blk, None])
        fx, fy = cos_t * u + sin_t * v + center, cos_t * v - sin_t * u + center
        lx, ly = np.floor(fx), np.floor(fy)
        wy = np.stack([ly + 1.0 - fy, fy - ly]) * gauss
        sw = (wy[:, None] * np.stack([lx + 1.0 - fx, fx - lx])).reshape(4, len(cos_t), p)
        cell = (ly * _GRID + lx + np.arange(len(cos_t))[:, None] * _GRID**2) * DESC_ORI_BINS
        fo = (np.arctan2(dya[blk], dxa[blk]) - thetas[blk, None]) * per_rad
        lo = np.floor(fo)
        # DESC_ORI_BINS is a power of two, so & wraps negative bins as well
        ori = (lo.astype(np.int64) + np.arange(2)[:, None, None]) & (DESC_ORI_BINS - 1)
        idx = (cell.astype(np.int64) + _CORNERS)[:, None] + ori  # (4,2,B,P)
        # an angle exactly on a bin center (a kink of its tent) takes the zero slope
        return idx, sw, np.stack([lo + 1.0 - fo, fo - lo]), (fo > lo) * per_rad

    hist = np.empty((n, _GRID, _GRID, DESC_ORI_BINS))
    for blk in blocks:
        idx, sw, wo, _ = votes(blk)
        h = hist[blk]
        h[...] = np.bincount(idx.ravel(), (sw[:, None] * (wo * mag[blk])).ravel(), h.size).reshape(h.shape)

    def vjp(g):
        padded = np.pad(g.reshape(n, DESC_SPATIAL_BINS, DESC_SPATIAL_BINS, -1), [(0, 0), (2, 2), (2, 2), (0, 0)])
        g_mag, g_ang = np.empty_like(mag), np.empty_like(mag)
        for blk in blocks:
            idx, sw, wo, slope = votes(blk)
            gs = (padded[blk].ravel()[idx] * sw[:, None]).sum(axis=0)  # (2,B,P)
            g_mag[blk] = gs[0] * wo[0] + gs[1] * wo[1]
            g_ang[blk] = (gs[1] - gs[0]) * slope  # d/d(angle), divided by |grad|
        # |grad| moves by (dx, dy) / |grad|, the angle by (-dy, dx) / |grad|^2
        gdx, gdy = (g_mag * dxa - g_ang * dya) / mag, (g_mag * dya + g_ang * dxa) / mag
        return gdx.astype(dxa.dtype, copy=False), gdy.astype(dya.dtype, copy=False)

    return _record(hist[:, 2:-2, 2:-2].reshape(n, -1).astype(dxa.dtype, copy=False), (dx, dy), vjp)


def sift_describe(patches, orientations=None) -> Var:
    """128-D SIFT descriptors for (N,1,32,32) patches (or one 32x32 patch).

    4x4 spatial x 8 orientation bins filled by sparse trilinear voting
    (:func:`_sift_histogram`), then L2-normalize -> clamp at 0.2 ->
    re-normalize.  Differentiable w.r.t. the patches; orientations are
    per-patch constants.  Constant patches yield the zero vector.
    """
    pv = as_var(patches)
    if pv.ndim == 2:
        pv = pv.reshape((1, 1) + pv.shape)
    _require_gray(pv, "sift_describe")
    n, _, s, s2 = pv.shape
    if s != PATCH_SIZE or s2 != PATCH_SIZE:
        raise ShapeError(f"sift_describe expects {PATCH_SIZE}x{PATCH_SIZE} patches, got {s}x{s2}")
    thetas = np.zeros(n) if orientations is None else np.atleast_1d(as_array(orientations, np.float64))
    if thetas.shape != (n,):
        raise ShapeError(f"need {n} orientations, got shape {thetas.shape}")
    if not np.isfinite(thetas).all():
        raise ParameterError("orientations must be finite")

    return _describe_gradients(*_patch_gradients(pv), thetas)


def _describe_gradients(dx: Var, dy: Var, thetas: np.ndarray) -> Var:
    """SIFT descriptors from the patch gradients dx, dy (N,1,32,32): the body
    of :func:`sift_describe`."""
    n = dx.shape[0]
    degenerate = (np.abs(dx.data).max(axis=(1, 2, 3)) + np.abs(dy.data).max(axis=(1, 2, 3))) < 1e-12
    desc = _sift_histogram(dx.reshape((n, -1)), dy.reshape((n, -1)), thetas)

    norm = sqrt((desc * desc).sum(axis=1, keepdims=True) + _MAG_EPS)
    desc = desc / norm
    desc = desc.clamp(hi=0.2)
    norm2 = sqrt((desc * desc).sum(axis=1, keepdims=True) + _MAG_EPS)
    desc = desc / norm2
    if degenerate.any():
        desc = where(np.broadcast_to(~degenerate[:, None], desc.shape), desc, 0.0)
    return desc


# ---------------------------------------------------------------------------
# matching


def match_mnn(desc_a, desc_b, ratio: float | None = None) -> list:
    """Mutual nearest neighbors by L2 descriptor distance.

    With `ratio`, Lowe's test d1/d2 <= ratio is applied on side A.  Empty
    inputs give an empty list.
    """
    a = np.atleast_2d(as_array(desc_a, np.float64))
    b = np.atleast_2d(as_array(desc_b, np.float64))
    if a.size == 0 or b.size == 0:
        return []
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"descriptor widths differ: {a.shape[1]} vs {b.shape[1]}")
    d2 = np.maximum(
        (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * (a @ b.T), 0.0
    )
    nn_ab = d2.argmin(axis=1)
    nn_ba = d2.argmin(axis=0)
    out = []
    for i, j in enumerate(nn_ab):
        if nn_ba[j] != i:
            continue
        if ratio is not None and b.shape[0] > 1:
            row = d2[i].copy()
            row[j] = np.inf
            second = row.min()
            if not d2[i, j] <= (ratio * ratio) * second:
                continue
        out.append(MatchPair(ia=int(i), ib=int(j), distance=float(np.sqrt(d2[i, j]))))
    return out


# ---------------------------------------------------------------------------
# RANSAC


def _dlt_least_squares(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Overdetermined DLT with h22 = 1 via normal equations."""
    a, b = _dlt_system(src, dst)
    h = np.linalg.solve(a.T @ a, a.T @ b)
    return np.append(h, 1.0).reshape(3, 3)


_SAMPLE = 4  # minimal sample of a homography
_SCORE_CHUNK = 256  # hypotheses scored per (chunk, N) residual block


def _draw_samples(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, 4) rows of distinct indices in [0, n).

    Column k draws a rank in [0, n - k) among the indices its row has not
    used yet; the rank becomes an index by stepping past the used ones in
    ascending order.
    """
    idx = rng.integers(0, n - np.arange(_SAMPLE), size=(count, _SAMPLE))
    for k in range(1, _SAMPLE):
        for used in np.sort(idx[:, :k], axis=1).T:
            idx[:, k] += idx[:, k] >= used
    return idx


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


def _inlier_masks(hs: np.ndarray, a: np.ndarray, b: np.ndarray, threshold: float) -> np.ndarray:
    """Inlier masks (B, N) of the hypotheses hs (B,3,3): reprojection error
    |H a - b| < threshold.  A NaN hypothesis has no inliers."""
    x, y = a[:, 0], a[:, 1]
    row = lambda i: hs[:, i, 0, None] * x + hs[:, i, 1, None] * y + hs[:, i, 2, None]
    w = row(2)
    dx = row(0) / w - b[:, 0]
    dy = row(1) / w - b[:, 1]
    return np.sqrt(dx * dx + dy * dy) < threshold


def ransac_homography(
    pts_a,
    pts_b,
    threshold: float = 2.0,
    max_iters: int = 1000,
    seed: int = 0,
):
    """RANSAC 4-point homography: pts_b ~ H @ pts_a.

    All `max_iters` minimal samples (4 distinct indices each) are drawn up
    front from a Philox generator keyed by `seed`.  Samples with three
    collinear points on either side are skipped, the rest are solved as one
    batch of 8x8 DLT systems (a singular system is skipped too) and scored
    in blocks.  The model with the most inliers wins; ties keep the
    earliest sample.  It is refit on its inliers by least squares, and the
    refit is kept when it still has >= 4 inliers.  Results are
    deterministic per seed (not the sample stream of the former
    one-sample-per-iteration loop).  Raises EstimationError with < 4 pairs
    and NoConsensusError when no model reaches 4 inliers.
    """
    a = np.atleast_2d(as_array(pts_a, np.float64))
    b = np.atleast_2d(as_array(pts_b, np.float64))
    if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 2:
        raise ShapeError(f"point sets must both be (N,2), got {a.shape}/{b.shape}")
    n = len(a)
    if n < _SAMPLE:
        raise EstimationError(f"RANSAC needs >= 4 correspondences, got {n}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    idx = _draw_samples(rng, n, max(max_iters, 0))
    idx = idx[~(_has_collinear_triple(a[idx]) | _has_collinear_triple(b[idx]))]
    best_count, best_mask, best_h = 0, None, None
    for start in range(0, len(idx), _SCORE_CHUNK):
        chunk = idx[start : start + _SCORE_CHUNK]
        hs = _solve_minimal(a[chunk], b[chunk])
        with np.errstate(invalid="ignore", divide="ignore"):
            masks = _inlier_masks(hs, a, b, threshold)
        counts = masks.sum(axis=1)
        i = int(counts.argmax())  # first of the largest counts
        if counts[i] > best_count:
            best_count, best_mask, best_h = int(counts[i]), masks[i], hs[i]
    if best_count < 4:
        raise NoConsensusError(f"no homography with >= 4 inliers in {max_iters} iterations")
    try:
        refit = _dlt_least_squares(a[best_mask], b[best_mask])
        with np.errstate(invalid="ignore", divide="ignore"):
            mask = _inlier_masks(refit[None], a, b, threshold)[0]
        if mask.sum() >= 4:
            return refit, mask
    except np.linalg.LinAlgError:
        pass
    return best_h, best_mask


# ---------------------------------------------------------------------------
# detection pipeline


def extract_patches_at(img, xs, ys, size: int = PATCH_SIZE) -> Var:
    """Bilinear patches (M,1,size,size) at 1px spacing, centered at subpixel
    (xs, ys) of a (1,1,H,W) image.

    All samples of a patch share one subpixel offset, so a patch blends four
    shifted slices of one integer (size+1)^2 window with two scalar weights.
    The windows are read from a float64 copy of the image with a zero border
    of size+2 pixels, their origins clipped to it: pixels outside the image
    read 0, as in `kernels.sample_bilinear`, and so does a window far
    outside.  Offsets within 1e-8 of an integer snap to it (`kernels._snap`).
    Differentiable w.r.t. the image; the patches and the image gradient have
    the image's dtype.  The centers are constants: a center Var that requires
    a gradient or sits on a tape raises UsageError, a non-finite center or
    size < 1 raises ParameterError.
    """
    img = as_var(img)
    _require_gray(img, "extract_patches_at")
    if img.shape[0] != 1:
        raise ShapeError(f"extract_patches_at takes one image, got a batch of {img.shape[0]}")
    if any(isinstance(c, Var) and c.requires_grad for c in (xs, ys)):
        raise UsageError("extract_patches_at takes constant centers; their gradient would be lost")
    if size < 1:
        raise ParameterError(f"patch size must be >= 1, got {size}")
    xs = as_array(xs, np.float64).ravel()
    ys = as_array(ys, np.float64).ravel()
    if xs.shape != ys.shape:
        raise ShapeError(f"need as many x as y centers, got {len(xs)} and {len(ys)}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ParameterError("patch centers must be finite")
    m, s1 = len(xs), size + 1
    _, _, h, w = img.shape
    b = size + 2
    hp, wp = h + 2 * b, w + 2 * b
    plane = np.zeros((hp, wp))
    plane[b:-b, b:-b] = img.data[0, 0]
    # top-left sample of each patch, split into an integer origin and a shared fraction
    ox, oy = _snap(xs - (size - 1) / 2.0), _snap(ys - (size - 1) / 2.0)
    x0, y0 = np.floor(ox), np.floor(oy)
    wx, wy = (ox - x0)[:, None, None], (oy - y0)[:, None, None]
    origin = (np.clip(y0 + b, 0, hp - s1) * wp + np.clip(x0 + b, 0, wp - s1)).astype(np.int64)
    window = np.arange(s1)[:, None] * wp + np.arange(s1)  # flat offsets of one (s1,s1) window
    out = np.empty((m, size, size))
    for blk in _blocks(m, _PATCH_BLOCK):
        win = np.take(plane, origin[blk, None, None] + window)
        # in place: each of the s1 rows lerped along x, then the rows along y
        rows = win[:, :, 1:] - win[:, :, :-1]
        rows *= wx[blk]
        rows += win[:, :, :-1]
        o = out[blk]
        np.subtract(rows[:, 1:], rows[:, :-1], out=o)
        o *= wy[blk]
        o += rows[:, :-1]
    x_dtype = img.dtype

    def vjp(g):
        # the two lerps backwards: each sample to its two rows, each row to its two columns,
        # then one bincount over the windows' pixels, cropped to the image
        idx = origin[:, None, None] + window  # (M,s1,s1)
        g = g.reshape(m, size, size)
        g_rows = np.zeros((m, s1, size))
        g_rows[:, :-1] = g * (1.0 - wy)
        g_rows[:, 1:] += g * wy
        g_win = np.zeros((m, s1, s1))
        g_win[:, :, :-1] = g_rows * (1.0 - wx)
        g_win[:, :, 1:] += g_rows * wx
        g_img = np.bincount(idx.ravel(), g_win.ravel(), hp * wp).reshape(hp, wp)[b:-b, b:-b]
        return (g_img.reshape(1, 1, h, w).astype(x_dtype, copy=False),)

    return _record(out.reshape(m, 1, size, size).astype(x_dtype, copy=False), (img,), vjp)


@dataclass
class PyramidLevel:
    image: Var  # level image (1,1,h,w)
    response: Var  # Hessian response at the level
    scale: int  # 2**level sampling factor vs full resolution


def hessian_pyramid(img, levels: int = 3, sigma: float = PYRAMID_BASE_SIGMA) -> list:
    """Gaussian pyramid with a Hessian response map per level."""
    img = as_var(img)
    _require_gray(img, "hessian_pyramid")
    out = []
    cur = img
    for lvl in range(levels):
        if lvl:
            cur = pyramid_down(cur)
        if min(cur.shape[2], cur.shape[3]) < PATCH_SIZE + 4:
            break
        resp = corner_response(cur, mode="hessian", sigma_int=sigma)
        out.append(PyramidLevel(image=cur, response=resp, scale=2**lvl))
    if not out:
        raise ShapeError(f"image too small for the {PATCH_SIZE}px patch pipeline: {img.shape}")
    return out


def detect(
    img,
    max_keypoints: int = 500,
    levels: int = 3,
    threshold: float = 1e-6,
    nms_window: int = 5,
    pyramid=None,
) -> list:
    """Hessian blob keypoints over a pyramid, strongest first.

    Keypoints too close to a level border for a 32px patch are dropped;
    coordinates are reported at full resolution with scale 1.6 * 2^level.
    A prebuilt `pyramid` of `img` (from :func:`hessian_pyramid`) is used
    as given, in place of building one with `levels` levels.
    """
    if pyramid is None:
        pyramid = hessian_pyramid(img, levels)
    margin = PATCH_SIZE // 2 + 1
    kps = []
    for lvl, level in enumerate(pyramid):
        h, w = level.response.shape[2:]
        for kp in nms2d(level.response.data, window=nms_window, threshold=threshold):
            if not (margin <= kp.x <= w - 1 - margin and margin <= kp.y <= h - 1 - margin):
                continue
            kps.append(
                Keypoint(
                    x=kp.x * level.scale,
                    y=kp.y * level.scale,
                    scale=PYRAMID_BASE_SIGMA * level.scale,
                    response=kp.response,
                    level=lvl,
                )
            )
    kps.sort(key=lambda k: -k.response)
    return kps[:max_keypoints]


def _per_level(pyramid: list, keypoints: list):
    """Yield (level, idx, xs, ys) for each pyramid level holding keypoints:
    the indices of its keypoints and their centers in the level's pixels."""
    on_level = np.array([k.level for k in keypoints])
    xy = np.array([(k.x, k.y) for k in keypoints])
    for lvl, level in enumerate(pyramid):
        idx = np.flatnonzero(on_level == lvl)
        if idx.size:
            yield level, idx, xy[idx, 0] / level.scale, xy[idx, 1] / level.scale


def _in_keypoint_order(parts: list, order: list) -> Var:
    """Concatenate per-level rows (parts[j] belongs to indices order[j]) and
    put them back in keypoint order."""
    stacked = parts[0] if len(parts) == 1 else concat(parts, axis=0)
    return stacked[np.argsort(np.concatenate(order))]


def describe(img, keypoints, pyramid=None) -> Var:
    """SIFT descriptors (M,128) for detected keypoints, in keypoint order.

    Patches are sampled on the keypoint's pyramid level at 1px spacing, so
    descriptor support scales with detection scale.  Differentiable w.r.t.
    the image; assigns each keypoint's dominant orientation in place (the
    orientation histogram is detection machinery and carries no gradient).
    Raises ParameterError when a keypoint's level is not in the pyramid.
    """
    if not keypoints:
        raise ParameterError("describe needs at least one keypoint")
    if pyramid is None:
        pyramid = hessian_pyramid(img, levels=max(k.level for k in keypoints) + 1)
    missing = sorted({k.level for k in keypoints} - set(range(len(pyramid))))
    if missing:
        raise ParameterError(f"keypoint levels {missing} are not in the {len(pyramid)}-level pyramid")
    parts, order = [], []
    for level, idx, xs, ys in _per_level(pyramid, keypoints):
        # one gradient pass per level feeds both the orientation and the descriptor
        dx, dy = _patch_gradients(extract_patches_at(level.image, xs, ys))
        thetas, _ = _orientations(dx.data, dy.data)
        for i, th in zip(idx, thetas.tolist()):
            keypoints[i].orientation = th
        parts.append(_describe_gradients(dx, dy, thetas))
        order.append(idx)
    return _in_keypoint_order(parts, order)


def detect_and_describe(
    img,
    max_keypoints: int = 500,
    levels: int = 3,
    threshold: float = 1e-6,
) -> tuple:
    """Full pipeline: (keypoints sorted by response, descriptors (M,128)).

    With no keypoints the descriptors are a plain (0,128) ndarray of the
    image's dtype, since a Var cannot have a zero extent.
    """
    img = as_var(img)
    pyramid = hessian_pyramid(img, levels)
    kps = detect(img, max_keypoints=max_keypoints, threshold=threshold, pyramid=pyramid)
    if not kps:
        return [], np.zeros((0, 128), dtype=img.dtype)
    return kps, describe(img, kps, pyramid=pyramid)


# ---------------------------------------------------------------------------
# CSV dumps


def save_keypoints_csv(path, keypoints) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "scale", "orientation", "response"])
        for k in keypoints:
            writer.writerow([k.x, k.y, k.scale, k.orientation, k.response])


def load_keypoints_csv(path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [
        Keypoint(
            x=float(r["x"]),
            y=float(r["y"]),
            scale=float(r["scale"]),
            orientation=float(r["orientation"]),
            response=float(r["response"]),
        )
        for r in rows
    ]


def save_matches_csv(path, matches) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ia", "ib", "dist"])
        for m in matches:
            writer.writerow([m.ia, m.ib, m.distance])


def load_matches_csv(path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [MatchPair(ia=int(r["ia"]), ib=int(r["ib"]), distance=float(r["dist"])) for r in rows]
