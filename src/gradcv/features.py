"""Classical local features, differentiable end to end where it matters.

Pipeline (wide-baseline matching): Gaussian pyramid (`filters.gaussian_pyramid`)
-> Hessian blob response per level -> hard NMS -> patch extraction at keypoint
scale -> dominant gradient orientation -> SIFT description by sparse trilinear
voting -> mutual nearest-neighbor matching -> RANSAC homography verification.
Detection (integer NMS locations, orientations, match indices) is discrete;
responses, subpixel refinement and descriptors are Var-valued, so gradients
flow from descriptor/position losses back into image pixels.

Each job of the descriptor stage has one code path:
- `_per_level` groups keypoints by pyramid level, and `_in_keypoint_order`
  restores their order, for `describe` and the attack (`demos.attack`).
- `_Windows` reads each patch as an integer (size+1)^2 window of the image
  behind a zero border, blended with the patch's one subpixel offset; its
  `adjoint` maps all patch gradients to the image in one bincount.
- `_histogram_node` is the one SIFT tape node: a blocked pass computes
  |grad|^2 and atan2 once per pixel for both the orientation histogram and
  the votes, and the vjp recomputes each block.  `_level_histograms` (one
  node per level, over `_Windows`) and `sift_describe` (over given patches)
  both record it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EstimationError, NoConsensusError, ParameterError, ShapeError, UsageError
from .filters import DIFF_X, gaussian_blur2d, gaussian_pyramid, spatial_gradient
from .geometry.transforms import _dlt_least_squares, _has_collinear_triple, _solve_minimal
from .kernels import _snap, conv2d
from .tape import Var, _record, as_var, concat, sqrt, where
from .tensor import as_array

PATCH_SIZE = 32
DESC_SPATIAL_BINS = 4
DESC_ORI_BINS = 8
ORI_HIST_BINS = 36
PYRAMID_BASE_SIGMA = 1.6
_MAG_EPS = 1e-12


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
        first = spatial_gradient(smoothed, mode="diff")[:, 0]  # (N,2,H,W): dx, dy
        # the 3 second derivatives kept: d/dx of dx, and d/dy of dx and dy in one pass
        ixx = conv2d(first[:, 0:1], DIFF_X, border="reflect")
        d_dy = conv2d(first, DIFF_X.T, border="reflect")
        ixy, iyy = d_dy[:, 0:1], d_dy[:, 1:2]
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


def _nms_arrays(response, window: int, threshold: float) -> tuple:
    """The body of :func:`nms2d`: (x, y, response) arrays of its keypoints."""
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
    return xs + off_x, ys + off_y, v


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
    xs, ys, v = _nms_arrays(response, window, threshold)
    return [Keypoint(x=x, y=y, response=resp) for x, y, resp in zip(xs.tolist(), ys.tolist(), v.tolist())]


def refine_positions(response: Var, ys: np.ndarray, xs: np.ndarray, clamp: bool = True):
    """Differentiable subpixel positions (x+dx, y+dy) at integer maxima.

    The quadratic-fit offsets are Var-valued functions of the response map,
    so position losses propagate into the image; offsets at the map border
    are zero.  clamp=False skips the +-0.5 saturation: useful when the
    offsets feed an optimization loss, where saturation would kill the
    gradient once the fit wants the peak beyond the neighbor pixel.
    """
    response = as_var(response)
    if response.ndim not in (2, 4) or response.shape[:-2] not in ((), (1, 1)):
        raise ShapeError(f"response must be (H,W) or (1,1,H,W), got {response.shape}")
    r = response.reshape(response.shape[-2:])
    h, w = r.shape
    ys = np.asarray(ys, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.int64)
    if ys.shape != xs.shape:
        raise ShapeError(f"ys and xs must share a shape, got {ys.shape} and {xs.shape}")
    if ((ys < 0) | (ys >= h) | (xs < 0) | (xs >= w)).any():
        raise ParameterError(f"positions must lie inside the {h}x{w} response map")
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
# patches, orientation and SIFT description: one blocked pass
#
# Every step below works on one block of _BLOCK patches while its data is
# cache-sized: blend the patch from its integer window, take the central
# differences, then the orientation histogram and the SIFT votes from one
# |grad|^2 and one atan2 per pixel.  The vjps recompute each block.


_BLOCK = 16  # patches per block, so that every block temporary stays cache-sized
# SIFT votes land on a spatial grid with a 2-bin border that is dropped (rotated
# patches reach 2.24 bins out), and on a 9-wide orientation axis whose bin 8 is
# folded into bin 0, so the 8 votes of a pixel sit at 8 constant offsets
_GRID = DESC_SPATIAL_BINS + 4
_ORI_AXIS = DESC_ORI_BINS + 1
_VOTE_OFFSETS = (  # (y, x, orientation) corner offsets of a pixel's votes from its first bin
    (np.arange(2)[:, None, None] * _GRID + np.arange(2)[None, :, None]) * _ORI_AXIS + np.arange(2)
)[..., None, None]
_CENTER = (_GRID - 1) / 2.0  # padded-grid bin coordinate of the patch center
_PER_RAD = DESC_ORI_BINS / (2.0 * np.pi)
# offsets of the pixels from the patch center in bins, along a row or a column
_AXIS = (np.arange(PATCH_SIZE) - (PATCH_SIZE - 1) / 2.0) / (PATCH_SIZE / DESC_SPATIAL_BINS)
# descriptor window: sigma is half the patch, in bins
_SIFT_WINDOW = np.exp(-(_AXIS * _AXIS + _AXIS[:, None] * _AXIS[:, None]) / (2.0 * (0.5 * DESC_SPATIAL_BINS) ** 2))


def _blocks(n: int) -> list:
    return [slice(i, i + _BLOCK) for i in range(0, n, _BLOCK)]


@functools.lru_cache(maxsize=None)
def _orientation_window(s: int) -> np.ndarray:
    """Gaussian window of the orientation histogram: sigma = (patch/2) * 0.5."""
    c = (s - 1) / 2.0
    yy, xx = np.mgrid[0:s, 0:s]
    window = np.exp(-(((xx - c) ** 2 + (yy - c) ** 2) / (2.0 * (s / 4.0) ** 2)))
    window.flags.writeable = False  # shared by every caller
    return window


class _Windows:
    """The patch sampler of one (H,W) image: an integer (size+1)^2 window per
    center, read from a float64 copy of the image behind a zero border of
    size+2 pixels with its origin clipped to it, and the patch's one subpixel
    offset.  Offsets within 1e-8 of an integer snap to it (`kernels._snap`)."""

    def __init__(self, image: np.ndarray, xs: np.ndarray, ys: np.ndarray, size: int):
        h, w = image.shape
        s1, b = size + 1, size + 2
        self.size, self.shape, self.border = size, (h + 2 * b, w + 2 * b), b
        hp, wp = self.shape
        self.plane = np.zeros((hp, wp))
        self.plane[b:-b, b:-b] = image
        # top-left sample of each patch, split into an integer origin and a shared fraction
        ox, oy = _snap(xs - (size - 1) / 2.0), _snap(ys - (size - 1) / 2.0)
        x0, y0 = np.floor(ox), np.floor(oy)
        self.wx, self.wy = (ox - x0)[:, None, None], (oy - y0)[:, None, None]
        self.x0 = np.clip(x0 + b, 0, wp - s1).astype(np.int64)
        self.y0 = np.clip(y0 + b, 0, hp - s1).astype(np.int64)
        self.windows = sliding_window_view(self.plane, (s1, s1))

    def blend(self, blk: slice) -> np.ndarray:
        """The (B,size,size) float64 patches of a block: each of the size+1
        window rows lerped along x, then the rows along y."""
        win = self.windows[self.y0[blk], self.x0[blk]]
        rows = win[:, :, 1:] - win[:, :, :-1]
        rows *= self.wx[blk]
        rows += win[:, :, :-1]
        out = rows[:, 1:] - rows[:, :-1]
        out *= self.wy[blk]
        out += rows[:, :-1]
        return out

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """The (H,W) float64 image gradient of the gradient g (M,size,size) of
        all patches: each sample to its two window rows, each row to its two
        columns, then one bincount of all windows into the plane, cropped to
        the image."""
        g_rows = np.zeros((len(g), self.size + 1, self.size))
        g_rows[:, :-1] = g * (1.0 - self.wy)
        g_rows[:, 1:] += g * self.wy
        g_win = np.zeros((len(g), self.size + 1, self.size + 1))
        g_win[:, :, :-1] = g_rows * (1.0 - self.wx)
        g_win[:, :, 1:] += g_rows * self.wx
        b, (hp, wp) = self.border, self.shape
        window = np.arange(self.size + 1)[:, None] * wp + np.arange(self.size + 1)  # flat offsets of one window
        idx = (self.y0 * wp + self.x0)[:, None, None] + window
        plane = np.bincount(idx.ravel(), g_win.ravel(), hp * wp)
        return plane.reshape(self.shape)[b:-b, b:-b]


def _central_difference(half: np.ndarray, out: np.ndarray) -> None:
    """out = half[j+1] - half[j-1] along the last axis, with the edge pixel
    repeated beyond the border."""
    s = half.shape[-1]
    np.subtract(half[..., 2:], half[..., :-2], out=out[..., 1:-1])
    np.subtract(half[..., min(1, s - 1)], half[..., 0], out=out[..., 0])
    np.subtract(half[..., -1], half[..., max(s - 2, 0)], out=out[..., -1])


def _central_difference_adjoint(half: np.ndarray, out: np.ndarray) -> None:
    """Add the adjoint of :func:`_central_difference` of `half` into out."""
    out[..., 2:] += half[..., 1:-1]
    out[..., :-2] -= half[..., 1:-1]
    out[..., 1] += half[..., 0]
    out[..., 0] -= half[..., 0]
    out[..., -1] += half[..., -1]
    out[..., -2] -= half[..., -1]


def _gradients(p: np.ndarray) -> tuple:
    """(dx, dy, |grad|^2, angle) of patches p (B,s,s), in p's dtype.

    dx, dy are central differences with the edge pixel repeated beyond the
    border, bit-identical to `spatial_gradient(..., mode="diff")`."""
    half = 0.5 * p
    dx, dy = np.empty_like(half), np.empty_like(half)
    _central_difference(half, dx)
    _central_difference(half.swapaxes(1, 2), dy.swapaxes(1, 2))
    return dx, dy, dx * dx + dy * dy, np.arctan2(dy, dx)


def _gradients_adjoint(gdx: np.ndarray, gdy: np.ndarray) -> np.ndarray:
    """Patch gradient of the cotangents gdx, gdy of `_gradients`' dx, dy."""
    g = np.zeros_like(gdx)
    _central_difference_adjoint(0.5 * gdx, g)
    _central_difference_adjoint((0.5 * gdy).swapaxes(1, 2), g.swapaxes(1, 2))
    return g


def _orientation_peaks(d2: np.ndarray, ang: np.ndarray) -> tuple:
    """(theta, degenerate) per patch of a block from |grad|^2 and the angle
    (B,s,s): the peak of the magnitude-weighted 36-bin histogram, NaN where
    the histogram is."""
    n, s = len(d2), d2.shape[-1]
    wgt = np.sqrt(d2) * _orientation_window(s)  # no eps: a constant patch stays degenerate
    ang = ang + (ang < 0) * (2.0 * np.pi)  # atan2's range wrapped to [0, 2pi), as np.mod does
    with np.errstate(invalid="ignore"):  # a NaN angle casts to any bin: its NaN weight makes the row NaN
        bins = np.clip((ang * (ORI_HIST_BINS / (2.0 * np.pi))).astype(int), 0, ORI_HIST_BINS - 1)
    bins += np.arange(n)[:, None, None] * ORI_HIST_BINS
    hist = np.bincount(bins.ravel(), wgt.ravel(), n * ORI_HIST_BINS).reshape(n, ORI_HIST_BINS)
    total = hist.sum(axis=1)
    degenerate = total < 1e-9
    peak = hist.argmax(axis=1)
    rows = np.arange(n)
    off = _quad_offset(
        hist[rows, (peak - 1) % ORI_HIST_BINS], hist[rows, peak], hist[rows, (peak + 1) % ORI_HIST_BINS]
    )
    theta = np.mod((peak + off) * (2.0 * np.pi / ORI_HIST_BINS), 2.0 * np.pi)
    theta[degenerate] = 0.0
    theta[np.isnan(total)] = np.nan
    return theta, degenerate


class _VoteBuffers:
    """The arrays of one block's SIFT votes, allocated once per pass and
    reused by every block (allocating these ~1 MB arrays afresh for each
    block made `describe` about 15% slower)."""

    def __init__(self, n: int):
        b, s = min(n, _BLOCK), PATCH_SIZE
        self.wy, self.wx, self.wo = np.empty((b, 2, s, s)), np.empty((b, 2, s, s)), np.empty((b, 2, s, s))
        self.wyx = np.empty((b, 2, 2, s, s))
        self.idx = np.empty((b, 2, 2, 2, s, s), dtype=np.int64)
        self.votes = np.empty((b, 2, 2, 2, s, s))


def _tent_pair(f: np.ndarray, lower: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Weights (1 - t, t), t = f - lower, of a pixel's two neighbouring bins,
    stacked on axis 1 of out."""
    np.subtract(f, lower, out=out[:, 1])
    np.subtract(1.0, out[:, 1], out=out[:, 0])
    return out


def _vote_frame(ang: np.ndarray, thetas: np.ndarray, buf: _VoteBuffers) -> tuple:
    """The SIFT votes of a block of (B,32,32) angles: the bin of each of a
    pixel's 8 votes, idx (B,2,2,2,32,32) over (y, x, orientation) corners,
    their spatial weights wyx (B,2,2,32,32) and orientation weights wo
    (B,2,32,32), as views of buf."""
    b = len(thetas)
    # the grid rotated by -theta, so the descriptor frame tracks the keypoint:
    # an outer sum of two 32-vectors per keypoint
    frame = np.where(np.isnan(thetas), 0.0, thetas)  # valid bins for a NaN theta; its NaN votes make the row NaN
    cu, su = np.cos(frame)[:, None] * _AXIS, np.sin(frame)[:, None] * _AXIS
    fx = cu[:, None, :] + (su + _CENTER)[:, :, None]
    fy = (cu + _CENTER)[:, :, None] - su[:, None, :]
    lx, ly = np.floor(fx), np.floor(fy)
    wy, wx = _tent_pair(fy, ly, buf.wy[:b]), _tent_pair(fx, lx, buf.wx[:b])
    wyx = np.multiply(wy[:, :, None], wx[:, None], out=buf.wyx[:b])
    fo = ang - thetas[:, None, None]
    fo *= _PER_RAD
    lo = np.floor(fo)
    wo = _tent_pair(fo, lo, buf.wo[:b])
    # the first bin of each pixel; DESC_ORI_BINS is a power of two, so & wraps negative bins
    ly *= _GRID
    ly += lx
    ly *= _ORI_AXIS
    ly += (np.arange(b) * (_GRID * _GRID * _ORI_AXIS))[:, None, None]
    first = ly.astype(np.int64)
    with np.errstate(invalid="ignore"):  # a NaN angle casts to any bin: its NaN votes make the row NaN
        first += lo.astype(np.int64) & (DESC_ORI_BINS - 1)
    idx = np.add(first[:, None, None, None], _VOTE_OFFSETS, out=buf.idx[:b])
    return idx, wyx, wo


def _histogram_pass(n: int, patch_of, thetas=None) -> tuple:
    """Raw (N,128) float64 SIFT histograms of N 32x32 patches, block by block.

    patch_of(blk) gives the patches (B,32,32) of a block.  With thetas None
    each patch takes the dominant orientation of its gradients.  Each pixel
    adds |grad| * Gaussian * wy * wx * wo to bin (by*4+bx)*8+o of its 2x2
    spatial bins (theta-rotated) and 2 orientation bins (modulo 8).  Returns
    (histograms, thetas, degenerate), degenerate where a patch is constant.
    """
    orient = thetas is None
    # a non-finite theta takes the NaN path: a NaN row, without a warning
    thetas = np.empty(n) if orient else np.where(np.isfinite(thetas), thetas, np.nan)
    hist = np.empty((n, _GRID, _GRID, _ORI_AXIS))
    degenerate = np.empty(n, dtype=bool)
    buf = _VoteBuffers(n)
    for blk in _blocks(n):
        dx, dy, d2, ang = _gradients(patch_of(blk))
        degenerate[blk] = (np.abs(dx).max(axis=(1, 2)) + np.abs(dy).max(axis=(1, 2))) < 1e-12
        if orient:
            thetas[blk] = _orientation_peaks(d2, ang)[0]
        idx, wyx, wo = _vote_frame(ang, thetas[blk], buf)
        wo *= (_SIFT_WINDOW * np.sqrt(d2 + _MAG_EPS))[:, None]
        votes = np.multiply(wyx[:, :, :, None], wo[:, None, None], out=buf.votes[: len(wo)])
        h = hist[blk]
        h[...] = np.bincount(idx.ravel(), votes.ravel(), h.size).reshape(h.shape)
    hist[..., 0] += hist[..., -1]
    return hist[:, 2:-2, 2:-2, :-1].reshape(n, -1), thetas, degenerate


def _histogram_vjp(g: np.ndarray, patch_of, thetas: np.ndarray) -> np.ndarray:
    """Backward of :func:`_histogram_pass` at fixed thetas: the (N,32,32)
    float64 patch gradients.  For each block it gathers the <= 8 bins of
    every pixel and folds them back through atan2 and sqrt, then through the
    central differences."""
    n = len(thetas)
    g_patches = np.empty((n, PATCH_SIZE, PATCH_SIZE))
    padded = np.zeros((n, _GRID, _GRID, _ORI_AXIS))
    padded[:, 2:-2, 2:-2, :-1] = g.reshape(n, DESC_SPATIAL_BINS, DESC_SPATIAL_BINS, DESC_ORI_BINS)
    padded[..., -1] = padded[..., 0]
    buf = _VoteBuffers(n)
    for blk in _blocks(n):
        dx, dy, d2, ang = _gradients(patch_of(blk))
        idx, wyx, wo = _vote_frame(ang, thetas[blk], buf)
        gathered = np.take(padded[blk], idx, out=buf.votes[: len(wo)])
        gathered *= wyx[:, :, :, None]
        gs = gathered.sum(axis=(1, 2))  # (B,2,32,32)
        # d/d(|grad| * window), and d/d(angle) divided by |grad| * window; an angle
        # exactly on a bin center (a kink of its tent) takes the zero slope
        g_mag = gs[:, 0] * wo[:, 0] + gs[:, 1] * wo[:, 1]
        g_ang = (gs[:, 1] - gs[:, 0]) * ((wo[:, 1] > 0) * _PER_RAD)
        # |grad| moves by (dx, dy) / |grad|, the angle by (-dy, dx) / |grad|^2
        scale = _SIFT_WINDOW / np.sqrt(d2 + _MAG_EPS)
        g_patches[blk] = _gradients_adjoint((g_mag * dx - g_ang * dy) * scale, (g_mag * dy + g_ang * dx) * scale)
    return g_patches


def _histogram_node(parent: Var, n: int, patch_of, thetas, to_parent) -> tuple:
    """:func:`_histogram_pass` of the N patches patch_of gives, as one tape
    node on parent in parent's dtype.  Its vjp recomputes each block and
    maps the (N,32,32) float64 patch gradients to parent's gradient with
    to_parent.  Returns (histograms, thetas, degenerate)."""
    hist, thetas, degenerate = _histogram_pass(n, patch_of, thetas)
    dtype = parent.dtype

    def vjp(g):
        return (to_parent(_histogram_vjp(g, patch_of, thetas)).astype(dtype, copy=False),)

    return _record(hist.astype(dtype, copy=False), (parent,), vjp), thetas, degenerate


def _normalized(hist: Var, degenerate: np.ndarray) -> Var:
    """Descriptors from raw histograms: L2-normalize -> clamp at 0.2 ->
    re-normalize; degenerate rows are zero."""
    norm = sqrt((hist * hist).sum(axis=1, keepdims=True) + _MAG_EPS)
    desc = (hist / norm).clamp(hi=0.2)
    norm2 = sqrt((desc * desc).sum(axis=1, keepdims=True) + _MAG_EPS)
    desc = desc / norm2
    if degenerate.any():
        desc = where(np.broadcast_to(~degenerate[:, None], desc.shape), desc, 0.0)
    return desc


def dominant_orientations(patches) -> tuple:
    """Peak of the magnitude-weighted 36-bin gradient histogram per patch.

    Returns (theta (N,), degenerate (N,) bool).  Histogram voting is hard
    (this is detection machinery, treated as constant); the peak is refined
    by parabolic interpolation over the circular neighbors.
    """
    patches = as_var(patches)
    _require_gray(patches, "dominant_orientations")
    n, _, s, s2 = patches.shape
    if s != s2:
        raise ShapeError(f"patches must be square, got {s}x{s2}")
    theta, degenerate = np.empty(n), np.empty(n, dtype=bool)
    for blk in _blocks(n):
        _, _, d2, ang = _gradients(patches.data[blk, 0])
        theta[blk], degenerate[blk] = _orientation_peaks(d2, ang)
    return theta, degenerate


def sift_describe(patches, orientations=None) -> Var:
    """128-D SIFT descriptors for (N,1,32,32) patches (or one 32x32 patch).

    4x4 spatial x 8 orientation bins filled by sparse trilinear voting
    (:func:`_histogram_pass`), then L2-normalize -> clamp at 0.2 ->
    re-normalize.  Differentiable w.r.t. the patches; orientations are
    per-patch constants.  Constant patches yield the zero vector.  The votes
    accumulate in float64; descriptors and gradient have the patches' dtype.
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
    hist, _, degenerate = _histogram_node(pv, n, lambda blk: pv.data[blk, 0], thetas, lambda g: g[:, None])
    return _normalized(hist, degenerate)


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
    windows = _Windows(img.data[0, 0], xs, ys, size)
    m, x_dtype = len(xs), img.dtype
    out = np.empty((m, 1, size, size), dtype=x_dtype)
    for blk in _blocks(m):
        out[blk, 0] = windows.blend(blk)

    img_shape = img.shape

    def vjp(g):
        return (windows.adjoint(g.reshape(m, size, size)).reshape(img_shape).astype(x_dtype, copy=False),)

    return _record(out, (img,), vjp)


@dataclass
class PyramidLevel:
    image: Var  # level image (1,1,h,w)
    response: Var  # Hessian response at the level
    scale: int  # 2**level sampling factor vs full resolution


def hessian_pyramid(img, levels: int = 3, sigma: float = PYRAMID_BASE_SIGMA) -> list:
    """Gaussian pyramid (:func:`filters.gaussian_pyramid`) with a Hessian
    response map per level, up to the first level too small for a patch."""
    img = as_var(img)
    _require_gray(img, "hessian_pyramid")
    out = []
    for lvl, cur in enumerate(gaussian_pyramid(img, levels)):
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
    if max_keypoints < 0:
        raise ParameterError(f"max_keypoints must be >= 0, got {max_keypoints}")
    if pyramid is None:
        pyramid = hessian_pyramid(img, levels)
    margin = PATCH_SIZE // 2 + 1
    found = []  # (x, y, response, level) per level, at full resolution
    for lvl, level in enumerate(pyramid):
        h, w = level.response.shape[2:]
        xs, ys, v = _nms_arrays(level.response.data, nms_window, threshold)
        inside = (margin <= xs) & (xs <= w - 1 - margin) & (margin <= ys) & (ys <= h - 1 - margin)
        found.append((xs[inside] * level.scale, ys[inside] * level.scale, v[inside], np.full(inside.sum(), lvl)))
    if not found:
        return []
    xs, ys, v, lvls = (np.concatenate(col) for col in zip(*found))
    keep = np.argsort(-v, kind="stable")[:max_keypoints]  # strongest first, ties in level and scan order
    return [
        Keypoint(x=x, y=y, scale=PYRAMID_BASE_SIGMA * pyramid[lvl].scale, response=resp, level=lvl)
        for x, y, resp, lvl in zip(xs[keep].tolist(), ys[keep].tolist(), v[keep].tolist(), lvls[keep].tolist())
    ]


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


def _level_histograms(image: Var, xs: np.ndarray, ys: np.ndarray, thetas=None) -> tuple:
    """Raw (M,128) SIFT histograms of the 32x32 patches centered at (xs, ys)
    of a level image, as one tape node whose only parent is the image.

    Each block of patches is blended from its windows, differentiated and
    voted in one pass (:func:`_histogram_node`); with thetas None the patches
    take their dominant orientations.  The vjp ends in the windows' adjoint,
    one bincount over all windows.  Returns (histograms, thetas, degenerate).
    """
    if image.shape[0] != 1:
        raise ShapeError(f"keypoints are described on one image, got a batch of {image.shape[0]}")
    windows = _Windows(image.data[0, 0], xs, ys, PATCH_SIZE)
    patch_of = lambda blk: windows.blend(blk).astype(image.dtype, copy=False)
    return _histogram_node(image, len(xs), patch_of, thetas, lambda g: windows.adjoint(g).reshape(image.shape))


def _descriptors(hists: list, degenerate: list, order: list) -> Var:
    """Normalized descriptors in keypoint order from per-level raw histograms
    and degenerate flags (hists[j] and degenerate[j] belong to indices order[j])."""
    flags = np.concatenate(degenerate)[np.argsort(np.concatenate(order))]
    return _normalized(_in_keypoint_order(hists, order), flags)


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
    hists, degenerate, order = [], [], []
    for level, idx, xs, ys in _per_level(pyramid, keypoints):
        hist, thetas, flags = _level_histograms(level.image, xs, ys)
        for i, th in zip(idx, thetas.tolist()):
            keypoints[i].orientation = th
        hists.append(hist)
        degenerate.append(flags)
        order.append(idx)
    return _descriptors(hists, degenerate, order)


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
