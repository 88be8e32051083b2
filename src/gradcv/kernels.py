"""Primitive differentiable image kernels: padding, depthwise 2-D
convolution, bilinear sampling, and patch extraction.

All image inputs are 4-D NCHW.  Convolution is correlation (kernels are not
flipped), matching the usual CV convention.  A constant shared 1-D kernel at any extent is
a product with a cached, border-folded operator kept as row tiles (`_axis_product`); a
tracked, per-channel or 2-D kernel runs one multiply-add per tap over padded views.
`_conv_input_vjp` is also the blur's adjoint.  `upsample_bilinear` is the product
Uy . x . Ux^T with cached corner-aligned (Ho, H) and (Wo, W) interpolation operators.  Both
kinds of operator share one cache (`_axis_operator`) and one product (`_product`), which
declines a NaN or inf input so that the taps or the `sample_bilinear` gather keep it local.
"""
from __future__ import annotations

import functools
from typing import Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, ShapeError
from .tape import Var, _record, as_var
from .tensor import _frozen

BORDER_MODES = ("zero", "replicate", "reflect")
_NP_PAD_MODES = {"zero": "constant", "replicate": "edge", "reflect": "symmetric"}

# Source coordinates within this distance of an integer are snapped to it so
# identity grids and integer-pixel warps reproduce inputs bit-for-bit.
_SNAP_EPS = 1e-8

# Output rows per operator tile; an operator holds about n (_TILE + k) entries, fewer where
# tiles repeat.  128 keeps every axis up to 128 px one tile, the whole operator: with 32, a
# `depth` step (60x80) ran 14% slower in paired runs.  From 256 to 1024 px, with one BLAS
# thread, 128 was up to 2.6x slower than 32 and still 1.3-3x faster than the taps.
_TILE = 128


def _require_4d(x: Var, who: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{who} expects NCHW input, got shape {x.shape}")


def _pad_index(n: int, lo: int, hi: int, mode: str) -> np.ndarray:
    """Map padded positions to source positions; -1 marks zero-fill."""
    idx = np.arange(n)
    if mode == "zero":
        return np.pad(idx, (lo, hi), mode="constant", constant_values=-1)
    if mode == "replicate":
        return np.pad(idx, (lo, hi), mode="edge")
    if mode == "reflect":
        # half-sample reflection (edge repeated): every input pixel keeps a
        # total kernel weight of 1, so mass-1 blurs preserve the image mean
        if lo > n or hi > n:
            raise ParameterError(f"reflect padding ({lo},{hi}) too large for extent {n}")
        return np.pad(idx, (lo, hi), mode="symmetric")
    raise ParameterError(f"unknown border mode {mode!r}; expected one of {BORDER_MODES}")


def _fold_axis(g: np.ndarray, idx: np.ndarray, lo: int, n: int, axis: int) -> np.ndarray:
    """Adjoint of index-map padding on one axis: copy interior, slice-add borders."""
    at = (slice(None),) * axis
    buf = g[at + (slice(lo, lo + n),)].copy()
    for p in (*range(lo), *range(lo + n, idx.size)):
        if idx[p] >= 0:
            buf[at + (idx[p],)] += g[at + (p,)]
    return buf


def pad2d(x, padding: Sequence[int], mode: str = "zero") -> Var:
    """Pad the two trailing spatial axes.

    padding is (top, bottom, left, right); mode is zero | replicate | reflect.
    """
    x = as_var(x)
    _require_4d(x, "pad2d")
    pt, pb, pl, pr = (int(p) for p in padding)
    if min(pt, pb, pl, pr) < 0:
        raise ParameterError("padding must be non-negative")
    _, _, h, w = x.shape
    # the index maps validate the mode and the reflect extent, and drive the adjoint
    iy = _pad_index(h, pt, pb, mode)
    ix = _pad_index(w, pl, pr, mode)
    arr = np.pad(x.data, ((0, 0), (0, 0), (pt, pb), (pl, pr)), mode=_NP_PAD_MODES[mode])

    return _record(arr, (x,), lambda g: (_fold_axis(_fold_axis(g, iy, pt, h, 2), ix, pl, w, 3),))


def _correlate(xp: np.ndarray, k: np.ndarray, h: int, w: int) -> np.ndarray:
    """Valid (h,w) correlation of xp (N,C,H,W): one multiply-add per tap of k (C|1,kH,kW)."""
    kw = k.shape[2]
    out = xp[:, :, :h, :w] * k[:, 0, 0, None, None]
    for t in range(1, k.shape[1] * kw):
        i, j = divmod(t, kw)
        out += xp[:, :, i : i + h, j : j + w] * k[:, i, j, None, None]
    return out


@functools.lru_cache(maxsize=64)
def _axis_operator(n: int, spec, mode: str, dtype: np.dtype) -> tuple:
    """Read-only operator on an axis of n pixels as row tiles (lo, block): _TILE rows (the
    last tile the rest) over the source pixels lo : lo + block.shape[1] they read; the last
    window ends at n, and a tile equal to the one before shares its array.  For a border
    mode, rows of the (n, n) correlation with the float64 taps in spec (bytes) at the source
    pixels the border maps them to.  For "bilinear", rows of the (spec, n) corner-aligned
    interpolation, its coordinates snapped as sample_bilinear snaps them."""
    if mode == "bilinear":
        c = _snap(_aligned(spec, n, dtype).astype(np.float64))
        i0 = np.floor(c)
        f = c - i0
        cols, vals = np.stack([i0, i0 + 1], axis=1).astype(np.int64), np.stack([1.0 - f, f], axis=1)
    else:
        vals = np.frombuffer(spec)
        cols = sliding_window_view(_pad_index(n, vals.size // 2, vals.size // 2, mode), vals.size)
    vals = np.broadcast_to(vals, cols.shape)
    tiles = []
    for s in range(0, len(cols), _TILE):
        c, v = cols[s : s + _TILE], vals[s : s + _TILE]
        read = (c >= 0) & (c < n)  # a zero-fill tap (-1) or one past the last pixel reads nothing
        lo = c[read].min()
        hi = n if s + _TILE >= len(cols) else c[read].max() + 1
        block = np.zeros((len(c), hi - lo))
        np.add.at(block, (np.nonzero(read)[0], c[read] - lo), v[read])
        block = _frozen(block.astype(dtype))
        if tiles and np.array_equal(block, tiles[-1][1]):  # a kernel's interior tiles repeat
            block = tiles[-1][1]
        tiles.append((int(lo), block))
    return tuple(tiles)


def _apply(a: np.ndarray, tiles: tuple, axis: int, adjoint: bool) -> np.ndarray:
    """a's axis (its last or the one before) through a tiled operator, or through its adjoint."""
    n = tiles[-1][0] + tiles[-1][1].shape[1] if adjoint else sum(len(b) for _, b in tiles)
    out = np.empty(a.shape[:axis] + (n,) + a.shape[axis + 1 :], np.result_type(a, tiles[0][1]))
    at = (slice(None),) * axis
    mul = (lambda m, v, o=None: np.matmul(v, m.T, out=o)) if axis == a.ndim - 1 else np.matmul
    s = done = 0  # the adjoint has written out's pixels [0, done)
    for lo, block in tiles:
        rows, hi = at + (slice(s, s + len(block)),), lo + block.shape[1]
        s += len(block)
        if not adjoint:
            mul(block, a[at + (slice(lo, hi),)], out[rows])
            continue
        # windows overlap: add into what an earlier tile wrote, write the rest, and zero a gap
        if lo > done:
            out[at + (slice(done, lo),)] = 0
        cut = min(max(done - lo, 0), hi - lo)
        if cut:
            out[at + (slice(lo, lo + cut),)] += mul(block.T[:cut], a[rows])
        mul(block.T[cut:], a[rows], out[at + (slice(lo + cut, hi),)])
        done = max(done, hi)
    return out


def _product(a: np.ndarray, my, mx, adjoint: bool = False):
    """my . a . mx^T over a's two trailing axes (an operator of None leaves its axis
    as is), or the adjoint my^T . a . mx, one tile of each operator at a time; None
    when a holds a NaN or inf, which a product would spread over whole rows as 0 * inf."""
    if not np.isfinite(a).all():
        return None
    if mx is not None:
        a = _apply(a.reshape(-1, a.shape[3]), mx, 1, adjoint).reshape(a.shape[:3] + (-1,))
    if my is not None:
        a = _apply(a, my, 2, adjoint)
    return a


def _axis_product(a: np.ndarray, k3: np.ndarray, border: str, adjoint: bool = False):
    """a (N,C,H,W) correlated with a shared 1-D kernel k3 (or its adjoint) as one product; None: use taps."""
    col = k3.shape[2] == 1 < k3.shape[1]
    # the taps also report a bad border, and keep a non-finite pixel local when _product declines it
    if k3.shape[0] > 1 or min(k3.shape[1:]) > 1 or border not in BORDER_MODES:
        return None
    m = _axis_operator(a.shape[2 if col else 3], k3.astype(np.float64).tobytes(), border, a.dtype)
    return _product(a, m, None, adjoint) if col else _product(a, None, m, adjoint)


def _conv_input_vjp(g: np.ndarray, k3: np.ndarray, border: str, product: bool = True) -> np.ndarray:
    """conv2d's input vjp: g correlated with the flipped kernel, folded back through the border."""
    gx = _axis_product(g, k3, border, adjoint=True) if product else None
    if gx is not None:
        return gx
    kh, kw = k3.shape[1:]
    h, w = g.shape[2:]
    gp = np.zeros(g.shape[:2] + (h + 2 * kh - 2, w + 2 * kw - 2), dtype=g.dtype)
    gp[:, :, kh - 1 : kh - 1 + h, kw - 1 : kw - 1 + w] = g
    gx = _correlate(gp, k3[:, ::-1, ::-1], h + kh - 1, w + kw - 1)
    gx = _fold_axis(gx, _pad_index(h, kh // 2, kh // 2, border), kh // 2, h, 2)
    return _fold_axis(gx, _pad_index(w, kw // 2, kw // 2, border), kw // 2, w, 3)


def conv2d(x, kernel, border: str = "reflect") -> Var:
    """Depthwise same-size 2-D correlation.

    kernel is (kH,kW), shared across channels, or (C,kH,kW), one per channel;
    extents must be odd.  Differentiable w.r.t. both input and kernel.
    """
    x = as_var(x)
    kernel = as_var(kernel)
    _require_4d(x, "conv2d")
    if kernel.ndim not in (2, 3):
        raise ShapeError(f"kernel must be (kH,kW) or (C,kH,kW), got {kernel.shape}")
    kh, kw = kernel.shape[-2:]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ParameterError(f"kernel extents must be odd, got {kh}x{kw}")
    if kernel.ndim == 3 and kernel.shape[0] != x.shape[1]:
        raise ShapeError(
            f"per-channel kernel has {kernel.shape[0]} channels, input has {x.shape[1]}"
        )
    need_x, need_k = x.requires_grad, kernel.requires_grad
    k = kernel.data
    if not need_k and np.issubdtype(x.dtype, np.floating):
        k = k.astype(x.dtype, copy=False)  # a constant kernel keeps float32 float32
    _, _, h, w = x.shape
    k3 = k if k.ndim == 3 else k[None]  # a shared kernel broadcasts as (1,kH,kW)
    out = None if need_k else _axis_product(x.data, k3, border)
    if out is None:
        xarr = pad2d(x.detach(), (kh // 2, kh // 2, kw // 2, kw // 2), mode=border).data
        out = _correlate(xarr, k3, h, w)

    def vjp(g):
        gx = _conv_input_vjp(g, k3, border, product=not need_k) if need_x else None  # the forward's path
        gk = None
        if need_k:
            gk = np.empty(k.shape, dtype=out.dtype)
            axes = (0, 2, 3) if k.ndim == 3 else None
            for i, j in np.ndindex(kh, kw):
                gk[..., i, j] = np.sum(xarr[:, :, i : i + h, j : j + w] * g, axis=axes)
        return (gx, gk)

    return _record(out, (x, kernel), vjp)


def _snap(p: np.ndarray) -> np.ndarray:
    """Snap p, in place, to the integers within _SNAP_EPS."""
    r = np.rint(p)
    d = p - r
    np.copyto(p, r, where=np.abs(d, out=d) <= _SNAP_EPS)
    return p


def sample_bilinear(x, px, py) -> Var:
    """Bilinear lookup of x (NCHW) at pixel coordinates px, py (N,Ho,Wo).

    x is read through a two-pixel zero border: corners outside the image
    contribute zero, and coordinates are clipped to [-2, W] x [-2, H], so a
    far or infinite point samples 0 with zero gradients.  A NaN coordinate
    gives a NaN sample and NaN coordinate gradients, and adds nothing to the
    image gradient; neither case emits a warning.  Differentiable w.r.t. x
    and both coordinate fields.  The result and the image gradient have x's
    dtype; each coordinate gradient has its field's dtype.
    """
    x = as_var(x)
    px = as_var(px)
    py = as_var(py)
    _require_4d(x, "sample_bilinear")
    if px.shape != py.shape or px.ndim != 3 or px.shape[0] != x.shape[0]:
        raise ShapeError(f"coordinate fields must be (N,Ho,Wo), got {px.shape} / {py.shape}")
    n, c, h, w = x.shape
    ho, wo = px.shape[1:]
    # clip before snapping (no inf - inf); the weights are float64 whatever the dtypes
    cx = _snap(np.clip(px.data, -2.0, w, dtype=np.float64).reshape(n, 1, -1))
    cy = _snap(np.clip(py.data, -2.0, h, dtype=np.float64).reshape(n, 1, -1))
    x0, y0 = np.floor(cx), np.floor(cy)
    wx, wy = np.subtract(cx, x0, out=cx), np.subtract(cy, y0, out=cy)  # in place
    # one flat zero-bordered plane per (sample, channel), float64 like the weights
    # so float32 corner differences are exact; a point's corners are base,
    # base+1, base+W+4 and base+W+5, gathered by one take
    wp = w + 4
    base = y0 * wp + x0
    if np.isnan(base.sum()):  # a NaN coordinate reads the border with NaN weights
        nan = np.isnan(base)
        base[nan] = -2 * wp - 2
        wx[nan] = wy[nan] = np.nan
    xp = np.zeros((n, c, h + 4, wp))
    xp[:, :, 2:-2, 2:-2] = x.data
    corners = np.array([0, 1, wp, wp + 1]) + (2 * wp + 2)
    offs = np.arange(n * c).reshape(n, c, 1, 1) * ((h + 4) * wp) + corners[:, None]
    idx = base.astype(np.int64)[:, :, None] + offs  # (N,C,4,P)
    v = np.take(xp, idx).reshape(n, c, 2, 2, -1)  # [row, column] of each corner
    d = v[:, :, :, 1]
    d -= v[:, :, :, 0]  # in place: the top and bottom x-differences
    rows = v[:, :, :, 0]
    rows += d * wx[:, :, None]  # in place: the top and bottom interpolants
    top, dy = rows[:, :, 0], rows[:, :, 1]
    dy -= top  # in place: bottom minus top, the y-derivative
    out = dy * wy
    out += top
    need_x = x.requires_grad
    need_g = px.requires_grad or py.requires_grad
    x_dtype, px_dtype, py_dtype = x.dtype, px.dtype, py.dtype  # dtypes, never Vars (no cycles)

    def vjp(g):
        gp = g.reshape(n, c, -1)  # (N,C,P)
        gx_img = gpx = gpy = None
        if need_x:
            # one bin per padded pixel over the forward's index, then crop the border
            ax, ay = 1.0 - wx, 1.0 - wy
            w4 = np.stack([ax * ay, wx * ay, ax * wy, wx * wy], axis=2)  # (N,1,4,P)
            gx_img = np.bincount(
                idx.ravel(), (gp[:, :, None] * w4).ravel(), minlength=n * c * (h + 4) * wp
            )
            gx_img = gx_img.reshape(n, c, h + 4, wp)[:, :, 2:-2, 2:-2].astype(x_dtype, copy=False)
        if need_g:
            dpx = d[:, :, 0] + (d[:, :, 1] - d[:, :, 0]) * wy
            gpx = (gp * dpx).sum(axis=1).reshape(n, ho, wo).astype(px_dtype, copy=False)
            gpy = (gp * dy).sum(axis=1).reshape(n, ho, wo).astype(py_dtype, copy=False)
        return (gx_img, gpx, gpy)

    return _record(out.reshape(n, c, ho, wo).astype(x.dtype, copy=False), (x, px, py), vjp)


def grid_sample_bilinear(x, grid) -> Var:
    """Sample x (NCHW) at a normalized grid (N,Ho,Wo,2), (x,y) order.

    Coordinates -1 and +1 map to the centers of the first/last pixel column
    and row; samples outside the image return 0 (zero border).
    """
    x = as_var(x)
    grid = as_var(grid)
    _require_4d(x, "grid_sample_bilinear")
    if grid.ndim != 4 or grid.shape[-1] != 2:
        raise ShapeError(f"grid must be (N,Ho,Wo,2), got {grid.shape}")
    if grid.shape[0] != x.shape[0]:
        raise ShapeError(f"batch mismatch: input {x.shape[0]}, grid {grid.shape[0]}")
    _, _, h, w = x.shape
    px = (grid[..., 0] + 1.0) * (0.5 * (w - 1))
    py = (grid[..., 1] + 1.0) * (0.5 * (h - 1))
    return sample_bilinear(x, px, py)


def identity_grid(n: int, h: int, w: int, dtype=np.float64) -> np.ndarray:
    """Normalized sampling grid (N,H,W,2) that reproduces the input exactly."""
    gx = np.linspace(-1.0, 1.0, w, dtype=dtype) if w > 1 else np.zeros(1, dtype=dtype)
    gy = np.linspace(-1.0, 1.0, h, dtype=dtype) if h > 1 else np.zeros(1, dtype=dtype)
    grid = np.stack(np.meshgrid(gx, gy, indexing="xy"), axis=-1)
    return np.broadcast_to(grid, (n, h, w, 2)).copy()


def _aligned(n_out: int, n: int, dtype) -> np.ndarray:
    """Corner-aligned source coordinates of n_out pixels on an axis of n; one output pixel samples pixel 0."""
    return np.arange(n_out, dtype=dtype) * ((n - 1) / max(n_out - 1, 1))


def upsample_bilinear(x, size: Tuple[int, int]) -> Var:
    """Resize to (Ho,Wo) with bilinear interpolation, corners aligned.

    One product Uy . x . Ux^T with the cached (Ho,H) and (Wo,W) interpolation
    operators, and Uy^T . g . Ux as its vjp.  An input holding a NaN or inf is
    sampled by `sample_bilinear` instead, so that the NaN stays local.
    """
    x = as_var(x)
    _require_4d(x, "upsample_bilinear")
    n, _, h, w = x.shape
    ho, wo = (int(v) for v in size)
    if ho < 1 or wo < 1:
        raise ParameterError(f"output size must be >= 1, got ({ho},{wo})")
    my, mx = _axis_operator(h, ho, "bilinear", x.dtype), _axis_operator(w, wo, "bilinear", x.dtype)
    out = _product(x.data, my, mx)
    if out is None:  # the gather, on fresh grids wrapped without the copy a Var of a plain array makes
        px = Var._wrap(np.broadcast_to(_aligned(wo, w, x.dtype)[None, None, :], (n, ho, wo)).copy())
        py = Var._wrap(np.broadcast_to(_aligned(ho, h, x.dtype)[None, :, None], (n, ho, wo)).copy())
        return sample_bilinear(x, px, py)

    def vjp(g):
        gx = _product(g, my, mx, adjoint=True)
        if gx is None:  # a NaN or inf reaches only the pixels it interpolates from
            bad = ~np.isfinite(g)
            gx = _product(np.where(bad, 0.0, g), my, mx, adjoint=True)
            gx[_product(bad.astype(g.dtype), my, mx, adjoint=True) > 0] = np.nan
        return (gx,)

    return _record(out, (x,), vjp)


def extract_patches(x, window: Tuple[int, int], stride: Tuple[int, int]) -> Var:
    """Tile an NCHW tensor into (N,P,C,h,w) patches in row-major scan order.

    P = floor((H-h)/sh+1) * floor((W-w)/sw+1).
    """
    x = as_var(x)
    _require_4d(x, "extract_patches")
    h, w = (int(v) for v in window)
    sh, sw = (int(v) for v in stride)
    if min(h, w, sh, sw) < 1:
        raise ParameterError(f"window and stride must be >= 1, got ({h},{w}) and ({sh},{sw})")
    n, c, hh, ww = x.shape
    if h > hh or w > ww:
        raise ParameterError(f"window {h}x{w} larger than image {hh}x{ww}")
    ph = (hh - h) // sh + 1
    pw = (ww - w) // sw + 1
    win = sliding_window_view(x.data, (h, w), axis=(2, 3))[:, :, ::sh, ::sw]  # (N,C,Ph,Pw,h,w)
    out = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, ph * pw, c, h, w).copy()
    in_shape, in_dtype = x.shape, x.dtype

    def vjp(g):
        gt = g.reshape(n, ph, pw, c, h, w).transpose(0, 3, 1, 2, 4, 5)
        buf = np.zeros(in_shape, dtype=in_dtype)
        for i in range(h):
            for j in range(w):
                buf[:, :, i : i + ph * sh : sh, j : j + pw * sw : sw] += gt[..., i, j]
        return (buf,)

    return _record(out, (x,), vjp)
