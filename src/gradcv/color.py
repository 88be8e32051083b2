"""Color-space conversions and intensity adjustments on NCHW batches.

The linear conversions (grayscale, XYZ, YCbCr and back) are each one tape
node, a per-pixel channel mix M @ x + offset with vjp M^T @ g, whose
constants take the input's dtype.  `rgb_to_hsv` reads the hue numerator of
the max channel with one gather at the channel argmax; `hsv_to_rgb` reads
r, g, b from the stacked (v, p, q, t) with one gather through a 6x3 sector
table.  These branch selections are constant, so gradients are correct
away from their discontinuities.  `adjust_brightness/contrast/saturation/
hue` take a scalar or one factor per sample, an (N,) array.  RGB inputs
are nominally [0,1]; hue is in radians [0, 2*pi).
"""
from __future__ import annotations

import numpy as np

from . import tape
from .errors import ParameterError, ShapeError
from .tape import Var, _record, as_var, concat, where

# BT.601 luma weights, matching common library behavior.
GRAY_WEIGHTS = (0.299, 0.587, 0.114)

# Linear sRGB -> CIE-XYZ (D65 white point).
_RGB_TO_XYZ = np.array(
    [
        [0.412453, 0.357580, 0.180423],
        [0.212671, 0.715160, 0.072169],
        [0.019334, 0.119193, 0.950227],
    ]
)
_XYZ_TO_RGB = np.linalg.inv(_RGB_TO_XYZ)

# BT.601 full-range YCbCr: luma, then B - Y and R - Y scaled to [-0.5, 0.5], plus 0.5
_RGB_TO_YCBCR = np.stack(
    [GRAY_WEIGHTS] + [(np.eye(3)[c] - GRAY_WEIGHTS) * (0.5 / (1.0 - GRAY_WEIGHTS[c])) for c in (2, 0)]
)
_YCBCR_OFFSET = np.array([0.0, 0.5, 0.5])
_YCBCR_TO_RGB = np.linalg.inv(_RGB_TO_YCBCR)

# hsv_to_rgb: the sources of (r, g, b) in each hue sector, as indices into (v, p, q, t)
_SECTOR_SOURCES = np.array([(0, 3, 1), (2, 0, 1), (1, 0, 3), (1, 2, 0), (3, 1, 0), (0, 1, 2)])


def _require_channels(img: Var, n: int, who: str) -> None:
    if img.ndim != 4 or img.shape[1] != n:
        raise ShapeError(f"{who} expects Nx{n}xHxW input, got shape {img.shape}")


def _channel_mix(img, m: np.ndarray, who: str, offset=0.0) -> Var:
    """Per-pixel out = m @ img + offset as one tape node (vjp m^T @ g)."""
    img = as_var(img)
    _require_channels(img, m.shape[1], who)
    m, offset = m.astype(img.dtype), np.asarray(offset, img.dtype)[..., None, None]
    out = np.einsum("ij,njhw->nihw", m, img.data) + offset
    return _record(out, (img,), lambda g: (np.einsum("ij,nihw->njhw", m, g),))


def _gather(img: Var, idx: np.ndarray) -> Var:
    """The channels idx (N,K,H,W) of each pixel, distinct per pixel, as one tape node."""
    shape, dtype = img.shape, img.dtype

    def vjp(g):
        buf = np.zeros(shape, dtype)
        np.put_along_axis(buf, idx, g, axis=1)
        return (buf,)

    return _record(np.take_along_axis(img.data, idx, axis=1), (img,), vjp)


def rgb_to_grayscale(img) -> Var:
    """BT.601 luma: y = 0.299 R + 0.587 G + 0.114 B."""
    return _channel_mix(img, np.array([GRAY_WEIGHTS]), "rgb_to_grayscale")


def rgb_to_hsv(img) -> Var:
    """RGB -> HSV with hue in radians [0, 2*pi), S and V in [0,1].

    V is the max channel k (r > g > b at ties); the hue is
    (numerator / (V - min) + 2k) * pi/3, the numerator being the difference
    of the two channels after k in the cycle r, g, b.
    """
    img = as_var(img)
    _require_channels(img, 3, "rgb_to_hsv")
    top = np.argmax(img.data, axis=1, keepdims=True)  # first occurrence: r > g > b at ties
    maxc = _gather(img, top)
    delta = maxc - img.min(axis=1, keepdims=True)
    chromatic = delta.data > 0
    safe_delta = where(chromatic, delta, 1.0)
    h = (_gather(img, (top + 1) % 3) - _gather(img, (top + 2) % 3)) / safe_delta
    # the sector's 2k, and the red sector wrapped from [-1,0) to [5,6)
    h = h + (2 * top + 6 * ((top == 0) & (h.data < 0))).astype(img.dtype)
    h = where(chromatic, h, 0.0) * (np.pi / 3.0)

    positive = maxc.data > 0
    s = where(positive, delta / where(positive, maxc, 1.0), 0.0)
    return concat([h, s, maxc], axis=1)


def hsv_to_rgb(img) -> Var:
    """Inverse of :func:`rgb_to_hsv` (exact away from S = 0).  A non-finite
    hue gives NaN in all three channels of its pixel."""
    img = as_var(img)
    _require_channels(img, 3, "hsv_to_rgb")
    h, s, v = img[:, 0:1], img[:, 1:2], img[:, 2:3]
    hp = h * (3.0 / np.pi)  # sector coordinate in [0,6)
    floor = np.floor(hp.data)
    f = hp - floor
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    with np.errstate(invalid="ignore"):  # a non-finite hue casts to any sector: its f, q and t are NaN
        sector = floor[:, 0].astype(np.int64) % 6
    rgb = _gather(concat([v, p, q, t], axis=1), np.moveaxis(_SECTOR_SOURCES[sector], -1, 1))
    bad = ~np.isfinite(floor)  # every sector reads v or p, which do not see the hue
    return where(np.broadcast_to(bad, rgb.shape), np.nan, rgb) if bad.any() else rgb


def _mean_std(img, mean, std, who: str) -> tuple:
    """img as a Var with mean and std as (1,C,1,1) arrays in its dtype,
    each of 1 or C entries; std must be nonzero."""
    img = as_var(img)
    if img.ndim != 4:
        raise ShapeError(f"{who} expects NCHW input, got {img.shape}")
    mean, std = (np.asarray(v, dtype=img.dtype).reshape(1, -1, 1, 1) for v in (mean, std))
    if mean.size not in (1, img.shape[1]) or std.size not in (1, img.shape[1]):
        raise ShapeError(f"{who}: mean/std length must be 1 or the channel count {img.shape[1]}")
    if np.any(std == 0):
        raise ParameterError("std must be nonzero")
    return img, mean, std


def normalize(img, mean, std) -> Var:
    """(x - mean) / std channelwise; mean/std are per-channel sequences."""
    img, mean, std = _mean_std(img, mean, std, "normalize")
    return (img - mean) / std


def denormalize(img, mean, std) -> Var:
    """Inverse of :func:`normalize`: x * std + mean."""
    img, mean, std = _mean_std(img, mean, std, "denormalize")
    return img * std + mean


def _per_sample(img: Var, factor, who: str):
    """A scalar factor as a float, or one factor per sample, (N,), as an
    (N,1,1,1) array in img's dtype."""
    f = np.asarray(factor, dtype=np.float64)
    if f.ndim and (img.ndim != 4 or f.shape != (img.shape[0],)):
        raise ShapeError(f"{who} takes a scalar or one factor per sample, got {f.shape} for batch {img.shape}")
    return f.astype(img.dtype).reshape(-1, 1, 1, 1) if f.ndim else float(f)


def adjust_brightness(img, amount) -> Var:
    """Add `amount`, a scalar or one per sample, and clamp to [0,1]."""
    img = as_var(img)
    return tape.clamp(img + _per_sample(img, amount, "adjust_brightness"), 0.0, 1.0)


def adjust_contrast(img, factor) -> Var:
    """Multiply by `factor`, a scalar or one per sample, and clamp to [0,1]."""
    img = as_var(img)
    return tape.clamp(img * _per_sample(img, factor, "adjust_contrast"), 0.0, 1.0)


def adjust_gamma(img, gamma: float) -> Var:
    if gamma <= 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    return tape.clamp(tape.pow_(as_var(img), float(gamma)), 0.0, 1.0)


def _through_hsv(img, factor, identity: float, who: str, channel: int, edit) -> Var:
    """hsv_to_rgb of rgb_to_hsv(img) with HSV channel `channel` replaced by
    edit(channel, factor), clamped to [0,1]; the samples whose factor is
    `identity` are only clamped."""
    img = as_var(img)
    _require_channels(img, 3, who)
    factor = _per_sample(img, factor, who)
    keep = np.equal(factor, identity)
    if np.all(keep):
        return tape.clamp(img, 0.0, 1.0)
    hsv = rgb_to_hsv(img)
    parts = [hsv[:, c : c + 1] for c in range(3)]
    parts[channel] = edit(parts[channel], factor)
    out = tape.clamp(hsv_to_rgb(concat(parts, axis=1)), 0.0, 1.0)
    return where(keep, tape.clamp(img, 0.0, 1.0), out) if np.any(keep) else out


def adjust_saturation(img, factor) -> Var:
    """Scale HSV saturation by `factor`, a scalar or one per sample (1 is
    the identity, 0 desaturates)."""
    return _through_hsv(img, factor, 1.0, "adjust_saturation", 1, lambda s, f: tape.clamp(s * f, 0.0, 1.0))


def adjust_hue(img, shift) -> Var:
    """Rotate hue by `shift` radians, a scalar or one per sample."""
    turn = 2.0 * np.pi
    return _through_hsv(img, shift, 0.0, "adjust_hue", 0, lambda h, f: h + f - np.floor((h.data + f) / turn) * turn)


def rgb_to_xyz(img) -> Var:
    return _channel_mix(img, _RGB_TO_XYZ, "rgb_to_xyz")


def xyz_to_rgb(img) -> Var:
    return _channel_mix(img, _XYZ_TO_RGB, "xyz_to_rgb")


def rgb_to_ycbcr(img) -> Var:
    """BT.601 full-range YCbCr with chroma offset 0.5."""
    return _channel_mix(img, _RGB_TO_YCBCR, "rgb_to_ycbcr", _YCBCR_OFFSET)


def ycbcr_to_rgb(img) -> Var:
    return _channel_mix(img, _YCBCR_TO_RGB, "ycbcr_to_rgb", -_YCBCR_TO_RGB @ _YCBCR_OFFSET)
