"""Linear and non-linear 2-D filters: Gaussian/box/median blurs, spatial
gradients, Sobel edge magnitude, and the 3x3 Laplacian.

Filters default to the reflect border so blurring does not darken edges;
all of them are differentiable (the median routes its gradient to the
selected element, correct almost everywhere).
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError
from .kernels import _require_4d, conv2d, pad2d
from .tape import Var, _record, as_var, sqrt, stack
from .tensor import Tensor

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
DIFF_X = np.array([[-0.5, 0.0, 0.5]])
LAPLACIAN_3 = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])

# keeps sqrt differentiable on perfectly flat regions
_EDGE_EPS = 1e-12


def _check_odd(k: int, name: str) -> None:
    if k < 1 or k % 2 == 0:
        raise ParameterError(f"{name} must be odd and positive, got {k}")


def gaussian_kernel1d(size: int, sigma: float) -> Tensor:
    """Sampled, truncated, mass-1 Gaussian as a (1, size) tensor."""
    _check_odd(size, "gaussian kernel size")
    if sigma <= 0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    x = np.arange(size, dtype=np.float64) - size // 2
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return Tensor((k / k.sum())[None, :])


def gaussian_blur2d(img, size: tuple, sigma: tuple, border: str = "reflect") -> Var:
    """Separable Gaussian blur: 1-D column pass then row pass."""
    img = as_var(img)
    _require_4d(img, "gaussian_blur2d")
    ky = gaussian_kernel1d(size[0], sigma[0]).data
    kx = gaussian_kernel1d(size[1], sigma[1]).data
    out = conv2d(img, ky.T, border=border)  # (size,1): vertical pass
    return conv2d(out, kx, border=border)


def box_blur(img, size: tuple, border: str = "reflect") -> Var:
    """Mean over a (kh,kw) window."""
    img = as_var(img)
    _require_4d(img, "box_blur")
    kh, kw = size
    _check_odd(kh, "box size")
    _check_odd(kw, "box size")
    kernel = np.full((kh, kw), 1.0 / (kh * kw))
    return conv2d(img, kernel, border=border)


def median_blur(img, size: tuple, border: str = "reflect") -> Var:
    """Per-pixel window median.

    Window size is odd so the median is a single element; the backward pass
    routes the gradient to that element only (ties resolved in scan order).
    """
    img = as_var(img)
    _require_4d(img, "median_blur")
    kh, kw = size
    _check_odd(kh, "median size")
    _check_odd(kw, "median size")
    xp = pad2d(img, (kh // 2, kh // 2, kw // 2, kw // 2), mode=border)
    n, c, hp, wp = xp.shape
    h, w = hp - kh + 1, wp - kw + 1
    win = sliding_window_view(xp.data, (kh, kw), axis=(2, 3)).reshape(n, c, h, w, kh * kw)
    order = np.argsort(win, axis=-1, kind="stable")
    sel = order[..., (kh * kw) // 2]  # offset of the median inside the window
    out = np.take_along_axis(win, sel[..., None], axis=-1)[..., 0]

    def vjp(g):
        oy, ox = np.divmod(sel, kw)
        yy = np.arange(h)[:, None] + oy  # absolute row in the padded image
        xx = np.arange(w)[None, :] + ox
        flat = (
            (np.arange(n)[:, None, None, None] * c + np.arange(c)[None, :, None, None])
            * (hp * wp)
            + yy * wp
            + xx
        )
        buf = np.bincount(flat.ravel(), weights=g.ravel(), minlength=n * c * hp * wp)
        return (buf.reshape(n, c, hp, wp).astype(g.dtype, copy=False),)

    return _record(out, (xp,), vjp)


def spatial_gradient(img, mode: str = "sobel", normalized: bool = True) -> Var:
    """First-order image derivatives, stacked as NxCx2xHxW (dx, dy).

    sobel uses the 3x3 Sobel stencils (divided by 8 when normalized so a
    unit ramp reads 1); diff uses central differences, the 1x3 stencil
    [-0.5, 0, 0.5] and its transpose.
    """
    img = as_var(img)
    _require_4d(img, "spatial_gradient")
    if mode == "sobel":
        kx = SOBEL_X / 8.0 if normalized else SOBEL_X
    elif mode == "diff":
        kx = DIFF_X
    else:
        raise ParameterError(f"unknown gradient mode {mode!r} (want sobel|diff)")
    dx = conv2d(img, kx, border="reflect")
    dy = conv2d(img, kx.T, border="reflect")
    return stack([dx, dy], axis=2)


def sobel_edges(img) -> Var:
    """Normalized Sobel gradient magnitude sqrt(dx^2 + dy^2 + eps)."""
    grad = spatial_gradient(img, mode="sobel", normalized=True)
    dx = grad[:, :, 0]
    dy = grad[:, :, 1]
    return sqrt(dx * dx + dy * dy + _EDGE_EPS)


def laplacian(img, size: int = 3) -> Var:
    """3x3 Laplacian (the only supported size)."""
    if size != 3:
        raise ParameterError(f"laplacian supports size 3 only, got {size}")
    img = as_var(img)
    _require_4d(img, "laplacian")
    return conv2d(img, LAPLACIAN_3, border="reflect")


def pyramid_down(img) -> Var:
    """One Gaussian pyramid step: 5x5 blur (sigma 1) then 2x subsampling."""
    img = as_var(img)
    _require_4d(img, "pyramid_down")
    return gaussian_blur2d(img, (5, 5), (1.0, 1.0))[:, :, ::2, ::2]


def gaussian_pyramid(img, levels: int) -> list:
    """levels images, finest first; each is half the previous size."""
    if levels < 1:
        raise ParameterError(f"levels must be >= 1, got {levels}")
    img = as_var(img)
    out = [img]
    for _ in range(levels - 1):
        if min(out[-1].shape[2], out[-1].shape[3]) < 8:
            break
        out.append(pyramid_down(out[-1]))
    return out
