"""Differentiable vision losses.

Reductions are means unless stated (total variation is a sum, matching its
usual definition).  All losses return scalar Vars; every loss is zero on
identical inputs except PSNR, which is a larger-is-better metric returning a
+inf sentinel at zero MSE.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError
from .filters import gaussian_blur2d, sobel_edges
from .kernels import _require_4d
from .tape import Var, abs_, as_var, concat, exp, log, maximum, mean, pow_, sum_, where
from .tensor import as_array

_EPS = 1e-6
_LOG_FLOOR = 1e-12


def _check_same_shape(x: Var, y: Var, who: str) -> None:
    if x.shape != y.shape:
        raise ShapeError(f"{who}: shape mismatch {x.shape} vs {y.shape}")


def ssim(x, y, window: int = 11, max_val: float = 1.0) -> Var:
    """Per-pixel SSIM map in [-1,1] (Gaussian window, sigma 1.5).

    Windowed statistics use the reflect border, so the map has full image
    size.  C1=(0.01*max_val)^2, C2=(0.03*max_val)^2.
    """
    x, y = as_var(x), as_var(y)
    _check_same_shape(x, y, "ssim")
    _require_4d(x, "ssim")
    if max_val <= 0:
        raise ParameterError(f"max_val must be > 0, got {max_val}")
    if window < 1 or window % 2 == 0:
        raise ParameterError(f"window must be odd and positive, got {window}")
    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2
    # the five windowed statistics share one blur, stacked along channels
    c = x.shape[1]
    stacked = concat([x, y, x * x, y * y, x * y], axis=1)
    stats = gaussian_blur2d(stacked, (window, window), (1.5, 1.5))
    mu_x, mu_y, e_xx, e_yy, e_xy = (stats[:, i * c : (i + 1) * c] for i in range(5))
    var_x = e_xx - mu_x * mu_x
    var_y = e_yy - mu_y * mu_y
    cov = e_xy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return num / den


def ssim_loss(x, y, window: int = 11, max_val: float = 1.0) -> Var:
    """mean((1 - SSIM)/2), in [0,1]."""
    return mean((1.0 - ssim(x, y, window, max_val)) * 0.5)


def psnr(x, y, max_val: float = 1.0) -> Var:
    """10*log10(max_val^2 / MSE) in dB; +inf sentinel when x == y."""
    x, y = as_var(x), as_var(y)
    _check_same_shape(x, y, "psnr")
    if max_val <= 0:
        raise ParameterError(f"max_val must be > 0, got {max_val}")
    diff = x - y
    mse = mean(diff * diff)
    if float(mse.data) == 0.0:
        return Var(np.asarray(np.inf))
    return (10.0 / np.log(10.0)) * log(max_val * max_val / mse)


def total_variation(img) -> Var:
    """Anisotropic TV: sum of absolute forward differences, both axes."""
    img = as_var(img)
    _require_4d(img, "total_variation")
    dx = img[:, :, :, 1:] - img[:, :, :, :-1]
    dy = img[:, :, 1:, :] - img[:, :, :-1, :]
    return abs_(dx).sum() + abs_(dy).sum()


def _one_hot(target: np.ndarray, k: int) -> np.ndarray:
    ids = np.asarray(target)
    if not np.issubdtype(ids.dtype, np.integer):
        ids = ids.astype(np.int64)
    if ids.min() < 0 or ids.max() >= k:
        raise ParameterError(f"target ids must be in [0,{k}), got [{ids.min()},{ids.max()}]")
    oh = np.zeros((ids.shape[0], k) + ids.shape[1:], dtype=np.float64)
    np.put_along_axis(oh, ids[:, None], 1.0, axis=1)
    return oh


def tversky_loss(pred, target, alpha: float = 0.5, beta: float = 0.5) -> Var:
    """1 - mean_k (TP_k + eps) / (TP_k + alpha*FP_k + beta*FN_k + eps).

    pred holds class probabilities (N,K,H,W); target holds class ids (N,H,W).
    """
    pred = as_var(pred)
    _require_4d(pred, "tversky_loss")
    oh = _one_hot(as_array(target), pred.shape[1])
    axes = (0, 2, 3)
    tp = sum_(pred * oh, axis=axes)
    fp = sum_(pred * (1.0 - oh), axis=axes)
    fn = sum_((1.0 - pred) * oh, axis=axes)
    index = (tp + _EPS) / (tp + alpha * fp + beta * fn + _EPS)
    return 1.0 - mean(index)


def dice_loss(pred, target) -> Var:
    """Dice overlap loss: Tversky with alpha = beta = 0.5."""
    return tversky_loss(pred, target, alpha=0.5, beta=0.5)


def _softmax(logits: Var, axis: int) -> Var:
    # subtracting the detached max leaves values and gradients unchanged
    shift = logits - logits.max(axis=axis, keepdims=True).detach()
    e = exp(shift)
    return e / sum_(e, axis=axis, keepdims=True)


def focal_loss(logits, target, gamma: float = 2.0, alpha: float = 1.0) -> Var:
    """mean(-alpha * (1 - p_t)^gamma * log p_t) with p_t from softmax."""
    if gamma < 0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    logits = as_var(logits)
    _require_4d(logits, "focal_loss")
    oh = _one_hot(as_array(target), logits.shape[1])
    p = _softmax(logits, axis=1)
    pt = sum_(p * oh, axis=1)
    pt = maximum(pt, _LOG_FLOOR)
    focal = -alpha * pow_(1.0 - pt, gamma) * log(pt) if gamma > 0 else -alpha * log(pt)
    return mean(focal)


def cross_entropy(logits, target) -> Var:
    """Plain softmax cross-entropy (focal loss with gamma=0, alpha=1)."""
    return focal_loss(logits, target, gamma=0.0, alpha=1.0)


def _check_distribution(p: Var, axis: int, who: str) -> None:
    arr = p.data
    if arr.min() < -1e-9:
        raise ParameterError(f"{who}: probabilities must be nonnegative")
    sums = arr.sum(axis=axis)
    if np.abs(sums - 1.0).max() > _EPS:
        raise ParameterError(f"{who}: distributions must sum to 1 (+-1e-6)")


def kl_div(p, q, axis: int = -1) -> Var:
    """KL(p || q) summed along `axis`, averaged over the rest.

    Uses the 0*log(0/q) = 0 convention; q is floored at 1e-12.
    """
    p, q = as_var(p), as_var(q)
    _check_same_shape(p, q, "kl_div")
    _check_distribution(p, axis, "kl_div")
    _check_distribution(q, axis, "kl_div")
    q = maximum(q, _LOG_FLOOR)
    p_safe = maximum(p, _LOG_FLOOR)
    terms = where(p.data > 0, p * (log(p_safe) - log(q)), 0.0)
    out = sum_(terms, axis=axis)
    return mean(out) if out.size > 1 else out.reshape(())


def js_div(p, q, axis: int = -1) -> Var:
    """Jensen-Shannon divergence: (KL(p||m) + KL(q||m))/2, m = (p+q)/2."""
    p, q = as_var(p), as_var(q)
    m = (p + q) * 0.5
    return 0.5 * kl_div(p, m, axis) + 0.5 * kl_div(q, m, axis)


def edge_aware_recon_loss(x, target, alpha: float = 0.5) -> Var:
    """alpha * mean|I - I'| + (1-alpha) * mean|Sobel(I) - Sobel(I')|."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0,1], got {alpha}")
    x, target = as_var(x), as_var(target)
    _check_same_shape(x, target, "edge_aware_recon_loss")
    l1 = mean(abs_(x - target))
    edges = mean(abs_(sobel_edges(x) - sobel_edges(target)))
    return alpha * l1 + (1.0 - alpha) * edges


def smoothness_loss(depth, img) -> Var:
    """Edge-aware smoothness: mean |d d| * exp(-|d I|_1) per axis.

    Forward differences; the image gradient norm is the L1 norm over
    channels, so strong edges relax the depth-smoothness penalty.
    """
    depth, img = as_var(depth), as_var(img)
    _require_4d(depth, "smoothness_loss")
    _require_4d(img, "smoothness_loss")
    ddx = abs_(depth[:, :, :, 1:] - depth[:, :, :, :-1])
    ddy = abs_(depth[:, :, 1:, :] - depth[:, :, :-1, :])
    idx = sum_(abs_(img[:, :, :, 1:] - img[:, :, :, :-1]), axis=1, keepdims=True)
    idy = sum_(abs_(img[:, :, 1:, :] - img[:, :, :-1, :]), axis=1, keepdims=True)
    return mean(ddx * exp(-idx)) + mean(ddy * exp(-idy))


def multiview_photo_loss(i_ref, i_warped, i_src, depth, alpha: float = 0.85, lam: float = 0.1) -> Var:
    """Photometric + smoothness objective for depth estimation.

    alpha * mean((1-SSIM)/2) + (1-alpha) * mean|I_ref - I_warped|
    + lam * smoothness(depth, I_src).
    """
    i_ref, i_warped = as_var(i_ref), as_var(i_warped)
    _check_same_shape(i_ref, i_warped, "multiview_photo_loss")
    photo1 = ssim_loss(i_ref, i_warped)
    photo2 = mean(abs_(i_ref - i_warped))
    return alpha * photo1 + (1.0 - alpha) * photo2 + lam * smoothness_loss(depth, i_src)
