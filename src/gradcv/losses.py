"""Differentiable vision losses.

Reductions are means unless stated (total variation is a sum, matching its
usual definition).  All losses return scalar Vars; every loss is zero on
identical inputs except PSNR, which is a larger-is-better metric returning a
+inf sentinel at zero MSE.

Maps that depend only on a constant operand are computed on its first use
and kept on its Var (`tape._memo`, recomputed if ``data`` is rebound): the
blurred mean and second moment of a constant SSIM operand, such as the depth
demo's reference view, and the edge weights exp(-|d I|) of a constant
smoothness image.  A tracked operand's maps are computed on every call.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError
from .filters import gaussian_blur2d, gaussian_kernel1d, sobel_edges
from .kernels import _conv_input_vjp, _require_4d
from .tape import Var, _memo, _record, abs_, as_var, exp, log, maximum, mean, pow_, sum_, where
from .tensor import as_array

_EPS = 1e-6
_LOG_FLOOR = 1e-12


def _check_same_shape(x: Var, y: Var, who: str) -> None:
    if x.shape != y.shape:
        raise ShapeError(f"{who}: shape mismatch {x.shape} vs {y.shape}")


def _blurred(maps: list, window: int) -> list:
    """SSIM's windowed means (Gaussian, sigma 1.5) of equal-shape maps, blurred as one stack."""
    stats = gaussian_blur2d(Var._wrap(np.concatenate(maps, axis=1)), (window, window), (1.5, 1.5)).data
    return np.split(stats, len(maps), axis=1)


def _kept_moments(v: Var, a: np.ndarray, window: int) -> tuple:
    """(mu, E[v^2]) of a constant operand v with data a, blurred on first use and kept on v."""
    return _memo(v, ("ssim", window, a.dtype), lambda: tuple(_blurred([a, a * a], window)))


def ssim(x, y, window: int = 11, max_val: float = 1.0) -> Var:
    """Per-pixel SSIM map in [-1,1] (Gaussian window, sigma 1.5), as one tape node.

    Windowed statistics use the reflect border, so the map has full image
    size.  C1=(0.01*max_val)^2, C2=(0.03*max_val)^2.  The forward blurs xy and
    each tracked operand's v and v^2 in one stacked gaussian_blur2d G = My . Mx^T,
    products with cached border-folded axis operators at every size; a constant
    operand's mu and E[v^2] are blurred once and kept on its Var.  With S = A1 A2 / (B1 B2) as in
    Wang et al. 2004 (Image Quality Assessment: From Error Visibility to
    Structural Similarity), the vjp takes the closed-form maps
    a_y = dS/dmu_y = 2 (mu_x (A2 - A1) - mu_y S (B2 - B1)) / (B1 B2),
    b = dS/dE[y^2] = -S / B2 and c = dS/dE[xy] = 2 A1 / (B1 B2), times the
    upstream gradient, through one stacked adjoint blur G^T = My^T . Mx:
    grad_y = G^T a_y + 2 y G^T b + x G^T c, and grad_x mirrors it if x is tracked.
    """
    x, y = as_var(x), as_var(y)
    _check_same_shape(x, y, "ssim")
    _require_4d(x, "ssim")
    if max_val <= 0:
        raise ParameterError(f"max_val must be > 0, got {max_val}")
    if window < 1 or window % 2 == 0:
        raise ParameterError(f"window must be odd and positive, got {window}")
    c1, c2 = (0.01 * max_val) ** 2, (0.03 * max_val) ** 2
    dt = np.result_type(x.dtype, y.dtype)
    xa, ya = x.data.astype(dt, copy=False), y.data.astype(dt, copy=False)
    tracked = [a for v, a in ((x, xa), (y, ya)) if v.requires_grad]
    fresh = _blurred([m for a in tracked for m in (a, a * a)] + [xa * ya], window)
    e_xy = fresh.pop()
    mu_x, e_xx = fresh[:2] if x.requires_grad else _kept_moments(x, xa, window)
    mu_y, e_yy = fresh[-2:] if y.requires_grad else _kept_moments(y, ya, window)
    a1 = 2.0 * mu_x * mu_y + c1
    a2 = 2.0 * (e_xy - mu_x * mu_y) + c2
    b1 = mu_x * mu_x + mu_y * mu_y + c1
    b2 = (e_xx - mu_x * mu_x) + (e_yy - mu_y * mu_y) + c2
    den = b1 * b2
    out = a1 * a2 / den
    need_x, need_y = x.requires_grad, y.requires_grad
    k = gaussian_kernel1d(window, 1.5).data.astype(dt)[None]  # (1,1,window)

    def vjp(g):
        gd = g / den
        da, db = 2.0 * gd * (a2 - a1), 2.0 * gd * out * (b2 - b1)
        maps = [-g * out / b2, 2.0 * gd * a1]  # the E[v^2] map (x and y alike), the E[xy] map
        if need_x:
            maps.append(mu_y * da - mu_x * db)
        if need_y:
            maps.append(mu_x * da - mu_y * db)
        adj = _conv_input_vjp(np.concatenate(maps, axis=1), k, "reflect")  # G^T: both passes
        gb, gc, *g_mu = np.split(_conv_input_vjp(adj, k.transpose(0, 2, 1), "reflect"), len(maps), axis=1)
        gx = g_mu[0] + 2.0 * xa * gb + ya * gc if need_x else None
        gy = g_mu[-1] + 2.0 * ya * gb + xa * gc if need_y else None
        return gx, gy

    return _record(out, (x, y), vjp)


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

    def weights():  # exp(-|d img|_1) per axis, kept on a constant img
        idx = sum_(abs_(img[:, :, :, 1:] - img[:, :, :, :-1]), axis=1, keepdims=True)
        idy = sum_(abs_(img[:, :, 1:, :] - img[:, :, :-1, :]), axis=1, keepdims=True)
        return exp(-idx), exp(-idy)

    wx, wy = _memo(img, "smoothness", weights)
    return mean(ddx * wx) + mean(ddy * wy)


def multiview_photo_loss(i_ref, i_warped, img, depth, alpha: float = 0.85, lam: float = 0.1) -> Var:
    """Photometric + smoothness objective for depth estimation.

    alpha * mean((1-SSIM)/2) + (1-alpha) * mean|I_ref - I_warped|
    + lam * smoothness(depth, img), with img the view the depth belongs to,
    whose edges relax the smoothness (Godard et al. 2017).
    """
    i_ref, i_warped = as_var(i_ref), as_var(i_warped)
    _check_same_shape(i_ref, i_warped, "multiview_photo_loss")
    photo1 = ssim_loss(i_ref, i_warped)
    photo2 = mean(abs_(i_ref - i_warped))
    return alpha * photo1 + (1.0 - alpha) * photo2 + lam * smoothness_loss(depth, img)
