"""Multi-view depth estimation by gradient descent.

The reference view's depth map is optimized directly (SGD with momentum)
against a photometric + smoothness objective: every other calibrated view is
warped into the reference frame through the current depth, and the SSIM/L1
blend plus edge-aware smoothness is minimized.  Depth is parameterized at a
coarse resolution first and bilinearly upsampled to full size for the loss;
each level's solution seeds the next, finer level.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..errors import OptimizationError, ParameterError, ShapeError
from ..geometry.camera import PinholeCamera
from ..geometry.depth import depth_warp
from ..imgio import save_image
from ..kernels import upsample_bilinear
from ..losses import multiview_photo_loss
from ..tape import Var, as_var, backward, maximum
from ..tensor import Tensor
from .config import RunConfig, make_optimizer, write_trace_csv

_DEPTH_FLOOR = 1e-3


@dataclass
class DepthResult:
    depth: Tensor  # (1,1,H,W) metric depth in the reference view
    trace: list = field(default_factory=list)  # (iteration, level, loss)
    initial_loss: float = 0.0
    final_loss: float = 0.0
    warped: list = field(default_factory=list)  # final warped sources


def _check_views(views) -> tuple:
    if len(views) < 2:
        raise ParameterError(f"depth estimation needs >= 2 views, got {len(views)}")
    imgs, cams = [], []
    shape = None
    for img, cam in views:
        v = as_var(img)
        if v.ndim != 4 or v.shape[0] != 1:
            raise ShapeError(f"views must be 1xCxHxW, got {v.shape}")
        if shape is None:
            shape = v.shape
        elif v.shape != shape:
            raise ShapeError(f"view shapes differ: {v.shape} vs {shape}")
        if not isinstance(cam, PinholeCamera):
            raise ParameterError("each view needs a PinholeCamera")
        imgs.append(v.detach())
        cams.append(cam)
    return imgs, cams


def estimate_depth(views, config: RunConfig | None = None, ref_index: int = 0) -> DepthResult:
    """Estimate the reference view's depth from >= 2 calibrated views.

    views: [(image 1xCxHxW, PinholeCamera), ...]; views[ref_index] is the
    reference.  Identical camera poses make the warp depth-independent; that
    degenerate setup is reported as a warning in the result trace semantics
    (the optimization still runs but cannot constrain depth).
    """
    config = config or RunConfig(levels=7, iters=500, lr=15.0, optimizer="sgd_momentum")
    imgs, cams = _check_views(views)
    ref_img = imgs[ref_index]
    ref_cam = cams[ref_index]
    src = [(imgs[i], cams[i]) for i in range(len(imgs)) if i != ref_index]
    _, _, h_full, w_full = ref_img.shape

    degenerate = all(
        np.abs(cam.extrinsics - ref_cam.extrinsics).max() < 1e-12 for _, cam in src
    )
    if degenerate:
        import warnings

        warnings.warn(
            "all views share the reference pose: the photometric loss is "
            "independent of depth",
            RuntimeWarning,
            stacklevel=2,
        )

    rng = np.random.default_rng(config.seed)
    sizes = []
    for lvl in range(config.levels - 1, -1, -1):
        sizes.append((max(2, h_full >> lvl), max(2, w_full >> lvl)))
    # init uniform in (0,1] at the coarsest resolution
    init = 1.0 - rng.random((1, 1) + sizes[0])
    depth_param = Var(init, requires_grad=True)

    result = DepthResult(depth=Tensor(init))
    out_dir = config.ensure_out_dir()
    step = 0
    for level_idx, size in enumerate(sizes):
        if depth_param.shape[2:] != size:
            depth_param = Var(
                upsample_bilinear(depth_param.detach(), size).data, requires_grad=True
            )
        opt = make_optimizer(config, [depth_param])
        warped_views = []
        for _ in range(config.iters):
            d_full = upsample_bilinear(maximum(depth_param, _DEPTH_FLOOR), (h_full, w_full))
            loss = None
            warped_views = []
            for src_img, src_cam in src:
                warped = depth_warp(src_img, d_full, src_cam, ref_cam)
                term = multiview_photo_loss(
                    ref_img, warped, src_img, d_full, alpha=config.alpha, lam=config.lam
                )
                loss = term if loss is None else loss + term
                warped_views.append(warped.value)
            loss = loss * (1.0 / len(src))
            lv = float(loss.data)
            if not np.isfinite(lv):
                raise OptimizationError(f"depth optimization diverged (loss={lv})")
            if step == 0:
                result.initial_loss = lv
            result.trace.append((step, level_idx, lv))
            step += 1
            grads = backward(loss)
            opt.step(grads)
        if out_dir:
            for vi, wv in enumerate(warped_views):
                save_image(os.path.join(out_dir, f"warped_l{level_idx}_v{vi}.ppm"), wv)
            err = np.abs(warped_views[0].data - ref_img.data).mean(axis=1)[0]
            save_image(os.path.join(out_dir, f"error_l{level_idx}.pgm"), np.clip(err, 0, 1))

    result.final_loss = result.trace[-1][2]
    result.depth = Tensor(np.maximum(depth_param.data, _DEPTH_FLOOR))
    result.warped = []
    d_full = upsample_bilinear(Var(result.depth), (h_full, w_full))
    for src_img, src_cam in src:
        result.warped.append(depth_warp(src_img, d_full, src_cam, ref_cam).value)
    if out_dir:
        write_trace_csv(os.path.join(out_dir, "trace.csv"), result.trace)
        dmax = result.depth.data.max()
        save_image(
            os.path.join(out_dir, "depth.pgm"), result.depth.data[0, 0] / dmax, maxval=65535
        )
    return result
