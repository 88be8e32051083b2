"""Multi-view depth estimation by gradient descent.

The reference view's depth map is optimized directly (SGD with momentum)
against a photometric + smoothness objective: every other calibrated view is
warped into the reference frame through the current depth, and the SSIM/L1
blend plus edge-aware smoothness is minimized.  Depth is parameterized at a
coarse resolution first and bilinearly upsampled to full size for the loss;
each level's solution seeds the next, finer level.

A step is batched: the V source views are stacked once per run, beside the
reference broadcast to (V,C,H,W); one `depth_warp` call warps the stack and
one `multiview_photo_loss` call scores it, averaging the per-view photometric
terms, with one smoothness term weighted by the reference's edges.

A step computes only what changes with the depth.  The constants of a run
are built on the first step and reused: the reference stack and the edge
image are constant Vars, so `losses.ssim` keeps the reference's blurred mean
and second moment on them and `losses.smoothness_loss` its edge weights;
`depth_warp` caches the cameras' rays and offsets; and the coarse-to-full
`upsample_bilinear` is two products with cached interpolation operators.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import OptimizationError, ParameterError, ShapeError
from ..geometry.camera import PinholeCamera
from ..geometry.depth import depth_warp
from ..imgio import save_image
from ..kernels import upsample_bilinear
from ..losses import multiview_photo_loss
from ..tape import Var, as_var, backward, maximum
from .config import RunConfig, make_optimizer, write_trace_csv

_DEPTH_FLOOR = 1e-3


@dataclass
class DepthResult:
    depth: Var  # constant (1,1,H,W) metric depth in the reference view
    trace: list = field(default_factory=list)  # (iteration, level, loss)
    initial_loss: float = 0.0
    final_loss: float = 0.0
    warped: list = field(default_factory=list)  # final warped sources


def _check_views(views) -> tuple:
    """The views' images as one (len(views),C,H,W) array, and their cameras."""
    if len(views) < 2:
        raise ParameterError(f"depth estimation needs >= 2 views, got {len(views)}")
    imgs = [as_var(img).data for img, _ in views]
    for img in imgs:
        if img.ndim != 4 or img.shape[0] != 1:
            raise ShapeError(f"views must be 1xCxHxW, got {img.shape}")
        if img.shape != imgs[0].shape:
            raise ShapeError(f"view shapes differ: {img.shape} vs {imgs[0].shape}")
    cams = [cam for _, cam in views]
    if not all(isinstance(cam, PinholeCamera) for cam in cams):
        raise ParameterError("each view needs a PinholeCamera")
    return np.concatenate(imgs), cams


def estimate_depth(views, config: RunConfig | None = None, ref_index: int = 0) -> DepthResult:
    """Estimate the reference view's depth from >= 2 calibrated views.

    views: [(image 1xCxHxW, PinholeCamera), ...]; views[ref_index] is the
    reference.  When every source view shares the reference pose the warp is
    independent of depth: that setup emits a RuntimeWarning, and the
    optimization still runs but cannot constrain depth.
    """
    config = config or RunConfig(levels=7, iters=500, lr=15.0, optimizer="sgd_momentum")
    imgs, cams = _check_views(views)
    ref_img, ref_cam = imgs[ref_index], cams[ref_index]
    src = [i for i in range(len(cams)) if i != ref_index]
    src_cams = [cams[i] for i in src]
    # the source views as one (V,C,H,W) stack, and the reference broadcast to it
    src_imgs = Var(imgs[src])
    ref_imgs = Var(np.broadcast_to(ref_img, src_imgs.shape))
    ref_edges = Var(ref_img[None])  # the smoothness follows the reference's edges
    h_full, w_full = imgs.shape[2:]

    if all(np.abs(cam.extrinsics - ref_cam.extrinsics).max() < 1e-12 for cam in src_cams):
        warnings.warn("all views share the reference pose: the photometric loss is "
                      "independent of depth", RuntimeWarning, stacklevel=2)

    rng = np.random.default_rng(config.seed)
    sizes = [(max(2, h_full >> lvl), max(2, w_full >> lvl)) for lvl in range(config.levels - 1, -1, -1)]
    if not config.iters:  # evaluate only: the initial depth, once and untracked
        sizes = sizes[:1]
    # init uniform in (0,1] at the coarsest resolution
    init = 1.0 - rng.random((1, 1) + sizes[0])
    depth_param = Var(init, requires_grad=config.iters > 0)

    result = DepthResult(depth=Var(init))
    out_dir = config.ensure_out_dir()
    step = 0
    for level_idx, size in enumerate(sizes):
        if depth_param.shape[2:] != size:
            depth_param = Var(upsample_bilinear(depth_param.detach(), size).data, requires_grad=True)
        opt = make_optimizer(config, [depth_param])
        for _ in range(config.iters or 1):
            d_full = upsample_bilinear(maximum(depth_param, _DEPTH_FLOOR), (h_full, w_full))
            warped = depth_warp(src_imgs, d_full, src_cams, ref_cam)
            loss = multiview_photo_loss(ref_imgs, warped, ref_edges, d_full, config.alpha, config.lam)
            lv = float(loss.data)
            if not np.isfinite(lv):
                raise OptimizationError(f"depth optimization diverged (loss={lv})")
            if step == 0:
                result.initial_loss = lv
            if config.iters:
                result.trace.append((step, level_idx, lv))
                step += 1
                opt.step(backward(loss))
        if out_dir:
            for vi, wv in enumerate(warped.data):
                save_image(os.path.join(out_dir, f"warped_l{level_idx}_v{vi}.ppm"), wv)
            err = np.abs(warped.data[0] - ref_img).mean(axis=0)
            save_image(os.path.join(out_dir, f"error_l{level_idx}.pgm"), np.clip(err, 0, 1))

    result.final_loss = lv
    result.depth = Var(np.maximum(depth_param.data, _DEPTH_FLOOR))
    d_full = upsample_bilinear(result.depth, (h_full, w_full))
    warped = depth_warp(src_imgs, d_full, src_cams, ref_cam)
    result.warped = [warped[v : v + 1] for v in range(warped.shape[0])]
    if out_dir:
        write_trace_csv(os.path.join(out_dir, "trace.csv"), result.trace)
        depth_map = result.depth.data[0, 0]
        save_image(os.path.join(out_dir, "depth.pgm"), depth_map / depth_map.max(), maxval=65535)
    return result
