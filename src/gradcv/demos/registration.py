"""Image registration by gradient descent on a homography.

Coarse-to-fine photometric alignment: at each pyramid level the mean-L1
error between the warped source and the target is minimized with Adam over
the 8 free entries of a homography expressed in normalized [-1,1]
coordinates (H[2,2] = 1).  The normalized frame is resolution independent,
so the same parameters transfer across levels without rescaling.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..errors import OptimizationError, ShapeError
from ..filters import gaussian_pyramid
from ..geometry.linalg import inverse_transform
from ..geometry.transforms import denormalize_homography, homography_warp
from ..imgio import save_image
from ..tape import Var, as_var, backward, concat, mean
from .config import RunConfig, make_optimizer, write_trace_csv


@dataclass
class RegistrationResult:
    homography: np.ndarray  # pixel coords, maps src points to dst points
    trace: list = field(default_factory=list)  # (iteration, level, loss)
    warped: list = field(default_factory=list)  # level-end warped source, coarse->fine
    final_loss: float = 0.0


def register(img_src, img_dst, config: RunConfig | None = None) -> RegistrationResult:
    """Estimate the homography aligning img_src onto img_dst.

    Both images are NCHW with matching shapes (grayscale or RGB).  Returns
    the pixel-coordinate homography H with warp_perspective(src, H) ~ dst.
    Raises EstimationError when the final map is singular.
    """
    config = config or RunConfig(levels=4, iters=200, lr=1e-3)
    src = as_var(img_src)
    dst = as_var(img_dst)
    if src.shape != dst.shape:
        raise ShapeError(f"image pair must share a shape: {src.shape} vs {dst.shape}")
    if src.ndim != 4:
        raise ShapeError(f"register expects NCHW images, got {src.shape}")
    h_img, w_img = src.shape[2:]

    pyr_src = gaussian_pyramid(src.detach(), config.levels)
    pyr_dst = gaussian_pyramid(dst.detach(), config.levels)

    # 8 free entries of the dst->src normalized map (inverse warp), row-major;
    # iters=0 evaluates this initial map once, untracked, at full resolution
    params = Var(np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), requires_grad=config.iters > 0)
    one = np.ones(1)

    result = RegistrationResult(homography=np.eye(3))
    out_dir = config.ensure_out_dir()
    step = 0
    for level in range(config.levels - 1, -1, -1) if config.iters else (0,):
        level_src = pyr_src[min(level, len(pyr_src) - 1)]
        level_dst = pyr_dst[min(level, len(pyr_dst) - 1)]
        opt = make_optimizer(config, [params])
        for _ in range(config.iters or 1):
            m = concat([params, one], axis=0).reshape((1, 3, 3))
            warped = homography_warp(level_src, m, inverse_map=True)
            loss = mean(abs(warped - level_dst))
            lv = float(loss.data)
            if not np.isfinite(lv):
                raise OptimizationError(f"registration diverged at level {level} (loss={lv})")
            if config.iters:
                result.trace.append((step, level, lv))
                step += 1
                opt.step(backward(loss))
        result.warped.append(warped.detach())
        result.final_loss = lv
        if out_dir:
            save_image(os.path.join(out_dir, f"warped_level{level}.ppm"), warped)

    m_norm = np.append(params.data, 1.0).reshape(3, 3)  # dst_norm -> src_norm
    h_norm = inverse_transform(m_norm)  # src_norm -> dst_norm
    result.homography = denormalize_homography(h_norm, (h_img, w_img), (h_img, w_img))
    result.homography /= result.homography[2, 2]
    if out_dir:
        write_trace_csv(os.path.join(out_dir, "trace.csv"), result.trace)
        np.savetxt(os.path.join(out_dir, "homography.txt"), result.homography)
    return result
