"""Synthetic inputs for the demos and their tests: seeded smooth textures,
warped pairs with known ground truth, and calibrated plane scenes."""
from __future__ import annotations

import numpy as np

from ..filters import gaussian_blur2d
from ..geometry import make_camera, warp_perspective
from ..tape import Var


def smooth_texture(height: int, width: int, seed: int = 0, octaves: int = 3) -> Var:
    """Multi-octave blurred noise in [0,1]: textured at several scales, so
    coarse-to-fine photometric optimization has gradients at every level."""
    rng = np.random.default_rng(seed)
    acc = np.zeros((1, 1, height, width))
    amp = 1.0
    for oct_idx in range(octaves):
        sigma = 1.5 * (2**oct_idx)
        k = 2 * int(3 * sigma) + 1
        if k // 2 > min(height, width):  # octave coarser than the image
            break
        noise = rng.random((1, 1, height, width))
        acc += amp * gaussian_blur2d(Var(noise), (k, k), (sigma, sigma)).data
        amp *= 1.6
    acc -= acc.min()
    acc /= acc.max()
    return Var(0.05 + 0.9 * acc)


def warped_pair(height: int, width: int, h_true: np.ndarray, seed: int = 0):
    """(src, dst) where dst = warp_perspective(src, h_true)."""
    src = smooth_texture(height, width, seed)
    dst = warp_perspective(src, h_true)
    return src, dst


def rotation_translation_h(height: int, width: int, angle_deg: float, tx: float, ty: float) -> np.ndarray:
    """Pixel homography rotating about the image center then translating."""
    from ..geometry import get_rotation_matrix2d

    m = get_rotation_matrix2d(((width - 1) / 2.0, (height - 1) / 2.0), angle_deg, 1.0)
    h = np.eye(3)
    h[:2, :] = m
    h[0, 2] += tx
    h[1, 2] += ty
    return h


def plane_scene(
    height: int = 120,
    width: int = 160,
    depth: float = 2.0,
    baselines=(-0.12, 0.12),
    focal: float = 160.0,
    seed: int = 0,
):
    """Fronto-parallel textured plane at constant depth seen by one reference
    camera at the origin plus one camera per baseline (x-translation).

    Returns (views, gt_depth): views is [(image, camera), ...] with the
    reference first.  Source images are rendered by shifting the reference
    texture by the exact disparity fx*b/Z, so the reference view's
    ground-truth depth is the constant plane depth.
    """
    tex = smooth_texture(height, width, seed).numpy()
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    cam_ref = make_camera(focal, focal, cx, cy, np.eye(4), size=(height, width))
    views = [(Var(tex), cam_ref)]
    for b in baselines:
        t = np.eye(4)
        t[0, 3] = -b  # camera center at +b along x
        cam = make_camera(focal, focal, cx, cy, t, size=(height, width))
        # a plane at constant Z shifts by exactly fx*b/Z pixels between views
        shift = focal * b / depth
        h = np.eye(3)
        h[0, 2] = -shift
        img = warp_perspective(views[0][0], h)
        views.append((img, cam))
    gt = Var(np.full((1, 1, height, width), depth))
    return views, gt
