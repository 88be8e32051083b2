"""Depth-map geometry: per-pixel unprojection, surface normals, and the
calibrated depth warper.

The warper is the planar warps' recipe with a depth-dependent map: a
reference pixel (u, v) with depth d lands on the homogeneous source pixel
d * (K_src R K_ref^-1 [u, v, 1]) + K_src t, with (R, t) the reference ->
source pose.  Both terms are constant per pixel and view, so one call warps
a stack of V views: one multiply by (V,3,P) rays, one add of (V,3,1)
offsets, and one pass of the shared divide-and-sample tail of
`geometry.transforms`.  The rays and offsets are built once per (cameras,
size) and kept read-only in a small cache (`_camera_terms`), so a depth
optimization builds them once per run.  The warp is differentiable w.r.t.
both the reference depth and the source images; pixels that land behind
(z <= 1e-6) or outside the source view sample zero.
"""
from __future__ import annotations

import functools

import numpy as np

from ..errors import ShapeError
from ..tape import Var, as_var, concat, sqrt, where
from ..tensor import _frozen
from .camera import PinholeCamera
from .linalg import inverse_transform, relative_transform
from .transforms import _dehomogenize_and_sample, _pixel_grid

_Z_EPS = 1e-6


def _rays(k: np.ndarray, h: int, w: int) -> np.ndarray:
    """Unit-depth ray directions K^-1 [u, v, 1], (3, H*W), for every pixel center."""
    return inverse_transform(k) @ _pixel_grid(h, w, np.float64)


@functools.lru_cache(maxsize=4)
def _camera_terms(ks: bytes, poses: bytes, h: int, w: int) -> tuple:
    """Read-only (V,3,P) rays K_src R K_ref^-1 [u,v,1] and (V,3,1) offsets K_src t
    of the reference camera and V source cameras, given as the bytes of their
    stacked (1+V,3,3) intrinsics and (1+V,4,4) extrinsics, reference first."""
    k = np.frombuffer(ks).reshape(-1, 3, 3)
    t = np.frombuffer(poses).reshape(-1, 4, 4)
    t_rel = np.stack([relative_transform(t[0], t_src) for t_src in t[1:]])
    rays = k[1:] @ t_rel[:, :3, :3] @ _rays(k[0], h, w)
    return _frozen(rays), _frozen(k[1:] @ t_rel[:, :3, 3:])


def depth_to_3d(depth, cam: PinholeCamera) -> Var:
    """(N,1,H,W) depth -> (N,3,H,W) camera-frame points (zeros stay zero)."""
    depth = as_var(depth)
    if depth.ndim != 4 or depth.shape[1] != 1:
        raise ShapeError(f"depth must be (N,1,H,W), got {depth.shape}")
    _, _, h, w = depth.shape
    return depth * _rays(cam.k, h, w).reshape(1, 3, h, w)


def depth_normals(depth, cam: PinholeCamera) -> Var:
    """Per-pixel unit normals from point-cloud forward differences.

    Normals are oriented toward the camera ((0,0,-1) for a fronto-parallel
    plane); invalid pixels (depth == 0) get zero normals.
    """
    depth = as_var(depth)
    pts = depth_to_3d(depth, cam)

    def fwd_x(t):
        return concat([t[:, :, :, 1:] - t[:, :, :, :-1], t[:, :, :, -1:] * 0.0], axis=3)

    def fwd_y(t):
        return concat([t[:, :, 1:] - t[:, :, :-1], t[:, :, -1:] * 0.0], axis=2)

    tx = fwd_x(pts)
    ty = fwd_y(pts)
    x1, y1, z1 = tx[:, 0:1], tx[:, 1:2], tx[:, 2:3]
    x2, y2, z2 = ty[:, 0:1], ty[:, 1:2], ty[:, 2:3]
    # -(tx x ty): cross points away from the camera for +z-forward frames
    nx = -(y1 * z2 - z1 * y2)
    ny = -(z1 * x2 - x1 * z2)
    nz = -(x1 * y2 - y1 * x2)
    norm = sqrt(nx * nx + ny * ny + nz * nz + 1e-20)
    valid = depth.data > 0
    out = concat([nx, ny, nz], axis=1) / norm
    return where(np.broadcast_to(valid, out.shape), out, 0.0)


def depth_warp(src_img, depth_ref, cam_src, cam_ref: PinholeCamera) -> Var:
    """Warp source views into the reference frame given reference depth.

    cam_src is one camera for an (N,C,H,W) src_img, or V cameras for a (V,C,H,W) stack."""
    src_img = as_var(src_img)
    depth_ref = as_var(depth_ref)
    if src_img.ndim != 4:
        raise ShapeError(f"src_img must be NCHW, got {src_img.shape}")
    if depth_ref.ndim != 4 or depth_ref.shape[1] != 1:
        raise ShapeError(f"depth must be (N,1,H,W), got {depth_ref.shape}")
    cams = [cam_src] if isinstance(cam_src, PinholeCamera) else list(cam_src)
    if len(cams) > 1 and len(cams) != src_img.shape[0]:
        raise ShapeError(f"{len(cams)} source cameras for {src_img.shape[0]} source views")
    n, _, h, w = depth_ref.shape
    ks = np.stack([cam_ref.k, *(c.k for c in cams)])
    poses = np.stack([cam_ref.extrinsics, *(c.extrinsics for c in cams)])
    rays, offset = _camera_terms(ks.tobytes(), poses.tobytes(), h, w)
    p = depth_ref.reshape((n, 1, h * w)) * rays + offset  # (N|V,3,P) homogeneous source pixels
    return _dehomogenize_and_sample(src_img, p, p.data[:, 2:] > _Z_EPS, (h, w))
