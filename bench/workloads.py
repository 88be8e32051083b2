"""The benchmark's three seeded workloads.

Each ``build_*`` imports gradcv afresh (the caller may have re-imported it),
makes the inputs from the seed, and returns a ``Case``: ``run`` performs one
operation and ``check`` judges its result.  Only the generated inputs reach
gradcv; the seed itself never does.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Case:
    run: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (ok, detail)


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], Case]
    step_hook: tuple  # (module, attribute) whose calls mark optimisation steps
    step_mode: str  # "returns": between consecutive returns; "calls": entry to return


def _corner_error(h_est, h_true, height: int, width: int) -> float:
    """Largest distance between the image corners mapped by each homography."""
    corners = np.array([[0, 0, 1], [width - 1, 0, 1], [0, height - 1, 1],
                        [width - 1, height - 1, 1]], dtype=np.float64).T
    a = h_est @ corners
    b = h_true @ corners
    return float(np.linalg.norm(a[:2] / a[2] - b[:2] / b[2], axis=0).max())


def build_register(seed: int) -> Case:
    from gradcv import demos
    from gradcv.demos import RunConfig, synthetic

    h_true = synthetic.rotation_translation_h(128, 128, 3.0, 4.0, -3.0)
    src, dst = synthetic.warped_pair(128, 128, h_true, seed=seed)
    config = RunConfig(levels=3, iters=50, lr=2e-3)

    def check(res):
        err = _corner_error(res.homography, h_true, 128, 128)
        return err < 0.5, f"corner error {err:.4f} px"

    # called through the package so the tracer sees the demo's entry point
    return Case(lambda: demos.register(src, dst, config), check)


def build_depth(seed: int) -> Case:
    from gradcv import demos
    from gradcv.demos import RunConfig, synthetic

    views, _ = synthetic.plane_scene(60, 80, depth=2.0, baselines=(-0.1, 0.1),
                                     focal=80.0, seed=seed)
    config = RunConfig(levels=3, iters=30, lr=15.0, optimizer="sgd_momentum")

    def check(res):
        losses = np.array([row[2] for row in res.trace])
        ok = (bool(np.isfinite(losses).all()) and bool((res.depth.data > 0).all())
              and res.final_loss <= 0.8 * res.initial_loss)
        return ok, f"loss {res.initial_loss:.4f} -> {res.final_loss:.4f}"

    return Case(lambda: demos.estimate_depth(views, config), check)


def build_match(seed: int) -> Case:
    from gradcv import features
    from gradcv.demos import synthetic
    from gradcv.tensor import as_array

    h_true = synthetic.rotation_translation_h(256, 256, 5.0, 6.0, -4.0)
    src, dst = synthetic.warped_pair(256, 256, h_true, seed=seed)

    def run():
        # called through the module so the step hook and the tracer see them
        kps_a, desc_a = features.detect_and_describe(src, 500)
        kps_b, desc_b = features.detect_and_describe(dst, 500)
        matches = features.match_mnn(as_array(desc_a), as_array(desc_b))
        pts_a = np.array([[kps_a[m.ia].x, kps_a[m.ia].y] for m in matches])
        pts_b = np.array([[kps_b[m.ib].x, kps_b[m.ib].y] for m in matches])
        h_est, inliers = features.ransac_homography(pts_a, pts_b, threshold=2.0,
                                                    max_iters=2000)
        return h_est, inliers

    def check(res):
        h_est, inliers = res
        err = _corner_error(h_est, h_true, 256, 256)
        frac = inliers.sum() / len(inliers)
        return err < 1.0 and frac >= 0.5, (
            f"corner error {err:.4f} px, inliers {int(inliers.sum())}/{len(inliers)}")

    return Case(run, check)


_BACKWARD = ("gradcv.tape", "backward")

WORKLOADS = {
    "register": Workload(build_register, _BACKWARD, "returns"),
    "depth": Workload(build_depth, _BACKWARD, "returns"),
    "match": Workload(build_match, ("gradcv.features", "detect_and_describe"), "calls"),
}
