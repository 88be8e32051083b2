"""Targeted adversarial attack on wide-baseline feature matching.

Given a NON-matching image pair and a target homography H (mapping image-b
pixels into image a), both images' pixels are optimized so that the
detect/describe/match pipeline reports matches consistent with H.  The total
objective is

    L = L_loc + alpha * L_desc + beta * L_reg

with L_loc the mean squared distance between paired keypoint positions and
H-reprojected counterparts, L_desc the in-batch triplet form
mean(1 + d(D1,D2) - d(D1,D2neg)), and L_reg the mean squared perturbation.

Detection is refreshed every `refresh_every` iterations: integer keypoint
locations, the pair assignment, orientations, and hard-negative indices are
constants between refreshes, while subpixel offsets (quadratic fits on the
response maps) and descriptors are recomputed differentiably every step.
At a refresh, `features.describe` on the detached pyramid gives the
negative-mining descriptors and writes the dominant orientations onto the
snapshot keypoints; the gradient pass reads them back as frozen constants.
Both walk the pyramid levels through the same `features._per_level`, and
describe each level with one `features._level_histograms` node.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..color import rgb_to_grayscale
from ..errors import EstimationError, NoConsensusError, OptimizationError
from ..features import (
    _descriptors,
    _in_keypoint_order,
    _level_histograms,
    _per_level,
    describe,
    detect,
    detect_and_describe,
    hessian_pyramid,
    match_mnn,
    ransac_homography,
    refine_positions,
)
from ..geometry.linalg import transform_points
from ..imgio import save_image
from ..tape import Var, as_var, backward, mean, sqrt, stack
from ..tensor import _frozen, as_array
from .config import RunConfig, make_optimizer, write_trace_csv

_PAIR_RADIUS = 16.0  # px: only keypoint pairs this close after reprojection
_MIN_PAIRS = 8


@dataclass
class AttackResult:
    img_a: Var  # constant
    img_b: Var  # constant
    trace: list = field(default_factory=list)  # (iteration, 0, loss)
    match_trace: list = field(default_factory=list)  # (iteration, mutual, consistent)
    pre_count: int = 0
    post_count: int = 0


def _to_gray(img) -> Var:
    v = as_var(img)
    if v.ndim != 4:
        raise EstimationError(f"attack expects NCHW images, got {v.shape}")
    if v.shape[1] == 3:
        v = rgb_to_grayscale(v)
    return v


def count_target_consistent_matches(img_a, img_b, h_target, config: RunConfig) -> tuple:
    """(mutual matches, matches surviving RANSAC and consistent with H).

    Consistency: the match is a RANSAC inlier AND lies within the RANSAC
    threshold of the H_target reprojection |H p_b - p_a|.
    """
    h_target = as_array(h_target, np.float64)
    kps_a, desc_a = detect_and_describe(_to_gray(img_a).detach(), config.max_keypoints)
    kps_b, desc_b = detect_and_describe(_to_gray(img_b).detach(), config.max_keypoints)
    if not kps_a or not kps_b:
        return 0, 0
    matches = match_mnn(as_array(desc_a), as_array(desc_b))
    if len(matches) < 4:
        return len(matches), 0
    pts_a = np.array([[kps_a[m.ia].x, kps_a[m.ia].y] for m in matches])
    pts_b = np.array([[kps_b[m.ib].x, kps_b[m.ib].y] for m in matches])
    try:
        _, inliers = ransac_homography(
            pts_b,
            pts_a,
            threshold=config.ransac_threshold,
            max_iters=config.ransac_iters,
            seed=config.seed,
        )
    except (EstimationError, NoConsensusError):
        return len(matches), 0
    proj = transform_points(h_target, pts_b).data
    near_target = np.linalg.norm(proj - pts_a, axis=1) < config.ransac_threshold
    return len(matches), int((inliers & near_target).sum())


def _snapshot(pyramid: list, config: RunConfig) -> list:
    kps = detect(pyramid[0].image, max_keypoints=config.max_keypoints, pyramid=pyramid)
    if not kps:
        raise EstimationError("no keypoints detected; cannot attack this image")
    return kps


def _forward(pyramid: list, keypoints: list):
    """Differentiable positions (M,2) at full resolution and descriptors
    (M,128) for snapshot keypoints against the current image's pyramid.

    Positions are quadratic fits at the rounded snapshot locations;
    descriptors use the snapshot's subpixel centers and frozen orientations.
    """
    pos_parts, hists, degenerate, order = [], [], [], []
    for level, idx, xs, ys in _per_level(pyramid, keypoints):
        px, py = refine_positions(level.response, np.rint(ys), np.rint(xs), clamp=False)
        pos_parts.append(stack([px, py], axis=1) * float(level.scale))
        thetas = np.array([keypoints[i].orientation for i in idx])
        hist, _, flags = _level_histograms(level.image, xs, ys, thetas)
        hists.append(hist)
        degenerate.append(flags)
        order.append(idx)
    return _in_keypoint_order(pos_parts, order), _descriptors(hists, degenerate, order)


def _assign_pairs(kps_a: list, kps_b: list, h_target: np.ndarray):
    """For each a-keypoint, the closest H-reprojected b-keypoint.

    Pairs beyond _PAIR_RADIUS are dropped (far pairs cannot converge and
    would dominate L_loc); if too few remain, the closest _MIN_PAIRS stay.
    """
    pa = np.array([[k.x, k.y] for k in kps_a])
    pb = np.array([[k.x, k.y] for k in kps_b])
    proj = transform_points(h_target, pb).data
    d2 = ((pa[:, None, :] - proj[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)
    dist = np.sqrt(d2[np.arange(len(pa)), nearest])
    keep = dist < _PAIR_RADIUS
    if keep.sum() < min(_MIN_PAIRS, len(pa)):
        keep = np.zeros(len(pa), dtype=bool)
        keep[np.argsort(dist)[: min(_MIN_PAIRS, len(pa))]] = True
    ia = np.flatnonzero(keep)
    ib = nearest[ia]
    return ia, ib


def _hard_negatives(desc_a: np.ndarray, desc_b: np.ndarray, ia, ib) -> np.ndarray:
    """Hardest in-batch negative: the non-matching b-descriptor closest to
    each paired a-descriptor."""
    d2 = (
        (desc_a[ia] * desc_a[ia]).sum(1)[:, None]
        + (desc_b * desc_b).sum(1)[None, :]
        - 2.0 * desc_a[ia] @ desc_b.T
    )
    d2[np.arange(len(ia)), ib] = np.inf
    return d2.argmin(axis=1)


def _l2_rows(x: Var, y: Var) -> Var:
    d = x - y
    return sqrt((d * d).sum(axis=1) + 1e-12)


def attack(img_a, img_b, h_target, config: RunConfig | None = None) -> AttackResult:
    """Optimize both images so the matcher reports H-consistent matches.

    h_target maps image-b pixel coordinates into image a.  Images are
    processed in grayscale ([0,1]); pixels are clamped back into [0,1] after
    every step of config.optimizer.  Returns the perturbed pair plus loss and
    match traces.
    """
    config = config or RunConfig(levels=3, iters=300, lr=3e-3, alpha=1.0, beta=10.0)
    h_target = as_array(h_target, np.float64)
    base_a = _to_gray(img_a).detach()
    base_b = _to_gray(img_b).detach()
    va = Var(base_a, requires_grad=True)
    vb = Var(base_b, requires_grad=True)
    opt = make_optimizer(config, [va, vb])
    levels = min(config.levels, 3)

    result = AttackResult(img_a=va.detach(), img_b=vb.detach())
    result.pre_count = count_target_consistent_matches(va, vb, h_target, config)[1]
    kps_a = kps_b = None
    ia = ib = ineg = None
    out_dir = config.ensure_out_dir()

    for it in range(config.iters):
        if it % config.refresh_every == 0:
            # one detached pyramid per image serves detection and the negative-mining
            # pass; describe freezes the orientations on the snapshot keypoints
            pyr_a = hessian_pyramid(va.detach(), levels)
            pyr_b = hessian_pyramid(vb.detach(), levels)
            kps_a = _snapshot(pyr_a, config)
            kps_b = _snapshot(pyr_b, config)
            ia, ib = _assign_pairs(kps_a, kps_b, h_target)
            desc_a0 = describe(pyr_a[0].image, kps_a, pyramid=pyr_a)
            desc_b0 = describe(pyr_b[0].image, kps_b, pyramid=pyr_b)
            ineg = _hard_negatives(desc_a0.data, desc_b0.data, ia, ib)
            if (it // config.refresh_every) % 3 == 0:
                mutual, consistent = count_target_consistent_matches(va, vb, h_target, config)
                result.match_trace.append((it, mutual, consistent))

        pos_a, desc_a = _forward(hessian_pyramid(va, levels), kps_a)
        pos_b, desc_b = _forward(hessian_pyramid(vb, levels), kps_b)
        p1 = pos_a[ia]
        p2 = transform_points(h_target, pos_b[ib])
        diff = p1 - p2
        l_loc = mean((diff * diff).sum(axis=1))
        d_pos = _l2_rows(desc_a[ia], desc_b[ib])
        d_neg = _l2_rows(desc_a[ia], desc_b[ineg])
        l_desc = mean(1.0 + d_pos - d_neg)
        da = va - base_a
        db = vb - base_b
        l_reg = mean(da * da) + mean(db * db)
        loss = l_loc + config.alpha * l_desc + config.beta * l_reg
        lv = float(loss.data)
        if not np.isfinite(lv):
            raise OptimizationError(f"attack diverged at iteration {it} (loss={lv})")
        result.trace.append((it, 0, lv))
        grads = backward(loss)
        opt.step(grads)
        va.data = _frozen(np.clip(va.data, 0.0, 1.0))
        vb.data = _frozen(np.clip(vb.data, 0.0, 1.0))

    result.img_a = va.detach()
    result.img_b = vb.detach()
    mutual, consistent = count_target_consistent_matches(va, vb, h_target, config)
    result.match_trace.append((config.iters, mutual, consistent))
    result.post_count = consistent
    if out_dir:
        save_image(os.path.join(out_dir, "attacked_a.pgm"), result.img_a)
        save_image(os.path.join(out_dir, "attacked_b.pgm"), result.img_b)
        write_trace_csv(os.path.join(out_dir, "trace.csv"), result.trace)
        with open(os.path.join(out_dir, "match_trace.csv"), "w") as fh:
            fh.write("iteration,mutual,consistent\n")
            for row in result.match_trace:
                fh.write(f"{row[0]},{row[1]},{row[2]}\n")
    return result
