"""Demo entry points at small scale (full-scale runs live in acceptance)."""
import importlib
import os

import numpy as np
import pytest

import gradcv as g
from gradcv import features
from gradcv.demos import RunConfig, attack, estimate_depth, register, run_bench, synthetic
from gradcv.demos.attack import count_target_consistent_matches
from gradcv.demos.bench import write_bench_csv
from gradcv.demos.config import make_optimizer
from gradcv.geometry import transform_points
from gradcv.optim import Adam, SgdMomentum


def test_config_validation():
    with pytest.raises(g.ParameterError):
        RunConfig(levels=0)
    with pytest.raises(g.ParameterError):
        RunConfig(iters=-1)
    with pytest.raises(g.ParameterError):
        RunConfig(lr=np.inf)
    with pytest.raises(g.ParameterError):
        RunConfig(optimizer="lbfgs")
    assert RunConfig(iters=0).iters == 0  # evaluate-only is allowed


# --- registration ------------------------------------------------------------


def test_register_identical_pair_stays_identity():
    img = synthetic.smooth_texture(48, 48, seed=1)
    res = register(img, img, RunConfig(levels=2, iters=30, lr=1e-3))
    assert res.final_loss < 1e-4
    assert np.abs(res.homography - np.eye(3)).max() < 1e-2


def test_register_recovers_small_translation():
    h_true = np.eye(3)
    h_true[0, 2] = 3.0
    h_true[1, 2] = -2.0
    src, dst = synthetic.warped_pair(64, 64, h_true, seed=2)
    res = register(src, dst, RunConfig(levels=3, iters=120, lr=2e-3))
    corners = np.array([[0.0, 0.0], [63.0, 0.0], [63.0, 63.0], [0.0, 63.0]])
    err = np.linalg.norm(
        transform_points(h_true, corners).data - transform_points(res.homography, corners).data,
        axis=1,
    )
    assert err.max() < 0.5
    losses = [t[2] for t in res.trace]
    assert losses[-1] < losses[0]  # strict end-to-end decrease


def test_register_shape_mismatch():
    a = synthetic.smooth_texture(32, 32, seed=3)
    b = synthetic.smooth_texture(32, 40, seed=4)
    with pytest.raises(g.ShapeError):
        register(a, b)


def test_register_writes_outputs(tmp_path):
    img = synthetic.smooth_texture(32, 32, seed=5)
    out = tmp_path / "reg"
    register(img, img, RunConfig(levels=2, iters=5, lr=1e-3, out_dir=str(out)))
    assert (out / "trace.csv").exists()
    assert (out / "homography.txt").exists()
    assert (out / "warped_level0.ppm").exists()
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "iteration,level,loss"


# --- depth -------------------------------------------------------------------


def test_depth_requires_two_views():
    views, _ = synthetic.plane_scene(height=48, width=64, seed=6)
    with pytest.raises(g.ParameterError):
        estimate_depth(views[:1])


def test_depth_identity_pose_warns():
    views, _ = synthetic.plane_scene(height=48, width=64, baselines=(0.0,), seed=7)
    with pytest.warns(RuntimeWarning):
        estimate_depth(views, RunConfig(levels=1, iters=1, lr=1.0, optimizer="sgd_momentum"))


def test_depth_small_smoke_decreases_loss():
    views, gt = synthetic.plane_scene(height=48, width=64, depth=2.0, baselines=(-0.1, 0.1), focal=64.0, seed=8)
    res = estimate_depth(
        views, RunConfig(levels=3, iters=60, lr=15.0, optimizer="sgd_momentum", seed=1)
    )
    assert res.final_loss < res.initial_loss
    assert np.isfinite([t[2] for t in res.trace]).all()
    assert res.depth.shape == (1, 1, 48, 64)
    assert res.depth.data.min() > 0


def test_depth_writes_outputs(tmp_path):
    views, _ = synthetic.plane_scene(height=40, width=48, seed=9, focal=48.0)
    out = tmp_path / "depth"
    estimate_depth(
        views,
        RunConfig(levels=2, iters=3, lr=10.0, optimizer="sgd_momentum", out_dir=str(out)),
    )
    assert (out / "trace.csv").exists()
    assert (out / "depth.pgm").exists()
    depth_img = g.read_pnm(out / "depth.pgm")
    assert depth_img.max() <= 1.0


# --- attack ------------------------------------------------------------------


def _attack_inputs(seed=10):
    img_a = synthetic.smooth_texture(96, 96, seed=seed, octaves=2)
    img_b = synthetic.smooth_texture(96, 96, seed=seed + 57, octaves=2)
    h = synthetic.rotation_translation_h(96, 96, angle_deg=2.0, tx=4.0, ty=-1.0)
    return img_a, img_b, h


def test_attack_zero_iterations_identity():
    img_a, img_b, h = _attack_inputs()
    res = attack(img_a, img_b, h, RunConfig(iters=0, levels=3, lr=3e-3, max_keypoints=100))
    assert np.array_equal(res.img_a.data, img_a.data)
    assert np.array_equal(res.img_b.data, img_b.data)
    assert res.trace == []


def test_attack_perturbation_penalty_is_quadratic():
    # L_reg = mean(da^2) + mean(db^2): doubling the perturbation quadruples it
    rng = np.random.default_rng(11)
    base = rng.random((1, 1, 8, 8))
    delta = rng.normal(scale=0.01, size=base.shape)

    def l_reg(d):
        return np.mean(d**2) + np.mean((0.5 * d) ** 2)

    assert l_reg(2 * delta) == pytest.approx(4 * l_reg(delta), abs=1e-9)


def test_attack_requires_keypoints():
    flat = g.Tensor(np.full((1, 1, 96, 96), 0.5))
    img_a, img_b, h = _attack_inputs()
    with pytest.raises(g.EstimationError):
        attack(flat, img_b, h, RunConfig(iters=1, levels=3, lr=3e-3))


def test_attack_smoke_runs_and_descends(tmp_path):
    img_a, img_b, h = _attack_inputs(seed=12)
    out = tmp_path / "atk"
    cfg = RunConfig(
        iters=6, levels=3, lr=3e-3, max_keypoints=60, refresh_every=3, out_dir=str(out), seed=0
    )
    res = attack(img_a, img_b, h, cfg)
    losses = [t[2] for t in res.trace]
    assert len(losses) == 6
    assert np.isfinite(losses).all()
    assert losses[-1] < losses[0]
    assert (out / "trace.csv").exists()
    assert (out / "attacked_a.pgm").exists()
    assert (out / "match_trace.csv").exists()
    # pixels stay in range
    assert res.img_a.data.min() >= 0.0 and res.img_a.data.max() <= 1.0


def test_attack_refresh_shares_one_detached_pyramid_per_image(monkeypatch):
    # per image: the pre-attack count, detection plus the negative-mining pass
    # (one shared pyramid), the count at the refresh, the gradient pass and
    # the final count
    attack_module = importlib.import_module("gradcv.demos.attack")
    calls = []
    build = features.hessian_pyramid

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(features, "hessian_pyramid", counting_build)
    monkeypatch.setattr(attack_module, "hessian_pyramid", counting_build)
    img_a, img_b, h = _attack_inputs(seed=12)
    attack(img_a, img_b, h, RunConfig(iters=1, levels=3, lr=3e-3, max_keypoints=60, seed=0))
    assert len(calls) == 10


def test_attack_honours_config_optimizer(monkeypatch):
    steps = []

    def counted(step):
        def wrapper(self, grads):
            steps.append(type(self))
            return step(self, grads)

        return wrapper

    for cls in (Adam, SgdMomentum):
        monkeypatch.setattr(cls, "step", counted(cls.step))
    img_a, img_b, h = _attack_inputs(seed=12)
    cfg = RunConfig(iters=2, levels=3, lr=3e-3, max_keypoints=60, optimizer="sgd_momentum")
    attack(img_a, img_b, h, cfg)
    assert steps == [SgdMomentum] * 2


def test_make_optimizer_follows_config():
    p = g.Var(np.zeros(2), requires_grad=True)
    adam = make_optimizer(RunConfig(lr=0.5), [p])
    sgd = make_optimizer(RunConfig(lr=0.5, optimizer="sgd_momentum", momentum=0.7), [p])
    assert type(adam) is Adam and adam.lr == 0.5
    assert type(sgd) is SgdMomentum and (sgd.lr, sgd.momentum) == (0.5, 0.7)


def test_count_metric_identical_images_identity_h():
    img = synthetic.smooth_texture(96, 96, seed=13, octaves=2)
    cfg = RunConfig(iters=1, max_keypoints=100, ransac_iters=300)
    mutual, consistent = count_target_consistent_matches(img, img, np.eye(3), cfg)
    assert mutual >= 10
    assert consistent >= 0.9 * mutual


# --- bench ---------------------------------------------------------------------


def test_bench_rows_and_csv(tmp_path):
    rows = run_bench("sobel", [2, 1], image_size=32, repeats=3)
    assert [r.batch for r in rows] == [1, 2]  # sorted, one row per batch
    for r in rows:
        assert r.median_ms > 0
        assert r.per_sample_ms == pytest.approx(r.median_ms / r.batch)
    path = tmp_path / "bench.csv"
    write_bench_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "batch,median_ms,per_sample_ms"
    assert len(lines) == 3


def test_bench_validates_inputs():
    with pytest.raises(g.ParameterError):
        run_bench("sobel", [1], repeats=2)
    with pytest.raises(g.ParameterError):
        run_bench("median", [1], repeats=3)
