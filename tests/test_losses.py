"""Losses against naive windowed/counting oracles and hand values."""
import numpy as np
import pytest

import gradcv as g
from gradcv import losses
from gradcv.testing import gradcheck


def gaussian2d(window, sigma=1.5):
    x = np.arange(window) - window // 2
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k /= k.sum()
    return np.outer(k, k)


def ssim_oracle(x, y, window=5, max_val=1.0):
    """Direct per-window weighted statistics (single channel image pair)."""
    c1, c2 = (0.01 * max_val) ** 2, (0.03 * max_val) ** 2
    w = gaussian2d(window)
    r = window // 2
    xp = np.pad(x, r, mode="symmetric")
    yp = np.pad(y, r, mode="symmetric")
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            wx = xp[i : i + window, j : j + window]
            wy = yp[i : i + window, j : j + window]
            mx, my = (w * wx).sum(), (w * wy).sum()
            vx = (w * wx * wx).sum() - mx * mx
            vy = (w * wy * wy).sum() - my * my
            cov = (w * wx * wy).sum() - mx * my
            out[i, j] = ((2 * mx * my + c1) * (2 * cov + c2)) / (
                (mx * mx + my * my + c1) * (vx + vy + c2)
            )
    return out


# --- ssim --------------------------------------------------------------------


def test_ssim_self_is_one():
    x = g.Var(np.random.default_rng(0).random((1, 2, 9, 9)))
    m = losses.ssim(x, x)
    assert np.abs(m.data - 1.0).max() < 1e-9
    assert losses.ssim_loss(x, x).item() == pytest.approx(0.0, abs=1e-9)


def test_ssim_inverted_checkerboard_negative():
    base = np.indices((12, 12)).sum(axis=0) % 2
    x = base[None, None].astype(np.float64)
    m = losses.ssim(g.Var(x), g.Var(1.0 - x)).data
    assert m.mean() < 0.0


@pytest.mark.parametrize("seed", range(100))
def test_ssim_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    x = rng.random((6, 7))
    y = rng.random((6, 7))
    ours = losses.ssim(g.Var(x[None, None]), g.Var(y[None, None]), window=5).data[0, 0]
    assert np.abs(ours - ssim_oracle(x, y, window=5)).max() < 1e-6


def test_ssim_map_bounded():
    rng = np.random.default_rng(1)
    x, y = rng.random((1, 1, 10, 10)), rng.random((1, 1, 10, 10))
    m = losses.ssim(g.Var(x), g.Var(y)).data
    assert m.min() >= -1.0 - 1e-9 and m.max() <= 1.0 + 1e-9
    val = losses.ssim_loss(g.Var(x), g.Var(y)).item()
    assert 0.0 <= val <= 1.0


def _tape_ssim(x, y, window=11, max_val=1.0):
    """The former SSIM, built from tape ops: the fused node's oracle."""
    from gradcv.filters import gaussian_blur2d

    c1, c2 = (0.01 * max_val) ** 2, (0.03 * max_val) ** 2
    c = x.shape[1]
    stacked = g.concat([x, y, x * x, y * y, x * y], axis=1)
    stats = gaussian_blur2d(stacked, (window, window), (1.5, 1.5))
    mu_x, mu_y, e_xx, e_yy, e_xy = (stats[:, i * c : (i + 1) * c] for i in range(5))
    var_x = e_xx - mu_x * mu_x
    var_y = e_yy - mu_y * mu_y
    cov = e_xy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return num / den


def _ssim_pair(seed, shape=(2, 3, 13, 17)):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, shape)
    # y partly tracks x, so the map spans low to high similarity
    return x, np.clip(0.7 * x + 0.3 * rng.uniform(0.0, 1.0, shape), 0.0, 1.0)


@pytest.mark.parametrize("tracked", ["y", "both", "x"])
@pytest.mark.parametrize("window", [5, 11])
def test_fused_ssim_matches_the_tape_op_oracle(tracked, window):
    # the 360 px wide image is over 32 window extents, so its row pass and adjoint run conv2d taps
    for shape in [(2, 3, 13, 17), (1, 1, 8, 360)]:
        x, y = _ssim_pair(70 + window, shape)
        cot = np.random.default_rng(71).normal(size=x.shape)
        results = []
        for fn in (losses.ssim, _tape_ssim):
            xv, yv = g.Var(x, requires_grad=tracked != "y"), g.Var(y, requires_grad=tracked != "x")
            out = fn(xv, yv, window)
            grads = g.backward((out * cot).sum())
            results.append([out.data] + [grads[v].data for v in (xv, yv) if v.requires_grad])
        for got, want in zip(*results):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("tracked", ["y", "both"])
def test_fused_ssim_gradcheck(tracked):
    x, y = _ssim_pair(72, (2, 2, 7, 8))
    w = np.random.default_rng(73).normal(size=x.shape)
    if tracked == "y":
        gradcheck(lambda b: (losses.ssim(x, b, window=5) * w).sum(), [y])
    else:
        gradcheck(lambda a, b: (losses.ssim(a, b, window=5) * w).sum(), [x, y])


@pytest.mark.parametrize("tracked", ["y", "both"])
def test_fused_ssim_is_one_float32_node(tracked, node_dtypes):
    x, y = (v.astype(np.float32) for v in _ssim_pair(74))
    xv, yv = g.Var(x, requires_grad=tracked == "both"), g.Var(y, requires_grad=True)
    out = losses.ssim(xv, yv)
    assert len(out._tape) == 1 + (tracked == "both") + 1  # the leaves and one node
    grads = g.backward((out * 0.5).sum())
    assert out.dtype == grads[yv].dtype == np.float32
    assert node_dtypes and set(node_dtypes) == {np.dtype(np.float32)}  # every node and vjp array


def _counted_blurs(monkeypatch) -> list:
    """The channel count of every stacked blur SSIM runs from now on."""
    seen, blur = [], losses.gaussian_blur2d

    def counted(x, *args, **kwargs):
        seen.append(x.shape[1])
        return blur(x, *args, **kwargs)

    monkeypatch.setattr(losses, "gaussian_blur2d", counted)
    return seen


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_kept_ssim_moments_equal_a_fresh_computation(dtype, monkeypatch):
    # a constant x is blurred once; later calls blur [y, y^2, xy] only
    x, y = (v.astype(dtype) for v in _ssim_pair(75))
    xv, cot = g.Var(x), np.random.default_rng(76).normal(size=x.shape)
    blurs = _counted_blurs(monkeypatch)
    results = []
    for ref in (xv, xv, g.Var(x)):  # the first call keeps x's moments, the second reads them
        yv = g.Var(y, requires_grad=True)
        out = losses.ssim(ref, yv)
        results.append((out.data, g.backward((out * cot).sum())[yv].data))
    # every call blurs [y, y^2, xy]; the first call on each Var also blurs [x, x^2]
    assert blurs == [3 * 3, 2 * 3, 3 * 3, 3 * 3, 2 * 3]
    assert all(np.array_equal(a, b) for a, b in zip(results[1], results[2]))
    assert all(np.array_equal(a, b) for a, b in zip(results[0], results[1]))


def test_a_tracked_operand_is_never_memoized(monkeypatch):
    x, y = _ssim_pair(77)
    xv, yv = g.Var(x, requires_grad=True), g.Var(y, requires_grad=True)
    blurs = _counted_blurs(monkeypatch)
    for _ in range(2):
        losses.ssim(xv, yv)
        losses.smoothness_loss(g.Var(x[:, :1]), yv)
    assert blurs == [5 * 3, 5 * 3]
    assert xv._derived is None and yv._derived is None


def test_rebinding_data_recomputes_the_kept_maps():
    x, y = _ssim_pair(78)
    x2 = np.clip(x + 0.1, 0.0, 1.0)
    xv, dv = g.Var(x), g.Var(y[:, :1])
    losses.ssim(xv, y), losses.smoothness_loss(dv, xv)
    xv.data = g.Var(x2).data
    for got, want in ((losses.ssim(xv, y), losses.ssim(g.Var(x2), y)),
                      (losses.smoothness_loss(dv, xv), losses.smoothness_loss(dv, g.Var(x2)))):
        assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_kept_smoothness_weights_equal_a_fresh_computation(dtype):
    rng = np.random.default_rng(79)
    img, depth = rng.random((1, 3, 9, 11)).astype(dtype), rng.random((1, 1, 9, 11)).astype(dtype)
    iv = g.Var(img)
    results = []
    for ref in (iv, iv, g.Var(img)):
        dv = g.Var(depth, requires_grad=True)
        out = losses.smoothness_loss(dv, ref)
        results.append((out.data, g.backward(out)[dv].data))
    wx, wy = iv._derived[1]["smoothness"]
    assert np.array_equal(wx.data, np.exp(-np.abs(np.diff(img, axis=3)).sum(axis=1, keepdims=True)))
    assert np.array_equal(wy.data, np.exp(-np.abs(np.diff(img, axis=2)).sum(axis=1, keepdims=True)))
    assert all(np.array_equal(a, b) for r in results[1:] for a, b in zip(results[0], r))


def test_ssim_shape_mismatch():
    with pytest.raises(g.ShapeError):
        losses.ssim(g.Var(np.ones((1, 1, 4, 4))), g.Var(np.ones((1, 1, 4, 5))))


# --- psnr ---------------------------------------------------------------------


def test_psnr_20db():
    x = np.zeros((1, 1, 10, 10))
    y = np.full_like(x, 0.1)  # MSE = 0.01
    assert losses.psnr(g.Var(x), g.Var(y), max_val=1.0).item() == pytest.approx(20.0)


def test_psnr_identical_inf():
    x = g.Var(np.random.default_rng(2).random((1, 1, 4, 4)))
    assert np.isinf(losses.psnr(x, x).item())


def test_psnr_matches_mse_formula():
    rng = np.random.default_rng(3)
    x, y = rng.random((1, 1, 8, 8)), rng.random((1, 1, 8, 8))
    mse = np.mean((x - y) ** 2)
    assert losses.psnr(g.Var(x), g.Var(y)).item() == pytest.approx(10 * np.log10(1.0 / mse))


# --- total variation --------------------------------------------------------------


def test_tv_constant_zero():
    assert losses.total_variation(g.Var(np.full((1, 1, 5, 5), 0.7))).item() == 0.0


def test_tv_hand_value():
    img = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert losses.total_variation(g.Var(img[None, None])).item() == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(100))
def test_tv_matches_naive_and_homogeneity(seed):
    rng = np.random.default_rng(seed)
    x = rng.random((2, 2, 5, 6))
    naive = sum(
        np.abs(np.diff(x[n, c], axis=0)).sum() + np.abs(np.diff(x[n, c], axis=1)).sum()
        for n in range(2)
        for c in range(2)
    )
    ours = losses.total_variation(g.Var(x)).item()
    assert ours == pytest.approx(naive, rel=1e-12)
    a = -2.5
    assert losses.total_variation(g.Var(a * x)).item() == pytest.approx(abs(a) * ours)


# --- tversky / dice ------------------------------------------------------------------


def tversky_oracle(pred, target, alpha, beta, k):
    vals = []
    for cls in range(k):
        y = (target == cls).astype(float)
        p = pred[:, cls]
        tp = (p * y).sum()
        fp = (p * (1 - y)).sum()
        fn = ((1 - p) * y).sum()
        vals.append((tp + 1e-6) / (tp + alpha * fp + beta * fn + 1e-6))
    return 1.0 - np.mean(vals)


def test_tversky_perfect_prediction():
    target = np.random.default_rng(4).integers(0, 3, (2, 6, 6))
    pred = np.zeros((2, 3, 6, 6))
    np.put_along_axis(pred, target[:, None], 1.0, axis=1)
    assert losses.tversky_loss(g.Var(pred), target).item() <= 1e-5


def test_dice_equals_tversky_half():
    rng = np.random.default_rng(5)
    raw = rng.random((1, 2, 4, 4))
    pred = raw / raw.sum(axis=1, keepdims=True)
    target = rng.integers(0, 2, (1, 4, 4))
    a = losses.dice_loss(g.Var(pred), target).item()
    b = losses.tversky_loss(g.Var(pred), target, 0.5, 0.5).item()
    assert a == pytest.approx(b, abs=1e-15)


@pytest.mark.parametrize("seed", range(100))
def test_tversky_matches_counting_oracle(seed):
    rng = np.random.default_rng(seed)
    k = 2 + seed % 3
    raw = rng.random((1, k, 4, 5))
    pred = raw / raw.sum(axis=1, keepdims=True)
    target = rng.integers(0, k, (1, 4, 5))
    alpha, beta = rng.uniform(0.2, 0.8, 2)
    ours = losses.tversky_loss(g.Var(pred), target, alpha, beta).item()
    assert ours == pytest.approx(tversky_oracle(pred, target, alpha, beta, k), abs=1e-12)


def test_tversky_uniform_balanced_hand_count():
    # uniform prediction over K=2, balanced 2x2 target
    pred = np.full((1, 2, 2, 2), 0.5)
    target = np.array([[[0, 1], [0, 1]]])
    # per class: TP=1, FP=1, FN=1 -> index = (1+eps)/(1+0.5+0.5+eps) ~ 0.5
    val = losses.tversky_loss(g.Var(pred), target, 0.5, 0.5).item()
    assert val == pytest.approx(0.5, abs=1e-6)


def test_tversky_bad_class_id():
    pred = np.full((1, 2, 2, 2), 0.5)
    with pytest.raises(g.ParameterError):
        losses.tversky_loss(g.Var(pred), np.full((1, 2, 2), 5))


def test_tversky_fp_monotonicity_enumerated_masks():
    # increasing FP mass never decreases the loss (2x2 binary masks)
    target = np.array([[[0, 0], [0, 1]]])
    for bits in range(16):
        base = np.array([(bits >> i) & 1 for i in range(4)], dtype=float).reshape(2, 2)
        pred1 = np.stack([1 - base * 0.6, base * 0.6])[None]
        pred1 /= pred1.sum(axis=1, keepdims=True)
        more = np.clip(base * 0.6 + 0.3 * (target[0] == 0), 0, 1)  # add FP mass only
        pred2 = np.stack([1 - more, more])[None]
        pred2 /= pred2.sum(axis=1, keepdims=True)
        l1 = losses.tversky_loss(g.Var(pred1), target).item()
        l2 = losses.tversky_loss(g.Var(pred2), target).item()
        assert l2 >= l1 - 1e-9


# --- focal ---------------------------------------------------------------------------


def test_focal_gamma0_equals_cross_entropy():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(2, 4, 3, 3))
    target = rng.integers(0, 4, (2, 3, 3))
    f = losses.focal_loss(g.Var(logits), target, gamma=0.0, alpha=1.0).item()
    # independent CE computation
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    pt = np.take_along_axis(p, target[:, None], axis=1)[:, 0]
    assert f == pytest.approx(-np.log(pt).mean(), abs=1e-9)


def test_focal_confident_prediction_vanishes():
    logits = np.zeros((1, 2, 1, 1))
    logits[0, 0] = 20.0
    target = np.zeros((1, 1, 1), dtype=int)
    assert losses.focal_loss(g.Var(logits), target, gamma=2.0).item() < 1e-8


def test_focal_hand_value():
    logits = np.zeros((1, 2, 1, 1))
    logits[0, 0, 0, 0] = 2.0
    target = np.zeros((1, 1, 1), dtype=int)
    p0 = np.exp(2.0) / (np.exp(2.0) + 1.0)
    expect = -((1 - p0) ** 2) * np.log(p0)
    ours = losses.focal_loss(g.Var(logits), target, gamma=2.0, alpha=1.0).item()
    assert ours == pytest.approx(expect, abs=1e-9)
    with pytest.raises(g.ParameterError):
        losses.focal_loss(g.Var(logits), target, gamma=-1.0)


# --- divergences -------------------------------------------------------------------------


def test_kl_identical_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert losses.kl_div(g.Var(p), g.Var(p.copy())).item() == pytest.approx(0.0, abs=1e-12)


def test_kl_hand_value_ln2():
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    assert losses.kl_div(g.Var(p), g.Var(q)).item() == pytest.approx(np.log(2), abs=1e-9)


def test_js_symmetric():
    rng = np.random.default_rng(7)
    p = rng.random(5)
    p /= p.sum()
    q = rng.random(5)
    q /= q.sum()
    a = losses.js_div(g.Var(p), g.Var(q)).item()
    b = losses.js_div(g.Var(q), g.Var(p)).item()
    assert a == pytest.approx(b, abs=1e-12)
    assert a >= 0.0


@pytest.mark.parametrize("seed", range(100))
def test_kl_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    p = rng.random((3, 6)) + 1e-3
    p /= p.sum(axis=-1, keepdims=True)
    q = rng.random((3, 6)) + 1e-3
    q /= q.sum(axis=-1, keepdims=True)
    naive = (p * np.log(p / q)).sum(axis=-1).mean()
    assert losses.kl_div(g.Var(p), g.Var(q)).item() == pytest.approx(naive, abs=1e-10)


def test_kl_rejects_unnormalized():
    with pytest.raises(g.ParameterError):
        losses.kl_div(g.Var(np.array([0.5, 0.2])), g.Var(np.array([0.5, 0.5])))


# --- composed losses ------------------------------------------------------------------------


def test_edge_aware_zero_and_alpha1():
    rng = np.random.default_rng(8)
    x = rng.random((1, 1, 8, 8))
    assert losses.edge_aware_recon_loss(g.Var(x), g.Var(x.copy()), 0.3).item() == pytest.approx(
        0.0, abs=1e-9
    )
    y = rng.random((1, 1, 8, 8))
    a1 = losses.edge_aware_recon_loss(g.Var(x), g.Var(y), 1.0).item()
    assert a1 == pytest.approx(np.abs(x - y).mean(), abs=1e-12)
    with pytest.raises(g.ParameterError):
        losses.edge_aware_recon_loss(g.Var(x), g.Var(y), 1.5)


def test_edge_aware_component_sum():
    rng = np.random.default_rng(9)
    x = rng.random((1, 1, 8, 8))
    y = np.roll(x, 1, axis=3)
    from gradcv.filters import sobel_edges

    l1 = np.abs(x - y).mean()
    es = np.abs(sobel_edges(g.Var(x)).data - sobel_edges(g.Var(y)).data).mean()
    ours = losses.edge_aware_recon_loss(g.Var(x), g.Var(y), 0.5).item()
    assert ours == pytest.approx(0.5 * l1 + 0.5 * es, abs=1e-12)


def test_multiview_trivial_zero():
    rng = np.random.default_rng(10)
    i_ref = rng.random((1, 1, 8, 8))
    depth = np.full((1, 1, 8, 8), 2.0)
    val = losses.multiview_photo_loss(
        g.Var(i_ref), g.Var(i_ref.copy()), g.Var(i_ref.copy()), g.Var(depth)
    ).item()
    assert val == pytest.approx(0.0, abs=1e-9)


def test_smoothness_constant_image_weight_one():
    rng = np.random.default_rng(11)
    depth = rng.random((1, 1, 6, 6))
    img = np.full((1, 1, 6, 6), 0.5)
    expect = np.abs(np.diff(depth[0, 0], axis=1)).mean() + np.abs(
        np.diff(depth[0, 0], axis=0)
    ).mean()
    assert losses.smoothness_loss(g.Var(depth), g.Var(img)).item() == pytest.approx(
        expect, abs=1e-12
    )


def test_multiview_component_oracle():
    rng = np.random.default_rng(12)
    i_ref = rng.random((1, 3, 8, 8))
    i_warp = rng.random((1, 3, 8, 8))
    i_src = rng.random((1, 3, 8, 8))
    depth = rng.random((1, 1, 8, 8)) + 1.0
    alpha, lam = 0.85, 0.1
    expect = (
        alpha * losses.ssim_loss(g.Var(i_ref), g.Var(i_warp)).item()
        + (1 - alpha) * np.abs(i_ref - i_warp).mean()
        + lam * losses.smoothness_loss(g.Var(depth), g.Var(i_src)).item()
    )
    ours = losses.multiview_photo_loss(
        g.Var(i_ref), g.Var(i_warp), g.Var(i_src), g.Var(depth), alpha, lam
    ).item()
    assert ours == pytest.approx(expect, abs=1e-9)


def test_batched_multiview_photo_loss_matches_the_per_view_mean():
    # V equal-size views in one stack: the means average the per-view terms
    rng = np.random.default_rng(13)
    i_ref = rng.random((1, 3, 10, 12))
    i_warp = rng.random((3, 3, 10, 12))
    i_src = rng.random((3, 3, 10, 12))
    depth = rng.random((1, 1, 10, 12)) + 1.0
    w, d = g.Var(i_warp, requires_grad=True), g.Var(depth, requires_grad=True)
    loss = losses.multiview_photo_loss(np.broadcast_to(i_ref, i_warp.shape), w, i_src, d)
    grads = g.backward(loss)
    batched = [loss.data, grads[w].data, grads[d].data]
    w, d = g.Var(i_warp, requires_grad=True), g.Var(depth, requires_grad=True)
    terms = [losses.multiview_photo_loss(i_ref, w[v : v + 1], i_src[v : v + 1], d) for v in range(3)]
    loss = (terms[0] + terms[1] + terms[2]) * (1.0 / 3.0)
    grads = g.backward(loss)
    looped = [loss.data, grads[w].data, grads[d].data]
    for got, want in zip(batched, looped):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# --- differentiability ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_loss_gradchecks(seed):
    rng = np.random.default_rng(20 + seed)
    x = rng.uniform(0.1, 0.9, (1, 1, 6, 6))
    y = rng.uniform(0.1, 0.9, (1, 1, 6, 6))
    gradcheck(lambda a, b: losses.ssim_loss(a, b, window=5), [x, y])
    gradcheck(lambda a, b: losses.psnr(a, b), [x, y])
    gradcheck(lambda a, b: losses.edge_aware_recon_loss(a, b, 0.5), [x, y])
    gradcheck(lambda a: losses.total_variation(a), [x])
    logits = rng.normal(size=(1, 3, 4, 4))
    target = rng.integers(0, 3, (1, 4, 4))
    gradcheck(lambda l: losses.focal_loss(l, target, gamma=2.0), [logits])
    raw = rng.random((1, 3, 4, 4)) + 0.2
    pred = raw / raw.sum(axis=1, keepdims=True)
    gradcheck(lambda p: losses.tversky_loss(p, target, 0.3, 0.7), [pred])


@pytest.mark.parametrize("seed", range(3))
def test_multiview_gradcheck(seed):
    rng = np.random.default_rng(40 + seed)
    i_ref = rng.uniform(0.1, 0.9, (1, 1, 6, 6))
    i_warp = rng.uniform(0.1, 0.9, (1, 1, 6, 6))
    i_src = rng.uniform(0.1, 0.9, (1, 1, 6, 6))
    depth = rng.uniform(1.0, 2.0, (1, 1, 6, 6))
    gradcheck(
        lambda w, d: losses.multiview_photo_loss(i_ref, w, i_src, d),
        [i_warp, depth],
    )


def test_kl_gradcheck():
    rng = np.random.default_rng(60)
    p = rng.random(6) + 0.2
    p /= p.sum()
    q = rng.random(6) + 0.2
    q /= q.sum()

    # renormalize inside so perturbed FD points stay valid distributions
    def f(a, b):
        a = a / a.sum()
        b = b / b.sum()
        return losses.kl_div(a, b)

    gradcheck(f, [p, q])


def test_ssim_blur_composite_gradcheck():
    # end-to-end: gradient of ssim_loss(gaussian_blur(x), t) vs FD
    from gradcv.filters import gaussian_blur2d

    rng = np.random.default_rng(61)
    x = rng.uniform(0.2, 0.8, (1, 1, 8, 8))
    t = rng.uniform(0.2, 0.8, (1, 1, 8, 8))
    gradcheck(lambda a: losses.ssim_loss(gaussian_blur2d(a, (5, 5), (1.0, 1.0)), t), [x])
