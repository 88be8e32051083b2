"""Color conversions against colorsys and round-trip oracles."""
import colorsys

import numpy as np
import pytest

import gradcv as g
from gradcv import augment as aug
from gradcv import color
from gradcv.testing import gradcheck


def _img(vals):
    """(N,3,H,W) from a list of rgb triples."""
    arr = np.array(vals, dtype=np.float64).T.reshape(1, 3, 1, -1)
    return g.Var(arr)


# --- grayscale --------------------------------------------------------------


@pytest.mark.parametrize(
    "rgb,expect",
    [((1, 1, 1), 1.0), ((0, 0, 0), 0.0), ((1, 0, 0), 0.299)],
)
def test_grayscale_values(rgb, expect):
    out = color.rgb_to_grayscale(_img([rgb]))
    assert out.data.ravel()[0] == pytest.approx(expect, abs=1e-12)


def test_grayscale_is_linear():
    rng = np.random.default_rng(0)
    x = rng.random((2, 3, 4, 4))
    y = rng.random((2, 3, 4, 4))
    a, b = 0.3, 1.4
    lhs = color.rgb_to_grayscale(g.Var(a * x + b * y)).data
    rhs = a * color.rgb_to_grayscale(g.Var(x)).data + b * color.rgb_to_grayscale(g.Var(y)).data
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_grayscale_range_and_shape():
    rng = np.random.default_rng(1)
    out = color.rgb_to_grayscale(g.Var(rng.random((2, 3, 5, 6))))
    assert out.shape == (2, 1, 5, 6)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0
    with pytest.raises(g.ShapeError):
        color.rgb_to_grayscale(g.Var(np.ones((1, 1, 4, 4))))


# --- hsv ---------------------------------------------------------------------


def test_hsv_pure_red():
    out = color.rgb_to_hsv(_img([(1, 0, 0)])).data.ravel()
    assert out == pytest.approx([0.0, 1.0, 1.0], abs=1e-12)


def test_hsv_gray_has_zero_saturation():
    out = color.rgb_to_hsv(_img([(0.5, 0.5, 0.5)])).data.ravel()
    assert out == pytest.approx([0.0, 0.0, 0.5], abs=1e-12)


def test_hsv_matches_colorsys():
    rng = np.random.default_rng(2)
    vals = rng.random((64, 3))
    ours = color.rgb_to_hsv(_img(list(map(tuple, vals)))).data.reshape(3, -1).T
    for (r, gg, b), (h, s, v) in zip(vals, ours):
        eh, es, ev = colorsys.rgb_to_hsv(r, gg, b)
        assert h == pytest.approx(eh * 2 * np.pi, abs=1e-9)
        assert s == pytest.approx(es, abs=1e-9)
        assert v == pytest.approx(ev, abs=1e-9)


def test_hsv_roundtrip_random():
    rng = np.random.default_rng(3)
    x = rng.random((2, 3, 8, 8))
    back = color.hsv_to_rgb(color.rgb_to_hsv(g.Var(x)))
    assert np.abs(back.data - x).max() < 1e-6


def test_hsv_hue_range():
    rng = np.random.default_rng(4)
    hsv = color.rgb_to_hsv(g.Var(rng.random((1, 3, 16, 16)))).data
    h = hsv[:, 0]
    assert h.min() >= 0.0 and h.max() < 2 * np.pi


# --- normalize ----------------------------------------------------------------


def test_normalize_identity():
    x = np.random.default_rng(5).random((1, 3, 4, 4))
    out = color.normalize(g.Var(x), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert np.array_equal(out.data, x)


def test_normalize_value():
    out = color.normalize(_img([(0.5, 0.5, 0.5)]), [0.5] * 3, [0.5] * 3)
    assert np.allclose(out.data, 0.0)


def test_normalize_roundtrip_exact():
    rng = np.random.default_rng(6)
    x = rng.random((2, 3, 5, 5))
    mean = [0.4, 0.5, 0.6]
    std = [0.2, 0.25, 0.3]
    back = color.denormalize(color.normalize(g.Var(x), mean, std), mean, std)
    assert np.abs(back.data - x).max() < 1e-12


def test_normalize_zero_std_rejected():
    with pytest.raises(g.ParameterError):
        color.normalize(g.Var(np.ones((1, 3, 2, 2))), [0.0] * 3, [0.0, 1.0, 1.0])


# --- adjustments ---------------------------------------------------------------


def test_adjust_identity_params():
    rng = np.random.default_rng(7)
    x = rng.random((1, 3, 6, 6))
    v = g.Var(x)
    assert np.array_equal(color.adjust_brightness(v, 0.0).data, x)
    assert np.array_equal(color.adjust_contrast(v, 1.0).data, x)
    assert np.array_equal(color.adjust_gamma(v, 1.0).data, x)
    assert np.array_equal(color.adjust_saturation(v, 1.0).data, x)
    assert np.array_equal(color.adjust_hue(v, 0.0).data, x)


def test_adjust_gamma_value():
    out = color.adjust_gamma(_img([(0.5, 0.5, 0.5)]), 2.0)
    assert np.allclose(out.data, 0.25)
    with pytest.raises(g.ParameterError):
        color.adjust_gamma(_img([(0.5, 0.5, 0.5)]), 0.0)


def test_adjust_saturation_zero_gives_equal_channels():
    # s=0 collapses to V (max channel), not the luma-weighted gray: check R=G=B
    rng = np.random.default_rng(8)
    x = rng.random((1, 3, 8, 8))
    out = color.adjust_saturation(g.Var(x), 0.0).data
    assert np.abs(out[:, 0] - out[:, 1]).max() < 1e-6
    assert np.abs(out[:, 1] - out[:, 2]).max() < 1e-6
    assert np.abs(out[:, 0] - x.max(axis=1)).max() < 1e-6


def test_adjust_hue_full_turn_is_identity():
    rng = np.random.default_rng(9)
    x = rng.random((1, 3, 6, 6))
    out = color.adjust_hue(color.adjust_hue(g.Var(x), np.pi), np.pi).data
    assert np.abs(out - x).max() < 1e-6


def test_adjustments_clamped():
    x = _img([(0.9, 0.1, 0.5)])
    assert color.adjust_brightness(x, 0.5).data.max() <= 1.0
    assert color.adjust_contrast(x, 3.0).data.max() <= 1.0


# --- xyz / ycbcr ------------------------------------------------------------------


def test_xyz_roundtrip():
    rng = np.random.default_rng(10)
    x = rng.random((1, 3, 8, 8))
    back = color.xyz_to_rgb(color.rgb_to_xyz(g.Var(x)))
    assert np.abs(back.data - x).max() < 1e-9


def test_ycbcr_roundtrip_and_luma():
    rng = np.random.default_rng(11)
    x = rng.random((1, 3, 8, 8))
    ycc = color.rgb_to_ycbcr(g.Var(x))
    assert np.allclose(ycc.data[:, 0:1], color.rgb_to_grayscale(g.Var(x)).data, atol=1e-12)
    back = color.ycbcr_to_rgb(ycc)
    assert np.abs(back.data - x).max() < 1e-9


# --- differentiability ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_color_gradchecks(seed):
    rng = np.random.default_rng(100 + seed)
    # keep values away from clamp edges, channel ties, and hue sector edges
    x = rng.uniform(0.1, 0.9, size=(1, 3, 4, 4))
    x[0, 0] += 0.05  # break channel-max ties deterministically
    x = np.clip(x, 0.05, 0.95)
    gradcheck(lambda v: color.rgb_to_grayscale(v).mean(), [x])
    gradcheck(lambda v: color.rgb_to_hsv(v).mean(), [x])
    gradcheck(lambda v: color.hsv_to_rgb(color.rgb_to_hsv(v)).mean(), [x])
    gradcheck(lambda v: color.normalize(v, [0.5] * 3, [0.25] * 3).mean(), [x])
    gradcheck(lambda v: color.adjust_gamma(v, 1.7).mean(), [x])
    gradcheck(lambda v: color.adjust_saturation(v, 0.7).mean(), [x])
    gradcheck(lambda v: color.rgb_to_ycbcr(v).mean(), [x])


# --- dtype contract ----------------------------------------------------------------


def _jitter(v):
    return aug.color_jitter(v, (-0.1, 0.1), (0.8, 1.2), (0.7, 1.3), (-0.3, 0.3), aug.Rng(3)).output


_MEAN, _STD = [0.4, 0.5, 0.6], [0.2, 0.25, 0.3]
_OPS = {
    "rgb_to_grayscale": color.rgb_to_grayscale,
    "rgb_to_hsv": color.rgb_to_hsv,
    "hsv_to_rgb": color.hsv_to_rgb,
    "rgb_to_xyz": color.rgb_to_xyz,
    "xyz_to_rgb": color.xyz_to_rgb,
    "rgb_to_ycbcr": color.rgb_to_ycbcr,
    "ycbcr_to_rgb": color.ycbcr_to_rgb,
    "normalize": lambda v: color.normalize(v, _MEAN, _STD),
    "denormalize": lambda v: color.denormalize(v, _MEAN, _STD),
    "adjust_brightness": lambda v: color.adjust_brightness(v, 0.1),
    "adjust_brightness_per_sample": lambda v: color.adjust_brightness(v, np.array([0.1, -0.2])),
    "adjust_contrast_per_sample": lambda v: color.adjust_contrast(v, np.array([0.8, 1.3])),
    "adjust_gamma": lambda v: color.adjust_gamma(v, 1.7),
    "adjust_saturation": lambda v: color.adjust_saturation(v, 0.6),
    "adjust_saturation_per_sample": lambda v: color.adjust_saturation(v, np.array([0.6, 1.4])),
    "adjust_hue_per_sample": lambda v: color.adjust_hue(v, np.array([0.5, -1.0])),
    "color_jitter": _jitter,
}


@pytest.mark.parametrize("name", sorted(_OPS))
def test_float32_in_gives_float32_out_and_gradients(name, node_dtypes):
    x = g.Var(np.random.default_rng(12).uniform(0.1, 0.9, (2, 3, 4, 5)).astype(np.float32), requires_grad=True)
    out = _OPS[name](x)
    grad = g.backward((out * out).mean())[x]
    assert out.dtype == np.float32 and grad.dtype == np.float32
    assert node_dtypes and set(node_dtypes) == {np.dtype(np.float32)}  # every node and every vjp output


# --- per-sample factors -------------------------------------------------------------


def _per_sample_calls(adjust, v, factors):
    return g.concat([adjust(v[i : i + 1], float(f)) for i, f in enumerate(factors)], axis=0)


@pytest.mark.parametrize(
    "adjust,factors",
    [
        (color.adjust_brightness, [0.0, 0.2, -0.3]),
        (color.adjust_contrast, [1.0, 1.3, 0.6]),
        (color.adjust_saturation, [1.0, 0.5, 1.7]),  # a sample at the identity is only clamped
        (color.adjust_hue, [0.0, 1.0, -2.5]),
    ],
)
def test_per_sample_factors_equal_one_call_per_sample(adjust, factors):
    x = np.random.default_rng(13).uniform(0.05, 0.95, (3, 3, 5, 6))
    w = np.random.default_rng(14).normal(size=x.shape)
    results = []
    for run in (lambda v: adjust(v, np.array(factors)), lambda v: _per_sample_calls(adjust, v, factors)):
        v = g.Var(x, requires_grad=True)
        out = run(v)
        results.append((out.data, g.backward((out * w).sum())[v].data))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


@pytest.mark.parametrize("adjust", [color.adjust_brightness, color.adjust_contrast, color.adjust_saturation, color.adjust_hue])
@pytest.mark.parametrize("factor", [np.ones(3), np.ones((2, 1)), np.ones((2, 1, 1, 1))])
def test_per_sample_factor_of_wrong_shape_rejected(adjust, factor):
    with pytest.raises(g.ShapeError):
        adjust(g.Var(np.full((2, 3, 4, 4), 0.5)), factor)


@pytest.mark.parametrize("op", [color.normalize, color.denormalize])
def test_mean_std_of_wrong_length_rejected(op):
    img = g.Var(np.ones((1, 3, 2, 2)))
    with pytest.raises(g.ShapeError):
        op(img, [0.5, 0.5], [1.0, 1.0, 1.0])
    with pytest.raises(g.ShapeError):
        op(img, [0.5] * 3, [1.0, 1.0])


def test_hsv_to_rgb_nan_hue_gives_nan_pixel_without_warning():
    # warnings are errors in this suite: the sector of a NaN hue must not warn
    hsv = color.rgb_to_hsv(g.Var(np.random.default_rng(15).random((1, 3, 4, 4)))).numpy()
    hsv[0, 1, 1, 2] = 0.8  # a saturated pixel, so its color depends on the hue
    ref = color.hsv_to_rgb(g.Var(hsv)).data
    hsv[0, 0, 1, 2] = np.nan
    out = color.hsv_to_rgb(g.Var(hsv)).data
    assert np.isnan(out[0, :, 1, 2]).all()
    others = np.ones((4, 4), dtype=bool)
    others[1, 2] = False
    assert np.array_equal(out[:, :, others], ref[:, :, others])
