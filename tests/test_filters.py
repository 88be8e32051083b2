"""Filter ops vs dense-conv and sort-based oracles."""
import numpy as np
import pytest

import gradcv as g
from gradcv import filters
from gradcv.testing import gradcheck


def test_gaussian_kernel_values():
    k = filters.gaussian_kernel1d(3, 1.0).data.ravel()
    # exp(-x^2/2) at {-1,0,1}, normalized
    assert np.allclose(k, [0.27406, 0.45186, 0.27406], atol=1e-5)
    assert k.sum() == pytest.approx(1.0, abs=1e-12)


def test_gaussian_kernel_param_errors():
    with pytest.raises(g.ParameterError):
        filters.gaussian_kernel1d(4, 1.0)
    with pytest.raises(g.ParameterError):
        filters.gaussian_kernel1d(3, 0.0)


def test_blur_constant_is_constant():
    x = g.Var(np.full((1, 2, 8, 8), 0.37))
    for out in (
        filters.gaussian_blur2d(x, (5, 5), (1.3, 0.7)),
        filters.box_blur(x, (3, 3)),
        filters.median_blur(x, (3, 3)),
    ):
        assert np.allclose(out.data, 0.37, atol=1e-12)


def test_separable_blur_equals_dense_conv():
    rng = np.random.default_rng(0)
    x = g.Var(rng.random((1, 1, 10, 12)))
    sep = filters.gaussian_blur2d(x, (5, 3), (1.5, 0.8))
    ky = filters.gaussian_kernel1d(5, 1.5).data
    kx = filters.gaussian_kernel1d(3, 0.8).data
    dense = g.conv2d(x, ky.T @ kx, border="reflect")
    assert np.abs(sep.data - dense.data).max() < 1e-10


def test_blurs_preserve_mean_reflect():
    rng = np.random.default_rng(1)
    x = g.Var(rng.random((1, 1, 16, 16)))
    for out in (
        filters.gaussian_blur2d(x, (5, 5), (1.2, 1.2)),
        filters.box_blur(x, (5, 3)),
    ):
        assert out.data.mean() == pytest.approx(x.data.mean(), abs=1e-6)


def test_gaussian_self_composition():
    rng = np.random.default_rng(2)
    x = g.Var(filters.gaussian_blur2d(g.Var(rng.random((1, 1, 32, 32))), (9, 9), (1.5, 1.5)).data)
    s1, s2 = 1.0, 1.2
    twice = filters.gaussian_blur2d(filters.gaussian_blur2d(x, (13, 13), (s1, s1)), (13, 13), (s2, s2))
    once = filters.gaussian_blur2d(x, (13, 13), (np.hypot(s1, s2), np.hypot(s1, s2)))
    inner = (slice(None), slice(None), slice(8, -8), slice(8, -8))
    assert np.abs(twice.data[inner] - once.data[inner]).max() < 1e-3


def test_box_blur_impulse():
    x = np.zeros((1, 1, 9, 9))
    x[0, 0, 4, 4] = 1.0
    out = filters.box_blur(g.Var(x), (3, 3)).data[0, 0]
    assert np.allclose(out[3:6, 3:6], 1.0 / 9.0)
    assert out[0, 0] == 0.0


def test_box_blur_equals_conv_exactly():
    rng = np.random.default_rng(3)
    x = g.Var(rng.random((2, 1, 7, 7)))
    out = filters.box_blur(x, (3, 5))
    ref = g.conv2d(x, np.full((3, 5), 1.0 / 15.0), border="reflect")
    assert np.array_equal(out.data, ref.data)


# --- median ------------------------------------------------------------------


def median_oracle(img, kh, kw):
    """Brute-force reflect-padded window median (single channel)."""
    h, w = img.shape
    pad = np.pad(img, ((kh // 2,) * 2, (kw // 2,) * 2), mode="symmetric")
    out = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            out[y, x] = np.sort(pad[y : y + kh, x : x + kw].ravel())[(kh * kw) // 2]
    return out


def test_median_impulse_removed():
    x = np.zeros((1, 1, 7, 7))
    x[0, 0, 3, 3] = 1.0
    assert np.array_equal(filters.median_blur(g.Var(x), (3, 3)).data, np.zeros_like(x))


@pytest.mark.parametrize("seed", range(100))
def test_median_matches_sort_oracle(seed):
    rng = np.random.default_rng(seed)
    img = rng.random((5, 5))
    out = filters.median_blur(g.Var(img[None, None]), (3, 3)).data[0, 0]
    assert np.array_equal(out, median_oracle(img, 3, 3))


def test_median_permutation_equivariant_and_idempotent_on_constant():
    x = g.Var(np.full((1, 1, 6, 6), 2.5))
    out = filters.median_blur(x, (5, 5))
    assert np.array_equal(out.data, x.data)


def test_median_even_size_rejected():
    with pytest.raises(g.ParameterError):
        filters.median_blur(g.Var(np.ones((1, 1, 5, 5))), (2, 3))


def test_median_gradient_routes_to_selected():
    img = np.array([[1.0, 2.0, 9.0], [4.0, 5.0, 6.0], [7.0, 8.0, 3.0]])
    x = g.Var(img[None, None], requires_grad=True)
    out = filters.median_blur(x, (3, 3))
    center = out[:, :, 1, 1]
    grads = g.backward(center.sum())
    gi = grads[x].data[0, 0]
    assert gi[np.unravel_index(np.argmax(gi), gi.shape)] == 1.0
    assert gi.sum() == 1.0
    assert img[gi == 1.0][0] == out.data[0, 0, 1, 1]


# --- spatial gradients ----------------------------------------------------------


def dense_gradient_oracle(img, kx):
    return (
        g.conv2d(g.Var(img[None, None]), kx, border="reflect").data[0, 0],
        g.conv2d(g.Var(img[None, None]), kx.T, border="reflect").data[0, 0],
    )


def test_gradient_constant_zero():
    out = filters.spatial_gradient(g.Var(np.full((1, 1, 6, 6), 0.5)))
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_gradient_ramp_x():
    img = np.tile(np.arange(8.0), (8, 1))
    out = filters.spatial_gradient(g.Var(img[None, None]), "sobel", normalized=True).data
    assert np.allclose(out[0, 0, 0, 2:-2, 2:-2], 1.0, atol=1e-12)  # dx
    assert np.allclose(out[0, 0, 1, 2:-2, 2:-2], 0.0, atol=1e-12)  # dy
    raw = filters.spatial_gradient(g.Var(img[None, None]), "sobel", normalized=False).data
    assert np.allclose(raw[0, 0, 0, 2:-2, 2:-2], 8.0, atol=1e-12)


def test_gradient_ramp_y():
    img = np.tile(np.arange(8.0)[:, None], (1, 8))
    out = filters.spatial_gradient(g.Var(img[None, None]), "sobel", normalized=True).data
    assert np.allclose(out[0, 0, 0, 2:-2, 2:-2], 0.0, atol=1e-12)
    assert np.allclose(out[0, 0, 1, 2:-2, 2:-2], 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(100))
def test_gradient_matches_dense_conv_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    img = rng.random((6, 7))
    mode, normalized = (("sobel", True), ("sobel", False), ("diff", True))[seed % 3]
    out = filters.spatial_gradient(g.Var(img[None, None]), mode, normalized=normalized).data
    kx = filters.SOBEL_X.copy()
    if mode == "sobel" and normalized:
        kx /= 8.0
    if mode == "diff":
        # the zero-padded 3x3 form of the 1x3 central-difference stencil
        kx = np.array([[0.0, 0.0, 0.0], [-0.5, 0.0, 0.5], [0.0, 0.0, 0.0]])
    ex, ey = dense_gradient_oracle(img, kx)
    assert np.array_equal(out[0, 0, 0], ex)
    assert np.array_equal(out[0, 0, 1], ey)


def test_gradient_unknown_mode():
    with pytest.raises(g.ParameterError):
        filters.spatial_gradient(g.Var(np.ones((1, 1, 4, 4))), "scharr")


def test_sobel_edges_values():
    const = filters.sobel_edges(g.Var(np.full((1, 1, 8, 8), 0.3)))
    assert const.data.max() <= 1e-6
    ramp = np.tile(np.arange(8.0), (8, 1))
    out = filters.sobel_edges(g.Var(ramp[None, None])).data
    assert np.allclose(out[0, 0, 2:-2, 2:-2], 1.0, atol=1e-6)


def test_laplacian_values():
    assert np.allclose(
        filters.laplacian(g.Var(np.full((1, 1, 6, 6), 0.8))).data, 0.0, atol=1e-12
    )
    x = np.zeros((1, 1, 7, 7))
    x[0, 0, 3, 3] = 1.0
    assert filters.laplacian(g.Var(x)).data[0, 0, 3, 3] == pytest.approx(-4.0)
    ramp = np.tile(np.arange(9.0), (9, 1))
    out = filters.laplacian(g.Var(ramp[None, None])).data
    assert np.allclose(out[0, 0, 1:-1, 1:-1], 0.0, atol=1e-12)
    with pytest.raises(g.ParameterError):
        filters.laplacian(g.Var(x), size=5)


# --- differentiability ---------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_filter_gradchecks(seed):
    rng = np.random.default_rng(50 + seed)
    x = rng.random((1, 1, 8, 8))
    gradcheck(lambda v: filters.gaussian_blur2d(v, (3, 3), (1.0, 1.0)).mean(), [x])
    gradcheck(lambda v: filters.box_blur(v, (3, 3)).mean(), [x])
    gradcheck(lambda v: filters.sobel_edges(v).mean(), [x])
    gradcheck(lambda v: filters.laplacian(v).mean(), [x])
    gradcheck(lambda v: (filters.spatial_gradient(v) ** 2.0).mean(), [x])
    gradcheck(lambda v: filters.median_blur(v, (3, 3)).mean(), [x])
