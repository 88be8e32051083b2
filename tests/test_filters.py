"""Filter ops vs dense-conv and sort-based oracles."""
import numpy as np
import pytest

import gradcv as g
from gradcv import filters, kernels
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


# --- the product path -------------------------------------------------------------
# Every 1-D pass of a blur is a product with a cached operator kept as row tiles, at any
# extent.  The shapes below cover one tile, several tiles, an axis past 512 pixels and
# kernels longer than a tile; the oracle runs every pass by taps.

_BLUR_CASES = [
    ((12, 15), (5, 3)), ((11, 9), (11, 9)),  # one tile; (11, 9): kernels as long as the axes
    ((96, 300), (3, 5)), ((129, 257), (3, 13)),  # several tiles; one row past a tile
    ((300, 161), (131, 5)), ((7, 700), (3, 151)),  # kernels longer than a tile
    ((700, 40), (17, 1)),  # past 512 pixels
]


def _blur_by_taps(x, size, sigma, border):
    """The oracle: each pass by pad2d and one multiply-add per tap (kernels._correlate)."""
    for k in (filters.gaussian_kernel1d(size[0], sigma[0]).data.T, filters.gaussian_kernel1d(size[1], sigma[1]).data):
        xp = g.pad2d(x, (k.shape[0] // 2, k.shape[0] // 2, k.shape[1] // 2, k.shape[1] // 2), border).data
        x = kernels._correlate(xp, k[None], *x.shape[2:])
    return x


@pytest.mark.parametrize("border", ["zero", "replicate", "reflect"])
@pytest.mark.parametrize("hw, size", _BLUR_CASES)
def test_blur_matches_the_tap_oracle(hw, size, border):
    rng = np.random.default_rng(60)
    x = rng.random((2, 3) + hw)
    cot = rng.normal(size=x.shape)
    sigma = tuple(0.25 * k + 0.5 for k in size)  # every tap of a long kernel carries weight
    xv = g.Var(x, requires_grad=True)
    out = filters.gaussian_blur2d(xv, size, sigma, border)
    got = (out.data, g.backward((out * cot).sum())[xv].data)
    # the gradient's oracle: the same two passes with tracked kernels, which run the taps
    xv = g.Var(x, requires_grad=True)
    ky, kx = (filters.gaussian_kernel1d(k, s).data for k, s in zip(size, sigma))
    ky, kx = g.Var(ky.T, requires_grad=True), g.Var(kx, requires_grad=True)
    taps = g.conv2d(g.conv2d(xv, ky, border=border), kx, border=border)
    assert np.array_equal(taps.data, _blur_by_taps(x, size, sigma, border))
    want = (taps.data, g.backward((taps * cot).sum())[xv].data)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()


@pytest.mark.parametrize("n, size", [(4, 11), (600, 1203)])  # one tile, then many
def test_blur_rejects_reflect_padding_larger_than_the_extent(n, size):
    with pytest.raises(g.ParameterError):
        filters.gaussian_blur2d(g.Var(np.ones((1, 1, n, 3))), (size, 3), (1.5, 1.0))


@pytest.mark.parametrize("hw, size", [((6, 9), (5, 3)), ((3, 300), (1, 3))])  # one tile, then rows of three
def test_blur_is_one_node_and_gradchecks(hw, size):
    x = np.random.default_rng(61).random((2, 1) + hw)
    w = np.random.default_rng(62).normal(size=x.shape)
    out = filters.gaussian_blur2d(g.Var(x, requires_grad=True), size, (1.2, 0.8), "replicate")
    assert len(out._tape) == 2  # the leaf and one node
    gradcheck(lambda v: (filters.gaussian_blur2d(v, size, (1.2, 0.8), "replicate") * w).sum(), [x])


@pytest.mark.parametrize("hw", [(9, 10), (9, 300)])  # one tile, then rows of three
def test_blur_keeps_float32_at_every_node(hw, node_dtypes):
    x = g.Var(np.random.default_rng(63).random((2, 3) + hw).astype(np.float32), requires_grad=True)
    out = filters.gaussian_blur2d(x, (5, 3), (1.5, 1.0))
    assert out.dtype == g.backward(out.sum())[x].dtype == np.float32
    assert node_dtypes and set(node_dtypes) == {np.dtype(np.float32)}


def test_axis_operator_is_cached_and_read_only():
    taps = filters.gaussian_kernel1d(5, 1.5).data.tobytes()
    op = kernels._axis_operator(300, taps, "reflect", np.dtype(np.float64))
    assert op is kernels._axis_operator(300, taps, "reflect", np.dtype(np.float64))
    assert len(op) > 1 and sum(len(block) for _, block in op) == 300
    # reflect folds every tap back in: every row keeps mass 1
    assert np.allclose(kernels._product(np.ones((1, 1, 300, 2)), op, None), 1.0)
    for _, block in op:
        with pytest.raises(ValueError):
            block[0, 0] = 1.0


def test_axis_operator_holds_under_2_mb_at_4096_pixels():
    # a dense (n, n) operator would hold 128 MB here; the tiles share the arrays they repeat
    taps = filters.gaussian_kernel1d(11, 1.5).data.tobytes()
    op = kernels._axis_operator(4096, taps, "reflect", np.dtype(np.float64))
    assert sum(block.nbytes for block in {id(b): b for _, b in op}.values()) < 2 * 2**20


def test_blur_takes_numpy_scalars_and_rejects_a_border_that_is_not_a_mode():
    x = g.Var(np.random.default_rng(64).random((1, 1, 8, 8)))
    ref = filters.gaussian_blur2d(x, (3, 3), (1.0, 1.0)).data
    assert np.array_equal(filters.gaussian_blur2d(x, (np.array(3), 3), (np.array(1.0), 1.0)).data, ref)
    for bad in ("wrap", ["zero"]):
        with pytest.raises(g.ParameterError):
            filters.gaussian_blur2d(x, (3, 3), (1.0, 1.0), border=bad)


def test_a_non_finite_pixel_stays_local_on_the_product_path():
    x = np.zeros((1, 1, 20, 20))
    x[0, 0, 10, 10] = np.nan
    out = filters.gaussian_blur2d(g.Var(x), (5, 5), (1.0, 1.0)).data[0, 0]
    assert np.array_equal(np.isnan(out), np.pad(np.ones((5, 5), bool), ((8, 7), (8, 7))))
