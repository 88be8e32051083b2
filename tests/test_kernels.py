"""Primitive image kernels vs hand oracles and finite differences."""
import warnings

import numpy as np
import pytest

import gradcv as g
from gradcv import geometry as geo
from gradcv import kernels
from gradcv.filters import gaussian_blur2d, sobel_edges
from gradcv.kernels import _pad_index
from gradcv.losses import ssim_loss
from gradcv.testing import gradcheck


def conv_oracle(img, kernel, border):
    """Dense per-pixel correlation oracle (single image, single channel)."""
    kh, kw = kernel.shape
    h, w = img.shape
    out = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    yy = y + i - kh // 2
                    xx = x + j - kw // 2
                    if border == "zero":
                        v = img[yy, xx] if 0 <= yy < h and 0 <= xx < w else 0.0
                    elif border == "replicate":
                        v = img[min(max(yy, 0), h - 1), min(max(xx, 0), w - 1)]
                    else:  # reflect = half-sample symmetric (edge repeated)
                        yy = yy if yy >= 0 else -yy - 1
                        yy = yy if yy < h else 2 * h - 1 - yy
                        xx = xx if xx >= 0 else -xx - 1
                        xx = xx if xx < w else 2 * w - 1 - xx
                        v = img[yy, xx]
                    acc += v * kernel[i, j]
            out[y, x] = acc
    return out


# --- conv2d ---------------------------------------------------------------


def test_conv2d_1x1_doubles():
    x = g.Var(np.random.default_rng(0).random((2, 3, 4, 5)))
    out = g.conv2d(x, np.array([[2.0]]))
    assert np.allclose(out.data, 2.0 * x.data)


@pytest.mark.parametrize("border", ["zero", "replicate", "reflect"])
def test_conv2d_impulse_identity(border):
    x = g.Var(np.random.default_rng(1).random((1, 2, 6, 7)))
    k = np.zeros((3, 3))
    k[1, 1] = 1.0
    out = g.conv2d(x, k, border=border)
    assert np.array_equal(out.data, x.data)


def test_conv2d_ramp_center_value():
    # I(x,y) = x on a 5x5, all-ones 3x3 kernel, zero border: center = 9 * 2
    img = np.tile(np.arange(5.0), (5, 1))
    out = g.conv2d(g.Var(img[None, None]), np.ones((3, 3)), border="zero")
    assert out.data[0, 0, 2, 2] == pytest.approx(18.0)


@pytest.mark.parametrize("border", ["zero", "replicate", "reflect"])
def test_conv2d_matches_dense_oracle(border):
    rng = np.random.default_rng(7)
    img = rng.random((6, 8))
    kernel = rng.random((3, 5))
    out = g.conv2d(g.Var(img[None, None]), kernel, border=border)
    assert np.allclose(out.data[0, 0], conv_oracle(img, kernel, border), atol=1e-12)


def test_conv2d_even_kernel_rejected():
    with pytest.raises(g.ParameterError):
        g.conv2d(g.Var(np.ones((1, 1, 4, 4))), np.ones((2, 3)))


def test_conv2d_per_channel_kernel():
    rng = np.random.default_rng(3)
    x = rng.random((1, 2, 5, 5))
    k = rng.random((2, 3, 3))
    out = g.conv2d(g.Var(x), g.Var(k), border="zero")
    for c in range(2):
        assert np.allclose(out.data[0, c], conv_oracle(x[0, c], k[c], "zero"), atol=1e-12)


@pytest.mark.parametrize("border", ["zero", "replicate", "reflect"])
@pytest.mark.parametrize("seed", range(3))
def test_conv2d_gradcheck(border, seed):
    rng = np.random.default_rng(10 + seed)
    x = rng.normal(size=(2, 2, 5, 6))
    k = rng.normal(size=(3, 3))
    gradcheck(lambda a, b: (g.conv2d(a, b, border=border) ** 2.0).sum(), [x, k])


@pytest.mark.parametrize("border", ["zero", "replicate", "reflect"])
@pytest.mark.parametrize("kshape", [(3, 3, 3), (3, 1, 5), (1, 5), (5, 1)])
def test_conv2d_kernel_shapes_gradcheck(kshape, border):
    # per-channel kernels and 1xk / kx1 taps, on a batch with N>1 and C>1
    rng = np.random.default_rng(20)
    x = rng.normal(size=(2, 3, 5, 6))
    k = rng.normal(size=kshape)
    gradcheck(lambda a, b: (g.conv2d(a, b, border=border) ** 2.0).sum(), [x, k])


@pytest.mark.parametrize("border", ["zero", "replicate", "reflect"])
@pytest.mark.parametrize("kshape", [(1, 5), (5, 1), (1, 1)])
def test_conv2d_constant_1d_kernel_product_matches_dense_oracle(kshape, border):
    # a constant 1-D kernel over a short axis runs as a product with the axis operator
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, 1, 6, 8))
    k = rng.normal(size=kshape)
    out = g.conv2d(g.Var(x), k, border=border)
    for i in range(2):
        assert np.allclose(out.data[i, 0], conv_oracle(x[i, 0], k, border), atol=1e-12)
    gradcheck(lambda a: (g.conv2d(a, k, border=border) ** 2.0).sum(), [x])


def test_conv2d_tracked_1d_kernel_stays_on_the_taps(monkeypatch):
    # the kernel vjp needs the padded input, so forward and input vjp both run the taps
    monkeypatch.setattr(kernels, "_product", None)  # a product would raise
    rng = np.random.default_rng(22)
    # past 512 pixels, and a kernel longer than a tile
    for shape, kshape in [((2, 1, 4, 700), (1, 151)), ((1, 2, 300, 5), (131, 1))]:
        x, k, cot = rng.normal(size=shape), rng.normal(size=kshape), rng.normal(size=shape)
        pads = (kshape[0] // 2, kshape[0] // 2, kshape[1] // 2, kshape[1] // 2)
        for border in ("zero", "replicate", "reflect"):
            xv, kv = g.Var(x, requires_grad=True), g.Var(k, requires_grad=True)
            out = g.conv2d(xv, kv, border=border)
            grads = g.backward((out * cot).sum())
            # the oracle: pad2d, one multiply-add per tap, and their adjoints
            xp = g.Var(x, requires_grad=True)
            padded = g.pad2d(xp, pads, border)
            assert np.array_equal(out.data, kernels._correlate(padded.data, k[None], *shape[2:]))
            gp = np.zeros(padded.shape)
            for i, j in np.ndindex(*kshape):
                tap = (slice(None), slice(None), slice(i, i + shape[2]), slice(j, j + shape[3]))
                gp[tap] += cot * k[i, j]
                assert np.isclose(grads[kv].data[i, j], (padded.data[tap] * cot).sum())
            want = g.backward((padded * gp).sum())[xp].data
            assert np.abs(grads[xv].data - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize(
    "op",
    [
        lambda t: gaussian_blur2d(t, (5, 5), (1.5, 1.5)),
        sobel_edges,
        lambda t: ssim_loss(t, np.full((2, 3, 9, 10), 0.5, dtype=np.float32)),
    ],
    ids=["gaussian_blur2d", "sobel_edges", "ssim_loss"],
)
def test_conv_path_keeps_float32(op):
    x = g.Var(np.random.default_rng(12).random((2, 3, 9, 10)).astype(np.float32),
              requires_grad=True)
    out = op(x)
    assert out.dtype == np.float32
    assert g.backward(out.sum())[x].dtype == np.float32


_F32 = np.float32
_H = np.array([[1.0, 0.1, 0.5], [0.0, 0.9, 0.2], [0.0, 0.0, 1.0]])
_T_SRC = np.eye(4)
_T_SRC[:3, 3] = [0.05, -0.03, 0.02]


@pytest.mark.parametrize(
    "op",
    [
        lambda t: g.sample_bilinear(
            t, np.full((2, 4, 5), 3.3, _F32), np.full((2, 4, 5), 2.6, _F32)
        ),
        lambda t: g.upsample_bilinear(t, (13, 7)),
        lambda t: g.grid_sample_bilinear(t, g.identity_grid(2, 5, 6, dtype=_F32) * _F32(0.9)),
        lambda t: geo.warp_perspective(t, _H),
        lambda t: geo.homography_warp(t, np.diag([0.9, 1.1, 1.0]), (4, 6), inverse_map=True),
        lambda t: geo.depth_warp(
            t,
            np.full((2, 1, 9, 10), 2.0),
            geo.make_camera(10.0, 10.0, 4.5, 4.0, _T_SRC, size=(9, 10)),
            geo.make_camera(10.0, 10.0, 4.5, 4.0, size=(9, 10)),
        ),
    ],
    ids=["sample_bilinear", "upsample_bilinear", "grid_sample_bilinear", "warp_perspective",
         "homography_warp", "depth_warp"],
)
def test_sampling_path_keeps_float32(op):
    x = g.Var(np.random.default_rng(13).random((2, 3, 9, 10)).astype(np.float32),
              requires_grad=True)
    out = op(x)
    assert out.dtype == np.float32
    assert g.backward(out.sum())[x].dtype == np.float32


def test_sampling_gradients_keep_each_leaf_dtype():
    # a float32 image with a float64 map: float32 out, each leaf its own dtype
    img = g.Var(np.random.default_rng(14).random((1, 2, 8, 9)).astype(np.float32),
                requires_grad=True)
    h = g.Var(np.array([[1.0, 0.05, 0.3], [0.02, 1.0, -0.2], [1e-3, 0.0, 1.0]]), requires_grad=True)
    out = geo.warp_perspective(img, h)
    grads = g.backward((out * out).sum())
    assert out.dtype == np.float32
    assert grads[img].dtype == np.float32 and grads[h].dtype == np.float64
    px = g.Var(np.full((1, 3, 4), 2.5, np.float32), requires_grad=True)
    py = g.Var(np.full((1, 3, 4), 1.5), requires_grad=True)
    grads = g.backward(g.sample_bilinear(img, px, py).sum())
    assert grads[px].dtype == np.float32 and grads[py].dtype == np.float64


# --- grid sampling ----------------------------------------------------------


def test_grid_sample_identity_bit_exact():
    x = g.Var(np.random.default_rng(2).random((2, 3, 7, 9)))
    out = g.grid_sample_bilinear(x, g.identity_grid(2, 7, 9))
    assert np.array_equal(out.data, x.data)


def test_grid_sample_pixel_center_exact():
    x = np.random.default_rng(4).random((1, 1, 5, 5))
    # pixel (3,2): normalized (2*3/4-1, 2*2/4-1) = (0.5, 0.0)
    grid = np.array([[[[0.5, 0.0]]]])
    out = g.grid_sample_bilinear(g.Var(x), grid)
    assert out.data[0, 0, 0, 0] == x[0, 0, 2, 3]


def test_grid_sample_midpoint_average():
    x = np.zeros((1, 1, 1, 2))
    x[0, 0, 0, 1] = 1.0
    grid = np.array([[[[0.0, 0.0]]]])  # halfway between the two pixels
    out = g.grid_sample_bilinear(g.Var(x), grid)
    assert out.data[0, 0, 0, 0] == pytest.approx(0.5)


def test_grid_sample_out_of_range_zero():
    x = g.Var(np.ones((1, 1, 4, 4)))
    grid = np.full((1, 1, 1, 2), -3.0)
    out = g.grid_sample_bilinear(x, grid)
    assert out.data[0, 0, 0, 0] == 0.0


def test_grid_sample_bad_trailing_extent():
    with pytest.raises(g.ShapeError):
        g.grid_sample_bilinear(g.Var(np.ones((1, 1, 4, 4))), np.zeros((1, 2, 2, 3)))


@pytest.mark.parametrize("seed", range(5))
def test_grid_sample_gradcheck_input_and_grid(seed):
    rng = np.random.default_rng(30 + seed)
    x = rng.normal(size=(2, 2, 6, 6))
    # keep samples away from integer pixel loci so bilinear kinks don't bite
    grid = rng.uniform(-0.9, 0.9, size=(2, 3, 4, 2))
    px = (grid + 1.0) * 0.5 * 5
    frac = px - np.floor(px)
    grid[np.abs(frac - 0.0).min(axis=-1) < 0.05] += 0.033
    gradcheck(lambda a, b: (g.grid_sample_bilinear(a, b) ** 2.0).sum(), [x, grid])


def test_upsample_bilinear_matches_identity_when_same_size():
    x = g.Var(np.random.default_rng(5).random((1, 2, 4, 6)))
    out = g.upsample_bilinear(x, (4, 6))
    assert np.array_equal(out.data, x.data)


def test_upsample_bilinear_linear_ramp_exact():
    # bilinear interpolation reproduces a linear ramp at any resolution
    x = np.arange(4.0).reshape(1, 1, 1, 4) / 3.0
    out = g.upsample_bilinear(g.Var(np.broadcast_to(x, (1, 1, 3, 4)).copy()), (5, 7))
    expect = np.linspace(0.0, 1.0, 7)
    assert np.allclose(out.data[0, 0, 2], expect, atol=1e-12)


def _gathered_upsample(x, size):
    """The former upsample_bilinear: sample_bilinear at the corner-aligned coordinates."""
    n, _, h, w = x.shape
    ho, wo = size
    jx = np.arange(wo, dtype=x.dtype) * ((w - 1) / max(wo - 1, 1))
    jy = np.arange(ho, dtype=x.dtype) * ((h - 1) / max(ho - 1, 1))
    return g.sample_bilinear(x, np.broadcast_to(jx, (n, ho, wo)), np.broadcast_to(jy[:, None], (n, ho, wo)))


@pytest.mark.parametrize(
    "src, size",
    [((15, 20), (60, 80)), ((30, 40), (60, 80)), ((60, 80), (60, 80)), ((1, 5), (6, 7)),
     ((4, 1), (6, 7)), ((1, 1), (3, 4)), ((7, 9), (1, 1)), ((7, 9), (1, 5)), ((7, 9), (4, 1)),
     ((20, 30), (700, 41)), ((700, 650), (300, 260))],  # past 512 pixels, up and down
)
def test_upsample_product_matches_the_gather(src, size, monkeypatch):
    rng = np.random.default_rng(40)
    x = rng.random((2, 3) + src) + 0.5
    cot = rng.normal(size=(2, 3) + size)

    def run(fn):
        xv = g.Var(x, requires_grad=True)
        out = fn(xv, size)
        return out.data, g.backward((out * cot).sum())[xv].data

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "sample_bilinear", None)  # the product path never gathers
        results = [run(g.upsample_bilinear)]
    results.append(run(_gathered_upsample))
    for got, want in zip(*results):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_upsample_product_gradcheck():
    x = np.random.default_rng(41).normal(size=(2, 2, 4, 5))
    gradcheck(lambda a: (g.upsample_bilinear(a, (7, 9)) ** 2.0).sum(), [x])


def test_upsample_keeps_float32_at_every_node(node_dtypes):
    x = g.Var(np.random.default_rng(42).random((1, 2, 5, 6)).astype(np.float32), requires_grad=True)
    out = g.upsample_bilinear(x, (9, 11))
    grads = g.backward((out * out).sum())
    assert out.dtype == grads[x].dtype == np.float32
    assert node_dtypes and set(node_dtypes) == {np.dtype(np.float32)}  # every node and vjp array


def test_upsample_non_finite_values_stay_local():
    # a NaN pixel takes the gather: a NaN window, not a NaN image
    x = np.zeros((1, 1, 10, 10))
    x[0, 0, 4, 6] = np.nan
    xv = g.Var(x, requires_grad=True)
    out = g.upsample_bilinear(xv, (19, 19))
    assert np.array_equal(out.data, _gathered_upsample(xv, (19, 19)).data, equal_nan=True)
    assert np.array_equal(np.isnan(out.data[0, 0]), np.pad(np.ones((4, 4), bool), ((6, 9), (10, 5))))
    # a NaN gradient reaches only the pixels its output interpolates from
    cot = np.zeros((1, 1, 19, 19))
    cot[0, 0, 9, 13] = np.nan
    xv = g.Var(np.ones((1, 1, 10, 10)), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = g.backward((g.upsample_bilinear(xv, (19, 19)) * cot).sum())[xv].data[0, 0]
    assert np.array_equal(np.isnan(grad), np.pad(np.ones((2, 2), bool), ((4, 4), (6, 2))))
    assert not grad[~np.isnan(grad)].any()


def test_upsample_operators_are_cached_and_read_only():
    op = kernels._axis_operator(15, 300, "bilinear", np.dtype(np.float64))
    assert op is kernels._axis_operator(15, 300, "bilinear", np.dtype(np.float64))
    assert len(op) > 1 and sum(len(block) for _, block in op) == 300
    # every output pixel is a convex combination: every row has mass 1
    assert np.allclose(kernels._product(np.ones((1, 1, 15, 2)), op, None), 1.0)
    for _, block in op:
        with pytest.raises(ValueError):
            block[0, 0] = 1.0


def test_operator_adjoint_zeroes_the_pixels_no_tile_reads():
    op = kernels._axis_operator(650, 260, "bilinear", np.dtype(np.float64))
    dense = np.zeros((260, 650))
    s = 0
    for lo, block in op:
        dense[s : s + len(block), lo : lo + block.shape[1]] = block
        s += len(block)
    assert not dense.any(axis=0).all()  # some source pixel is read by no output
    g = np.random.default_rng(44).normal(size=(1, 1, 2, 260))
    for _ in range(3):
        np.full((1, 1, 2, 650), np.nan)  # leave NaN where the adjoint's output may be allocated
    got, want = kernels._product(g, None, op, adjoint=True), g @ dense
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()  # a NaN fails it


# --- sample_bilinear against the former four-corner op ----------------------


def _four_corner_sample(x, px, py, gout):
    """The former sample_bilinear (reference): four masked corner gathers from
    clamped indices.  Returns the output and the image, px and py gradients
    for an output gradient gout, all in float64."""
    n, c, h, w = x.shape
    pxs, pys = (np.where(np.abs(p - np.rint(p)) <= 1e-8, np.rint(p), p)
                for p in (px.reshape(n, -1), py.reshape(n, -1)))
    x0, y0 = np.floor(pxs).astype(np.int64), np.floor(pys).astype(np.int64)
    wx1, wy1 = pxs - x0, pys - y0
    flat = x.reshape(n, c, h * w)
    gp = gout.reshape(n, c, -1)
    offs = (np.arange(n * c) * (h * w)).reshape(n, c, 1)
    out, gx, vm = 0.0, np.zeros(x.size), []
    for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
        cx, cy = x0 + dx, y0 + dy
        valid = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
        idx = np.clip(cy, 0, h - 1) * w + np.clip(cx, 0, w - 1)
        wgt = (wx1 if dx else 1.0 - wx1) * (wy1 if dy else 1.0 - wy1) * valid
        v = np.take_along_axis(flat, idx[:, None, :], axis=2) * valid[:, None, :]
        out = out + v * wgt[:, None, :]
        np.add.at(gx, (idx[:, None] + offs).ravel(), (gp * wgt[:, None, :]).ravel())
        vm.append(v)
    v00, v01, v10, v11 = vm
    dpx = (1.0 - wy1)[:, None] * (v01 - v00) + wy1[:, None] * (v11 - v10)
    dpy = (1.0 - wx1)[:, None] * (v10 - v00) + wx1[:, None] * (v11 - v01)
    return (
        out.reshape(gout.shape),
        gx.reshape(x.shape),
        (gp * dpx).sum(axis=1).reshape(px.shape),
        (gp * dpy).sum(axis=1).reshape(py.shape),
    )


def _sampling_case(name):
    """(image, px, py) for one comparison case; images are 5x6 unless noted."""
    rng = np.random.default_rng(sum(map(ord, name)))
    h, w = 5, 6
    img = rng.normal(size=(1, 1, h, w))
    if name == "in_range":
        px, py = rng.uniform(0, w - 1, (2, 1, 4, 7))
    elif name == "borders":
        # points straddling or crossing each border, then random ones around the image
        edge = np.array([-1.6, -0.7, -0.2, w - 1.3, w - 0.5, w + 0.4, w + 1.5])
        inner = rng.uniform(0.2, 3.8, edge.size)
        px = np.concatenate([edge, inner, rng.uniform(-2.5, w + 1.5, 7)])[None, None]
        py = np.concatenate([inner, edge - w + h, rng.uniform(-2.5, h + 1.5, 7)])[None, None]
    elif name == "on_edges":
        xs, ys = np.meshgrid([-1.0, 0.0, 2.5, w - 1.0, w], [-1.0, 0.0, 1.5, h - 1.0, h])
        px, py = xs[None], ys[None]
    elif name == "far":
        # -1e9 is where the warp tail sends points with an unusable w
        px = np.array([[[-1e9, 2.5, 1e9, -1e9, 3.2, 4.0]]])
        py = np.array([[[1.5, -1e9, 2.2, -1e9, 1e9, 0.5]]])
    elif name == "batch_channels":
        img = rng.normal(size=(2, 3, h, w))
        px, py = rng.uniform(-1.5, w + 0.5, (2, 2, 3, 8))
    elif name == "float32":
        img = img.astype(np.float32)
        px, py = rng.uniform(-1.5, w + 0.5, (2, 1, 3, 8)).astype(np.float32)
    else:  # near_integer: within _SNAP_EPS of an integer, on both sides
        k = rng.integers(-1, 6, (2, 1, 3, 6)).astype(np.float64)
        px, py = k + rng.choice([-5e-9, 0.0, 5e-9, 0.25], size=k.shape)
    return img, px, py


@pytest.mark.parametrize(
    "name",
    ["in_range", "borders", "on_edges", "far", "batch_channels", "float32", "near_integer"],
)
def test_sample_bilinear_matches_four_corner_reference(name):
    img, px, py = _sampling_case(name)
    gout = np.random.default_rng(7).normal(size=img.shape[:2] + px.shape[1:])
    xv, pxv, pyv = (g.Var(a, requires_grad=True) for a in (img, px, py))
    out = g.sample_bilinear(xv, pxv, pyv)
    grads = g.backward((out * gout).sum())
    got = (out.data, grads[xv].data, grads[pxv].data, grads[pyv].data)
    # the reference runs in float64 on the same values, and its results are cast
    # to the dtype contract; the former op took float32 images' corner
    # differences in float32, which moved coordinate gradients by up to 6e-8
    ref = _four_corner_sample(*(a.astype(np.float64) for a in (img, px, py)), gout)
    for a, b, dtype in zip(got, ref, (img.dtype, img.dtype, px.dtype, py.dtype)):
        assert a.dtype == dtype and a.shape == b.shape
        b = b.astype(dtype).astype(np.float64)
        assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)


def test_sample_bilinear_non_finite_coordinates():
    # NaN gives NaN with NaN coordinate gradients; +-inf reads the zero border
    img = g.Var(np.random.default_rng(3).random((1, 2, 5, 6)), requires_grad=True)
    px = g.Var([[[np.nan, np.inf, -np.inf, 2.5, 1.5, np.nan, 2.5]]], requires_grad=True)
    py = g.Var([[[1.5, 2.0, 2.0, -np.inf, np.nan, np.nan, 1.5]]], requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = g.sample_bilinear(img, px, py)
        grads = g.backward(out.sum())
    nan = np.array([True, False, False, False, True, True, False])
    assert np.isnan(out.data[0, :, 0]).all(axis=0).tolist() == nan.tolist()
    assert np.all(out.data[0, :, 0, 1:4] == 0.0) and np.isfinite(out.data[0, :, 0, 6]).all()
    for v in (px, py):
        assert np.isnan(grads[v].data[0, 0]).tolist() == nan.tolist()
        assert np.all(grads[v].data[0, 0, 1:4] == 0.0)
    # the image gradient is finite; it is the finite sample's alone
    alone = g.backward(g.sample_bilinear(img, [[[2.5]]], [[[1.5]]]).sum())[img].data
    assert np.array_equal(grads[img].data, alone)


# --- extract_patches --------------------------------------------------------


def test_patches_tile_4x4():
    x = g.Var(np.arange(16.0).reshape(1, 1, 4, 4))
    p = g.extract_patches(x, (2, 2), (2, 2))
    assert p.shape == (1, 4, 1, 2, 2)
    assert np.array_equal(p.data[0, 0, 0], [[0, 1], [4, 5]])
    assert np.array_equal(p.data[0, 3, 0], [[10, 11], [14, 15]])


def test_patches_full_window_is_input():
    x = g.Var(np.random.default_rng(6).random((1, 3, 5, 4)))
    p = g.extract_patches(x, (5, 4), (1, 1))
    assert p.shape == (1, 1, 3, 5, 4)
    assert np.array_equal(p.data[0, 0], x.data[0])


def test_patches_index_arithmetic_oracle():
    x = np.random.default_rng(8).random((1, 1, 5, 5))
    p = g.extract_patches(g.Var(x), (3, 3), (1, 1))
    assert p.shape[1] == 9
    for idx in range(9):
        i, j = divmod(idx, 3)
        assert np.array_equal(p.data[0, idx, 0], x[0, 0, i : i + 3, j : j + 3])


def test_patches_window_too_large():
    with pytest.raises(g.ParameterError):
        g.extract_patches(g.Var(np.ones((1, 1, 4, 4))), (5, 5), (1, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda x: g.extract_patches(x, (-2, 3), (1, 1)),
        lambda x: g.extract_patches(x, (2, 0), (1, 1)),
        lambda x: g.upsample_bilinear(x, (-1, 4)),
        lambda x: g.upsample_bilinear(x, (3, 0)),
    ],
    ids=["patches_negative_window", "patches_zero_window", "upsample_negative_size", "upsample_zero_size"],
)
def test_non_positive_sizes_raise_parameter_error(call):
    with pytest.raises(g.ParameterError):
        call(g.Var(np.ones((1, 1, 4, 4))))


def test_patches_reassembly_roundtrip():
    x = np.random.default_rng(9).random((2, 3, 6, 8))
    p = g.extract_patches(g.Var(x), (3, 2), (3, 2)).data
    rebuilt = np.zeros_like(x)
    pw = 8 // 2
    for idx in range(p.shape[1]):
        i, j = divmod(idx, pw)
        rebuilt[:, :, 3 * i : 3 * i + 3, 2 * j : 2 * j + 2] = p[:, idx]
    assert np.array_equal(rebuilt, x)


@pytest.mark.parametrize("seed", range(3))
def test_patches_gradcheck(seed):
    rng = np.random.default_rng(40 + seed)
    x = rng.normal(size=(1, 2, 5, 5))
    gradcheck(lambda a: (g.extract_patches(a, (3, 3), (2, 2)) ** 2.0).sum(), [x])


# --- pad -------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["zero", "replicate", "reflect"])
def test_pad_matches_numpy(mode):
    x = np.random.default_rng(11).random((1, 1, 4, 5))
    out = g.pad2d(g.Var(x), (1, 2, 2, 1), mode=mode)
    np_mode = {"zero": "constant", "replicate": "edge", "reflect": "symmetric"}[mode]
    expect = np.pad(x, ((0, 0), (0, 0), (1, 2), (2, 1)), mode=np_mode)
    assert np.array_equal(out.data, expect)


def _pad_by_index_map(x, padding, mode):
    """Reference: gather through the per-axis index maps, zero where they hold -1."""
    pt, pb, pl, pr = padding
    iy = _pad_index(x.shape[2], pt, pb, mode)
    ix = _pad_index(x.shape[3], pl, pr, mode)
    out = x[:, :, np.maximum(iy, 0)[:, None], np.maximum(ix, 0)[None, :]]
    return out * ((iy >= 0)[:, None] & (ix >= 0)[None, :]) if mode == "zero" else out


@pytest.mark.parametrize("mode", ["zero", "replicate", "reflect"])
@pytest.mark.parametrize(
    "shape, padding",
    [
        ((1, 5, 60, 80), (5, 5, 5, 5)),  # the depth demo's blur pad
        ((40, 1, 32, 32), (1, 1, 1, 1)),  # descriptor patches
        ((2, 3, 4, 5), (2, 3, 4, 1)),
        ((2, 2, 3, 4), (3, 3, 0, 2)),  # pad as wide as the extent
    ],
)
def test_pad_forward_matches_index_map_gather(mode, shape, padding):
    x = np.random.default_rng(12).normal(size=shape)
    out = g.pad2d(g.Var(x), padding, mode=mode).data
    assert out.dtype == x.dtype
    assert np.array_equal(out, _pad_by_index_map(x, padding, mode))


@pytest.mark.parametrize("mode", ["zero", "replicate", "reflect"])
@pytest.mark.parametrize("seed", range(2))
def test_pad_gradcheck(mode, seed):
    rng = np.random.default_rng(50 + seed)
    x = rng.normal(size=(1, 2, 4, 4))
    gradcheck(lambda a: (g.pad2d(a, (2, 1, 1, 2), mode=mode) ** 2.0).sum(), [x])


def test_pad_replicate_wider_than_extent():
    # every padded row above and below lands on one of the three edge rows
    x = np.random.default_rng(13).normal(size=(2, 2, 3, 4))
    out = g.pad2d(g.Var(x), (5, 5, 0, 0), mode="replicate")
    assert np.array_equal(out.data, np.pad(x, ((0, 0), (0, 0), (5, 5), (0, 0)), mode="edge"))
    gradcheck(lambda a: (g.pad2d(a, (5, 5, 0, 0), mode="replicate") ** 2.0).sum(), [x])


@pytest.mark.parametrize("mode", ["zero", "replicate", "reflect"])
def test_pad_adjoint_dot_product(mode):
    # <pad(x), y> == <x, pad^T(y)>, with pad^T read off the backward pass
    rng = np.random.default_rng(14)
    x = g.Var(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    padded = g.pad2d(x, (2, 3, 4, 1), mode=mode)
    y = rng.normal(size=padded.shape)
    lhs = float(np.vdot(padded.data, y))
    rhs = float(np.vdot(x.data, g.backward((padded * y).sum())[x].data))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_reflect_pad_too_large():
    with pytest.raises(g.ParameterError):
        g.pad2d(g.Var(np.ones((1, 1, 3, 3))), (4, 4, 0, 0), mode="reflect")
