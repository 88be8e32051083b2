"""Local features: responses, NMS, orientation, SIFT, matching, RANSAC."""
import numpy as np
import pytest

import gradcv as g
from gradcv import features as ft
from gradcv import filters
from gradcv import geometry as geo
from gradcv.demos import synthetic
from gradcv.filters import gaussian_blur2d, spatial_gradient
from gradcv.kernels import _SNAP_EPS
from gradcv.tape import _record
from gradcv.testing import gradcheck


def textured_image(shape, seed=0, sigma=1.2):
    rng = np.random.default_rng(seed)
    img = g.Var(rng.random((1, 1) + shape))
    k = 2 * int(3 * sigma) + 1
    arr = gaussian_blur2d(img, (k, k), (sigma, sigma)).data
    arr = (arr - arr.min()) / (arr.max() - arr.min())
    return arr


# --- responses ----------------------------------------------------------------


@pytest.mark.parametrize("mode", ["harris", "shi_tomasi", "hessian"])
def test_response_constant_zero(mode):
    img = g.Var(np.full((1, 1, 24, 24), 0.5))
    r = ft.corner_response(img, mode=mode)
    assert np.abs(r.data).max() < 1e-5  # shi_tomasi carries a 1e-6 sqrt eps


def test_response_multichannel_rejected():
    with pytest.raises(g.ShapeError):
        ft.corner_response(g.Var(np.ones((1, 3, 16, 16))))


def test_harris_square_corner_ordering():
    img = np.zeros((1, 1, 40, 40))
    img[0, 0, 12:28, 12:28] = 1.0
    r = np.abs(ft.corner_response(g.Var(img), mode="harris").data[0, 0])
    # corner/edge/flat strengths: the edge response is negative by design,
    # so the ordering is on magnitudes
    corner = min(r[12, 12], r[12, 27], r[27, 12], r[27, 27])
    edge_mid = max(r[12, 20], r[27, 20], r[20, 12], r[20, 27])
    interior = r[20, 20]
    assert corner > edge_mid > interior


def test_hessian_blob_peak_at_center():
    yy, xx = np.mgrid[0:41, 0:41]
    blob = np.exp(-((xx - 20.0) ** 2 + (yy - 20.0) ** 2) / (2 * 3.0**2))
    r = ft.corner_response(g.Var(blob[None, None]), mode="hessian").data[0, 0]
    peak = np.unravel_index(np.argmax(r), r.shape)
    assert peak == (20, 20)


def test_hessian_response_matches_two_call_formula():
    # the three second derivatives it computes give the same response and
    # the same image gradient as one spatial_gradient call per derivative
    weights = np.random.default_rng(6).normal(size=(1, 1, 40, 48))

    def two_call(img):
        smoothed = gaussian_blur2d(img, (7, 7), (1.0, 1.0))
        grad = spatial_gradient(smoothed, mode="diff")
        gxx = spatial_gradient(grad[:, :, 0], mode="diff")
        gyy = spatial_gradient(grad[:, :, 1], mode="diff")
        return gxx[:, :, 0] * gyy[:, :, 1] - gxx[:, :, 1] * gxx[:, :, 1]

    outs = []
    for response in (two_call, lambda v: ft.corner_response(v, mode="hessian", sigma_int=1.0)):
        x = g.Var(textured_image((40, 48), seed=4), requires_grad=True)
        r = response(x)
        outs.append((r.data, g.backward((r * weights).sum())[x].data))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])


def test_hessian_pyramid_downsamples_only_between_levels(monkeypatch):
    calls = []
    down = filters.pyramid_down
    monkeypatch.setattr(filters, "pyramid_down", lambda x: calls.append(x.shape) or down(x))
    pyramid = ft.hessian_pyramid(g.Var(textured_image((160, 160), seed=2)), levels=3)
    assert [lvl.image.shape[2] for lvl in pyramid] == [160, 80, 40]
    assert calls == [(1, 1, 160, 160), (1, 1, 80, 80)]


def test_response_translation_equivariance():
    img = textured_image((32, 48), seed=3)
    shifted = np.roll(img, 5, axis=3)
    r0 = ft.corner_response(g.Var(img), mode="hessian").data
    r1 = ft.corner_response(g.Var(shifted), mode="hessian").data
    inner = (slice(None), slice(None), slice(8, -8), slice(13, -8))
    assert np.abs(np.roll(r0, 5, axis=3)[inner] - r1[inner]).max() < 1e-9


@pytest.mark.parametrize("mode", ["harris", "shi_tomasi", "hessian"])
def test_response_gradcheck(mode):
    img = textured_image((12, 12), seed=4)
    gradcheck(lambda v: (ft.corner_response(v, mode=mode) ** 2.0).sum() * 1e4, [img], rtol=1e-3)


# --- nms -----------------------------------------------------------------------


def test_nms_single_spike():
    r = np.zeros((16, 16))
    r[5, 7] = 1.0
    kps = ft.nms2d(r, window=3, threshold=0.1)
    assert len(kps) == 1
    assert (kps[0].x, kps[0].y) == (7.0, 5.0)


def test_nms_constant_no_keypoints():
    assert ft.nms2d(np.full((12, 12), 0.7), window=3, threshold=0.0) == []


def test_nms_tie_scan_order():
    r = np.zeros((9, 9))
    r[4, 3] = r[4, 4] = 1.0  # equal maxima inside one window
    kps = ft.nms2d(r, window=5, threshold=0.5)
    assert len(kps) == 1  # first in scan order wins
    assert kps[0].y == 4.0
    assert 3.0 <= kps[0].x <= 3.5  # subpixel fit may move toward the tie


def test_nms_subpixel_refinement():
    # quadratic bump with a known off-grid vertex
    xs = np.arange(15.0)
    vertex = 7.3
    r = np.tile(10.0 - (xs - vertex) ** 2, (15, 1))
    r = r + (10.0 - (np.arange(15.0)[:, None] - 7.0) ** 2)
    kps = ft.nms2d(r, window=3, threshold=0.0)
    assert len(kps) == 1
    assert kps[0].x == pytest.approx(vertex, abs=1e-9)
    assert kps[0].y == pytest.approx(7.0, abs=1e-9)
    assert abs(kps[0].x - round(kps[0].x)) <= 0.5


def _nms_loop_reference(r, window, threshold):
    """Per-candidate NMS: the definition nms2d must reproduce bit for bit."""
    h, w = r.shape
    rad = window // 2
    padded = np.pad(r, rad, mode="constant", constant_values=-np.inf)
    wmax = np.lib.stride_tricks.sliding_window_view(padded, (window, window)).max(axis=(2, 3))
    padded_hi = np.pad(r, rad, mode="constant", constant_values=np.inf)
    wmin = np.lib.stride_tricks.sliding_window_view(padded_hi, (window, window)).min(axis=(2, 3))
    out = []
    for y, x in np.argwhere((r >= wmax) & (r > threshold) & (wmin < r)):
        v = r[y, x]
        ties = np.argwhere(padded[y : y + window, x : x + window] == v)
        if ((ties[:, 0] + y - rad) * w + ties[:, 1] + x - rad).min() < y * w + x:
            continue
        dx = ft._quad_offset(r[y, x - 1], v, r[y, x + 1]) if 0 < x < w - 1 else 0.0
        dy = ft._quad_offset(r[y - 1, x], v, r[y + 1, x]) if 0 < y < h - 1 else 0.0
        out.append((float(x + dx), float(y + dy), float(v)))
    return out


def _nms_map(kind, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 24, 2))
    if kind == "quantized":  # few levels: ties and plateaus everywhere
        return np.round(rng.normal(size=shape) * 2.0) / 2.0
    if kind == "border":  # strongest values on the border rows and columns
        r = rng.random(shape)
        r[0, :] += 2.0
        r[:, -1] += 2.0
        return r
    r = np.round(rng.normal(size=shape), 1)  # "inf": both infinities mixed in
    r[rng.random(shape) < 0.1] = np.inf
    r[rng.random(shape) < 0.1] = -np.inf
    return r


@pytest.mark.parametrize("kind", ["quantized", "border", "inf"])
@pytest.mark.parametrize("window", [1, 3, 5, 7])
@pytest.mark.parametrize("threshold", [0.0, -np.inf])
def test_nms_matches_loop_reference(kind, window, threshold):
    for seed in range(30):
        r = _nms_map(kind, seed)
        with np.errstate(invalid="ignore"):  # quadratic fits through infinite values
            want = _nms_loop_reference(r, window, threshold)
            got = [(k.x, k.y, k.response) for k in ft.nms2d(r, window=window, threshold=threshold)]
        assert np.array_equal(np.array(got).reshape(-1, 3), np.array(want).reshape(-1, 3), equal_nan=True)


def test_refine_positions_matches_nms():
    rng = np.random.default_rng(5)
    r = gaussian_blur2d(g.Var(rng.random((1, 1, 20, 20))), (5, 5), (1.0, 1.0))
    kps = ft.nms2d(r.data, window=5, threshold=-np.inf)
    ys = np.array([int(round(k.y)) for k in kps])
    xs = np.array([int(round(k.x)) for k in kps])
    px, py = ft.refine_positions(g.Var(r.data), ys, xs)
    for i, k in enumerate(kps):
        assert px.data[i] == pytest.approx(k.x, abs=1e-12)
        assert py.data[i] == pytest.approx(k.y, abs=1e-12)


def test_refine_positions_differentiable():
    rng = np.random.default_rng(6)
    r = rng.random((1, 1, 10, 10))

    def f(resp):
        px, py = ft.refine_positions(resp, np.array([4, 6]), np.array([5, 3]))
        return (px * px + py * py).sum()

    gradcheck(f, [r])


def test_refine_positions_rejects_positions_off_the_map():
    r = g.Var(np.random.default_rng(7).random((10, 12)))
    for ys, xs in (([-3], [4]), ([10], [4]), ([3], [12]), ([3], [-1])):
        with pytest.raises(g.ParameterError):
            ft.refine_positions(r, np.array(ys), np.array(xs))
    with pytest.raises(g.ShapeError):
        ft.refine_positions(r, np.array([3, 4]), np.array([5]))


@pytest.mark.parametrize("shape", [(2, 5, 5), (2, 1, 5, 5), (1, 2, 5, 5), (5,), (1, 1, 1, 5, 5)], ids=str)
def test_refine_positions_rejects_a_response_of_another_shape(shape):
    with pytest.raises(g.ShapeError, match=r"\(H,W\) or \(1,1,H,W\)"):
        ft.refine_positions(g.Var(np.ones(shape)), np.array([2]), np.array([2]))


# --- orientation ------------------------------------------------------------------


def _ramp_patch(angle=0.0):
    yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
    return np.cos(angle) * xx + np.sin(angle) * yy


def test_orientation_ramp_x():
    (theta,), (degenerate,) = ft.dominant_orientations(_ramp_patch(0.0)[None, None])
    assert not degenerate
    binw = 2 * np.pi / ft.ORI_HIST_BINS
    assert min(theta, 2 * np.pi - theta) <= binw


def test_orientation_rotated_patch():
    base = textured_image((32, 32), seed=7)[0, 0]
    (t0,), _ = ft.dominant_orientations(base[None, None])
    (t90,), _ = ft.dominant_orientations(np.rot90(base, k=-1)[None, None])  # rotates gradients by +90
    binw = 2 * np.pi / ft.ORI_HIST_BINS
    delta = np.mod(t90 - t0, 2 * np.pi)
    assert min(abs(delta - np.pi / 2), abs(delta - np.pi / 2 - 2 * np.pi)) <= 2 * binw


def test_orientation_constant_degenerate():
    (theta,), (degenerate,) = ft.dominant_orientations(np.full((1, 1, 32, 32), 0.6))
    assert degenerate
    assert theta == 0.0


# --- sift ---------------------------------------------------------------------------


def test_sift_unit_norm():
    rng = np.random.default_rng(8)
    patches = g.Var(rng.random((4, 1, 32, 32)))
    desc = ft.sift_describe(patches, np.zeros(4))
    norms = np.linalg.norm(desc.data, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6
    assert desc.shape == (4, 128)


def test_sift_constant_patch_zero_vector():
    desc = ft.sift_describe(np.full((32, 32), 0.5))
    assert np.array_equal(desc.data, np.zeros((1, 128)))


def test_sift_rotation_invariance_with_theta():
    # fixed anisotropic textured patch vs its 90-degree rotation
    # (pinned oracle run: comp ~ 0.00, nocomp ~ 1.15)
    patch = textured_image((32, 32), seed=0, sigma=0.8)[0, 0]
    yy, xx = np.mgrid[0:32, 0:32]
    patch = 0.5 * patch + 0.5 * (0.5 + 0.5 * np.sin(xx * 0.7))
    rot = np.rot90(patch, k=-1).copy()
    t_base, _ = ft.dominant_orientations(patch[None, None])
    t_rot, _ = ft.dominant_orientations(rot[None, None])
    d_base = ft.sift_describe(patch, t_base).data[0]
    d_rot = ft.sift_describe(rot, t_rot).data[0]
    dist_comp = np.linalg.norm(d_base - d_rot)
    d_base0 = ft.sift_describe(patch, np.array([0.0])).data[0]
    d_rot0 = ft.sift_describe(rot, np.array([0.0])).data[0]
    dist_nocomp = np.linalg.norm(d_base0 - d_rot0)
    assert dist_comp < 0.45
    assert dist_nocomp > 0.9


def test_sift_wrong_size_rejected():
    with pytest.raises(g.ShapeError):
        ft.sift_describe(np.ones((16, 16)))


@pytest.mark.parametrize("theta", [np.nan, np.inf])
def test_sift_rejects_non_finite_orientation(theta):
    with pytest.raises(g.ParameterError):
        ft.sift_describe(np.ones((2, 1, 32, 32)), np.array([0.0, theta]))


@pytest.mark.parametrize("seed", [3, 4, 5, 6, 7])
def test_sift_gradcheck(seed):
    # seeds chosen away from histogram-bin boundaries (spec excludes them)
    rng = np.random.default_rng(seed)
    patch = gaussian_blur2d(g.Var(rng.random((1, 1, 32, 32))), (5, 5), (1.0, 1.0)).data

    def f(p):
        return ft.sift_describe(p, np.array([0.37])).sum()

    gradcheck(f, [patch], rtol=1e-3)


# --- the former describe chain, kept as the reference of the blocked pass -------------
# describe and the attack's gradient pass run one blocked node per pyramid level
# (ft._level_histograms), and sift_describe runs the same blocks on given patches.
# The references below are the chain that node replaced, one op per step:
# extract_patches_at -> spatial_gradient -> orientation histogram -> SIFT votes
# (the former sparse votes, or the dense formulas) -> normalize.


def _chain_orientations(patches):
    """The former orientation step on spatial_gradient's patch gradients."""
    grad = spatial_gradient(g.Var(patches), mode="diff").data
    dx, dy = grad[:, 0, 0], grad[:, 0, 1]
    n, s = len(dx), dx.shape[-1]
    c = (s - 1) / 2.0
    yy, xx = np.mgrid[0:s, 0:s]
    gauss = np.exp(-(((xx - c) ** 2 + (yy - c) ** 2) / (2.0 * (s / 4.0) ** 2)))
    wgt = np.sqrt(dx * dx + dy * dy) * gauss
    ang = np.arctan2(dy, dx)
    ang += (ang < 0) * (2.0 * np.pi)
    bins = np.minimum((ang * (ft.ORI_HIST_BINS / (2.0 * np.pi))).astype(int), ft.ORI_HIST_BINS - 1)
    bins += np.arange(n)[:, None, None] * ft.ORI_HIST_BINS
    hist = np.bincount(bins.ravel(), wgt.ravel(), n * ft.ORI_HIST_BINS).reshape(n, ft.ORI_HIST_BINS)
    degenerate = hist.sum(axis=1) < 1e-9
    peak = hist.argmax(axis=1)
    rows = np.arange(n)
    off = ft._quad_offset(
        hist[rows, (peak - 1) % ft.ORI_HIST_BINS], hist[rows, peak], hist[rows, (peak + 1) % ft.ORI_HIST_BINS]
    )
    theta = np.mod((peak + off) * (2.0 * np.pi / ft.ORI_HIST_BINS), 2.0 * np.pi)
    theta[degenerate] = 0.0
    return theta


def _sparse_histogram(dx, dy, thetas):
    """The former sparse SIFT votes: one tape op on the flattened patch
    gradients dx, dy (N,P), 8 votes per pixel on an 8-wide orientation axis."""
    dxa, dya = dx.data, dy.data
    n, p = dxa.shape
    grid = ft.DESC_SPATIAL_BINS + 4
    corners = np.array([0, 1, grid, grid + 1])[:, None, None] * ft.DESC_ORI_BINS
    v, u = (np.indices((32, 32)).reshape(2, p) - 15.5) / 8.0
    gauss = np.exp(-(u * u + v * v) / 8.0)
    per_rad = ft.DESC_ORI_BINS / (2.0 * np.pi)
    mag = np.sqrt(dxa * dxa + dya * dya + 1e-12)
    blocks = [slice(i, i + 16) for i in range(0, n, 16)]

    def votes(blk):
        cos_t, sin_t = np.cos(thetas[blk, None]), np.sin(thetas[blk, None])
        fx, fy = cos_t * u + sin_t * v + 3.5, cos_t * v - sin_t * u + 3.5
        lx, ly = np.floor(fx), np.floor(fy)
        wy = np.stack([ly + 1.0 - fy, fy - ly]) * gauss
        sw = (wy[:, None] * np.stack([lx + 1.0 - fx, fx - lx])).reshape(4, len(cos_t), p)
        cell = (ly * grid + lx + np.arange(len(cos_t))[:, None] * grid**2) * ft.DESC_ORI_BINS
        fo = (np.arctan2(dya[blk], dxa[blk]) - thetas[blk, None]) * per_rad
        lo = np.floor(fo)
        ori = (lo.astype(np.int64) + np.arange(2)[:, None, None]) & (ft.DESC_ORI_BINS - 1)
        idx = (cell.astype(np.int64) + corners)[:, None] + ori
        return idx, sw, np.stack([lo + 1.0 - fo, fo - lo]), (fo > lo) * per_rad

    hist = np.empty((n, grid, grid, ft.DESC_ORI_BINS))
    for blk in blocks:
        idx, sw, wo, _ = votes(blk)
        h = hist[blk]
        h[...] = np.bincount(idx.ravel(), (sw[:, None] * (wo * mag[blk])).ravel(), h.size).reshape(h.shape)

    def vjp(gr):
        padded = np.pad(gr.reshape(n, 4, 4, -1), [(0, 0), (2, 2), (2, 2), (0, 0)])
        g_mag, g_ang = np.empty_like(mag), np.empty_like(mag)
        for blk in blocks:
            idx, sw, wo, slope = votes(blk)
            gs = (padded[blk].ravel()[idx] * sw[:, None]).sum(axis=0)
            g_mag[blk] = gs[0] * wo[0] + gs[1] * wo[1]
            g_ang[blk] = (gs[1] - gs[0]) * slope
        return (g_mag * dxa - g_ang * dya) / mag, (g_mag * dya + g_ang * dxa) / mag

    return _record(hist[:, 2:-2, 2:-2].reshape(n, -1).astype(dxa.dtype, copy=False), (dx, dy), vjp)


def _dense_orientation_votes(dx, dy, thetas):
    """Dense reference: every pixel evaluates all 8 orientation tents."""
    bw = 2.0 * np.pi / ft.DESC_ORI_BINS
    centers = np.arange(ft.DESC_ORI_BINS) * bw
    dxa, dya = dx.data, dy.data
    r2 = dxa * dxa + dya * dya + 1e-12
    mag = np.sqrt(r2)
    diff = (np.arctan2(dya, dxa) - thetas[:, None])[:, :, None] - centers
    wrapped = diff - 2.0 * np.pi * np.floor((diff + np.pi) / (2.0 * np.pi))
    tri = 1.0 - np.abs(wrapped) * (1.0 / bw)
    active = tri > 0.0
    tri *= active

    def vjp(gr):
        g_mag = (gr * tri).sum(axis=2)
        g_ang = (gr * (mag[:, :, None] * (-np.sign(wrapped) / bw) * active)).sum(axis=2)
        return (g_mag * (dxa / mag) + g_ang * (-dya / r2), g_mag * (dya / mag) + g_ang * (dxa / r2))

    return _record(mag[:, :, None] * tri, (dx, dy), vjp)  # (N, P, 8)


def _dense_spatial_weights(thetas, size=32):
    """Dense reference: every pixel evaluates all 16 spatial tents."""
    c = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    u, v = (xx - c).ravel(), (yy - c).ravel()
    cos_t, sin_t = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    ur = cos_t * u + sin_t * v
    vr = -sin_t * u + cos_t * v
    spacing = size / ft.DESC_SPATIAL_BINS
    centers = (np.arange(ft.DESC_SPATIAL_BINS) + 0.5) * spacing - size / 2.0
    wx = np.maximum(0.0, 1.0 - np.abs(ur[:, :, None] - centers) / spacing)
    wy = np.maximum(0.0, 1.0 - np.abs(vr[:, :, None] - centers) / spacing)
    gauss = np.exp(-(ur**2 + vr**2) / (2.0 * (0.5 * size) ** 2))
    sw = wy[:, :, :, None] * wx[:, :, None, :] * gauss[:, :, None, None]  # (N,P,4y,4x)
    return sw.reshape(len(thetas), size * size, -1)


def _dense_histogram(dx, dy, thetas):
    """The histogram as a batched matmul of the dense spatial and orientation tents."""
    votes = _dense_orientation_votes(dx, dy, thetas)
    sw = g.Var(_dense_spatial_weights(thetas)).swapaxes(1, 2)
    return g.matmul(sw, votes).reshape((len(thetas), -1))


def _chain_sift(patches, thetas, histogram=_sparse_histogram):
    """The former sift_describe: spatial_gradient -> histogram -> L2 -> clamp 0.2 -> L2."""
    pv = g.as_var(patches)
    n = pv.shape[0]
    grad = spatial_gradient(pv, mode="diff")
    dx, dy = grad[:, :, 0], grad[:, :, 1]
    degenerate = (np.abs(dx.data).max(axis=(1, 2, 3)) + np.abs(dy.data).max(axis=(1, 2, 3))) < 1e-12
    desc = histogram(dx.reshape((n, -1)), dy.reshape((n, -1)), thetas)
    desc = desc / g.sqrt((desc * desc).sum(axis=1, keepdims=True) + 1e-12)
    desc = desc.clamp(hi=0.2)
    desc = desc / g.sqrt((desc * desc).sum(axis=1, keepdims=True) + 1e-12)
    return g.where(np.broadcast_to(~degenerate[:, None], desc.shape), desc, 0.0)


def _chain_describe(pyramid, keypoints, histogram=_sparse_histogram):
    """The former describe: (descriptors (M,128), orientations) in keypoint order."""
    desc = np.empty((len(keypoints), 128))
    thetas = np.empty(len(keypoints))
    for level, idx, xs, ys in ft._per_level(pyramid, keypoints):
        patches = ft.extract_patches_at(level.image, xs, ys)
        thetas[idx] = _chain_orientations(patches.data)
        desc[idx] = _chain_sift(patches, thetas[idx], histogram).data
    return desc, thetas


def _describe_with_vjp(describe, patches, thetas, cotangent):
    pv = g.Var(patches, requires_grad=True)
    desc = describe(pv, thetas)
    return desc.data, g.backward((desc * cotangent).sum())[pv].data


def _shipped_and_dense(patches, thetas):
    cotangent = np.random.default_rng(len(patches)).normal(size=(len(patches), 128))
    dense = lambda p, t: _chain_sift(p, t, _dense_histogram)
    return _describe_with_vjp(ft.sift_describe, patches, thetas, cotangent), _describe_with_vjp(
        dense, patches, thetas, cotangent
    )


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


_SIFT_THETAS = [0.0, *(k * np.pi / 4 for k in range(1, 8)), -0.3, 2 * np.pi - 1e-15]


@pytest.mark.parametrize("theta", _SIFT_THETAS)
@pytest.mark.parametrize("n", [1, 17, 40])  # 17 and 40 span more than one binning block
def test_sift_sparse_binning_matches_dense(n, theta):
    rng = np.random.default_rng(n)
    patches = gaussian_blur2d(g.Var(rng.random((n, 1, 32, 32))), (5, 5), (1.0, 1.0)).data
    thetas = np.full(n, theta)
    thetas[1::2] = rng.uniform(-np.pi, 3 * np.pi, size=n // 2)  # mixed orientations per block
    (desc, grad), (desc_ref, grad_ref) = _shipped_and_dense(patches, thetas)
    assert np.abs(desc - desc_ref).max() <= 1e-12
    assert _relative(grad, grad_ref) <= 1e-10


@pytest.mark.parametrize("theta", _SIFT_THETAS)
def test_sift_sparse_binning_matches_dense_on_bin_centers(theta):
    # ramps along the 8 bin directions: every interior gradient angle is
    # exactly a bin center for theta = k*pi/4 (a kink of the orientation tent)
    yy, xx = np.mgrid[0:32, 0:32] / 64.0
    dirs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    patches = np.stack([a * xx + b * yy for a, b in dirs])[:, None]
    thetas = np.full(len(dirs), theta)
    (desc, grad), (desc_ref, grad_ref) = _shipped_and_dense(patches, thetas)
    assert np.abs(desc - desc_ref).max() <= 1e-12
    # at 2*pi - 1e-15 the angles sit within rounding of a bin center, where the
    # slope either form takes depends on how angle - theta rounds
    if theta != 2 * np.pi - 1e-15:
        assert _relative(grad, grad_ref) <= 1e-10


@pytest.mark.parametrize("seed", [0, 11])
def test_match_list_same_with_dense_descriptors(seed):
    # the match workload's 256x256 pair: the shipped pipeline against the
    # former chain with the dense histogram
    h_true = synthetic.rotation_translation_h(256, 256, 5.0, 6.0, -4.0)
    src, dst = synthetic.warped_pair(256, 256, h_true, seed=seed)
    shipped, dense = [], []
    for img in (src, dst):
        kps, desc = ft.detect_and_describe(img, 500)
        shipped.append(desc.data)
        pyramid = ft.hessian_pyramid(img, 3)
        dense.append(_chain_describe(pyramid, ft.detect(img, 500, pyramid=pyramid), _dense_histogram)[0])
    sparse, dense = ft.match_mnn(*shipped), ft.match_mnn(*dense)
    assert len(sparse) >= 100
    assert [(m.ia, m.ib) for m in sparse] == [(m.ia, m.ib) for m in dense]
    assert np.allclose([m.distance for m in sparse], [m.distance for m in dense], rtol=0, atol=1e-12)


# --- matching ---------------------------------------------------------------------------


def test_match_permutation_recovered():
    rng = np.random.default_rng(10)
    a = rng.random((12, 128))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    perm = rng.permutation(12)
    matches = ft.match_mnn(a, a[perm])
    assert len(matches) == 12
    for m in matches:
        assert perm[m.ib] == m.ia
        assert m.distance == pytest.approx(0.0, abs=1e-6)


def test_match_singletons():
    a = np.ones((1, 4))
    b = np.ones((1, 4)) * 0.9
    matches = ft.match_mnn(a, b)
    assert len(matches) == 1


def test_match_empty_inputs():
    assert ft.match_mnn(np.zeros((0, 128)), np.zeros((3, 128))) == []


def test_match_symmetry():
    rng = np.random.default_rng(11)
    a, b = rng.random((9, 32)), rng.random((7, 32))
    ab = {(m.ia, m.ib) for m in ft.match_mnn(a, b)}
    ba = {(m.ib, m.ia) for m in ft.match_mnn(b, a)}
    assert ab == ba


def test_match_planted_with_distractors():
    rng = np.random.default_rng(12)
    planted = rng.random((10, 64))
    planted /= np.linalg.norm(planted, axis=1, keepdims=True)
    noise_a = rng.random((10, 64)) + 3.0  # far cluster: distractors
    noise_b = rng.random((10, 64)) + 6.0
    a = np.vstack([planted, noise_a])
    b = np.vstack([planted + rng.normal(scale=1e-3, size=planted.shape), noise_b])
    matches = ft.match_mnn(a, b, ratio=0.8)
    got = {(m.ia, m.ib) for m in matches if m.ia < 10}
    assert got == {(i, i) for i in range(10)}


# --- ransac ----------------------------------------------------------------------------


def test_ransac_exact_consensus():
    rng = np.random.default_rng(13)
    h_true = np.array([[1.02, 0.01, 5.0], [-0.015, 0.99, -3.0], [1e-5, -2e-5, 1.0]])
    pts = rng.uniform(0, 100, (30, 2))
    dst = geo.transform_points(h_true, pts).data
    h, mask = ft.ransac_homography(pts, dst, threshold=2.0, max_iters=200, seed=0)
    assert mask.all()
    reproj = np.linalg.norm(geo.transform_points(h, pts).data - dst, axis=1)
    assert reproj.max() < 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_ransac_planted_inliers_recall(seed):
    rng = np.random.default_rng(100 + seed)
    h_true = np.array([[1.0, 0.02, 8.0], [-0.01, 1.01, -4.0], [0.0, 0.0, 1.0]])
    inl = rng.uniform(10, 90, (40, 2))
    dst_inl = geo.transform_points(h_true, inl).data + rng.normal(scale=0.3, size=(40, 2))
    out = rng.uniform(0, 100, (10, 2))
    dst_out = rng.uniform(0, 100, (10, 2))
    pts = np.vstack([inl, out])
    dst = np.vstack([dst_inl, dst_out])
    h, mask = ft.ransac_homography(pts, dst, threshold=2.0, max_iters=1000, seed=seed)
    recall = mask[:40].mean()
    assert recall >= 0.99


def test_ransac_too_few_pairs():
    with pytest.raises(g.EstimationError):
        ft.ransac_homography(np.zeros((3, 2)), np.zeros((3, 2)))


def test_ransac_no_consensus():
    # collinear points: every 4-point sample is degenerate, no model forms
    t = np.linspace(0, 1, 8)
    pts = np.stack([10 * t, 20 * t], axis=1)
    dst = np.stack([30 * t, 5 * t], axis=1)
    with pytest.raises(g.NoConsensusError):
        ft.ransac_homography(pts, dst, threshold=2.0, max_iters=50, seed=1)


def test_ransac_deterministic():
    rng = np.random.default_rng(15)
    h_true = np.eye(3)
    h_true[:2, 2] = [3.0, 1.0]
    pts = rng.uniform(0, 64, (25, 2))
    dst = geo.transform_points(h_true, pts).data + rng.normal(scale=0.4, size=(25, 2))
    dst[::5] += 20.0  # outliers
    r1 = ft.ransac_homography(pts, dst, 2.0, 500, seed=42)
    r2 = ft.ransac_homography(pts, dst, 2.0, 500, seed=42)
    assert np.array_equal(r1[0], r2[0])
    assert np.array_equal(r1[1], r2[1])


@pytest.mark.parametrize("n", [4, 5, 9, 300])
def test_ransac_samples_distinct_in_range(n):
    idx = ft._draw_samples(np.random.Generator(np.random.Philox(key=7)), n, 2000)
    assert idx.shape == (2000, 4) and idx.min() >= 0 and idx.max() < n
    assert (np.sort(idx, axis=1)[:, 1:] != np.sort(idx, axis=1)[:, :-1]).all()


def _collinear_loop_reference(pts):
    scale = max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]), 1.0)
    for i in range(2):
        for j in range(i + 1, 3):
            for k in range(j + 1, 4):
                u, v = pts[j] - pts[i], pts[k] - pts[i]
                if abs(u[0] * v[1] - u[1] * v[0]) <= 1e-8 * scale * scale:
                    return True
    return False


def test_batched_collinearity_matches_scalar_predicate():
    rng = np.random.default_rng(21)
    # small integer grids make collinear triples and repeated points common
    pts = rng.integers(0, 4, (3000, 4, 2)).astype(np.float64) * rng.choice([1e-3, 1.0, 1e3], (3000, 1, 1))
    want = np.array([_collinear_loop_reference(p) for p in pts])
    assert 0 < want.sum() < len(want)
    assert np.array_equal(geo.transforms._has_collinear_triple(pts), want)


def test_singular_sample_skipped_without_numpy_error():
    # H maps (x, y) to (2/x, 2y/x): H[2,2] = 0, so with H[2,2] fixed to 1 the
    # DLT system of these non-collinear points is exactly singular
    src_bad = np.array([[1.0, 0.0], [2.0, 1.0], [1.0, 2.0], [2.0, -1.0]])
    dst_bad = np.array([[2.0, 0.0], [1.0, 1.0], [2.0, 4.0], [1.0, -1.0]])
    src_ok = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 8.0], [0.0, 8.0]])
    dst_ok = src_ok + [5.0, 3.0]
    with np.errstate(all="raise"):
        hs = ft._solve_minimal(np.stack([src_ok, src_bad, src_ok]), np.stack([dst_ok, dst_bad, dst_ok]))
    want = geo.get_perspective_transform(src_ok, dst_ok)
    assert np.isnan(hs[1].ravel()[:8]).all() and np.array_equal(hs[[0, 2]], np.stack([want, want]))


def test_ransac_tie_keeps_earliest_sample():
    # random pairs without consensus: every sample's exact fit has the same
    # 4 inliers, so the first drawn sample must win
    rng = np.random.default_rng(22)
    pts, dst = rng.uniform(0, 1000, (8, 2)), rng.uniform(0, 1000, (8, 2))
    _, mask = ft.ransac_homography(pts, dst, threshold=2.0, max_iters=600, seed=5)
    first = ft._draw_samples(np.random.Generator(np.random.Philox(key=5)), 8, 600)[0]
    assert set(np.flatnonzero(mask)) == set(first)


def test_ransac_zero_iterations_no_consensus():
    pts = np.random.default_rng(23).uniform(0, 100, (10, 2))
    with pytest.raises(g.NoConsensusError):
        ft.ransac_homography(pts, pts, max_iters=0)


# --- pipeline -----------------------------------------------------------------------------


def test_detect_constant_image_empty():
    kps, desc = ft.detect_and_describe(g.Var(np.full((1, 1, 64, 64), 0.5)))
    assert kps == []
    assert desc.shape == (0, 128)


def test_detect_truncates_to_max():
    img = textured_image((96, 96), seed=16, sigma=1.0)
    kps, desc = ft.detect_and_describe(g.Var(img), max_keypoints=20)
    assert len(kps) == 20
    assert desc.shape == (20, 128)
    responses = [k.response for k in kps]
    assert responses == sorted(responses, reverse=True)


def test_detect_rejects_a_negative_budget():
    img = synthetic.smooth_texture(96, 96, seed=1)
    everything = ft.detect(img, max_keypoints=10**6)
    assert len(ft.detect(img, max_keypoints=len(everything))) == len(everything)
    assert ft.detect(img, max_keypoints=0) == []
    for call in (ft.detect, ft.detect_and_describe):
        with pytest.raises(g.ParameterError):
            call(img, max_keypoints=-1)


def test_detect_scales_by_level():
    img = textured_image((128, 128), seed=17, sigma=1.5)
    kps, _ = ft.detect_and_describe(g.Var(img), max_keypoints=200)
    levels = {k.level for k in kps}
    for k in kps:
        assert k.scale == pytest.approx(1.6 * 2**k.level)
    assert 0 in levels


def test_detect_and_describe_builds_one_pyramid(monkeypatch):
    calls = []
    build = ft.hessian_pyramid

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(ft, "hessian_pyramid", counting_build)
    img = g.Var(textured_image((96, 96), seed=16, sigma=1.0))
    kps, _ = ft.detect_and_describe(img, max_keypoints=20)
    assert len(calls) == 1
    assert [(k.x, k.y) for k in kps] == [(k.x, k.y) for k in ft.detect(img, max_keypoints=20)]


@pytest.mark.parametrize("levels", [[0, 3], [3, 4]])
def test_describe_rejects_levels_missing_from_pyramid(levels):
    img = g.Var(textured_image((96, 96), seed=16, sigma=1.0))
    pyramid = ft.hessian_pyramid(img, levels=2)
    kps = [ft.Keypoint(x=48.0, y=48.0, level=lvl) for lvl in levels]
    with pytest.raises(g.ParameterError):
        ft.describe(img, kps, pyramid=pyramid)


def test_describe_rejects_a_batch():
    img = g.Var(np.concatenate([textured_image((96, 96), seed=16, sigma=1.0)] * 2))
    with pytest.raises(g.ShapeError):
        ft.describe(img, [ft.Keypoint(x=48.0, y=48.0)])


def test_describe_nan_pixel_gives_nan_rows_without_warning():
    # warnings are errors in this suite: the NaN angles near the pixel must not
    # warn when they are binned; only the rows whose patches read it change
    img = textured_image((96, 96), seed=18, sigma=1.0)
    kps = ft.detect(g.Var(img), max_keypoints=40, levels=2)
    ref = ft.describe(g.Var(img), [ft.Keypoint(**vars(k)) for k in kps]).data
    px, py = int(kps[0].x) - 1, int(kps[0].y) + 2
    bad = img.copy()
    bad[0, 0, py, px] = np.nan
    bad_kps = [ft.Keypoint(**vars(k)) for k in kps]
    out = ft.describe(g.Var(bad), bad_kps).data
    rows = np.isnan(out).any(axis=1)
    assert rows[0] and np.isnan(out[rows]).all()
    # a patch that reads NaN has no orientation either
    assert np.array_equal(np.isnan([k.orientation for k in bad_kps]), rows)
    far = np.array([max(abs(k.x - px), abs(k.y - py)) / 2**k.level > 20 for k in kps])
    assert far.sum() > 10 and not rows[far].any()
    assert np.array_equal(out[~rows], ref[~rows])


def test_level_histograms_nan_theta_gives_nan_row_without_warning():
    # the attack feeds frozen orientations back in, and one may be NaN
    img = g.Var(textured_image((80, 80), seed=18, sigma=1.0), requires_grad=True)
    xs, ys = np.array([40.0, 30.5]), np.array([40.0, 44.2])
    ref, _, _ = ft._level_histograms(img, xs, ys, np.array([0.3, 1.2]))
    for bad in (np.nan, np.inf, -np.inf):  # an infinite theta takes the NaN path too
        hist, _, degenerate = ft._level_histograms(img, xs, ys, np.array([bad, 1.2]))
        desc = ft._normalized(hist, degenerate)
        assert np.isnan(desc.data[0]).all() and np.array_equal(hist.data[1], ref.data[1])
        assert np.isnan(g.backward(desc[0].sum())[img].data).any()


def test_extract_patches_at_half_integer_centers_copy_the_window():
    img = textured_image((48, 56), seed=21)
    # a 32-pixel grid centered on c + 0.5 samples exactly the integers c - 15 .. c + 16
    patches = ft.extract_patches_at(g.Var(img), np.array([20.5, 30.5]), np.array([24.5, 17.5]))
    assert patches.shape == (2, 1, 32, 32)
    assert np.array_equal(patches.data[0, 0], img[0, 0, 9:41, 5:37])
    assert np.array_equal(patches.data[1, 0], img[0, 0, 2:34, 15:47])


def test_extract_patches_at_gradcheck_wrt_image():
    img = textured_image((12, 12), seed=22)
    weights = np.random.default_rng(22).normal(size=(2, 1, 6, 6))
    xs, ys = np.array([4.3, 6.7]), np.array([5.6, 6.2])
    gradcheck(lambda v: (ft.extract_patches_at(v, xs, ys, size=6) * weights).sum(), [img])


@pytest.mark.parametrize("track", [lambda c: g.Var(c, requires_grad=True), lambda c: g.Var(c, requires_grad=True) * 1.0])
@pytest.mark.parametrize("which", [0, 1])
def test_extract_patches_at_rejects_tracked_centers(track, which):
    img = g.Var(textured_image((40, 40), seed=23))
    centers = [np.array([19.3, 20.1]), np.array([18.6, 21.2])]
    centers[which] = track(centers[which])
    with pytest.raises(g.UsageError):
        ft.extract_patches_at(img, *centers)
    # constant Vars are plain data
    patches = ft.extract_patches_at(img, g.Var(np.array([19.3, 20.1])), np.array([18.6, 21.2]))
    assert patches.shape == (2, 1, 32, 32)


def test_extract_patches_at_rejects_unequal_center_counts():
    with pytest.raises(g.ShapeError):
        ft.extract_patches_at(g.Var(textured_image((40, 40), seed=23)), np.array([19.3, 20.1]), np.array([18.6]))


def test_describe_orients_and_describes_the_extracted_patches():
    # describe runs one blocked node per level; its orientations and descriptors
    # must be those of the former chain on the extracted patches
    img = g.Var(textured_image((128, 128), seed=17, sigma=1.5), requires_grad=True)
    pyramid = ft.hessian_pyramid(img, levels=3)
    kps = ft.detect(img, max_keypoints=80, pyramid=pyramid)
    assert len({k.level for k in kps}) >= 2
    desc = ft.describe(img, kps, pyramid=pyramid)
    want, want_thetas = _chain_describe(pyramid, kps)
    assert np.array_equal(np.array([k.orientation for k in kps]), want_thetas)
    assert np.abs(desc.data - want).max() <= 1e-12


def _border_centers(h, w):
    """Centers whose 32x32 patches straddle each border and a corner."""
    return np.array([3.2, w - 2.7, 20.4, 30.1, 1.3]), np.array([25.3, 20.8, 1.6, h - 0.9, h - 2.2])


def test_level_histograms_image_gradient_matches_former_chain():
    h, w = 48, 56
    arr = textured_image((h, w), seed=41)
    xs, ys = _border_centers(h, w)
    thetas = np.random.default_rng(41).uniform(0.0, 2.0 * np.pi, len(xs))  # frozen, as in the attack
    cot = np.random.default_rng(42).normal(size=(len(xs), 128))
    results = []
    for run in (
        lambda v: ft._normalized(*ft._level_histograms(v, xs, ys, thetas)[::2]),
        lambda v: _chain_sift(ft.extract_patches_at(v, xs, ys), thetas),
    ):
        img = g.Var(arr, requires_grad=True)
        desc = run(img)
        results.append((desc.data, g.backward((desc * cot).sum())[img].data))
    (desc, grad), (desc_ref, grad_ref) = results
    assert np.abs(desc - desc_ref).max() <= 1e-12
    assert _relative(grad, grad_ref) <= 1e-10


@pytest.mark.parametrize("seed", [43, 44])
def test_level_histograms_gradcheck(seed):
    h, w = 14, 12
    arr = textured_image((h, w), seed=seed)
    xs, ys = np.array([5.3, 9.8, -3.1]), np.array([6.6, 2.2, 11.4])  # patches reach past every border
    thetas = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, len(xs))
    weights = np.random.default_rng(seed + 1).normal(size=(len(xs), 128))

    def f(v):
        hist, _, degenerate = ft._level_histograms(v, xs, ys, thetas)
        return (ft._normalized(hist, degenerate) * weights).sum()

    gradcheck(f, [arr], rtol=1e-3)


def test_describe_records_one_histogram_node_per_level(monkeypatch):
    img = g.Var(textured_image((128, 128), seed=17, sigma=1.5), requires_grad=True)
    pyramid = ft.hessian_pyramid(img, levels=3)
    kps = ft.detect(img, max_keypoints=80, pyramid=pyramid)
    levels = sorted({k.level for k in kps})
    assert len(levels) >= 2

    def unused(*args, **kwargs):
        raise AssertionError("describe runs the blocked pass only")

    monkeypatch.setattr(ft, "extract_patches_at", unused)
    monkeypatch.setattr(ft, "spatial_gradient", unused)
    tape = pyramid[-1].response._tape
    before = len(tape)
    ft.describe(img, kps, pyramid=pyramid)
    new = tape._nodes[before:]
    level_ids = {tape._leaf_ids[id(img)]} | {pyramid[lvl].image._node_id for lvl in levels if lvl}
    assert [len(set(node.parent_ids) & level_ids) for node in new].count(1) == len(levels)
    # one histogram node per level, the concat and the reorder, the 11-op L2 -> clamp -> L2 tail
    assert len(new) == len(levels) + 2 + 11


def _former_detect(pyramid, max_keypoints):
    """The former detect: nms2d keypoints per level, margin, sort, cut."""
    kps = []
    for lvl, level in enumerate(pyramid):
        h, w = level.response.shape[2:]
        for kp in ft.nms2d(level.response.data, window=5, threshold=1e-6):
            if 17 <= kp.x <= w - 18 and 17 <= kp.y <= h - 18:
                kps.append(ft.Keypoint(x=kp.x * level.scale, y=kp.y * level.scale,
                                       scale=1.6 * level.scale, response=kp.response, level=lvl))
    kps.sort(key=lambda k: -k.response)
    return kps[:max_keypoints]


@pytest.mark.parametrize("max_keypoints", [0, 37, 500])
@pytest.mark.parametrize("tiled", [False, True])
def test_detect_matches_former_keypoint_loop(max_keypoints, tiled):
    arr = textured_image((128, 160), seed=19, sigma=1.2)
    if tiled:  # a periodic image: equal responses, so ties are broken by level and scan order
        arr = np.tile(arr[:, :, :32, :32], (1, 1, 4, 5))
    pyramid = ft.hessian_pyramid(g.Var(arr), levels=3)
    kps = ft.detect(None, max_keypoints=max_keypoints, pyramid=pyramid)
    assert kps == _former_detect(pyramid, max_keypoints)
    if max_keypoints and tiled:
        assert len({k.response for k in kps}) < len(kps)
    elif max_keypoints:
        assert len({k.level for k in kps}) >= 2



# --- integer-window patch sampler vs the former grid sampler ---------------------------


def _grid_patches(img, xs, ys, size):
    """Reference: the former extract_patches_at, one size x size grid of
    points per center read by the general sample_bilinear."""
    m = len(xs)
    offs = np.arange(size) - (size - 1) / 2.0
    ox, oy = np.meshgrid(offs, offs)
    px = g.Var((xs[:, None, None] + ox).reshape(1, m * size, size))
    py = g.Var((ys[:, None, None] + oy).reshape(1, m * size, size))
    return g.sample_bilinear(img, px, py).reshape((m, 1, size, size))


def _patch_centers(name, size, h, w):
    rng = np.random.default_rng(sum(map(ord, name)) + size)
    half = (size - 1) / 2.0
    if name == "in_range":
        return rng.uniform(half + 1, w - half - 2, 9), rng.uniform(half + 1, h - half - 2, 9)
    if name == "borders":
        # windows straddling the left, right, top and bottom borders, and the corners
        across = np.array([-half + 0.3, 0.6, half - 0.2, half + 0.7])
        xs = np.concatenate([across, w - 1 - across, rng.uniform(half + 1, w - half - 2, 8), [0.4, w - 0.8]])
        ys = np.concatenate([rng.uniform(half + 1, h - half - 2, 8), across, h - 1 - across, [h - 1.3, -0.5]])
        return xs, ys
    if name == "outside":
        xs = np.array([-half - 1.7, w + half + 0.6, 1e9, -1e12, w / 2, w / 2, -half - 3.2])
        ys = np.array([h / 2, h / 2, h / 2, 3.5, -half - 1.4, h + half + 2.9, 1e9])
        return xs, ys
    if name == "half_integer":
        return rng.integers(0, w, 9) + 0.5, rng.integers(0, h, 9) + 0.5
    # snap: top-left samples within 1e-9 of the snap threshold, on both sides of it
    d = np.array([_SNAP_EPS - 1e-9, _SNAP_EPS + 1e-9, 1e-9 - _SNAP_EPS, -1e-9 - _SNAP_EPS, 0.5])
    k = rng.integers(2, 9, (2, d.size)).astype(np.float64)
    return k[0] + d + half, k[1] + d[::-1] + half


@pytest.mark.parametrize("size", [6, 32])
@pytest.mark.parametrize("name", ["in_range", "borders", "outside", "half_integer", "snap"])
def test_extract_patches_at_matches_grid_sampler(name, size):
    h, w = 40, 48
    arr = textured_image((h, w), seed=31)
    xs, ys = _patch_centers(name, size, h, w)
    cot = np.random.default_rng(size).normal(size=(len(xs), 1, size, size))
    results = []
    for sample in (ft.extract_patches_at, _grid_patches):
        img = g.Var(arr, requires_grad=True)
        patches = sample(img, xs, ys, size)
        results.append((patches.data, g.backward((patches * cot).sum())[img].data))
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    if name == "outside":
        assert not results[0][0].any() and not results[0][1].any()


def test_extract_patches_at_gradcheck_across_the_border():
    img = textured_image((12, 12), seed=24)
    weights = np.random.default_rng(24).normal(size=(4, 1, 6, 6))
    xs, ys = np.array([0.4, 11.3, 5.7, -1.6]), np.array([5.2, 6.7, 11.6, -0.3])
    gradcheck(lambda v: (ft.extract_patches_at(v, xs, ys, size=6) * weights).sum(), [img])


def _own_vjp(out, cotangent):
    """The gradients the op that made `out` returns for `cotangent`, before
    backward casts them to the leaves' dtypes."""
    return out._tape._nodes[out._node_id].vjp(cotangent)


def test_extract_patches_at_keeps_float32():
    img = g.Var(textured_image((40, 40), seed=25).astype(np.float32), requires_grad=True)
    patches = ft.extract_patches_at(img, np.array([19.3, 3.1]), np.array([18.6, 30.2]))
    assert patches.dtype == np.float32
    (g_img,) = _own_vjp(patches, np.ones(patches.shape, np.float32))
    assert g_img.dtype == np.float32 and g_img.shape == img.shape
    assert g.backward(patches.sum())[img].dtype == np.float32


@pytest.mark.parametrize("size", [0, -3])
def test_extract_patches_at_rejects_a_size_below_one(size):
    with pytest.raises(g.ParameterError):
        ft.extract_patches_at(g.Var(textured_image((40, 40), seed=23)), np.array([19.3]), np.array([18.6]), size=size)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 1])
def test_extract_patches_at_rejects_non_finite_centers(bad, which):
    centers = [np.array([19.3, 20.1]), np.array([18.6, 21.2])]
    centers[which][1] = bad
    with pytest.raises(g.ParameterError):
        ft.extract_patches_at(g.Var(textured_image((40, 40), seed=23)), *centers)


def test_extract_patches_at_rejects_a_batch():
    img = g.Var(np.concatenate([textured_image((40, 40), seed=23)] * 2))
    with pytest.raises(g.ShapeError):
        ft.extract_patches_at(img, np.array([19.3]), np.array([18.6]))


def _former_orientations(patches):
    """Reference: the orientation histogram with np.hypot and np.mod."""
    grad = spatial_gradient(g.Var(patches), mode="diff").data
    dx, dy = grad[:, :, 0], grad[:, :, 1]
    n, _, s, _ = patches.shape
    mag = np.hypot(dx, dy)[:, 0]
    ang = np.mod(np.arctan2(dy, dx)[:, 0], 2.0 * np.pi)
    c = (s - 1) / 2.0
    yy, xx = np.mgrid[0:s, 0:s]
    gauss = np.exp(-(((xx - c) ** 2 + (yy - c) ** 2) / (2.0 * (s / 4.0) ** 2)))
    bins = np.minimum((ang * (ft.ORI_HIST_BINS / (2.0 * np.pi))).astype(int), ft.ORI_HIST_BINS - 1)
    hist = np.stack([np.bincount(b.ravel(), (m * gauss).ravel(), ft.ORI_HIST_BINS) for b, m in zip(bins, mag)])
    degenerate = hist.sum(axis=1) < 1e-9
    peak = hist.argmax(axis=1)
    rows = np.arange(n)
    off = ft._quad_offset(hist[rows, peak - 1], hist[rows, peak], hist[rows, (peak + 1) % ft.ORI_HIST_BINS])
    theta = np.mod((peak + off) * (2.0 * np.pi / ft.ORI_HIST_BINS), 2.0 * np.pi)
    theta[degenerate] = 0.0
    return theta, degenerate


def test_orientations_match_former_formula():
    rng = np.random.default_rng(26)
    textured = gaussian_blur2d(g.Var(rng.random((150, 1, 32, 32))), (5, 5), (1.0, 1.0)).data
    yy, xx = np.mgrid[0:32, 0:32] / 64.0
    dirs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    ramps = np.stack([a * xx + b * yy for a, b in dirs])[:, None]  # gradients on the bin edges
    patches = np.concatenate([textured, ramps, np.full((2, 1, 32, 32), 0.4)])
    theta, degenerate = ft.dominant_orientations(patches)
    want, want_degenerate = _former_orientations(patches)
    assert np.array_equal(degenerate, want_degenerate) and degenerate[-2:].all()
    diff = np.abs(theta - want)
    assert np.minimum(diff, 2.0 * np.pi - diff).max() <= 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_describe_keeps_the_image_dtype(dtype):
    img = g.Var(textured_image((96, 96), seed=16, sigma=1.0).astype(dtype), requires_grad=True)
    kps, desc = ft.detect_and_describe(img, max_keypoints=20)
    assert len(kps) == 20 and desc.dtype == dtype
    assert g.backward(desc.sum())[img].dtype == dtype
    # the raw histogram node: float64 votes, cast to the image's dtype, and so is its vjp
    hist, _, _ = ft._level_histograms(img, np.array([40.3, 50.8]), np.array([44.1, 39.6]))
    assert hist.dtype == dtype
    assert [v.dtype for v in _own_vjp(hist, np.ones(hist.shape, dtype))] == [dtype]
    if dtype == np.float32:  # float32 descriptors follow the float64 ones
        _, desc64 = ft.detect_and_describe(g.Var(img.data.astype(np.float64)), max_keypoints=20)
        assert np.abs(desc.data - desc64.data).max() < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_detect_and_describe_without_keypoints_keeps_the_image_dtype(dtype):
    kps, desc = ft.detect_and_describe(g.Var(np.full((1, 1, 64, 64), 0.5, dtype=dtype)))
    assert kps == [] and isinstance(desc, np.ndarray)
    assert desc.shape == (0, 128) and desc.dtype == dtype


def _describe_level_by_level(pyramid, keypoints):
    """Reference for describe: each level on its own, rows written back by index."""
    desc = np.full((len(keypoints), 128), np.nan)
    thetas = np.full(len(keypoints), np.nan)
    for lvl, level in enumerate(pyramid):
        sel = [i for i, k in enumerate(keypoints) if k.level == lvl]
        if not sel:
            continue
        xs = np.array([keypoints[i].x for i in sel]) / level.scale
        ys = np.array([keypoints[i].y for i in sel]) / level.scale
        patches = ft.extract_patches_at(level.image, xs, ys)
        theta, _ = ft.dominant_orientations(patches.data)
        desc[sel] = ft.sift_describe(patches, theta).data
        thetas[sel] = theta
    return desc, thetas


def test_describe_interleaved_levels_matches_level_by_level_reference():
    img = g.Var(textured_image((128, 128), seed=17, sigma=1.5))
    pyramid = ft.hessian_pyramid(img, levels=3)
    kps = ft.detect(img, max_keypoints=80, pyramid=pyramid)
    by_level = [[k for k in kps if k.level == lvl] for lvl in sorted({k.level for k in kps})]
    assert len(by_level) >= 2
    # round-robin over the levels, so neighbours in the list sit on different levels
    kps = [k for i in range(max(map(len, by_level))) for group in by_level for k in group[i : i + 1]]
    assert kps[0].level != kps[1].level
    ref_desc, ref_thetas = _describe_level_by_level(pyramid, kps)
    desc = ft.describe(img, kps, pyramid=pyramid)
    assert np.array_equal(desc.data, ref_desc)
    assert np.array_equal(np.array([k.orientation for k in kps]), ref_thetas)


def test_translation_equivariant_matching():
    # image vs its 10px-shifted copy: matches displaced by (10,0) within 1px
    img = textured_image((96, 128), seed=18, sigma=1.0)
    shifted = np.zeros_like(img)
    shifted[:, :, :, 10:] = img[:, :, :, :-10]
    kps_a, desc_a = ft.detect_and_describe(g.Var(img), max_keypoints=150)
    kps_b, desc_b = ft.detect_and_describe(g.Var(shifted), max_keypoints=150)
    matches = ft.match_mnn(desc_a.data, desc_b.data, ratio=0.9)
    assert len(matches) >= 10
    good = 0
    for m in matches:
        dx = kps_b[m.ib].x - kps_a[m.ia].x
        dy = kps_b[m.ib].y - kps_a[m.ia].y
        if abs(dx - 10.0) <= 1.0 and abs(dy) <= 1.0:
            good += 1
    assert good / len(matches) >= 0.8
    pts_a = np.array([[kps_a[m.ia].x, kps_a[m.ia].y] for m in matches])
    pts_b = np.array([[kps_b[m.ib].x, kps_b[m.ib].y] for m in matches])
    h, mask = ft.ransac_homography(pts_a, pts_b, threshold=2.0, max_iters=500, seed=3)
    assert abs(h[0, 2] - 10.0) < 0.5
    assert abs(h[1, 2]) < 0.5
