"""Local features: responses, NMS, orientation, SIFT, matching, RANSAC."""
import numpy as np
import pytest

import gradcv as g
from gradcv import features as ft
from gradcv import geometry as geo
from gradcv.demos import synthetic
from gradcv.filters import gaussian_blur2d
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


# --- orientation ------------------------------------------------------------------


def _ramp_patch(angle=0.0):
    yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
    return np.cos(angle) * xx + np.sin(angle) * yy


def test_orientation_ramp_x():
    theta, degenerate = ft.dominant_orientation(_ramp_patch(0.0))
    assert not degenerate
    binw = 2 * np.pi / ft.ORI_HIST_BINS
    assert min(theta, 2 * np.pi - theta) <= binw


def test_orientation_rotated_patch():
    base = textured_image((32, 32), seed=7)[0, 0]
    t0, _ = ft.dominant_orientation(base)
    t90, _ = ft.dominant_orientation(np.rot90(base, k=-1).copy())  # rotates gradients by +90
    binw = 2 * np.pi / ft.ORI_HIST_BINS
    delta = np.mod(t90 - t0, 2 * np.pi)
    assert min(abs(delta - np.pi / 2), abs(delta - np.pi / 2 - 2 * np.pi)) <= 2 * binw


def test_orientation_constant_degenerate():
    theta, degenerate = ft.dominant_orientation(np.full((32, 32), 0.6))
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
    t_base, _ = ft.dominant_orientation(patch)
    t_rot, _ = ft.dominant_orientation(rot)
    d_base = ft.sift_describe(patch, np.array([t_base])).data[0]
    d_rot = ft.sift_describe(rot, np.array([t_rot])).data[0]
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


# --- sparse SIFT binning vs the dense formulas ----------------------------------------
# Dense reference: every pixel evaluates all 8 orientation tents and all 16
# spatial tents, contracted by a batched matmul.  Swapped in for
# ft._sift_histogram, it is what the sparse voting must reproduce up to rounding.


def _dense_orientation_votes(dx, dy, thetas):
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
    votes = _dense_orientation_votes(dx, dy, thetas)
    sw = g.Var(_dense_spatial_weights(thetas)).swapaxes(1, 2)
    return g.matmul(sw, votes).reshape((len(thetas), -1))


def _describe_with_vjp(patches, thetas, cotangent):
    pv = g.Var(patches, requires_grad=True)
    desc = ft.sift_describe(pv, thetas)
    return desc.data, g.backward((desc * cotangent).sum())[pv].data


def _sparse_and_dense(monkeypatch, patches, thetas):
    cotangent = np.random.default_rng(len(patches)).normal(size=(len(patches), 128))
    sparse = _describe_with_vjp(patches, thetas, cotangent)
    monkeypatch.setattr(ft, "_sift_histogram", _dense_histogram)
    return sparse, _describe_with_vjp(patches, thetas, cotangent)


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


_SIFT_THETAS = [0.0, *(k * np.pi / 4 for k in range(1, 8)), -0.3, 2 * np.pi - 1e-15]


@pytest.mark.parametrize("theta", _SIFT_THETAS)
@pytest.mark.parametrize("n", [1, 17, 40])  # 17 and 40 span more than one binning block
def test_sift_sparse_binning_matches_dense(monkeypatch, n, theta):
    rng = np.random.default_rng(n)
    patches = gaussian_blur2d(g.Var(rng.random((n, 1, 32, 32))), (5, 5), (1.0, 1.0)).data
    thetas = np.full(n, theta)
    thetas[1::2] = rng.uniform(-np.pi, 3 * np.pi, size=n // 2)  # mixed orientations per block
    (desc, grad), (desc_ref, grad_ref) = _sparse_and_dense(monkeypatch, patches, thetas)
    assert np.abs(desc - desc_ref).max() <= 1e-12
    assert _relative(grad, grad_ref) <= 1e-10


@pytest.mark.parametrize("theta", _SIFT_THETAS)
def test_sift_sparse_binning_matches_dense_on_bin_centers(monkeypatch, theta):
    # ramps along the 8 bin directions: every interior gradient angle is
    # exactly a bin center for theta = k*pi/4 (a kink of the orientation tent)
    yy, xx = np.mgrid[0:32, 0:32] / 64.0
    dirs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    patches = np.stack([a * xx + b * yy for a, b in dirs])[:, None]
    thetas = np.full(len(dirs), theta)
    (desc, grad), (desc_ref, grad_ref) = _sparse_and_dense(monkeypatch, patches, thetas)
    assert np.abs(desc - desc_ref).max() <= 1e-12
    # at 2*pi - 1e-15 the angles sit within rounding of a bin center, where the
    # slope either form takes depends on how angle - theta rounds
    if theta != 2 * np.pi - 1e-15:
        assert _relative(grad, grad_ref) <= 1e-10


@pytest.mark.parametrize("seed", [0, 11])
def test_match_list_same_with_dense_descriptors(monkeypatch, seed):
    # the match workload's 256x256 pair
    h_true = synthetic.rotation_translation_h(256, 256, 5.0, 6.0, -4.0)
    src, dst = synthetic.warped_pair(256, 256, h_true, seed=seed)

    def matches():
        _, desc_a = ft.detect_and_describe(src, 500)
        _, desc_b = ft.detect_and_describe(dst, 500)
        return ft.match_mnn(desc_a.data, desc_b.data)

    sparse = matches()
    monkeypatch.setattr(ft, "_sift_histogram", _dense_histogram)
    dense = matches()
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
    dst = ft._apply_h(h_true, pts)
    h, mask = ft.ransac_homography(pts, dst, threshold=2.0, max_iters=200, seed=0)
    assert mask.all()
    reproj = np.linalg.norm(ft._apply_h(h, pts) - dst, axis=1)
    assert reproj.max() < 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_ransac_planted_inliers_recall(seed):
    rng = np.random.default_rng(100 + seed)
    h_true = np.array([[1.0, 0.02, 8.0], [-0.01, 1.01, -4.0], [0.0, 0.0, 1.0]])
    inl = rng.uniform(10, 90, (40, 2))
    dst_inl = ft._apply_h(h_true, inl) + rng.normal(scale=0.3, size=(40, 2))
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
    dst = ft._apply_h(h_true, pts) + rng.normal(scale=0.4, size=(25, 2))
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


def test_keypoint_and_match_csv_roundtrip(tmp_path):
    kps = [ft.Keypoint(x=1.5, y=2.25, scale=1.6, orientation=0.7, response=0.01)]
    ft.save_keypoints_csv(tmp_path / "k.csv", kps)
    back = ft.load_keypoints_csv(tmp_path / "k.csv")
    assert back == kps
    matches = [ft.MatchPair(ia=3, ib=5, distance=0.125)]
    ft.save_matches_csv(tmp_path / "m.csv", matches)
    assert ft.load_matches_csv(tmp_path / "m.csv") == matches
