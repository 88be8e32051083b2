"""Geometry: DLT, warps, rotation conversions, camera, depth warping."""
import numpy as np
import pytest

import gradcv as g
from gradcv import geometry as geo
from gradcv.filters import gaussian_blur2d
from gradcv.testing import gradcheck


def smooth_image(shape, seed=0, sigma=1.5):
    rng = np.random.default_rng(seed)
    img = g.Var(rng.random((1, 1) + shape))
    k = 2 * int(3 * sigma) + 1
    return g.Var(gaussian_blur2d(img, (k, k), (sigma, sigma)).data)


# --- DLT ---------------------------------------------------------------------


def test_dlt_identity():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 8.0], [0.0, 8.0]])
    h = geo.get_perspective_transform(pts, pts)
    assert np.abs(h - np.eye(3)).max() < 1e-10


def test_dlt_translation():
    src = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 8.0], [0.0, 8.0]])
    h = geo.get_perspective_transform(src, src + [5.0, 3.0])
    assert np.allclose(h, [[1, 0, 5], [0, 1, 3], [0, 0, 1]], atol=1e-10)


@pytest.mark.parametrize("seed", range(20))
def test_dlt_random_quad_reprojection(seed):
    rng = np.random.default_rng(seed)
    base = np.array([[0.0, 0.0], [32.0, 0.0], [32.0, 24.0], [0.0, 24.0]])
    src = base + rng.uniform(-3, 3, (4, 2))
    dst = base + rng.uniform(-3, 3, (4, 2))
    h = geo.get_perspective_transform(src, dst)
    assert h[2, 2] == 1.0
    proj = geo.transform_points(h, src).data
    assert np.abs(proj - dst).max() < 1e-6


def test_dlt_collinear_rejected():
    src = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 5.0]])
    dst = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(g.EstimationError):
        geo.get_perspective_transform(src, dst)


# --- warps ---------------------------------------------------------------------


def test_warp_identity_exact():
    img = smooth_image((12, 14), 1)
    out = geo.warp_perspective(img, np.eye(3))
    assert np.array_equal(out.data, img.data)


def test_warp_integer_translation():
    img = smooth_image((10, 12), 2)
    h = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    out = geo.warp_perspective(img, h)
    assert np.array_equal(out.data[:, :, :, 3:], img.data[:, :, :, :-3])
    assert np.allclose(out.data[:, :, :, :3], 0.0)  # newly exposed region


def test_warp_roundtrip_interior():
    img = smooth_image((32, 32), 3, sigma=2.5)
    h = geo.get_perspective_transform(
        [[0, 0], [31, 0], [31, 31], [0, 31]],
        [[1.5, 0.5], [30.0, 1.0], [30.5, 30.0], [0.5, 29.5]],
    )
    back = geo.warp_perspective(geo.warp_perspective(img, h), np.linalg.inv(h))
    inner = (slice(None), slice(None), slice(4, -4), slice(4, -4))
    assert np.abs(back.data[inner] - img.data[inner]).max() < 1e-2


def test_warp_composition_matches_sequential():
    img = smooth_image((32, 32), 4)
    h1 = geo.get_rotation_matrix2d((15.5, 15.5), 5.0, 1.0)
    h1 = np.vstack([h1, [0, 0, 1]])
    h2 = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    seq = geo.warp_perspective(geo.warp_perspective(img, h1), h2)
    comp = geo.warp_perspective(img, h2 @ h1)
    inner = (slice(None), slice(None), slice(6, -6), slice(6, -6))
    assert np.abs(seq.data[inner] - comp.data[inner]).max() < 1e-2


def test_warp_singular_h_rejected():
    img = smooth_image((8, 8), 5)
    h = np.zeros((3, 3))
    with pytest.raises(g.EstimationError):
        geo.warp_perspective(img, h)


def test_dlt_warp_consistency_on_control_points():
    src = np.array([[2.0, 3.0], [29.0, 1.0], [30.0, 28.0], [1.0, 30.0]])
    dst = np.array([[0.0, 0.0], [31.0, 0.0], [31.0, 31.0], [0.0, 31.0]])
    h = geo.get_perspective_transform(src, dst)
    assert np.abs(geo.transform_points(h, src).data - dst).max() < 1e-6


def test_rotation_matrix2d_identity():
    m = geo.get_rotation_matrix2d((4.0, 4.0), 0.0, 1.0)
    assert np.allclose(m, [[1, 0, 0], [0, 1, 0]], atol=1e-12)
    with pytest.raises(g.ParameterError):
        geo.get_rotation_matrix2d((0, 0), 10.0, 0.0)


def test_rotate_four_times_is_identity():
    img = smooth_image((33, 33), 6)
    m = geo.get_rotation_matrix2d((16.0, 16.0), 90.0, 1.0)
    out = img
    for _ in range(4):
        out = geo.warp_affine(out, m)
    inner = (slice(None), slice(None), slice(6, -6), slice(6, -6))
    assert np.abs(out.data[inner] - img.data[inner]).max() < 5e-2


def test_warp_affine_equals_lifted_perspective():
    img = smooth_image((16, 20), 7)
    m = geo.get_rotation_matrix2d((9.0, 7.0), 13.0, 0.9)
    via_affine = geo.warp_affine(img, m)
    via_persp = geo.warp_perspective(img, np.vstack([m, [0, 0, 1]]))
    assert np.abs(via_affine.data - via_persp.data).max() < 1e-12


def test_homography_warp_matches_pixel_warp():
    img = smooth_image((24, 30), 8)
    h = geo.get_perspective_transform(
        [[0, 0], [29, 0], [29, 23], [0, 23]],
        [[1.0, 0.6], [28.0, 0.2], [28.6, 22.5], [0.4, 23.0]],
    )
    hn = geo.normalize_homography(h, (24, 30), (24, 30))
    a = geo.warp_perspective(img, h)
    b = geo.homography_warp(img, hn)
    assert np.abs(a.data - b.data).max() < 1e-9


# --- conversions -----------------------------------------------------------------


def test_angle_conversions():
    assert geo.deg2rad(180.0) == pytest.approx(np.pi)
    assert geo.rad2deg(np.pi / 2) == pytest.approx(90.0)


def test_pixel_normalization_corners():
    out = geo.normalize_pixel_coordinates(np.array([[0.0, 0.0], [15.0, 11.0]]), 12, 16)
    assert np.allclose(out.data, [[-1.0, -1.0], [1.0, 1.0]], atol=1e-12)
    back = geo.denormalize_pixel_coordinates(out, 12, 16)
    assert np.allclose(back.data, [[0.0, 0.0], [15.0, 11.0]], atol=1e-12)
    with pytest.raises(g.ParameterError):
        geo.normalize_pixel_coordinates(np.zeros((1, 2)), 1, 5)


def test_homogeneous_conversions():
    out = geo.convert_points_from_homogeneous(np.array([[2.0, 4.0, 2.0]]))
    assert np.allclose(out.data, [[1.0, 2.0]])
    with pytest.raises(g.DegenerateError):
        geo.convert_points_from_homogeneous(np.array([[1.0, 1.0, 0.0]]))
    h = geo.convert_points_to_homogeneous(np.array([[3.0, 4.0]]))
    assert np.allclose(h.data, [[3.0, 4.0, 1.0]])


def test_quaternion_identity():
    assert np.allclose(geo.quaternion_to_rotation_matrix([1.0, 0, 0, 0]), np.eye(3))
    with pytest.raises(g.ParameterError):
        geo.quaternion_to_rotation_matrix([0.0, 0.0, 0.0, 0.0])


def test_axis_angle_quarter_turn():
    r = geo.axis_angle_to_rotation_matrix([0.0, 0.0, np.pi / 2])
    assert np.allclose(r, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_rotation_roundtrips(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    if q[0] < 0:
        q = -q
    r = geo.quaternion_to_rotation_matrix(q)
    # orthonormal, det +1
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)
    q2 = geo.rotation_matrix_to_quaternion(r)
    assert np.abs(q2 - q).max() < 1e-9
    r2 = geo.quaternion_to_rotation_matrix(q2)
    assert np.abs(r2 - r).max() < 1e-9
    v = geo.rotation_matrix_to_axis_angle(r)
    r3 = geo.axis_angle_to_rotation_matrix(v)
    assert np.abs(r3 - r).max() < 1e-9


# --- linalg ------------------------------------------------------------------------


def _random_rigid(rng):
    q = rng.normal(size=4)
    t = np.eye(4)
    t[:3, :3] = geo.quaternion_to_rotation_matrix(q / np.linalg.norm(q))
    t[:3, 3] = rng.normal(size=3)
    return t


def test_transform_points_identity():
    pts = np.random.default_rng(0).normal(size=(5, 3))
    out = geo.transform_points(np.eye(4), pts)
    assert np.allclose(out.data, pts, atol=1e-12)


def test_relative_transform_self_is_identity():
    t = _random_rigid(np.random.default_rng(1))
    assert np.abs(geo.relative_transform(t, t) - np.eye(4)).max() < 1e-10


def test_compose_inverse_is_identity():
    t = _random_rigid(np.random.default_rng(2))
    assert np.abs(geo.compose_transforms(geo.inverse_transform(t), t) - np.eye(4)).max() < 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_transform_chain_consistency(seed):
    rng = np.random.default_rng(seed)
    t1, t2 = _random_rigid(rng), _random_rigid(rng)
    pts = rng.normal(size=(6, 3))
    lhs = geo.transform_points(t2, geo.transform_points(t1, pts).data).data
    rhs = geo.transform_points(geo.compose_transforms(t2, t1), pts).data
    assert np.abs(lhs - rhs).max() < 1e-10


# --- camera ----------------------------------------------------------------------


def _cam(fx=100.0, fy=100.0, cx=50.0, cy=50.0, t=None):
    return geo.make_camera(fx, fy, cx, cy, t, size=(100, 100))


def test_project_principal_axis():
    cam = _cam()
    for z in (0.5, 2.0, 7.0):
        assert np.allclose(geo.project_points(cam, [[0.0, 0.0, z]]), [[50.0, 50.0]])


def test_project_formula_values():
    cam = _cam()
    # u = fx*X/Z + cx, v = fy*Y/Z + cy
    assert np.allclose(geo.project_points(cam, [[1.0, 2.0, 4.0]]), [[75.0, 100.0]])
    assert np.allclose(geo.project_points(cam, [[3.0, 2.0, 4.0]]), [[125.0, 100.0]])


def test_project_behind_camera():
    with pytest.raises(g.DegenerateError):
        geo.project_points(_cam(), [[0.0, 0.0, -1.0]])
    with pytest.raises(g.DegenerateError):
        geo.unproject_points(_cam(), [[10.0, 10.0]], 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_project_unproject_roundtrip(seed):
    rng = np.random.default_rng(seed)
    cam = _cam(123.0, 117.0, 31.0, 29.0)
    pts = np.stack(
        [rng.uniform(-2, 2, 20), rng.uniform(-2, 2, 20), rng.uniform(0.5, 5, 20)], axis=-1
    )
    px = geo.project_points(cam, pts)
    back = geo.unproject_points(cam, px, pts[:, 2])
    assert np.abs(back - pts).max() < 1e-9


def test_camera_validation():
    bad = np.eye(4)
    bad[:3, :3] *= 2.0
    with pytest.raises(g.ParameterError):
        geo.make_camera(100, 100, 50, 50, bad)
    with pytest.raises(g.ParameterError):
        geo.make_camera(-1, 100, 50, 50)


def test_camera_file_roundtrip(tmp_path):
    t = _random_rigid(np.random.default_rng(3))
    cam = geo.make_camera(120.5, 119.0, 63.25, 47.75, t, size=(96, 128))
    path = tmp_path / "cam.txt"
    geo.save_camera(path, cam)
    back = geo.load_camera(path, size=(96, 128))
    assert np.abs(back.k - cam.k).max() < 1e-12
    assert np.abs(back.extrinsics - cam.extrinsics).max() < 1e-12


# --- depth -----------------------------------------------------------------------


def test_depth_to_3d_values():
    cam = _cam(80.0, 80.0, 4.0, 3.0)
    depth = np.full((1, 1, 7, 9), 2.5)
    pts = geo.depth_to_3d(g.Var(depth), cam)
    assert np.array_equal(pts.data[:, 2:3], depth)  # z channel is the depth
    assert np.allclose(pts.data[0, :, 3, 4], [0.0, 0.0, 2.5])  # principal point ray


def test_depth_normals_fronto_parallel():
    cam = _cam(60.0, 60.0, 8.0, 6.0)
    depth = np.full((1, 1, 12, 16), 3.0)
    n = geo.depth_normals(g.Var(depth), cam).data
    inner = n[0, :, 2:-2, 2:-2]
    assert np.abs(inner[0]).max() < 1e-9
    assert np.abs(inner[1]).max() < 1e-9
    assert np.abs(inner[2] + 1.0).max() < 1e-9


def test_depth_warp_identity_pose():
    cam = _cam(50.0, 50.0, 7.5, 7.5)
    img = smooth_image((16, 16), 9)
    depth = g.Var(np.random.default_rng(10).uniform(1.0, 3.0, (1, 1, 16, 16)))
    out = geo.depth_warp(img, depth, cam, cam)
    assert np.array_equal(out.data, img.data)


def test_depth_warp_translation_shift():
    # camera at +tx sees the plane shifted by fx*t/Z pixels
    fx, z, tx = 100.0, 2.0, 0.2  # shift = 10 px
    t_src = np.eye(4)
    t_src[0, 3] = -tx
    cam_ref = _cam(fx, fx, 16.0, 16.0)
    cam_src = _cam(fx, fx, 16.0, 16.0, t_src)
    img = smooth_image((32, 32), 11)
    depth = g.Var(np.full((1, 1, 32, 32), z))
    out = geo.depth_warp(img, depth, cam_src, cam_ref)
    assert np.array_equal(out.data[:, :, :, 10:], img.data[:, :, :, :-10])


@pytest.mark.parametrize("seed", range(5))
def test_depth_warp_gradcheck(seed):
    rng = np.random.default_rng(20 + seed)
    t_src = np.eye(4)
    t_src[:3, 3] = [0.05, -0.03, 0.02]
    cam_ref = geo.make_camera(10.0, 10.0, 3.5, 3.5, size=(8, 8))
    cam_src = geo.make_camera(10.0, 10.0, 3.5, 3.5, t_src, size=(8, 8))
    img = gaussian_blur2d(g.Var(rng.random((1, 1, 8, 8))), (5, 5), (1.0, 1.0)).data
    depth = rng.uniform(1.4, 2.6, (1, 1, 8, 8))

    def loss(d, im):
        return (geo.depth_warp(im, d, cam_src, cam_ref) ** 2.0).mean()

    gradcheck(loss, [depth, img], rtol=1e-3)


@pytest.mark.parametrize("seed", range(3))
def test_warp_perspective_gradcheck_image_and_h(seed):
    rng = np.random.default_rng(30 + seed)
    img = gaussian_blur2d(g.Var(rng.random((1, 1, 8, 8))), (5, 5), (1.0, 1.0)).data
    h = np.eye(3) + rng.normal(scale=0.01, size=(3, 3))
    h[2, 2] = 1.0
    gradcheck(lambda im, m: (geo.warp_perspective(im, m) ** 2.0).mean(), [img, h])


@pytest.mark.parametrize("seed", range(3))
def test_homography_warp_inverse_map_gradcheck_image_and_map(seed):
    # registration's path: a normalized output -> input map, no inverse
    rng = np.random.default_rng(40 + seed)
    img = gaussian_blur2d(g.Var(rng.random((1, 1, 8, 9))), (5, 5), (1.0, 1.0)).data
    m = np.eye(3) + rng.normal(scale=0.02, size=(3, 3))
    m[2, 2] = 1.0
    loss = lambda im, mm: (geo.homography_warp(im, mm, inverse_map=True) ** 2.0).mean()
    gradcheck(loss, [img, m])


# --- the warps against their former per-entry formulas ---------------------------


def _ref_coords(m, xs, ys):
    """Back-project constant output coords through (N,3,3) m, one entry at a time."""
    xs_v, ys_v = g.Var(xs), g.Var(ys)
    e = lambda i, j: m[:, i, j].reshape((-1, 1))
    denom = e(2, 0) * xs_v + e(2, 1) * ys_v + e(2, 2)
    ok = np.abs(denom.data) > 1e-12
    if not ok.all():
        denom = g.where(ok, denom, 1.0)
    sx = (e(0, 0) * xs_v + e(0, 1) * ys_v + e(0, 2)) / denom
    sy = (e(1, 0) * xs_v + e(1, 1) * ys_v + e(1, 2)) / denom
    if not ok.all():
        sx, sy = g.where(ok, sx, -1e9), g.where(ok, sy, -1e9)
    return sx, sy


def _ref_sample(img, sx, sy, shared, ho, wo):
    n = img.shape[0]
    if shared and n > 1:
        sx, sy = sx * np.ones((n, 1)), sy * np.ones((n, 1))
    return g.sample_bilinear(img, sx.reshape((n, ho, wo)), sy.reshape((n, ho, wo)))


def _ref_warp_perspective(img, h, dsize):
    h_inv = geo.mat3_inverse(h)
    ho, wo = dsize
    xs, ys = np.meshgrid(np.arange(wo, dtype=img.dtype), np.arange(ho, dtype=img.dtype))
    sx, sy = _ref_coords(h_inv, xs.ravel()[None], ys.ravel()[None])
    return _ref_sample(img, sx, sy, h_inv.shape[0] == 1, ho, wo)


def _ref_homography_warp(img, h, dsize, inverse_map):
    hi, wi = img.shape[2:]
    ho, wo = dsize
    m = h if inverse_map else geo.mat3_inverse(h)
    gx = np.linspace(-1.0, 1.0, wo) if wo > 1 else np.zeros(1)
    gy = np.linspace(-1.0, 1.0, ho) if ho > 1 else np.zeros(1)
    xs, ys = np.meshgrid(gx, gy)
    nx, ny = _ref_coords(m, xs.ravel()[None], ys.ravel()[None])
    nx, ny = (nx + 1.0) * (0.5 * (wi - 1)), (ny + 1.0) * (0.5 * (hi - 1))
    return _ref_sample(img, nx, ny, m.shape[0] == 1, ho, wo)


def _near_identity(rng, n, scale):
    m = np.eye(3) + rng.normal(scale=scale, size=(n, 3, 3))
    m[:, 2, 2] = 1.0
    return m


# output -> input maps with w = 0 on one output pixel column: x = 3 in pixel
# coordinates, x = -1 (the first column) in normalized coordinates
_COLUMN_TO_INFINITY = {
    "pixel": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, -3.0]]),
    "normalized": np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
}


@pytest.mark.parametrize(
    "case", ["dsize_1xW", "dsize_Hx1", "dsize_5x7", "shared_map_N2", "per_sample_N2", "infinity"]
)
@pytest.mark.parametrize("warp", ["perspective", "normalized", "normalized_inverse_map"])
def test_warps_match_former_formulas(warp, case):
    rng = np.random.default_rng(7)
    n = 2 if case.endswith("N2") else 1
    img = rng.random((n, 2, 6, 8))
    dsize = {"dsize_1xW": (1, 9), "dsize_Hx1": (7, 1), "dsize_5x7": (5, 7)}.get(case, (6, 8))
    scale = 0.002 if warp == "perspective" else 0.05
    h = _near_identity(rng, 2 if case == "per_sample_N2" else 1, scale)
    if case == "infinity":
        h = _COLUMN_TO_INFINITY["pixel" if warp == "perspective" else "normalized"]
        h = (h if warp == "normalized_inverse_map" else np.linalg.inv(h))[None]
    if warp == "perspective":
        new = lambda a, b: geo.warp_perspective(a, b, dsize)
        ref = lambda a, b: _ref_warp_perspective(a, b, dsize)
    else:
        inverse_map = warp == "normalized_inverse_map"
        new = lambda a, b: geo.homography_warp(a, b, dsize, inverse_map=inverse_map)
        ref = lambda a, b: _ref_homography_warp(a, b, dsize, inverse_map)
    cot = rng.normal(size=(n, 2) + dsize)
    results = []
    for fn in (new, ref):
        a, b = g.Var(img, requires_grad=True), g.Var(h, requires_grad=True)
        out = fn(a, b)
        grads = g.backward((out * cot).sum())
        results.append((out.data, grads[a].data, grads[b].data))
    if case == "infinity":
        assert (results[1][0] == 0.0).any()  # the case does reach the zero border
    for got, want in zip(*results):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_shared_map_equals_per_sample_copies():
    rng = np.random.default_rng(8)
    img = g.Var(rng.random((2, 1, 6, 8)))
    m = _near_identity(rng, 1, 0.05)
    shared = geo.homography_warp(img, m, inverse_map=True)
    copies = geo.homography_warp(img, np.concatenate([m, m]), inverse_map=True)
    assert np.array_equal(shared.data, copies.data)
    with pytest.raises(g.ShapeError):
        geo.homography_warp(g.Var(rng.random((3, 1, 6, 8))), np.concatenate([m, m]))
