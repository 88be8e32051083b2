"""Augmentation: transform retrieval, determinism, per-sample independence."""
import numpy as np
import pytest

import gradcv as g
from gradcv import augment as aug
from gradcv import color
from gradcv.filters import gaussian_blur2d
from gradcv.geometry import warp_perspective
from gradcv.testing import gradcheck


def batch(n=4, c=3, h=16, w=20, seed=0, smooth=False):
    rng = np.random.default_rng(seed)
    x = rng.random((n, c, h, w))
    if smooth:
        x = gaussian_blur2d(g.Var(x), (5, 5), (1.2, 1.2)).data
    return g.Var(np.clip(x, 0.05, 0.95))


def warp_consistency(res, inputs, atol):
    """Re-apply the returned matrices through warp_perspective."""
    redo = warp_perspective(inputs, g.Var(res.transform)).data
    assert np.abs(redo - res.output.data).max() <= atol


# --- flips -------------------------------------------------------------------


def test_hflip_p0_identity():
    x = batch(seed=1)
    res = aug.random_hflip(x, 0.0, aug.Rng(7))
    assert np.array_equal(res.output.data, x.data)
    assert np.array_equal(res.transform.data, np.tile(np.eye(3), (4, 1, 1)))


def test_hflip_p1_all_flipped_involution():
    x = batch(seed=2)
    rng = aug.Rng(3)
    once = aug.random_hflip(x, 1.0, rng)
    twice = aug.random_hflip(once.output, 1.0, rng)
    assert np.array_equal(once.output.data, x.data[:, :, :, ::-1])
    assert np.array_equal(twice.output.data, x.data)


@pytest.mark.parametrize("op", [aug.random_hflip, aug.random_vflip])
def test_flip_warp_consistency_exact(op):
    x = batch(seed=3)
    res = op(x, 0.7, aug.Rng(11))
    warp_consistency(res, x, atol=0.0)  # flips are integer index maps


def test_vflip_transform_matrix():
    x = batch(n=2, seed=4)
    res = aug.random_vflip(x, 1.0, aug.Rng(5))
    expect = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 15.0], [0.0, 0.0, 1.0]])
    assert np.allclose(res.transform.data[0], expect)


# --- affine ------------------------------------------------------------------


def test_affine_degenerate_ranges_identity():
    x = batch(seed=5)
    res = aug.random_affine(x, (0.0, 0.0), (0.0, 0.0), (1.0, 1.0), aug.Rng(1))
    assert np.abs(res.output.data - x.data).max() < 1e-12
    assert np.allclose(res.transform.data, np.tile(np.eye(3), (4, 1, 1)))


def test_affine_seed_determinism():
    x = batch(seed=6)
    r1 = aug.random_affine(x, (-20, 20), (0.1, 0.1), (0.8, 1.2), aug.Rng(9))
    r2 = aug.random_affine(x, (-20, 20), (0.1, 0.1), (0.8, 1.2), aug.Rng(9))
    assert np.array_equal(r1.output.data, r2.output.data)
    assert np.array_equal(r1.transform.data, r2.transform.data)
    for k in r1.params:
        assert np.array_equal(r1.params[k], r2.params[k])


def test_affine_warp_consistency():
    x = batch(seed=7, smooth=True)
    res = aug.random_affine(x, (-15, 15), (0.05, 0.05), (0.9, 1.1), aug.Rng(13))
    warp_consistency(res, x, atol=1e-6)  # same interpolator, same path


def test_affine_invalid_range():
    with pytest.raises(g.ParameterError):
        aug.RandomAffine(degrees=(5.0, -5.0))


# --- color jitter ---------------------------------------------------------------


def test_color_jitter_identity_ranges():
    x = batch(seed=8)
    res = aug.color_jitter(x, (0, 0), (1, 1), (1, 1), (0, 0), aug.Rng(2))
    assert np.array_equal(res.output.data, x.data)
    assert np.array_equal(res.transform.data, np.tile(np.eye(3), (4, 1, 1)))


def test_color_jitter_determinism_and_identity_transform():
    x = batch(seed=9)
    args = ((-0.1, 0.1), (0.8, 1.2), (0.7, 1.3), (-0.3, 0.3))
    r1 = aug.color_jitter(x, *args, aug.Rng(21))
    r2 = aug.color_jitter(x, *args, aug.Rng(21))
    assert np.array_equal(r1.output.data, r2.output.data)
    assert np.array_equal(r1.transform.data, np.tile(np.eye(3), (4, 1, 1)))


def test_color_jitter_per_sample_independence():
    # changing sample 1's pixels must not change sample 0's output
    x = batch(seed=10)
    args = ((-0.2, 0.2), (0.7, 1.3), (0.8, 1.2), (-0.5, 0.5))
    r1 = aug.color_jitter(x, *args, aug.Rng(33))
    modified = x.numpy()
    modified[1] = np.clip(modified[1] * 0.5 + 0.1, 0, 1)
    r2 = aug.color_jitter(g.Var(modified), *args, aug.Rng(33))
    assert np.array_equal(r1.output.data[0], r2.output.data[0])
    assert not np.array_equal(r1.output.data[1], r2.output.data[1])


def test_color_jitter_is_one_batched_pass_equal_to_per_sample_adjustments():
    # the former implementation: one adjust_* call per sample with scalar factors
    x = batch(n=8, h=32, w=32, seed=9).data
    w = np.random.default_rng(16).normal(size=x.shape)
    args = ((-0.1, 0.1), (0.8, 1.2), (0.7, 1.3), (-0.3, 0.3))
    v = g.Var(x, requires_grad=True)
    res = aug.color_jitter(v, *args, aug.Rng(21))
    assert len(res.output._tape) <= 100  # 1114 nodes with one chain per sample
    grad = g.backward((res.output * w).sum())[v].data
    p = res.params
    rows = []
    for i in range(8):
        y = color.adjust_contrast(color.adjust_brightness(v[i : i + 1], float(p["brightness"][i])), float(p["contrast"][i]))
        rows.append(color.adjust_hue(color.adjust_saturation(y, float(p["saturation"][i])), float(p["hue"][i])))
    ref = g.concat(rows, axis=0)
    assert np.array_equal(res.output.data, ref.data)
    assert np.array_equal(grad, g.backward((ref * w).sum())[v].data)


# --- erasing / crop ----------------------------------------------------------------


def test_random_erasing_zeroes_box_only():
    x = batch(seed=11)
    res = aug.random_erasing(x, 1.0, aug.Rng(4))
    out = res.output.data
    for i, (i0, j0, eh, ew) in enumerate(res.params["boxes"]):
        assert np.array_equal(out[i, :, i0 : i0 + eh, j0 : j0 + ew], np.zeros((3, eh, ew)))
        mask = np.ones((16, 20), dtype=bool)
        mask[i0 : i0 + eh, j0 : j0 + ew] = False
        assert np.array_equal(out[i][:, mask], x.data[i][:, mask])
    assert np.array_equal(res.transform.data, np.tile(np.eye(3), (4, 1, 1)))


def test_random_resized_crop_consistency():
    x = batch(seed=12, smooth=True)
    res = aug.random_resized_crop(x, aug.Rng(6))
    warp_consistency(res, x, atol=1e-6)
    assert res.output.shape == x.shape


# --- chains ------------------------------------------------------------------------


def test_chain_of_one_equals_op():
    x = batch(seed=13)
    op = aug.RandomHFlip(0.6)
    direct = op(x, aug.Rng(17))
    chained = aug.compose([op])(x, aug.Rng(17))
    assert np.array_equal(direct.output.data, chained.output.data)
    assert np.array_equal(direct.transform.data, chained.transform.data)


def test_chain_double_hflip_identity_transform():
    x = batch(seed=14)
    chain = aug.compose([aug.RandomHFlip(1.0), aug.RandomHFlip(1.0)])
    res = chain(x, aug.Rng(8))
    assert np.array_equal(res.output.data, x.data)
    assert np.allclose(res.transform.data, np.tile(np.eye(3), (4, 1, 1)))


def test_chain_vflip_affine_composition():
    x = batch(seed=15, smooth=True)
    chain = aug.compose(
        [aug.RandomVFlip(1.0), aug.RandomAffine((-10, 10), (0.05, 0.05), (0.95, 1.05))]
    )
    res = chain(x, aug.Rng(19))
    # warping by the composed matrix reproduces the chained output up to one
    # extra resampling
    redo = warp_perspective(x, g.Var(res.transform)).data
    inner = (slice(None), slice(None), slice(2, -2), slice(2, -2))
    assert np.abs(redo[inner] - res.output.data[inner]).max() < 1e-2


def test_chain_requires_ops():
    with pytest.raises(g.ParameterError):
        aug.compose([])


def test_rng_counter_stream_bit_exact():
    r1 = aug.Rng(123)
    r2 = aug.Rng(123)
    for _ in range(3):
        assert np.array_equal(r1.draw(5, 4), r2.draw(5, 4))
    # distinct calls give distinct draws
    r3 = aug.Rng(123)
    a = r3.draw(5, 4)
    b = r3.draw(5, 4)
    assert not np.array_equal(a, b)


# --- differentiability ---------------------------------------------------------------


def test_augment_ops_differentiable_wrt_batch():
    rng = np.random.default_rng(20)
    x = np.clip(
        gaussian_blur2d(g.Var(rng.random((2, 1, 8, 8))), (5, 5), (1.0, 1.0)).data, 0.1, 0.9
    )

    def run(op_factory, seed):
        def f(v):
            return (op_factory()(v, aug.Rng(seed)).output ** 2.0).mean()

        gradcheck(f, [x])

    run(lambda: aug.RandomHFlip(0.7), 3)
    run(lambda: aug.RandomVFlip(0.7), 3)
    run(lambda: aug.RandomAffine((-10, 10), (0.05, 0.05), (0.9, 1.1)), 5)
    run(lambda: aug.RandomErasing(0.8), 7)
    run(lambda: aug.RandomResizedCrop(), 9)
