"""Autodiff tape: backward semantics, elementwise suite, tie conventions."""
import gc

import numpy as np
import pytest

import gradcv as g
from gradcv import geometry as geo
from gradcv.demos import RunConfig, register, synthetic
from gradcv.testing import gradcheck


def test_square_gradient():
    x = g.Var(3.0, requires_grad=True)
    y = x * x
    grads = g.backward(y)
    assert grads[x].data == pytest.approx(6.0)


def test_constant_leaf_not_in_gradient_map():
    c = g.Var(np.ones((2, 2)), requires_grad=False)
    x = g.Var(np.ones((2, 2)), requires_grad=True)
    y = (x * c).sum()
    grads = g.backward(y)
    assert x in grads
    assert c not in grads


def test_shared_subexpression_accumulates():
    x = g.Var(np.ones((2, 3)), requires_grad=True)
    y = (x + x).sum()
    assert np.array_equal(g.backward(y)[x].data, 2.0 * np.ones((2, 3)))


def test_unreachable_leaf_gets_zeros():
    x = g.Var(np.ones(3), requires_grad=True)
    z = g.Var(np.ones(3), requires_grad=True)
    _ = z * 2.0  # records z on the tape but never feeds the loss
    y = (x * 3.0).sum()
    grads = g.backward(y)
    assert np.array_equal(grads[x].data, np.full(3, 3.0))
    assert np.array_equal(grads[z].data, np.zeros(3))


def test_backward_errors():
    x = g.Var(np.ones(4), requires_grad=True)
    y = x * 2.0
    with pytest.raises(g.ShapeError):
        g.backward(y)  # non-scalar
    c = g.Var(1.0)
    with pytest.raises(g.UsageError):
        g.backward(c)  # detached / constant


def test_stale_tape_var_cannot_mix_with_new_graph():
    x = g.Var(1.0, requires_grad=True)
    a = x * 2.0
    g.backward(a)  # releases the ambient tape
    b = x * 3.0  # records on a fresh tape
    with pytest.raises(g.UsageError):
        _ = a + b


def test_fresh_tape_per_iteration():
    x = g.Var(2.0, requires_grad=True)
    for _ in range(3):
        loss = x * x
        tape = loss._tape
        grads = g.backward(loss)
        assert grads[x].data == pytest.approx(4.0)
        assert len(tape) == 2  # leaf + mul; graph does not grow across iters


def test_gradient_shape_matches_value_shape():
    for shape in [(), (1,), (2, 3)]:
        x = g.Var(np.ones(shape), requires_grad=True)
        grads = g.backward((x * x).sum())
        assert grads[x].shape == x.shape


# --- elementwise / reduction suite ----------------------------------------


def test_mean_example():
    assert g.mean(g.Var([1.0, 2.0, 3.0, 4.0])).item() == pytest.approx(2.5)


def test_abs_grad_zero_at_zero():
    x = g.Var([0.0, -2.0, 3.0], requires_grad=True)
    grads = g.backward(g.abs_(x).sum())
    assert np.array_equal(grads[x].data, [0.0, -1.0, 1.0])


def test_sum_ones_backward():
    x = g.Var(np.ones((2, 3)), requires_grad=True)
    y = x.sum()
    assert y.item() == pytest.approx(6.0)
    assert np.array_equal(g.backward(y)[x].data, np.ones((2, 3)))


def test_broadcast_shapes_error():
    a = g.Var(np.ones((2, 3)))
    b = g.Var(np.ones((4,)))
    with pytest.raises(ValueError):
        _ = a + b


def test_max_tie_goes_to_first_in_scan_order():
    x = g.Var([1.0, 5.0, 5.0, 2.0], requires_grad=True)
    grads = g.backward(x.max())
    assert np.array_equal(grads[x].data, [0.0, 1.0, 0.0, 0.0])


def test_maximum_tie_goes_to_first_operand():
    a = g.Var([2.0, 1.0], requires_grad=True)
    b = g.Var([2.0, 3.0], requires_grad=True)
    loss = g.maximum(a, b).sum()
    grads = g.backward(loss)
    assert np.array_equal(grads[a].data, [1.0, 0.0])
    assert np.array_equal(grads[b].data, [0.0, 1.0])


def test_clamp_examples():
    x = g.Var([-1.0, 0.5, 2.0], requires_grad=True)
    y = g.clamp(x, 0.0, 1.0)
    assert np.array_equal(y.data, [0.0, 0.5, 1.0])
    grads = g.backward(y.sum())
    assert np.array_equal(grads[x].data, [0.0, 1.0, 0.0])


def test_broadcasting_gradients_unbroadcast():
    a = g.Var(np.ones((2, 1, 3)), requires_grad=True)
    b = g.Var(np.ones((4, 1)), requires_grad=True)
    grads = g.backward((a * b).sum())
    assert grads[a].shape == (2, 1, 3)
    assert grads[b].shape == (4, 1)
    assert np.array_equal(grads[a].data, np.full((2, 1, 3), 4.0))
    assert np.array_equal(grads[b].data, np.full((4, 1), 6.0))


def test_float32_stays_float32_with_python_scalars():
    x = g.Var(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = (x * 2.0 + 1.0) / 3.0
    assert y.dtype == np.float32


def test_leaf_gradient_keeps_leaf_dtype():
    # a float64 constant promotes the product, but the float32 leaf's gradient
    # comes back float32; a float64 leaf's gradient is unchanged
    v32 = g.Var(np.full((2, 3), 0.5, dtype=np.float32), requires_grad=True)
    v64 = g.Var(np.full((2, 3), 0.5), requires_grad=True)
    grads = g.backward(g.mean(v32 * g.Var(np.ones((2, 3))) + v64 * 3.0))
    assert grads[v32].dtype == np.float32 and grads[v64].dtype == np.float64
    assert np.array_equal(grads[v32].data, np.full((2, 3), 1 / 6, dtype=np.float32))
    assert np.array_equal(grads[v64].data, np.full((2, 3), 3.0 * (1.0 / 6)))


RNG = np.random.default_rng(20240811)


@pytest.mark.parametrize("seed", range(5))
def test_elementwise_gradcheck(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.2, 2.0, size=(3, 4))
    b = rng.uniform(0.2, 2.0, size=(3, 4))

    def f(x, y):
        z = x * y + x / y - y
        z = g.exp(z * 0.1) + g.log(x) + g.sqrt(y) + g.pow_(x, 1.7)
        z = z + g.sin(x) * g.cos(y) + g.atan2(y, x)
        return z.sum()

    gradcheck(f, [a, b])


@pytest.mark.parametrize("seed", range(5))
def test_reduction_gradcheck(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.normal(size=(2, 3, 4))

    def f(v):
        return v.max() + v.min(axis=2).sum() + v.mean(axis=0).sum() + g.abs_(v).mean()

    gradcheck(f, [x])


@pytest.mark.parametrize("seed", range(3))
def test_shape_ops_gradcheck(seed):
    rng = np.random.default_rng(200 + seed)
    x = rng.normal(size=(2, 3, 4))
    y = rng.normal(size=(2, 4, 3))

    def f(a, b):
        m = g.matmul(a, b)  # (2,3,3)
        s = g.stack([a[:, 0], a[:, 1]], axis=1)
        c = g.concat([a.reshape(2, 12), b.reshape(2, 12)], axis=1)
        return m.sum() + s.mean() + c.transpose((1, 0)).sum() + a[:, ::-1, ::2].sum()

    gradcheck(f, [x, y])


def test_where_routes_gradients():
    x = g.Var([1.0, -1.0], requires_grad=True)
    y = g.Var([10.0, 10.0], requires_grad=True)
    out = g.where(np.array([True, False]), x, y).sum()
    grads = g.backward(out)
    assert np.array_equal(grads[x].data, [1.0, 0.0])
    assert np.array_equal(grads[y].data, [0.0, 1.0])


def test_detach_cuts_graph():
    x = g.Var(2.0, requires_grad=True)
    y = (x * x).detach() * x
    grads = g.backward(y)
    assert grads[x].data == pytest.approx(4.0)  # only the outer factor


def test_tensor_invariants():
    t = g.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.dtype == np.float64
    with pytest.raises(ValueError):
        t.data[0, 0] = 5.0  # read-only buffer
    with pytest.raises(g.ShapeError):
        g.Tensor(np.zeros((0, 2)))
    with pytest.raises(g.ParameterError):
        g.Tensor(np.array(["a"]))


def test_tapes_are_freed_without_the_cycle_collector():
    # a vjp closure that holds a Var (which holds its tape, which holds the
    # closure) makes a reference cycle that only gc.collect() would free
    img = synthetic.smooth_texture(24, 24, seed=3)
    rng = np.random.default_rng(15)
    gc.collect()
    gc.disable()
    try:
        register(img, img, RunConfig(levels=1, iters=2, lr=1e-3))
        x = g.Var(rng.random((1, 2, 9, 10)), requires_grad=True)
        h = g.Var(np.array([[1.0, 0.1, 0.5], [0.0, 0.9, 0.2], [1e-3, 0.0, 1.0]]),
                  requires_grad=True)
        loss = (geo.warp_perspective(x, h) ** 2.0).sum() + g.upsample_bilinear(x, (13, 7)).sum()
        grads = g.backward(loss)
        assert set(grads) == {x, h}
        del loss, grads
        assert gc.collect() == 0
    finally:
        gc.enable()
