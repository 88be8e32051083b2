"""Optimizers: convergence on a quadratic bowl and state bookkeeping."""
import numpy as np
import pytest

import gradcv as g
from gradcv.optim import Adam, SgdMomentum

TARGET = np.array([1.5, -2.0, 0.5])


def _loss(p):
    d = p - TARGET
    return (d * d).sum()


def test_adam_converges_to_target():
    p = g.Var(np.zeros(3), requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(300):
        grads = g.backward(_loss(p))
        opt.step(grads)
    assert np.abs(p.data - TARGET).max() < 1e-3


def test_sgd_momentum_converges():
    p = g.Var(np.zeros(3), requires_grad=True)
    opt = SgdMomentum([p], lr=0.05, momentum=0.9)
    for _ in range(400):
        grads = g.backward(_loss(p))
        opt.step(grads)
    assert np.abs(p.data - TARGET).max() < 1e-6


def test_adam_defaults():
    opt = Adam([g.Var(np.zeros(2), requires_grad=True)])
    assert opt.beta1 == 0.9 and opt.beta2 == 0.999 and opt.eps == 1e-8


def test_state_shapes_match_params():
    p = g.Var(np.zeros((2, 3)), requires_grad=True)
    opt = Adam([p], lr=0.01)
    grads = g.backward((p * p).sum() + p.sum())
    opt.step(grads)
    assert opt._m[id(p)].shape == (2, 3)
    assert p.shape == (2, 3)


@pytest.mark.parametrize("make", [lambda p: Adam([p], lr=0.1), lambda p: SgdMomentum([p], lr=0.05)])
def test_step_keeps_params_read_only(make):
    p = g.Var(np.zeros(3), requires_grad=True)
    make(p).step(g.backward(_loss(p)))
    assert not np.array_equal(p.data, np.zeros(3))
    assert not p.data.flags.writeable and p.data.flags.c_contiguous


def test_missing_grad_is_skipped():
    p = g.Var(np.ones(2), requires_grad=True)
    q = g.Var(np.ones(2), requires_grad=True)
    opt = SgdMomentum([p, q], lr=0.1)
    grads = g.backward((p * p).sum())  # q never recorded
    opt.step(grads)
    assert np.array_equal(q.data, np.ones(2))
    assert not np.array_equal(p.data, np.ones(2))


def test_bad_hyperparameters():
    p = g.Var(np.zeros(1), requires_grad=True)
    with pytest.raises(g.ParameterError):
        Adam([p], lr=0.0)
    with pytest.raises(g.ParameterError):
        SgdMomentum([p], lr=0.1, momentum=1.0)
