"""Gradient-descent optimizers over leaf Vars.

Optimizers rebind `param.data` to a new read-only array (the old array is
replaced, never modified), so the same leaf Vars can be re-recorded on a
fresh tape every iteration.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .tape import Var
from .tensor import _frozen


def _update(param: Var, new_values: np.ndarray) -> None:
    param.data = _frozen(np.ascontiguousarray(new_values))


class SgdMomentum:
    """Classical momentum: v <- mu*v + g; p <- p - lr*v."""

    def __init__(self, params, lr: float, momentum: float = 0.9):
        if lr <= 0:
            raise ParameterError(f"lr must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ParameterError(f"momentum must be in [0,1), got {momentum}")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = {id(p): np.zeros_like(p.data) for p in self.params}

    def step(self, grads: dict) -> None:
        for p in self.params:
            gt = grads.get(p)
            if gt is None:
                continue
            v = self._velocity[id(p)]
            v = self.momentum * v + gt.data
            self._velocity[id(p)] = v
            _update(p, p.data - self.lr * v)


class Adam:
    """Adam with the standard bias-corrected moment estimates.

    Defaults: betas (0.9, 0.999), eps 1e-8.
    """

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999), eps: float = 1e-8):
        if lr <= 0:
            raise ParameterError(f"lr must be > 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = {id(p): np.zeros_like(p.data) for p in self.params}
        self._v = {id(p): np.zeros_like(p.data) for p in self.params}
        self._t = 0

    def step(self, grads: dict) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for p in self.params:
            gt = grads.get(p)
            if gt is None:
                continue
            gv = gt.data
            m = self._m[id(p)] = b1 * self._m[id(p)] + (1 - b1) * gv
            v = self._v[id(p)] = b2 * self._v[id(p)] + (1 - b2) * gv * gv
            m_hat = m / (1 - b1**self._t)
            v_hat = v / (1 - b2**self._t)
            _update(p, p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
