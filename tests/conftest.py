import sys

import numpy as np
import pytest

import gradcv.tape as _tape


@pytest.fixture(autouse=True)
def fresh_ambient_tape():
    """Abandoned graphs (ops without backward) must not leak across tests."""
    _tape._ambient.tape = None
    yield
    _tape._ambient.tape = None


@pytest.fixture
def node_dtypes(monkeypatch) -> list:
    """The dtype of every tape node's output and of each array its vjp
    returns, logged from every gradcv module that records nodes."""
    seen = []
    record = _tape._record

    def logged(out, parents, vjp):
        def logged_vjp(g):
            grads = vjp(g)
            seen.extend(np.asarray(p).dtype for p in grads if p is not None)
            return grads

        seen.append(np.asarray(out).dtype)
        return record(out, parents, logged_vjp)

    for name, module in list(sys.modules.items()):
        if name.startswith("gradcv") and getattr(module, "_record", None) is record:
            monkeypatch.setattr(module, "_record", logged)
    return seen
