"""Reverse-mode automatic differentiation on a tape.

A :class:`Var` wraps a :class:`~gradcv.tensor.Tensor` and, when it depends on
a gradient-requiring leaf, a node on a :class:`Tape`.  Ops append nodes in
execution order, so the node list is topologically sorted by construction and
:func:`backward` is a single reverse sweep that accumulates vector-Jacobian
products into per-node buffers.

Leaves are not bound to a tape permanently.  Recording uses a thread-local
*ambient* tape: it is created when an op first touches a gradient-requiring
leaf and released by :func:`backward`, so optimization loops rebuild a fresh
graph every iteration while reusing the same parameter Vars.  A tape must
stay on one thread from first record to the end of backward.
"""
from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import ShapeError, UsageError
from .tensor import Tensor, as_array

ArrayLike = Union["Var", Tensor, np.ndarray, float, int, Sequence]

# Ties in maximum/minimum/clamp propagate the gradient to the first operand;
# abs'(0) = 0.  Deterministic subgradient conventions keep tapes reproducible.


class _Node:
    __slots__ = ("parent_ids", "vjp")

    def __init__(self, parent_ids: tuple, vjp: Optional[Callable]):
        self.parent_ids = parent_ids
        self.vjp = vjp


class Tape:
    """Ordered op records plus the leaf registry for one backward pass."""

    __slots__ = ("_nodes", "_leaf_ids", "_leaves")

    def __init__(self):
        self._nodes: list[_Node] = []
        self._leaf_ids: dict[int, int] = {}  # id(Var) -> node id
        self._leaves: dict[int, "Var"] = {}  # node id -> leaf Var

    def __len__(self) -> int:
        return len(self._nodes)

    def _add(self, node: _Node) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    def _record_leaf(self, v: "Var") -> int:
        nid = self._leaf_ids.get(id(v))
        if nid is None:
            nid = self._add(_Node((), None))
            self._leaf_ids[id(v)] = nid
            self._leaves[nid] = v
        return nid


class Var:
    """Tensor node on an autodiff tape.

    A Var is either a leaf (value plus ``requires_grad`` flag) or the output
    of a recorded op.  Arithmetic operators and the named methods build the
    graph; :func:`backward` on a scalar Var returns ``{leaf: gradient}``.
    """

    __slots__ = ("value", "requires_grad", "_tape", "_node_id")

    # keep numpy from hijacking mixed ndarray/Var arithmetic: returning
    # NotImplemented routes it back through our reflected operators
    __array_ufunc__ = None

    def __init__(self, value: Any, requires_grad: bool = False, dtype=None):
        if isinstance(value, Var):
            value = value.value
        if not isinstance(value, Tensor):
            value = Tensor(value, dtype=dtype)
        elif dtype is not None and value.dtype != dtype:
            value = value.astype(dtype)
        self.value = value
        self.requires_grad = bool(requires_grad)
        self._tape: Optional[Tape] = None
        self._node_id: int = -1

    @classmethod
    def _from_node(cls, value: Tensor, tape: Tape, node_id: int) -> "Var":
        v = object.__new__(cls)
        v.value = value
        v.requires_grad = True
        v._tape = tape
        v._node_id = node_id
        return v

    # -- value access -------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        return self.value.data

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def dtype(self) -> np.dtype:
        return self.value.dtype

    @property
    def ndim(self) -> int:
        return self.value.ndim

    @property
    def size(self) -> int:
        return self.value.size

    def numpy(self) -> np.ndarray:
        return self.value.numpy()

    def item(self) -> float:
        return self.value.item()

    def __array__(self, dtype=None):
        return self.value.__array__(dtype)

    def detach(self) -> "Var":
        """Constant Var sharing this value (cuts the graph)."""
        v = object.__new__(Var)
        v.value = self.value
        v.requires_grad = False
        v._tape = None
        v._node_id = -1
        return v

    def __repr__(self) -> str:
        tag = "leaf" if self._tape is None else f"node {self._node_id}"
        return f"Var(shape={self.shape}, dtype={self.dtype.name}, {tag}, requires_grad={self.requires_grad})"

    # -- operators ------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, other):
        return pow_(self, other)

    def __neg__(self):
        return neg(self)

    def __abs__(self):
        return abs_(self)

    def __getitem__(self, idx):
        return getitem(self, idx)

    # -- named methods ----------------------------------------------------
    def abs(self):
        return abs_(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def clamp(self, lo=None, hi=None):
        return clamp(self, lo, hi)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis, keepdims)

    def min(self, axis=None, keepdims=False):
        return min_(self, axis, keepdims)

    def max(self, axis=None, keepdims=False):
        return max_(self, axis, keepdims)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes: Sequence[int]):
        return transpose(self, axes)

    def swapaxes(self, a: int, b: int):
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return transpose(self, axes)

    def backward(self) -> dict:
        return backward(self)


def as_var(x: ArrayLike, dtype=None) -> Var:
    """Coerce to a Var; non-Var inputs become constants."""
    if isinstance(x, Var):
        return x
    return Var(x, requires_grad=False, dtype=dtype)


_ambient = threading.local()


def _current_tape() -> Tape:
    tape = getattr(_ambient, "tape", None)
    if tape is None:
        tape = Tape()
        _ambient.tape = tape
    return tape


def _release_tape(tape: Tape) -> None:
    if getattr(_ambient, "tape", None) is tape:
        _ambient.tape = None


def _record(out_arr: np.ndarray, parents: Sequence[Var], vjp: Callable) -> Var:
    """Attach an op output to the tape of its parents.

    Pure-constant expressions are not recorded at all.  Expressions built
    only from leaves record on the thread's ambient tape (created on demand);
    expressions continuing an existing recorded Var stay on that Var's tape.
    """
    tape: Optional[Tape] = None
    track = False
    for p in parents:
        if p._tape is not None:
            if tape is None:
                tape = p._tape
            elif tape is not p._tape:
                raise UsageError(
                    "op inputs were recorded on different tapes "
                    "(a Var from before backward() was reused; detach() it)"
                )
            track = True
        elif p.requires_grad:
            track = True
    out_t = Tensor._wrap(np.asarray(out_arr))
    if not track:
        return Var(out_t)
    if tape is None:
        tape = _current_tape()
    pids = []
    for p in parents:
        if p._tape is tape:
            pids.append(p._node_id)
        elif p._tape is None and p.requires_grad:
            pids.append(tape._record_leaf(p))
        else:
            pids.append(-1)
    nid = tape._add(_Node(tuple(pids), vjp))
    return Var._from_node(out_t, tape, nid)


def backward(loss: Var) -> dict:
    """Reverse sweep from a scalar loss.

    Returns ``{leaf Var: Tensor gradient}`` covering every gradient-requiring
    leaf recorded on the loss's tape; leaves that do not reach the loss get
    zeros.  Raises :class:`ShapeError` for non-scalar losses and
    :class:`UsageError` when the loss is a constant/detached Var.  The
    thread's ambient tape is released, so subsequent ops start a new graph.
    """
    if not isinstance(loss, Var):
        raise UsageError("backward expects a Var")
    if loss._tape is None:
        raise UsageError("loss is not recorded on a tape (constant or detached)")
    if loss.size != 1:
        raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")
    tape = loss._tape
    _release_tape(tape)
    nodes = tape._nodes
    grads: list = [None] * len(nodes)
    grads[loss._node_id] = np.ones_like(loss.data)
    for nid in range(loss._node_id, -1, -1):
        g = grads[nid]
        if g is None:
            continue
        node = nodes[nid]
        if node.vjp is None:
            continue
        pgrads = node.vjp(g)
        for pid, pg in zip(node.parent_ids, pgrads):
            if pid < 0 or pg is None:
                continue
            if grads[pid] is None:
                grads[pid] = pg
            else:
                grads[pid] = grads[pid] + pg  # out-of-place: vjps may return views
        grads[nid] = None  # free as we go
    out = {}
    for nid, leaf in tape._leaves.items():
        g = grads[nid]
        if g is None:
            g = np.zeros_like(leaf.data)
        # a gradient comes back in its leaf's dtype (free when they already match)
        g = np.ascontiguousarray(g).reshape(leaf.data.shape).astype(leaf.dtype, copy=False)
        out[leaf] = Tensor._wrap(g)
    return out


# ---------------------------------------------------------------------------
# broadcasting helpers


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, e in enumerate(shape) if e == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, fwd, vjp_builder) -> Var:
    """Common path for broadcasting binary ops.

    Python scalars stay raw so numpy's weak promotion keeps float32 inputs
    float32; array-likes become constant Vars.
    """
    if isinstance(a, Var) and isinstance(b, (int, float)):
        out = fwd(a.data, b)
        vjps = vjp_builder(a.data, b)
        sa = a.shape
        return _record(out, (a,), lambda g: (_unbroadcast(vjps[0](g), sa),))
    if isinstance(b, Var) and isinstance(a, (int, float)):
        out = fwd(a, b.data)
        vjps = vjp_builder(a, b.data)
        sb = b.shape
        return _record(out, (b,), lambda g: (_unbroadcast(vjps[1](g), sb),))
    av, bv = as_var(a), as_var(b)
    out = fwd(av.data, bv.data)
    vjps = vjp_builder(av.data, bv.data)
    sa, sb = av.shape, bv.shape  # closures hold shapes, never Vars (no cycles)

    def vjp(g):
        return (
            _unbroadcast(vjps[0](g), sa),
            _unbroadcast(vjps[1](g), sb),
        )

    return _record(out, (av, bv), vjp)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Var:
    return _binary(a, b, lambda x, y: x + y, lambda x, y: (lambda g: g, lambda g: g))


def sub(a, b) -> Var:
    return _binary(a, b, lambda x, y: x - y, lambda x, y: (lambda g: g, lambda g: -g))


def mul(a, b) -> Var:
    return _binary(a, b, lambda x, y: x * y, lambda x, y: (lambda g: g * y, lambda g: g * x))


def div(a, b) -> Var:
    return _binary(
        a, b, lambda x, y: x / y, lambda x, y: (lambda g: g / y, lambda g: -g * x / (y * y))
    )


def pow_(a, b) -> Var:
    """Elementwise power.  Gradient w.r.t. the exponent needs a > 0."""

    def vjps(x, y):
        out = x ** y
        return (
            lambda g: g * y * x ** (y - 1.0),
            lambda g: g * out * np.log(np.maximum(x, 1e-300)),
        )

    return _binary(a, b, lambda x, y: x ** y, vjps)


def neg(a) -> Var:
    a = as_var(a)
    return _record(-a.data, (a,), lambda g: (-g,))


def abs_(a) -> Var:
    a = as_var(a)
    s = np.sign(a.data)  # sign(0) == 0: abs'(0) = 0 by convention
    return _record(np.abs(a.data), (a,), lambda g: (g * s,))


def exp(a) -> Var:
    a = as_var(a)
    out = np.exp(a.data)
    return _record(out, (a,), lambda g: (g * out,))


def log(a) -> Var:
    a = as_var(a)
    ad = a.data
    return _record(np.log(ad), (a,), lambda g: (g / ad,))


def sqrt(a) -> Var:
    a = as_var(a)
    out = np.sqrt(a.data)
    return _record(out, (a,), lambda g: (g * (0.5 / out),))


def sin(a) -> Var:
    a = as_var(a)
    ad = a.data
    return _record(np.sin(ad), (a,), lambda g: (g * np.cos(ad),))


def cos(a) -> Var:
    a = as_var(a)
    ad = a.data
    return _record(np.cos(ad), (a,), lambda g: (-g * np.sin(ad),))


def atan2(y, x) -> Var:
    def vjps(yv, xv):
        r2 = xv * xv + yv * yv
        return (lambda g: g * xv / r2, lambda g: -g * yv / r2)

    return _binary(y, x, np.arctan2, vjps)


def maximum(a, b) -> Var:
    def vjps(x, y):
        m = x >= y  # tie -> first operand
        return (lambda g: g * m, lambda g: g * ~m)

    return _binary(a, b, np.maximum, vjps)


def minimum(a, b) -> Var:
    def vjps(x, y):
        m = x <= y  # tie -> first operand
        return (lambda g: g * m, lambda g: g * ~m)

    return _binary(a, b, np.minimum, vjps)


def clamp(a, lo=None, hi=None) -> Var:
    """Clip to [lo, hi].  Gradient passes where lo <= x <= hi (x is the
    first operand, so exact boundary hits still propagate)."""
    a = as_var(a)
    x = a.data
    out = np.clip(x, lo, hi)
    m = np.ones(x.shape, dtype=bool)
    if lo is not None:
        m &= x >= lo
    if hi is not None:
        m &= x <= hi
    return _record(out, (a,), lambda g: (g * m,))


def where(cond, a, b) -> Var:
    """Select by a constant boolean mask (the mask is not differentiated)."""
    c = as_array(cond).astype(bool)
    av, bv = as_var(a), as_var(b)
    out = np.where(c, av.data, bv.data)
    sa, sb = av.shape, bv.shape

    def vjp(g):
        return (
            _unbroadcast(np.where(c, g, 0.0), sa),
            _unbroadcast(np.where(c, 0.0, g), sb),
        )

    return _record(out, (av, bv), vjp)


# ---------------------------------------------------------------------------
# reductions


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def sum_(a, axis=None, keepdims=False) -> Var:
    a = as_var(a)
    axes = _axis_tuple(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    shape = a.shape

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape),)

    return _record(out, (a,), vjp)


def mean(a, axis=None, keepdims=False) -> Var:
    a = as_var(a)
    axes = _axis_tuple(axis, a.ndim)
    n = 1
    for ax in axes:
        n *= a.shape[ax]
    return sum_(a, axis, keepdims) * (1.0 / n)


def _extreme(a, axis, keepdims, argfn, redfn) -> Var:
    """Shared min/max reduction; ties give the gradient to the first element
    in scan order (argmin/argmax pick the first occurrence)."""
    a = as_var(a)
    x = a.data
    if axis is None:
        out = redfn(x)
        flat = int(argfn(x))

        def vjp(g):
            buf = np.zeros_like(x)
            buf.reshape(-1)[flat] = np.asarray(g).reshape(-1)[0]
            return (buf,)

        return _record(np.asarray(out), (a,), vjp)
    ax = axis % a.ndim
    idx = argfn(x, axis=ax)
    out = np.take_along_axis(x, np.expand_dims(idx, ax), ax)
    if not keepdims:
        out = np.squeeze(out, ax)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        buf = np.zeros_like(x)
        np.put_along_axis(buf, np.expand_dims(idx, ax), g, ax)
        return (buf,)

    return _record(out, (a,), vjp)


def min_(a, axis=None, keepdims=False) -> Var:
    return _extreme(a, axis, keepdims, np.argmin, np.min)


def max_(a, axis=None, keepdims=False) -> Var:
    return _extreme(a, axis, keepdims, np.argmax, np.max)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape) -> Var:
    a = as_var(a)
    old = a.shape
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a, axes: Sequence[int]) -> Var:
    a = as_var(a)
    axes = tuple(ax % a.ndim for ax in axes)
    inv = np.argsort(axes)
    return _record(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def _is_basic_index(idx) -> bool:
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(it, (int, slice, type(None), type(Ellipsis))) for it in items)


def getitem(a, idx) -> Var:
    a = as_var(a)
    out = a.data[idx]
    if np.isscalar(out) or out.ndim == 0:
        out = np.asarray(out)
    basic = _is_basic_index(idx)
    shape, dtype = a.shape, a.dtype

    def vjp(g):
        buf = np.zeros(shape, dtype=dtype)
        if basic:
            buf[idx] += g
        else:
            np.add.at(buf, idx, g)
        return (buf,)

    return _record(out, (a,), vjp)


def concat(parts: Iterable[ArrayLike], axis: int = 0) -> Var:
    parts = [as_var(p) for p in parts]
    arrs = [p.data for p in parts]
    out = np.concatenate(arrs, axis=axis)
    sizes = [arr.shape[axis] for arr in arrs]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(parts), vjp)


def stack(parts: Iterable[ArrayLike], axis: int = 0) -> Var:
    parts = [as_var(p) for p in parts]
    out = np.stack([p.data for p in parts], axis=axis)

    def vjp(g):
        return tuple(np.moveaxis(g, axis, 0))

    return _record(out, tuple(parts), vjp)


def matmul(a, b) -> Var:
    """Batched matrix product with broadcasting over leading dims."""
    av, bv = as_var(a), as_var(b)
    x, y = av.data, bv.data
    out = x @ y
    sa, sb = av.shape, bv.shape
    need_a = av.requires_grad or av._tape is not None
    need_b = bv.requires_grad or bv._tape is not None

    def vjp(g):
        # an untracked operand (a constant grid or matrix) gets no product
        gx = _unbroadcast(g @ np.swapaxes(y, -1, -2), sa) if need_a else None
        gy = _unbroadcast(np.swapaxes(x, -1, -2) @ g, sb) if need_b else None
        return (gx, gy)

    return _record(out, (av, bv), vjp)
