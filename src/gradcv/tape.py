"""Reverse-mode automatic differentiation on a tape.

A :class:`Var` holds a read-only float array in ``data`` and, when it
depends on a gradient-requiring leaf, a node on a :class:`Tape`.  Ops append
nodes in execution order, so the node list is topologically sorted by
construction and :func:`backward` is a single reverse sweep that accumulates
vector-Jacobian products into per-node buffers.

Leaves are not bound to a tape permanently.  Recording uses a thread-local
*ambient* tape: it is created when an op first touches a gradient-requiring
leaf and released by :func:`backward`, so optimization loops rebuild a fresh
graph every iteration while reusing the same parameter Vars.  A tape must
stay on one thread from first record to the end of backward.
"""
from __future__ import annotations

import math
import threading
from typing import Any, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import ShapeError, UsageError
from .tensor import _coerce, _frozen, as_array

ArrayLike = Union["Var", np.ndarray, float, int, Sequence]

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
    """Read-only float array, optionally a node on an autodiff tape.

    A Var is either a leaf (value plus ``requires_grad`` flag) or the output
    of a recorded op.  Constructing one copies the input into a contiguous
    float32/float64 array with every extent >= 1 and marks it read-only;
    ``Var(v)`` of another Var shares ``v.data``.  Arithmetic operators and
    the named methods build the graph; :func:`backward` on a scalar Var
    returns ``{leaf: gradient}``.  A constant Var keeps the maps that ops
    derive from its data (:func:`_memo`) until ``data`` is rebound.
    """

    __slots__ = ("data", "requires_grad", "_tape", "_node_id", "_derived")

    # keep numpy from hijacking mixed ndarray/Var arithmetic: returning
    # NotImplemented routes it back through our reflected operators
    __array_ufunc__ = None

    def __init__(self, data: Any, requires_grad: bool = False, dtype=None):
        if isinstance(data, Var) and (dtype is None or data.dtype == dtype):
            self.data = data.data
        else:
            self.data = _frozen(np.ascontiguousarray(_coerce(data, dtype)))
        self.requires_grad = bool(requires_grad)
        self._tape: Optional[Tape] = None
        self._node_id: int = -1
        self._derived: Optional[tuple] = None  # (the data it was built from, {key: value})

    @classmethod
    def _wrap(cls, arr: np.ndarray, tape: Optional[Tape] = None, node_id: int = -1) -> "Var":
        # Internal: adopt a freshly computed array without copying; a Var on
        # a tape is a recorded node and so always requires a gradient.
        v = object.__new__(cls)
        v.data = _frozen(arr)
        v.requires_grad = tape is not None
        v._tape = tape
        v._node_id = node_id
        v._derived = None
        return v

    # -- value access -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Writable copy of the values."""
        return self.data.copy()

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __array__(self, dtype=None, copy=None):
        # the read-only data itself unless a copy or a cast is asked for
        if dtype is None or np.dtype(dtype) == self.data.dtype:
            return self.data.copy() if copy else self.data
        if copy is False:
            raise ValueError(f"casting {self.dtype} to {np.dtype(dtype)} needs a copy")
        return self.data.astype(dtype)

    def detach(self) -> "Var":
        """Constant Var sharing this value (cuts the graph)."""
        return Var._wrap(self.data)

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


def as_var(x: ArrayLike) -> Var:
    """Coerce to a Var; non-Var inputs become constants."""
    return x if isinstance(x, Var) else Var(x)


_ambient = threading.local()


def _memo(v: Var, key, build: Callable[[], Any]):
    """build(), computed once per key for a constant v and kept on it while
    v.data is the array it was built from; a Var that requires a gradient
    gets a fresh build() on every call."""
    if v.requires_grad:
        return build()
    if v._derived is None or v._derived[0] is not v.data:
        v._derived = (v.data, {})
    found = v._derived[1]
    if key not in found:
        found[key] = build()
    return found[key]


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
    out_arr = np.asarray(out_arr)
    if not track:
        return Var._wrap(out_arr)
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
    return Var._wrap(out_arr, tape, nid)


def backward(loss: Var) -> dict:
    """Reverse sweep from a scalar loss.

    Returns ``{leaf Var: gradient}`` covering every gradient-requiring leaf
    recorded on the loss's tape; each gradient is a constant Var in its
    leaf's dtype, and leaves that do not reach the loss get zeros.  Raises
    :class:`ShapeError` for non-scalar losses and :class:`UsageError` when
    the loss is a constant/detached Var.  The thread's ambient tape is
    released, so subsequent ops start a new graph.
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
        out[leaf] = Var._wrap(g)
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


_REAL = (int, float, np.integer, np.floating)


def _binary(a, b, fwd, vjp_builder) -> Var:
    """Common path for broadcasting binary ops.

    A real scalar operand beside a Var, Python or NumPy, is weak: it enters
    the op as a Python number, so numpy's weak promotion gives the result the
    Var's dtype (a float32 Var stays float32).  Every other operand becomes a
    Var, array-likes as constants.
    """
    if isinstance(a, Var) and isinstance(b, _REAL):
        b = b.item() if isinstance(b, np.generic) else b
        out = fwd(a.data, b)
        vjps = vjp_builder(a.data, b)
        sa = a.shape
        return _record(out, (a,), lambda g: (_unbroadcast(vjps[0](g), sa),))
    if isinstance(b, Var) and isinstance(a, _REAL):
        a = a.item() if isinstance(a, np.generic) else a
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
    return _binary(a, b, lambda x, y: x ** y, lambda x, y: (
        lambda g: g * y * x ** (y - 1.0),
        lambda g: g * x ** y * np.log(np.maximum(x, 1e-300)),
    ))


def _unary(a, fwd, vjp_of) -> Var:
    """Elementwise op on one Var; vjp_of(x, out) builds its vjp."""
    a = as_var(a)
    out = fwd(a.data)
    return _record(out, (a,), vjp_of(a.data, out))


def neg(a) -> Var:
    return _unary(a, np.negative, lambda x, out: lambda g: (-g,))


def abs_(a) -> Var:
    # sign(0) == 0: abs'(0) = 0 by convention
    return _unary(a, np.abs, lambda x, out: lambda g: (g * np.sign(x),))


def exp(a) -> Var:
    return _unary(a, np.exp, lambda x, out: lambda g: (g * out,))


def log(a) -> Var:
    return _unary(a, np.log, lambda x, out: lambda g: (g / x,))


def sqrt(a) -> Var:
    return _unary(a, np.sqrt, lambda x, out: lambda g: (g * (0.5 / out),))


def sin(a) -> Var:
    return _unary(a, np.sin, lambda x, out: lambda g: (g * np.cos(x),))


def cos(a) -> Var:
    return _unary(a, np.cos, lambda x, out: lambda g: (-g * np.sin(x),))


def atan2(y, x) -> Var:
    def vjps(yv, xv):
        r2 = xv * xv + yv * yv
        return (lambda g: g * xv / r2, lambda g: -g * yv / r2)

    return _binary(y, x, np.arctan2, vjps)


def _select(m) -> tuple:
    """vjps of an elementwise pick of the first operand where m, else the second."""
    return (lambda g: g * m, lambda g: g * ~m)


def maximum(a, b) -> Var:
    return _binary(a, b, np.maximum, lambda x, y: _select(x >= y))  # tie -> first operand


def minimum(a, b) -> Var:
    return _binary(a, b, np.minimum, lambda x, y: _select(x <= y))  # tie -> first operand


def clamp(a, lo=None, hi=None) -> Var:
    """Clip to [lo, hi]: `maximum` with lo, then `minimum` with hi.  Ties go
    to the first operand, so the gradient passes where lo <= x <= hi."""
    out = as_var(a)
    if lo is not None:
        out = maximum(out, lo)
    return out if hi is None else minimum(out, hi)


def where(cond, a, b) -> Var:
    """Select by a constant boolean mask (the mask is not differentiated)."""
    c = as_array(cond).astype(bool)
    return _binary(
        a, b, lambda x, y: np.where(c, x, y),
        lambda x, y: (lambda g: np.where(c, g, 0.0), lambda g: np.where(c, 0.0, g)),
    )


# ---------------------------------------------------------------------------
# reductions


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    if not all(-ndim <= a < ndim for a in axes):
        raise ShapeError(f"axis {axis} is out of range for {ndim} dimensions")
    return tuple(a % ndim for a in axes)


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
    n = math.prod(a.shape[ax] for ax in _axis_tuple(axis, a.ndim))
    return sum_(a, axis, keepdims) * (1.0 / n)


def _extreme(a, axis, keepdims, argfn) -> Var:
    """Shared min/max reduction over the axes `sum_` takes; ties give the
    gradient to the first element in scan order (argmin/argmax pick the
    first occurrence)."""
    a = as_var(a)
    axes = tuple(sorted(_axis_tuple(axis, a.ndim)))
    order = tuple(i for i in range(a.ndim) if i not in axes) + axes
    kept = tuple(a.shape[i] for i in order[: a.ndim - len(axes)])
    x = a.data.transpose(order).reshape(kept + (-1,))  # reduced axes flattened last
    idx = np.expand_dims(argfn(x, axis=-1), -1)
    out = np.take_along_axis(x, idx, -1).reshape(kept)
    if keepdims:
        out = np.expand_dims(out, axes)
    flat, moved, dtype = x.shape, tuple(a.shape[i] for i in order), a.dtype

    def vjp(g):
        buf = np.zeros(flat, dtype)
        np.put_along_axis(buf, idx, np.reshape(g, idx.shape), -1)
        return (buf.reshape(moved).transpose(np.argsort(order)),)

    return _record(out, (a,), vjp)


def min_(a, axis=None, keepdims=False) -> Var:
    return _extreme(a, axis, keepdims, np.argmin)


def max_(a, axis=None, keepdims=False) -> Var:
    return _extreme(a, axis, keepdims, np.argmax)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape) -> Var:
    a = as_var(a)
    old = a.shape
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a, axes: Sequence[int]) -> Var:
    a = as_var(a)
    axes = _axis_tuple(axes, a.ndim)
    inv = np.argsort(axes)
    return _record(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def _is_basic_index(idx) -> bool:
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(it, (int, slice, type(None), type(Ellipsis))) for it in items)


def getitem(a, idx) -> Var:
    a = as_var(a)
    out = a.data[idx]
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
    need_a, need_b = av.requires_grad, bv.requires_grad

    def vjp(g):
        # an untracked operand (a constant grid or matrix) gets no product
        gx = _unbroadcast(g @ np.swapaxes(y, -1, -2), sa) if need_a else None
        gy = _unbroadcast(np.swapaxes(x, -1, -2) @ g, sb) if need_b else None
        return (gx, gy)

    return _record(out, (av, bv), vjp)
