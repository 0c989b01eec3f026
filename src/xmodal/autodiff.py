"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation records a node on an implicit computation graph (child ->
parent links plus a backward closure). `backward` consumes the graph: a
second traversal through any consumed node raises. Broadcasting is
deliberately restricted to scalar-with-tensor; rank mismatches are errors,
and structural changes go through explicit ops (reshape, concat, narrow).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

# Arguments of log (and denominators derived from it) are clamped to this
# epsilon so saturated sigmoid heads cannot produce non-finite losses.
LOG_EPS = 1e-12


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GraphError(RuntimeError):
    """Backward called on a non-scalar loss or an already-consumed graph."""


class GradientCheckError(RuntimeError):
    """Non-finite value met while finite-differencing; names the coordinate."""


_state = threading.local()


def _recording() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording (inference / finite-difference evaluations)."""
    prev = _recording()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class Tensor:
    """Dense float64 array with optional gradient buffer.

    The shape is fixed at creation; `grad`, when present, always matches it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # keeps 0-d shapes, unlike calling it directly
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[], None]] = None
        self._consumed = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)  # copy: g may alias a live buffer
        else:
            self.grad += g

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None):
        return reduce("sum", self, axis)

    def mean(self, axis=None):
        return reduce("mean", self, axis)

    def max(self, axis=None):
        return reduce("max", self, axis)

    def reshape(self, shape):
        return reshape(self, shape)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _make_node(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if _recording() and any(p.requires_grad for p in parents):
        for p in parents:
            if p._consumed:
                raise GraphError("cannot extend a graph that backward already consumed")
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _is_scalar(t: Tensor) -> bool:
    return t.data.size == 1


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    # undo a scalar broadcast: collapse the upstream gradient to the scalar shape
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> tuple:
    if a.shape == b.shape:
        return a.shape
    if _is_scalar(a):
        return b.shape
    if _is_scalar(b):
        return a.shape
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} neither match nor involve a scalar")


# -- elementwise ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    out_data = a.data + b.data

    def backward_fn():
        a._accumulate(_reduce_to(out.grad, a.shape))
        b._accumulate(_reduce_to(out.grad, b.shape))

    out = _make_node(out_data, (a, b), backward_fn)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    out_data = a.data - b.data

    def backward_fn():
        a._accumulate(_reduce_to(out.grad, a.shape))
        b._accumulate(_reduce_to(-out.grad, b.shape))

    out = _make_node(out_data, (a, b), backward_fn)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    out_data = a.data * b.data

    def backward_fn():
        a._accumulate(_reduce_to(out.grad * b.data, a.shape))
        b._accumulate(_reduce_to(out.grad * a.data, b.shape))

    out = _make_node(out_data, (a, b), backward_fn)
    return out


def _unary(a: Tensor, value: np.ndarray, local_grad) -> Tensor:
    def backward_fn():
        a._accumulate(out.grad * local_grad())

    out = _make_node(value, (a,), backward_fn)
    return out


def neg(a: Tensor) -> Tensor:
    return _unary(a, -a.data, lambda: -1.0)


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return _unary(a, e, lambda: e)


def log(a: Tensor) -> Tensor:
    # forward log(max(x, LOG_EPS)); backward 1/max(x, LOG_EPS)
    clamped = np.maximum(a.data, LOG_EPS)
    return _unary(a, np.log(clamped), lambda: 1.0 / clamped)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    return _unary(a, t, lambda: 1.0 - t * t)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _unary(a, s, lambda: s * (1.0 - s))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _unary(a, np.where(mask, a.data, 0.0), lambda: mask.astype(np.float64))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    mask = a.data > 0
    return _unary(a, np.where(mask, a.data, slope * a.data), lambda: np.where(mask, 1.0, slope))


def scale(a: Tensor, constant: float) -> Tensor:
    c = float(constant)
    return _unary(a, a.data * c, lambda: c)


_ELEMENTWISE = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "neg": neg,
    "exp": exp,
    "log": log,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "relu": relu,
    "leaky_relu": leaky_relu,
    "scale": scale,
}


def elementwise(op_tag: str, a: Tensor, b: Optional[Tensor] = None, **kw) -> Tensor:
    """Dispatch an elementwise operation by tag.

    Binary tags (add/sub/mul) require `b` with an equal shape or a scalar on
    either side; `leaky_relu` takes `slope`, `scale` takes `constant`.
    """
    if op_tag not in _ELEMENTWISE:
        raise ValueError(f"unknown elementwise op {op_tag!r}")
    fn = _ELEMENTWISE[op_tag]
    if op_tag in ("add", "sub", "mul"):
        if b is None:
            raise ShapeError(f"{op_tag} needs two operands")
        return fn(a, b)
    if b is not None:
        raise ShapeError(f"{op_tag} is unary")
    return fn(a, **kw)


def absolute(a: Tensor) -> Tensor:
    """|x| composed as relu(x) + relu(-x); subgradient 0 at the kink."""
    return add(relu(a), relu(neg(a)))


# -- linear algebra -------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward_fn():
        a._accumulate(out.grad @ b.data.T)
        b._accumulate(a.data.T @ out.grad)

    out = _make_node(out_data, (a, b), backward_fn)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")

    def backward_fn():
        a._accumulate(out.grad.T)

    out = _make_node(a.data.T.copy(), (a,), backward_fn)
    return out


# -- structural -----------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")

    def backward_fn():
        a._accumulate(out.grad.reshape(a.shape))

    out = _make_node(a.data.reshape(shape), (a,), backward_fn)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    ndim = tensors[0].data.ndim
    for t in tensors:
        if t.data.ndim != ndim:
            raise ShapeError("concat operands must share rank")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn():
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * ndim
            idx[axis] = slice(start, stop)
            t._accumulate(out.grad[tuple(idx)])

    out = _make_node(out_data, tuple(tensors), backward_fn)
    return out


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of `length` entries along `axis`."""
    if not (0 <= axis < a.data.ndim):
        raise ShapeError(f"narrow axis {axis} invalid for shape {a.shape}")
    if start < 0 or length < 1 or start + length > a.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}] out of range for axis {axis} of {a.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward_fn():
        g = np.zeros_like(a.data)
        g[idx] = out.grad
        a._accumulate(g)

    out = _make_node(a.data[idx].copy(), (a,), backward_fn)
    return out


def stack0(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    return concat([reshape(t, (1,) + t.shape) for t in tensors], axis=0)


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """x[(N, M)] + v[(M,)] broadcast over rows (explicit bias add)."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowvec: incompatible shapes {x.shape} and {v.shape}")

    def backward_fn():
        x._accumulate(out.grad)
        v._accumulate(out.grad.sum(axis=0))

    out = _make_node(x.data + v.data[None, :], (x, v), backward_fn)
    return out


def add_channel_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[(N, C, H, W)] + b[(C,)] broadcast over batch and space."""
    if x.data.ndim != 4 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_channel_bias: incompatible shapes {x.shape} and {b.shape}")

    def backward_fn():
        x._accumulate(out.grad)
        b._accumulate(out.grad.sum(axis=(0, 2, 3)))

    out = _make_node(x.data + b.data[None, :, None, None], (x, b), backward_fn)
    return out


def tile_hw(v: Tensor, height: int, width: int) -> Tensor:
    """Tile v[(N, C)] to a (N, C, height, width) feature map."""
    if v.data.ndim != 2:
        raise ShapeError(f"tile_hw needs a (N, C) tensor, got {v.shape}")

    def backward_fn():
        v._accumulate(out.grad.sum(axis=(2, 3)))

    data = np.broadcast_to(v.data[:, :, None, None], v.shape + (height, width)).copy()
    out = _make_node(data, (v,), backward_fn)
    return out


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of table[(V, D)] by integer ids; scatter-add on backward."""
    ids = np.asarray(ids)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_lookup needs a 2-D table, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError("embedding id out of range")

    def backward_fn():
        g = np.zeros_like(table.data)
        np.add.at(g, ids.reshape(-1), out.grad.reshape(-1, table.shape[1]))
        table._accumulate(g)

    out = _make_node(table.data[ids], (table,), backward_fn)
    return out


def gather_index(x: Tensor, ids: np.ndarray) -> Tensor:
    """Pick x[i, ids[i]] for each row of a 2-D tensor."""
    ids = np.asarray(ids)
    if x.data.ndim != 2 or ids.ndim != 1 or ids.shape[0] != x.shape[0]:
        raise ShapeError(f"gather_index: incompatible shapes {x.shape} and {ids.shape}")
    rows = np.arange(x.shape[0])

    def backward_fn():
        g = np.zeros_like(x.data)
        np.add.at(g, (rows, ids), out.grad)
        x._accumulate(g)

    out = _make_node(x.data[rows, ids].copy(), (x,), backward_fn)
    return out


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax of a 2-D tensor."""
    if x.data.ndim != 2:
        raise ShapeError(f"log_softmax needs a 2-D tensor, got {x.shape}")
    m = x.data.max(axis=1, keepdims=True)
    z = x.data - m
    lse = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    out_data = z - lse

    def backward_fn():
        softmax = np.exp(out_data)
        x._accumulate(out.grad - softmax * out.grad.sum(axis=1, keepdims=True))

    out = _make_node(out_data, (x,), backward_fn)
    return out


def pairwise_sq_dists(x: Tensor, y: Tensor) -> Tensor:
    """Matrix of squared Euclidean distances between rows of x and rows of y."""
    if x.data.ndim != 2 or y.data.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(f"pairwise_sq_dists: incompatible shapes {x.shape} and {y.shape}")
    sq_x = np.sum(x.data * x.data, axis=1)[:, None]
    sq_y = np.sum(y.data * y.data, axis=1)[None, :]
    d = np.maximum(sq_x + sq_y - 2.0 * (x.data @ y.data.T), 0.0)

    def backward_fn():
        g = out.grad
        x._accumulate(2.0 * (x.data * g.sum(axis=1)[:, None] - g @ y.data))
        y._accumulate(2.0 * (y.data * g.sum(axis=0)[:, None] - g.T @ x.data))

    out = _make_node(d, (x, y), backward_fn)
    return out


# -- convolution and resampling -------------------------------------------


def _conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    span = size + 2 * padding - k
    if span < 0 or span % stride != 0:
        raise ShapeError(f"conv2d: size {size} with kernel {k}, stride {stride}, padding {padding} "
                         "gives a non-integer output size")
    out = span // stride + 1
    if out <= 0:
        raise ShapeError("conv2d: non-positive output size")
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    # (N, C, Hp, Wp) -> (N*ho*wo, kh*kw*C); channels innermost keeps the
    # backward scatter contiguous
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, ho, wo, kh, kw)
    n, c = xp.shape[:2]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 4, 5, 1))
    return cols.reshape(n * ho * wo, kh * kw * c)


def _col2im(cols: np.ndarray, xp_shape, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    n, c = xp_shape[:2]
    _, _, hp, wp = xp_shape
    acc = np.zeros((n, hp, wp, c), dtype=np.float64)
    cols = cols.reshape(n, ho, wo, kh, kw, c)
    for di in range(kh):
        for dj in range(kw):
            acc[:, di:di + stride * ho:stride, dj:dj + stride * wo:stride] += cols[:, :, :, di, dj]
    return np.ascontiguousarray(acc.transpose(0, 3, 1, 2))


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation (no kernel flip) over (C,H,W) or (N,C,H,W) input."""
    single = x.data.ndim == 3
    if kernels.data.ndim != 4:
        raise ShapeError(f"conv2d kernels must be (C_out, C_in, kh, kw), got {kernels.shape}")
    if x.data.ndim not in (3, 4):
        raise ShapeError(f"conv2d input must be (C,H,W) or (N,C,H,W), got {x.shape}")
    xd = x.data[None] if single else x.data
    n, c_in, h, w = xd.shape
    c_out, kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {c_in}, kernels {kc}")
    ho = _conv_out_size(h, kh, stride, padding)
    wo = _conv_out_size(w, kw, stride, padding)

    if padding:
        xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = xd
    cols = _im2col(xp, kh, kw, stride, ho, wo)                 # (N*P, kh*kw*C)
    wmat = kernels.data.transpose(2, 3, 1, 0).reshape(kh * kw * c_in, c_out)
    out_flat = cols @ wmat                                     # (N*P, C_out)
    out_data = np.ascontiguousarray(out_flat.reshape(n, ho, wo, c_out).transpose(0, 3, 1, 2))
    if single:
        out_data = out_data[0]

    def backward_fn():
        g = out.grad[None] if single else out.grad
        g_flat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, c_out)
        dw = (cols.T @ g_flat).reshape(kh, kw, c_in, c_out)
        kernels._accumulate(np.ascontiguousarray(dw.transpose(3, 2, 0, 1)))
        dcols = g_flat @ wmat.T                                # (N*P, kh*kw*C)
        dxp = _col2im(dcols, xp.shape, kh, kw, stride, ho, wo)
        if padding:
            dxp = dxp[:, :, padding:-padding, padding:-padding]
        x._accumulate(dxp[0] if single else dxp)

    out = _make_node(out_data, (x, kernels), backward_fn)
    return out


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour doubling of the spatial axes of a (N,C,H,W) tensor."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample2x needs a 4-D tensor, got {x.shape}")
    n, c, h, w = x.shape

    def backward_fn():
        x._accumulate(out.grad.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))

    out = _make_node(np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3), (x,), backward_fn)
    return out


def avgpool2x(x: Tensor) -> Tensor:
    """2x2 average pooling of a (N,C,H,W) tensor with even spatial dims."""
    if x.data.ndim != 4:
        raise ShapeError(f"avgpool2x needs a 4-D tensor, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avgpool2x needs even spatial dims, got {h}x{w}")

    def backward_fn():
        x._accumulate(np.repeat(np.repeat(out.grad, 2, axis=2), 2, axis=3) * 0.25)

    out = _make_node(x.data.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5)), (x,), backward_fn)
    return out


# -- reductions -----------------------------------------------------------


def reduce(op_tag: str, x: Tensor, axis: Optional[int] = None) -> Tensor:
    """sum / mean / max reduction, over everything or a single axis.

    max records its argmax indices so the gradient routes to the first
    (lowest-index) maximum only.
    """
    if op_tag not in ("sum", "mean", "max"):
        raise ValueError(f"unknown reduce op {op_tag!r}")
    if axis is not None:
        axis = int(axis)
        if not (0 <= axis < x.data.ndim):
            raise ShapeError(f"reduce axis {axis} invalid for shape {x.shape}")

    if op_tag in ("sum", "mean"):
        out_data = x.data.sum(axis=axis) if op_tag == "sum" else x.data.mean(axis=axis)
        factor = 1.0 if op_tag == "sum" else (1.0 / (x.size if axis is None else x.shape[axis]))

        def backward_fn():
            g = out.grad
            if axis is None:
                x._accumulate(np.full_like(x.data, float(g) * factor))
            else:
                x._accumulate(np.broadcast_to(np.expand_dims(g, axis), x.shape) * factor)

        out = _make_node(np.asarray(out_data), (x,), backward_fn)
        return out

    # max
    if axis is None:
        flat_idx = int(np.argmax(x.data))

        def backward_fn():
            g = np.zeros_like(x.data)
            g.reshape(-1)[flat_idx] = float(out.grad)
            x._accumulate(g)

        out = _make_node(np.asarray(x.data.max()), (x,), backward_fn)
    else:
        arg = np.argmax(x.data, axis=axis)

        def backward_fn():
            g = np.zeros_like(x.data)
            np.put_along_axis(g, np.expand_dims(arg, axis), np.expand_dims(out.grad, axis), axis=axis)
            x._accumulate(g)

        out = _make_node(x.data.max(axis=axis), (x,), backward_fn)
    return out


# -- backward and checking ------------------------------------------------


def backward(loss: Tensor):
    """Propagate d(loss)/d(tensor) into .grad of every reachable parameter.

    The traversed graph is consumed: its interior links are dropped and any
    later backward through the same nodes raises GraphError.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._consumed:
        raise GraphError("backward already consumed this graph")

    topo: list[Tensor] = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._consumed:
            raise GraphError("graph shares nodes with an already-consumed graph")
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn()

    for node in topo:
        if node._parents:
            node._consumed = True
            node._parents = ()
            node._backward_fn = None
            node.grad = None  # interior grads are scratch; parameters are leaves


def gradient_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per coordinate is |analytic - numeric| divided by
    max(1, |analytic|, |numeric|). Non-finite values abort with the offending
    coordinate index.
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise GraphError("gradient_check needs a scalar-valued function")
    backward(out)
    analytic = probe.grad.copy() if probe.grad is not None else np.zeros_like(probe.data)

    numeric = np.zeros_like(probe.data)
    flat = probe.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(probe).item()
            flat[i] = orig - eps
            lo = f(probe).item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise GradientCheckError(f"non-finite evaluation at coordinate {i}")
            num_flat[i] = (hi - lo) / (2.0 * eps)

    if not np.all(np.isfinite(analytic)):
        bad = int(np.flatnonzero(~np.isfinite(analytic.reshape(-1)))[0])
        raise GradientCheckError(f"non-finite analytic gradient at coordinate {bad}")
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
