"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation records a node on an implicit computation graph (child ->
parent links plus a backward closure). `backward` consumes the graph as it
goes: each interior node drops its links, closure and gradient as soon as its
rule has run, a failed pass leaves nothing partial in interior nodes, and a
second traversal through any consumed node raises. A matmul's backward does
not form its right operand's gradient on the spot: it records the pair
(left operand, output gradient) on that operand, and `backward` settles all
of a node's pairs with one GEMM when the node's own turn comes, so a weight
used at every step of a sequence gets one product per sequence, not one per
step. Broadcasting is
deliberately restricted to scalar-with-tensor; rank mismatches are errors,
and structural changes go through explicit ops (reshape, concat, narrow).
"""

from __future__ import annotations

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


_recording = True


@contextmanager
def no_grad():
    """Disable graph recording (inference / finite-difference evaluations)."""
    global _recording
    prev, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prev


class Tensor:
    """Dense float64 array with optional gradient buffer.

    The shape is fixed at creation; `grad`, when present, always matches it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_consumed",
                 "_matmul_pairs")

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
        # (left operand, output gradient) of each matmul that took this tensor
        # as its right operand; `backward` settles them (see `_settle`)
        self._matmul_pairs: Optional[list] = None

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

    def _accumulate(self, g: np.ndarray):
        if not self.requires_grad:
            return
        if self.grad is None:
            # copy, as g may alias a live buffer; row-major, like every parameter,
            # also when g is a transposed view
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def _settle(self):
        # one GEMM over every recorded matmul: sum_t a_t.T @ g_t = A.T @ G
        pairs, self._matmul_pairs = self._matmul_pairs, None
        # a lone pair, as in every DenseLayer, needs no concatenated copies
        a, g = pairs[0] if len(pairs) == 1 else map(np.concatenate, zip(*pairs))
        dw = a.T @ g  # fresh array: no defensive copy
        if self.grad is None:
            self.grad = dw
        else:
            self.grad += dw


def _make_node(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
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
        if a.requires_grad:
            a._accumulate(_reduce_to(out.grad, a.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(out.grad, b.shape))

    out = _make_node(out_data, (a, b), backward_fn)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    out_data = a.data - b.data

    def backward_fn():
        if a.requires_grad:
            a._accumulate(_reduce_to(out.grad, a.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(-out.grad, b.shape))

    out = _make_node(out_data, (a, b), backward_fn)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    out_data = a.data * b.data

    def backward_fn():
        if a.requires_grad:
            a._accumulate(_reduce_to(out.grad * b.data, a.shape))
        if b.requires_grad:
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only, so no overflow at either tail:
    # 1/(1+e) for x >= 0 and e/(1+e) below, as e <= 1 picks the numerator
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    return _unary(a, s, lambda: s * (1.0 - s))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = np.fmax(a.data, 0.0)  # NaN -> 0.0
    out += 0.0  # -0.0 -> 0.0, so every entry the mask drops reads +0.0
    return _unary(a, out, lambda: mask.astype(np.float64))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    # select-free: multiply by slope where the mask is off and by 1.0 where it is on
    mask = a.data > 0
    factors = (slope, 1.0)
    return _unary(a, a.data * np.take(factors, mask.view(np.uint8)),
                  lambda: np.take(factors, mask.view(np.uint8)))


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
        if a.requires_grad:
            a._accumulate(out.grad @ b.data.T)
        if b.requires_grad:
            if b._matmul_pairs is None:
                b._matmul_pairs = []
            b._matmul_pairs.append((a.data, out.grad))

    out = _make_node(out_data, (a, b), backward_fn)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")

    def backward_fn():
        a._accumulate(out.grad.T)

    out = _make_node(a.data.T.copy(), (a,), backward_fn)
    return out


def lstm_pointwise(pre: Tensor, c_prev: Tensor) -> Tensor:
    """The pointwise half of an LSTM step as one node: [h_t | c_t], (batch, 2H).

    `pre` (batch, 4H) holds the gate pre-activations in input, forget, output,
    candidate order. c_t = f*c_prev + i*g and h_t = o*tanh(c_t), with sigmoid
    gates i, f, o and the tanh candidate g. Forward and backward form every
    product in the order the separate sigmoid/tanh/narrow/mul/add rules do.
    """
    if (pre.data.ndim != 2 or c_prev.data.ndim != 2 or pre.shape[0] != c_prev.shape[0]
            or pre.shape[1] != 4 * c_prev.shape[1]):
        raise ShapeError(f"lstm_pointwise: incompatible shapes {pre.shape} and {c_prev.shape}")
    hid = c_prev.shape[1]
    ifo = _sigmoid(pre.data[:, :3 * hid])
    g = np.tanh(pre.data[:, 3 * hid:])
    i, f, o = ifo[:, :hid], ifo[:, hid:2 * hid], ifo[:, 2 * hid:]
    hc = np.empty((pre.shape[0], 2 * hid))
    c = np.add(f * c_prev.data, i * g, out=hc[:, hid:])
    tc = np.tanh(c)
    np.multiply(o, tc, out=hc[:, :hid])

    def backward_fn():
        gh, gc = out.grad[:, :hid], out.grad[:, hid:]
        dc = gc + (gh * o) * (1.0 - tc * tc)
        if pre.requires_grad:
            d = np.empty_like(pre.data)
            np.multiply(dc, g, out=d[:, :hid])
            np.multiply(dc, c_prev.data, out=d[:, hid:2 * hid])
            np.multiply(gh, tc, out=d[:, 2 * hid:3 * hid])
            d[:, :3 * hid] *= ifo * (1.0 - ifo)
            np.multiply(dc * i, 1.0 - g * g, out=d[:, 3 * hid:])
            pre._accumulate(d)
        if c_prev.requires_grad:
            c_prev._accumulate(dc * f)

    out = _make_node(hc, (pre, c_prev), backward_fn)
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
        if v.requires_grad:
            v._accumulate(out.grad.sum(axis=0))

    out = _make_node(x.data + v.data[None, :], (x, v), backward_fn)
    return out


def add_channel_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[(N, C, H, W)] + b[(C,)] broadcast over batch and space."""
    if x.data.ndim != 4 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_channel_bias: incompatible shapes {x.shape} and {b.shape}")

    def backward_fn():
        x._accumulate(out.grad)
        if b.requires_grad:
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


def rbf_mixture(d: Tensor, bandwidths: Sequence[float]) -> Tensor:
    """sum_q exp(-d / (2 sigma_q^2)) over squared distances d, as one node.

    Forward and backward add the per-bandwidth terms in bandwidth order, as a
    chain of scale, exp and add nodes would.
    """
    coeffs = [-1.0 / (2.0 * s * s) for s in bandwidths]
    terms = [np.exp(d.data * c) for c in coeffs]
    total = terms[0]
    for k in terms[1:]:
        total = total + k

    def backward_fn():
        g = out.grad
        dd = (g * terms[0]) * coeffs[0]
        for k, c in zip(terms[1:], coeffs[1:]):
            dd += (g * k) * c
        d._accumulate(dd)

    out = _make_node(total, (d,), backward_fn)
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
    # (N, C, Hp, Wp) -> (N, C*kh*kw, ho*wo): the K axis in the kernels' own
    # (C, kh, kw) order, so that kernels reshape to (C_out, K) without a copy
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, ho, wo, kh, kw)
    n, c = xp.shape[:2]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
    return cols.reshape(n, c * kh * kw, ho * wo)


def _col2im(cols: np.ndarray, xp_shape, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    n, c = xp_shape[:2]
    acc = np.zeros(xp_shape, dtype=np.float64)
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    for di in range(kh):
        for dj in range(kw):
            acc[:, :, di:di + stride * ho:stride, dj:dj + stride * wo:stride] += cols[:, :, di, dj]
    return acc


def _conv_shapes(op: str, x: Tensor, kernels: Tensor) -> tuple:
    if kernels.data.ndim != 4:
        raise ShapeError(f"{op} kernels must be (C_out, C_in, kh, kw), got {kernels.shape}")
    if x.data.ndim != 4:
        raise ShapeError(f"{op} input must be (N, C, H, W), got {x.shape}")
    if kernels.shape[1] != x.shape[1]:
        raise ShapeError(f"{op} channel mismatch: input {x.shape[1]}, kernels {kernels.shape[1]}")
    return x.shape, kernels.shape


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation (no kernel flip) over (N,C,H,W) input."""
    (n, c_in, h, w), (c_out, _, kh, kw) = _conv_shapes("conv2d", x, kernels)
    ho = _conv_out_size(h, kh, stride, padding)
    wo = _conv_out_size(w, kw, stride, padding)

    if padding:
        xp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding))
        xp[:, :, padding:-padding, padding:-padding] = x.data
    else:
        xp = x.data
    xp_shape = xp.shape  # backward needs only the shape: the padded copy goes with the forward
    cols = _im2col(xp, kh, kw, stride, ho, wo)                 # (N, C*kh*kw, P)
    wmat = kernels.data.reshape(c_out, c_in * kh * kw)
    out_data = (wmat @ cols).reshape(n, c_out, ho, wo)         # (C_out, K) @ (N, K, P)

    def backward_fn():
        g = out.grad.reshape(n, c_out, ho * wo)
        if kernels.requires_grad:
            dw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)  # sum_n g[n] @ cols[n].T
            kernels._accumulate(dw.reshape(kernels.shape))
        if x.requires_grad:
            dxp = _col2im(wmat.T @ g, xp_shape, kh, kw, stride, ho, wo)
            if padding:
                dxp = dxp[:, :, padding:-padding, padding:-padding]
            x._accumulate(dxp)

    out = _make_node(out_data, (x, kernels), backward_fn)
    return out


# Along one axis, nearest-neighbour doubling then a 3-tap kernel gives output
# phase a (row 2i+a) the taps (K0, K1+K2) at a=0 and (K0+K1, K2) at a=1 over the
# 2-row window at padded row i+a: _PHASE_TAPS[a, t, k] = 1 where window tap t
# sums kernel tap k. _TAP_SUMS maps the 9 taps of a 3x3 kernel to the 16
# (a, b, ti, tj) phase taps; its transpose folds a phase-bank gradient back.
_PHASE_TAPS = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
_TAP_SUMS = np.einsum("atk,bul->klabtu", _PHASE_TAPS, _PHASE_TAPS).reshape(9, 16)


def upsample2x_conv3x3(x: Tensor, kernels: Tensor) -> Tensor:
    """conv2d(upsample2x(x), kernels, stride=1, padding=1) without the upsampled tensor.

    Output pixel (2i+a, 2j+b) reads only the 2x2 window at (i+a, j+b) of the
    once-padded input, so one GEMM of a (4*C_out, 4*C_in) phase bank over the
    (H+1)x(W+1) windows yields all four output phases.
    """
    (n, c_in, h, w), (c_out, _, kh, kw) = _conv_shapes("upsample2x_conv3x3", x, kernels)
    if (kh, kw) != (3, 3):
        raise ShapeError(f"upsample2x_conv3x3 needs 3x3 kernels, got {kh}x{kw}")
    xp = np.zeros((n, c_in, h + 2, w + 2))
    xp[:, :, 1:-1, 1:-1] = x.data
    xp_shape = xp.shape  # as in conv2d, the padded copy goes with the forward
    cols = _im2col(xp, 2, 2, 1, h + 1, w + 1)                  # (N, C_in*4, P)
    bank = (kernels.data.reshape(c_out * c_in, 9) @ _TAP_SUMS).reshape(c_out, c_in, 2, 2, 2, 2)
    bank = bank.transpose(2, 3, 0, 1, 4, 5).reshape(4 * c_out, c_in * 4)  # rows (a, b, C_out)
    blocks = (bank @ cols).reshape(n, 2, 2, c_out, h + 1, w + 1)
    out_data = np.empty((n, c_out, 2 * h, 2 * w))
    phases = out_data.reshape(n, c_out, h, 2, w, 2)  # a view: [:, :, i, a, j, b] is (2i+a, 2j+b)
    for a in (0, 1):
        for b in (0, 1):
            phases[:, :, :, a, :, b] = blocks[:, a, b, :, a:a + h, b:b + w]

    def backward_fn():
        g_phases = out.grad.reshape(n, c_out, h, 2, w, 2)
        g_blocks = np.zeros((n, 2, 2, c_out, h + 1, w + 1))
        for a in (0, 1):
            for b in (0, 1):
                g_blocks[:, a, b, :, a:a + h, b:b + w] = g_phases[:, :, :, a, :, b]
        g = g_blocks.reshape(n, 4 * c_out, (h + 1) * (w + 1))
        if kernels.requires_grad:
            dbank = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)  # as in conv2d
            dbank = dbank.reshape(2, 2, c_out, c_in, 2, 2).transpose(2, 3, 0, 1, 4, 5)
            dk = dbank.reshape(c_out * c_in, 16) @ _TAP_SUMS.T
            kernels._accumulate(dk.reshape(kernels.shape))
        if x.requires_grad:
            dxp = _col2im(bank.T @ g, xp_shape, 2, 2, 1, h + 1, w + 1)
            x._accumulate(dxp[:, :, 1:-1, 1:-1])

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
    """sum or mean over every element, or max over one axis.

    max records its argmax indices so the gradient routes to the first
    (lowest-index) maximum only.
    """
    if op_tag not in ("sum", "mean", "max"):
        raise ValueError(f"unknown reduce op {op_tag!r}")
    if (op_tag == "max") != (axis is not None):
        raise ShapeError(f"reduce {op_tag!r} takes {'one axis' if op_tag == 'max' else 'no axis'}, "
                         f"got axis={axis}")

    if op_tag in ("sum", "mean"):
        factor = 1.0 if op_tag == "sum" else 1.0 / x.size

        def backward_fn():
            x._accumulate(np.full_like(x.data, float(out.grad) * factor))

        out = _make_node(np.asarray(x.data.sum() if op_tag == "sum" else x.data.mean()), (x,),
                         backward_fn)
        return out

    axis = int(axis)
    if not (0 <= axis < x.data.ndim):
        raise ShapeError(f"reduce axis {axis} invalid for shape {x.shape}")
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

    The pass consumes the graph as it goes: a node drops its links, closure and
    gradient once its rule has run, and a later pass through it raises
    GraphError. A failed pass leaves no gradient in any interior node.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")

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
    try:
        # reverse topological order: every consumer of a node has run and been
        # released before the node's turn, so its recorded matmul pairs are complete
        for node in reversed(topo):
            if node._matmul_pairs is not None:
                node._settle()
            if node._parents:
                node._backward_fn()
                node._consumed = True
                node._parents = ()
                node._backward_fn = None
                node.grad = None  # interior grads are scratch; parameters are leaves
    except BaseException:
        for node in topo:  # nothing partial of a failed pass may reach a later one
            node._matmul_pairs = None
            if node._parents:
                node.grad = None
        raise
