"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation records a node on an implicit computation graph (child ->
parent links plus a backward closure). `backward` consumes the graph as it
goes: each interior node drops its links, closure and gradient as soon as its
rule has run, a failed pass leaves nothing partial in interior nodes, and a
second traversal through any consumed node raises. A matmul's backward does
not form its weight's gradient on the spot: it records the pair (left operand,
output gradient) on that operand, and `backward` settles all of a node's pairs
with one GEMM when the node's own turn comes. The LSTM run node that
`layers.lstm_run` builds records one pair per step on its cell's weight, so
that weight gets one product per sequence, not one per step. Broadcasting is
deliberately restricted to scalar-with-tensor; rank mismatches are errors, and
structural changes go through explicit ops (reshape, concat, narrow).

Gradient ownership: a gradient buffer belongs to exactly one tensor. A rule
that computes its gradient into a new C-contiguous array hands it over
(`_accumulate(g, fresh=True)`) and it becomes the tensor's first gradient as
it is; a rule that passes its output gradient through (add, sub's left
operand, add_rowvec's rows, reshape, concat's slices, transpose) or hands a
non-contiguous view gets a row-major copy. Later gradients are added in
place into the owned buffer.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from itertools import product
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np


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

    def _accumulate(self, g: np.ndarray, fresh: bool = False):
        """Add g into the gradient. `fresh` says that no other buffer holds g, so a
        contiguous first gradient need not be copied (see the module docstring)."""
        if not self.requires_grad:
            return
        if self.grad is None:
            if fresh and type(g) is np.ndarray and g.flags.c_contiguous:
                self.grad = g
            else:
                # g may alias a live buffer or be a view; row-major, like every parameter
                self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def _add_matmul_pair(self, a: np.ndarray, g: np.ndarray):
        # a product a @ self with output gradient g, for `_settle`
        if self._matmul_pairs is None:
            self._matmul_pairs = []
        self._matmul_pairs.append((a, g))

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


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether an op over `parents` records a node, so its backward state is worth keeping."""
    return _recording and any(p.requires_grad for p in parents)


def _make_node(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if _records(parents):
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
            b._accumulate(_reduce_to(-out.grad, b.shape), fresh=True)

    out = _make_node(out_data, (a, b), backward_fn)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    out_data = a.data * b.data

    def backward_fn():
        if a.requires_grad:
            a._accumulate(_reduce_to(out.grad * b.data, a.shape), fresh=True)
        if b.requires_grad:
            b._accumulate(_reduce_to(out.grad * a.data, b.shape), fresh=True)

    out = _make_node(out_data, (a, b), backward_fn)
    return out


def _unary(a: Tensor, value: np.ndarray, local_grad) -> Tensor:
    def backward_fn():
        a._accumulate(out.grad * local_grad(), fresh=True)

    out = _make_node(value, (a,), backward_fn)
    return out


def neg(a: Tensor) -> Tensor:
    return _unary(a, -a.data, lambda: -1.0)


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return _unary(a, e, lambda: e)


def log(a: Tensor) -> Tensor:
    x = a.data
    return _unary(a, np.log(x), lambda: 1.0 / x)


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


def log_sigmoid(a: Tensor) -> Tensor:
    """log(1 / (1 + exp(-x))), finite at any finite logit; log(1 - sigmoid(x))
    is log_sigmoid(-x). The gradient is sigmoid(-x)."""
    x = a.data
    return _unary(a, np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x))), lambda: _sigmoid(-x))


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
            a._accumulate(out.grad @ b.data.T, fresh=True)
        if b.requires_grad:
            b._add_matmul_pair(a.data, out.grad)

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
        a._accumulate(g, fresh=True)

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
            v._accumulate(out.grad.sum(axis=0), fresh=True)

    out = _make_node(x.data + v.data[None, :], (x, v), backward_fn)
    return out


def add_channel_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[(N, C, H, W)] + b[(C,)] broadcast over batch and space."""
    if x.data.ndim != 4 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_channel_bias: incompatible shapes {x.shape} and {b.shape}")

    def backward_fn():
        x._accumulate(out.grad)
        if b.requires_grad:
            b._accumulate(out.grad.sum(axis=(0, 2, 3)), fresh=True)

    out = _make_node(x.data + b.data[None, :, None, None], (x, b), backward_fn)
    return out


def tile_hw(v: Tensor, height: int, width: int) -> Tensor:
    """Tile v[(N, C)] to a (N, C, height, width) feature map."""
    if v.data.ndim != 2:
        raise ShapeError(f"tile_hw needs a (N, C) tensor, got {v.shape}")

    def backward_fn():
        v._accumulate(out.grad.sum(axis=(2, 3)), fresh=True)

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
        table._accumulate(g, fresh=True)

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
        x._accumulate(g, fresh=True)

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
        x._accumulate(out.grad - softmax * out.grad.sum(axis=1, keepdims=True), fresh=True)

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
        if x.requires_grad:
            x._accumulate(2.0 * (x.data * g.sum(axis=1)[:, None] - g @ y.data), fresh=True)
        if y.requires_grad:
            y._accumulate(2.0 * (y.data * g.sum(axis=0)[:, None] - g.T @ x.data), fresh=True)

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
        d._accumulate(dd, fresh=True)

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
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (n, c, kh, kw, ho, wo), (sn, sc, sh, sw, stride * sh, stride * sw), writeable=False)
    return np.ascontiguousarray(windows).reshape(n, c * kh * kw, ho * wo)


def _col2im(cols: np.ndarray, xp_shape, kh: int, kw: int, ho: int, wo: int) -> np.ndarray:
    # stride-1 windows only: at the default join2 this fold took 1.3 ms against
    # 1.5 ms for a shifted-gradient GEMM like the strided convs' (batch 16)
    n, c = xp_shape[:2]
    acc = np.zeros(xp_shape, dtype=np.float64)
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    for di in range(kh):
        for dj in range(kw):
            acc[:, :, di:di + ho, dj:dj + wo] += cols[:, :, di, dj]
    return acc


def _strided_input_grad(g: np.ndarray, kernels: np.ndarray, stride: int) -> np.ndarray:
    """d padded input of a stride-s conv: one GEMM, then one depth-to-space step.

    With the taps zero-padded to m*s per axis, padded-input row s*y + a takes
    tap s*p + a against output row y - p, p < m. So the s x s blocks of the
    input gradient, phases (c, a, b) as rows (space-to-depth; Shi et al. 2016,
    arXiv:1609.05158), are an m x m stride-1 correlation of the zero-padded
    output gradient with the window taps reversed. The windows are laid out
    batch-inner, (C_out*mh*mw, N*P), so the whole batch is one 2-D GEMM.
    Returns (N, C_in, s*(ho+mh-1), s*(wo+mw-1)), at least the padded input.
    """
    c_out, c_in, kh, kw = kernels.shape
    n, _, ho, wo = g.shape
    mh, mw = -(-kh // stride), -(-kw // stride)
    if (mh * stride, mw * stride) != (kh, kw):
        kernels = np.pad(kernels, ((0, 0), (0, 0), (0, mh * stride - kh), (0, mw * stride - kw)))
    # bank[(c, a, b), (o, p, q)] = K[o, c, s*p + a, s*q + b]
    bank = (kernels.reshape(c_out, c_in, mh, stride, mw, stride).transpose(1, 3, 5, 0, 2, 4)
            .reshape(c_in * stride * stride, c_out * mh * mw))
    gh, gw = ho + mh - 1, wo + mw - 1
    gp = np.zeros((n, c_out, gh + mh - 1, gw + mw - 1))
    gp[:, :, mh - 1:mh - 1 + ho, mw - 1:mw - 1 + wo] = g
    sn, sc, sh, sw = gp.strides
    windows = np.lib.stride_tricks.as_strided(
        gp, (c_out, mh, mw, n, gh, gw), (sc, sh, sw, sn, sh, sw), writeable=False)
    cols = np.ascontiguousarray(windows[:, ::-1, ::-1]).reshape(c_out * mh * mw, n * gh * gw)
    d = (bank @ cols).reshape(c_in, stride, stride, n, gh, gw).transpose(3, 0, 4, 1, 5, 2)
    return d.reshape(n, c_in, stride * gh, stride * gw)


class _TapTable(NamedTuple):
    """Where each stored kernel tap of one layer kind goes: the input, padded by
    `pad`, is cut into `window`-sized im2col slots; the bank block of entry
    (a, b, i, j, first) is read at slot-grid offset (i, j) into
    out[:, :, a::u, b::u], assigned when `first`, else added. `fold` maps the
    kh*kw stored taps to the (entry, slot) bank taps, None for the identity."""
    pad: int
    window: tuple
    entries: tuple
    fold: Optional[np.ndarray]


def _axis_taps(k: int, padding: int, upsample: int, output_side: bool) -> tuple:
    """One axis of a tap table: each entry's (phase, first input row), the
    fold[e, slot, t] = 1 where stored tap t lands, and the padding they read.

    Output row u*i + a reads input row i + (a - padding + t) // u at tap t. An
    input-side entry is one phase, its taps in a window; an output-side entry
    is one tap, one slot wide (no upsampling there).
    """
    if output_side:
        return [(0, t - padding) for t in range(k)], np.eye(k)[:, None, :], padding
    rows = [[(a - padding + t) // upsample for t in range(k)] for a in range(upsample)]
    width = 1 + max(r[-1] - r[0] for r in rows)
    fold = np.zeros((upsample, width, k))
    for a, r in enumerate(rows):
        fold[a, np.subtract(r, r[0]), range(k)] = 1.0
    # output i < ho / u = h + (2 * padding + 1 - k) / u reads rows i + r[0] .. i + r[0] + width - 1
    pad = max(max(-r[0], (2 * padding + 1 - k) // upsample + r[0] + width - 1) for r in rows)
    return [(a, r[0]) for a, r in enumerate(rows)], fold, pad


@lru_cache(maxsize=None)
def _tap_table(kh: int, kw: int, stride: int, padding: int, upsample: int,
               output_side: bool) -> _TapTable:
    if upsample > 1 and (stride != 1 or (2 * padding + 1 - kh) % upsample
                         or (2 * padding + 1 - kw) % upsample):
        raise ShapeError(f"conv2d: upsample {upsample} needs stride 1 and an output size "
                         "divisible by it")
    (rows, fold_h, pad_h), (cols, fold_w, pad_w) = (
        _axis_taps(k, padding, upsample, output_side) for k in (kh, kw))
    pad = max(pad_h, pad_w)  # `padding` itself without upsampling
    entries = []
    for (a, i), (b, j) in product(rows, cols):
        entries.append((a, b, i + pad, j + pad, all(e[:2] != (a, b) for e in entries)))
    fold = np.einsum("atk,bul->klabtu", fold_h, fold_w).reshape(kh * kw, -1)
    identity = fold.shape[1] == kh * kw and np.array_equal(fold, np.eye(kh * kw))
    return _TapTable(pad, (fold_h.shape[1], fold_w.shape[1]), tuple(entries),
                     None if identity else fold)


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0,
           upsample: int = 1, bias: Optional[Tensor] = None) -> Tensor:
    """2-D cross-correlation (no kernel flip) over (N,C,H,W) input, nearest-neighbour
    upsampled `upsample` times first without building the upsampled tensor, plus
    the per-channel `bias` (C_out,) if given, added in place into the output.

    One GEMM of the tap table's bank runs over the padded input, im2col'd when
    the window is wider than 1; each entry then puts its block into the output.
    Taps go to the output side (one slot, C_out rows each: kn2row) only at
    stride 1 without upsampling and when C_out < C_in, where that GEMM is the
    smaller one.

    Backward: d kernels is one GEMM over the batch when the batch product's
    (N, E*C_out, K) would outgrow the N*P*(E*C_out + K) elements that GEMM
    copies, else the batch sum of g[n] @ cols[n].T. d input is `bank.T @ g`, folded
    back by `_col2im` for a stride-1 window; at stride above 1 it is one GEMM
    of the shifted output gradient, then depth-to-space (`_strided_input_grad`).
    d bias is the output gradient summed over batch and space.
    """
    if kernels.data.ndim != 4:
        raise ShapeError(f"conv2d kernels must be (C_out, C_in, kh, kw), got {kernels.shape}")
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be (N, C, H, W), got {x.shape}")
    if kernels.shape[1] != x.shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape[1]}, kernels {kernels.shape[1]}")
    (n, c_in, h, w), (c_out, _, kh, kw) = x.shape, kernels.shape
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"conv2d bias must be ({c_out},), got {bias.shape}")
    ho = _conv_out_size(upsample * h, kh, stride, padding)
    wo = _conv_out_size(upsample * w, kw, stride, padding)
    table = _tap_table(kh, kw, stride, padding, upsample, stride == upsample == 1 and c_out < c_in)
    pad, (wh, ww), entries = table.pad, table.window, table.entries
    if pad:
        xp = np.zeros((n, c_in, h + 2 * pad, w + 2 * pad))
        xp[:, :, pad:-pad, pad:-pad] = x.data
    else:
        xp = x.data
    xp_shape = xp.shape  # backward needs only the shape: the padded copy goes with the forward
    gh, gw = (xp_shape[2] - wh) // stride + 1, (xp_shape[3] - ww) // stride + 1
    im2col = (wh, ww, stride) != (1, 1, 1)
    cols = _im2col(xp, wh, ww, stride, gh, gw) if im2col else xp.reshape(n, c_in, gh * gw)
    folded = kernels.data if table.fold is None else kernels.data.reshape(c_out * c_in, -1) @ table.fold
    n_e, slots = len(entries), wh * ww
    bank = folded.reshape(c_out, c_in, n_e, slots).transpose(2, 0, 1, 3).reshape(n_e * c_out, -1)
    y = bank @ cols                                            # (E*C_out, K) @ (N, K, G)
    hu, wu = ho // upsample, wo // upsample
    if n_e == 1:
        out_data = y.reshape(n, c_out, ho, wo)
    else:
        y = y.reshape(n, n_e, c_out, gh, gw)
        out_data = np.empty((n, c_out, ho, wo))
        for e, (a, b, i, j, first) in enumerate(entries):
            if first:
                out_data[:, :, a::upsample, b::upsample] = y[:, e, :, i:i + hu, j:j + wu]
            else:
                out_data[:, :, a::upsample, b::upsample] += y[:, e, :, i:i + hu, j:j + wu]
    if bias is not None:
        out_data += bias.data[:, None, None]  # out_data is this op's own array

    def backward_fn():
        if n_e == 1:
            g = out.grad.reshape(n, c_out, gh * gw)
        else:
            g = np.zeros((n, n_e, c_out, gh, gw))
            for e, (a, b, i, j, _) in enumerate(entries):
                g[:, e, :, i:i + hu, j:j + wu] = out.grad[:, :, a::upsample, b::upsample]
            g = g.reshape(n, n_e * c_out, gh * gw)
        if kernels.requires_grad:
            rows, k_len = bank.shape
            if rows * k_len > gh * gw * (rows + k_len):
                # one GEMM over (N*P) copies less than the batch product's (N, rows, K)
                dbank = np.tensordot(g, cols, axes=([0, 2], [0, 2]))
            else:
                dbank = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)  # sum_n g[n] @ cols[n].T
            dk = dbank.reshape(n_e, c_out, c_in, slots).transpose(1, 2, 0, 3)
            if table.fold is not None:
                dk = dk.reshape(c_out * c_in, -1) @ table.fold.T
            kernels._accumulate(dk.reshape(kernels.shape), fresh=True)
        if x.requires_grad:
            if stride > 1:
                dxp = _strided_input_grad(out.grad, kernels.data, stride)
            else:
                dcols = bank.T @ g
                dxp = _col2im(dcols, xp_shape, wh, ww, gh, gw) if im2col else dcols.reshape(xp_shape)
            x._accumulate(dxp[:, :, pad:pad + h, pad:pad + w], fresh=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(out.grad.sum(axis=(0, 2, 3)), fresh=True)

    out = _make_node(out_data, (x, kernels) if bias is None else (x, kernels, bias), backward_fn)
    return out


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbour doubling of the spatial axes of a (N,C,H,W) tensor."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample2x needs a 4-D tensor, got {x.shape}")
    n, c, h, w = x.shape

    def backward_fn():
        x._accumulate(out.grad.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)), fresh=True)

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
        x._accumulate(np.repeat(np.repeat(out.grad, 2, axis=2), 2, axis=3) * 0.25, fresh=True)

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
            x._accumulate(np.full_like(x.data, float(out.grad) * factor), fresh=True)

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
        x._accumulate(g, fresh=True)

    out = _make_node(x.data.max(axis=axis), (x,), backward_fn)
    return out


# -- backward and checking ------------------------------------------------


def backward(loss: Tensor, params: Optional[Sequence[Tensor]] = None):
    """Propagate d(loss)/d(tensor) into .grad of every reachable parameter, or of `params`
    only: every node that reaches none of them has requires_grad off for the pass only.

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

    frozen = []
    if params is not None:
        reaching = {id(p) for p in params}
        for node in topo:  # parents first
            if id(node) in reaching or any(id(p) in reaching for p in node._parents):
                reaching.add(id(node))
            elif node.requires_grad:
                node.requires_grad = False
                frozen.append(node)
    try:
        loss._accumulate(np.ones_like(loss.data), fresh=True)
        # reverse topological order: every consumer of a node has run and been
        # released before the node's turn, so its recorded matmul pairs are complete
        for node in reversed(topo):
            if node._matmul_pairs is not None:
                node._settle()
            if node._parents:
                if node.requires_grad:
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
    finally:
        for node in frozen:
            node.requires_grad = True
