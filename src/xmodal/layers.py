"""Parameterized layers: dense, convolution, LSTM, token embedding, pooling.

All parameters are float64 leaf tensors registered by name so checkpoints
can round-trip them. Initialization is Glorot-uniform with zero biases,
except the LSTM forget-gate bias which starts at +1.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

_MAX_BYTES = np.iinfo(np.intp).max  # numpy's index range, in bytes


def glorot_uniform(rng: np.random.Generator | None, shape, fan_in: int, fan_out: int) -> np.ndarray:
    """With `rng=None`, uninitialised memory: a model built so is valid only after `load_into`.

    A float64 array of `shape` past numpy's index range raises MemoryError, as one
    past the machine's memory does, not numpy's ValueError."""
    if 8 * math.prod(map(int, shape)) > _MAX_BYTES:
        raise MemoryError(f"a float64 array of shape {tuple(shape)} exceeds numpy's index range")
    if rng is None:
        return np.empty(shape)
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


class Module:
    """Minimal parameter container; subclasses register (name, Tensor) pairs."""

    def __init__(self):
        self._params: list[tuple[str, Tensor]] = []
        self._children: list[tuple[str, "Module"]] = []

    def _register(self, name: str, tensor: Tensor) -> Tensor:
        tensor.requires_grad = True
        self._params.append((name, tensor))
        return tensor

    def _child(self, name: str, module: "Module") -> "Module":
        self._children.append((name, module))
        return module

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params:
            yield (prefix + name, p)
        for name, child in self._children:
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]


class DenseLayer(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self.weight = self._register("weight", Tensor(glorot_uniform(rng, (out_dim, in_dim), in_dim, out_dim)))
        self.bias = self._register("bias", Tensor(np.zeros(out_dim)))

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"dense expects (batch, {self.in_dim}), got {x.shape}")
        return ad.add_rowvec(ad.matmul(x, ad.transpose(self.weight)), self.bias)


class Conv2dLayer(Module):
    """A conv with bias, of the input upsampled `upsample` times (`ad.conv2d`)."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int, padding: int,
                 rng: np.random.Generator, upsample: int = 1):
        super().__init__()
        fan_in = in_ch * kernel * kernel
        fan_out = out_ch * kernel * kernel
        self.stride = stride
        self.padding = padding
        self.upsample = upsample
        self.kernels = self._register(
            "kernels", Tensor(glorot_uniform(rng, (out_ch, in_ch, kernel, kernel), fan_in, fan_out)))
        self.bias = self._register("bias", Tensor(np.zeros(out_ch)))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.kernels, self.stride, self.padding, self.upsample, self.bias)


class EmbeddingTable(Module):
    """Trainable token embeddings."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.table = self._register("table", Tensor(glorot_uniform(rng, (vocab_size, dim), vocab_size, dim)))

    def __call__(self, ids: np.ndarray) -> Tensor:
        return ad.embedding_lookup(self.table, ids)


class LSTMCell(Module):
    """Single LSTM cell over one fused gate matrix.

    `weight` is (input+hidden, 4*hidden) and `bias` is (4*hidden,), their
    columns in `GATES` order. The state is one (batch, 2*hidden) array [h | c].
    `step` is the cell's one-step forward on arrays; `lstm_run` records a whole
    run as one graph node and `text_ae.decode_texts` steps it greedily. Each
    gate's block is drawn as its own Glorot matrix (fan-out `hidden`); the
    forget-gate bias starts at +1 so early training keeps cell memory. With
    `rng=None` the weight is one uninitialised array from `glorot_uniform`.
    """

    GATES = ("input", "forget", "output", "candidate")  # sigmoid gates first, then tanh

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.hidden_dim = hidden_dim
        cat = input_dim + hidden_dim
        if rng is None:
            weight = Tensor(glorot_uniform(None, (cat, 4 * hidden_dim), cat, hidden_dim))
        else:
            blocks = [glorot_uniform(rng, (hidden_dim, cat), cat, hidden_dim) for _ in self.GATES]
            weight = Tensor(np.concatenate(blocks).T)
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim:2 * hidden_dim] = 1.0  # the forget block
        self.weight = self._register("weight", weight)
        self.bias = self._register("bias", Tensor(bias))

    def step(self, x_t: np.ndarray, hc_prev: np.ndarray) -> tuple:
        """The state [h_t | c_t] after input x_t (batch, input) from [h | c]
        (batch, 2*hidden), and what `lstm_run`'s backward reads of the step:
        (xh, ifo, g, c, tanh(c_t)), with xh = [x_t | h], the sigmoid gates
        ifo = [i | f | o] and the candidate g. The gate pre-activations are
        xh @ weight + bias; c_t = f*c + i*g and h_t = o*tanh(c_t). The caller
        checks the shapes."""
        hid = self.hidden_dim
        c_prev = hc_prev[:, hid:]
        xh = np.concatenate([x_t, hc_prev[:, :hid]], axis=1)
        pre = xh @ self.weight.data + self.bias.data
        ifo = ad._sigmoid(pre[:, :3 * hid])
        g = np.tanh(pre[:, 3 * hid:])
        hc = np.empty_like(hc_prev)
        c = np.add(ifo[:, hid:2 * hid] * c_prev, ifo[:, :hid] * g, out=hc[:, hid:])
        tc = np.tanh(c)
        np.multiply(ifo[:, 2 * hid:], tc, out=hc[:, :hid])
        return hc, (xh, ifo, g, c_prev, tc)


def lstm_run(cell: LSTMCell, inputs: Tensor, reverse: bool = False,
             state: Tensor | None = None) -> Tensor:
    """Run a cell over a time-major (T, batch, dim) tensor from `state` [h | c],
    zeros if None; returns h_t of step t at rows t*batch:(t+1)*batch of one
    (T*batch, hidden) tensor.

    The input is viewed once as (T*batch, dim) rows (a reshape node), and the
    whole run is one more node: its forward calls `cell.step` once per step,
    its backward runs backpropagation through time from the last step to the
    first. That backward forms every product in the order a graph of per-step
    nodes would (narrow the rows, step, concat the states, narrow their h
    columns), so every value and gradient is that graph's bit for bit: the
    weight gets one matmul pair per step, in backward order (see `autodiff`),
    and the bias one row sum per step. Under `no_grad` the run keeps nothing
    for backward.
    """
    if inputs.data.ndim != 3:
        raise ShapeError(f"lstm_run expects (T, batch, dim), got {inputs.shape}")
    t_steps, batch, dim = inputs.shape
    if t_steps < 1:
        raise ShapeError("empty sequence")
    weight, bias, hid = cell.weight, cell.bias, cell.hidden_dim
    if weight.shape[0] != dim + hid or (state is not None and state.shape != (batch, 2 * hid)):
        raise ShapeError(f"lstm_run: input {inputs.shape} and state "
                         f"{None if state is None else state.shape} do not fit a cell of "
                         f"weight {weight.shape}")
    rows = ad.reshape(inputs, (t_steps * batch, dim))
    parents = (rows, weight, bias) + (() if state is None else (state,))
    order = range(t_steps - 1, -1, -1) if reverse else range(t_steps)
    saved = [] if ad._records(parents) else None
    hc = np.zeros((batch, 2 * hid)) if state is None else state.data
    out_data = np.empty((t_steps * batch, hid))
    for t in order:
        hc, cache = cell.step(rows.data[t * batch:(t + 1) * batch], hc)
        out_data[t * batch:(t + 1) * batch] = hc[:, :hid]
        if saved is not None:
            saved.append(cache)
        del cache  # unrecorded, a step's arrays go before the next step allocates its own

    def backward_fn():
        dx = np.empty_like(rows.data) if rows.requires_grad else None
        to_state = state is not None and state.requires_grad
        for t, (xh, ifo, g, c_prev, tc) in zip(reversed(order), reversed(saved)):
            block = slice(t * batch, (t + 1) * batch)
            # the concat's gradient of state t, its c columns zero-filled by the
            # h-column narrow, plus the one the next step in run order passed back
            if t == order[-1]:
                gh, gc = out.grad[block], 0.0
            else:
                gh, gc = out.grad[block] + dxh[:, dim:], 0.0 + dc * f
            i, f, o = ifo[:, :hid], ifo[:, hid:2 * hid], ifo[:, 2 * hid:]
            dc = gc + (gh * o) * (1.0 - tc * tc)
            d = np.empty((batch, 4 * hid))
            np.multiply(dc, g, out=d[:, :hid])
            np.multiply(dc, c_prev, out=d[:, hid:2 * hid])
            np.multiply(gh, tc, out=d[:, 2 * hid:3 * hid])
            d[:, :3 * hid] *= ifo * (1.0 - ifo)
            np.multiply(dc * i, 1.0 - g * g, out=d[:, 3 * hid:])
            if bias.requires_grad:
                bias._accumulate(d.sum(axis=0), fresh=True)
            if weight.requires_grad:
                weight._add_matmul_pair(xh, d)
            if t != order[0] or dx is not None or to_state:
                dxh = d @ weight.data.T  # whole, as the composed matmul rule formed it
                if dx is not None:  # what the T narrows' zero-filled gradients summed
                    dx[block] = dxh[:, :dim]  # to, as this GEMM gives no -0.0
        if dx is not None:
            rows._accumulate(dx, fresh=True)
        if to_state:
            state._accumulate(np.concatenate([dxh[:, dim:], dc * f], axis=1), fresh=True)

    out = ad._make_node(out_data, parents, backward_fn if saved is not None else None)
    return out


def bilstm_encode(forward_cell: LSTMCell, backward_cell: LSTMCell, inputs: Tensor) -> Tensor:
    """Output is (T, batch, 2*hidden): position t holds the forward state after
    reading x_0..x_t next to the backward state after reading x_{T-1}..x_t, the
    two runs' outputs joined side by side by one concat and one reshape."""
    fwd, bwd = lstm_run(forward_cell, inputs), lstm_run(backward_cell, inputs, reverse=True)
    return ad.reshape(ad.concat([fwd, bwd], axis=1), inputs.shape[:2] + (2 * fwd.shape[1],))


def max_over_time(h: Tensor) -> Tensor:
    """Coordinatewise max over the leading time axis of (T, batch, d)."""
    if h.data.ndim != 3:
        raise ShapeError(f"max_over_time expects (T, batch, d), got {h.shape}")
    if h.shape[0] < 1:
        raise ShapeError("empty sequence")
    return ad.reduce("max", h, axis=0)
