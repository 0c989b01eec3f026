"""Parameterized layers: dense, convolution, LSTM, token embedding, pooling.

All parameters are float64 leaf tensors registered by name so checkpoints
can round-trip them. Initialization is Glorot-uniform with zero biases,
except the LSTM forget-gate bias which starts at +1.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


def glorot_uniform(rng: np.random.Generator | None, shape, fan_in: int, fan_out: int) -> np.ndarray:
    """With `rng=None`, uninitialised memory: a model built so is valid only after `load_into`."""
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
        out = ad.conv2d(x, self.kernels, self.stride, self.padding, self.upsample)
        return ad.add_channel_bias(out, self.bias)


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
    columns in `GATES` order. The state is one (batch, 2*hidden) tensor [h | c]
    and a step is one `ad.lstm_step` node. Each gate's block is drawn as its
    own Glorot matrix (fan-out `hidden`); the forget-gate bias starts at +1 so
    early training keeps cell memory. With `rng=None` the weight is one
    uninitialised array, as `glorot_uniform` gives.
    """

    GATES = ("input", "forget", "output", "candidate")  # sigmoid gates first, then tanh

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.hidden_dim = hidden_dim
        cat = input_dim + hidden_dim
        if rng is None:
            weight = Tensor(np.empty((cat, 4 * hidden_dim)))
        else:
            blocks = [glorot_uniform(rng, (hidden_dim, cat), cat, hidden_dim) for _ in self.GATES]
            weight = Tensor(np.concatenate(blocks).T)
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim:2 * hidden_dim] = 1.0  # the forget block
        self.weight = self._register("weight", weight)
        self.bias = self._register("bias", Tensor(bias))

    def step(self, x_t: Tensor, hc_prev: Tensor) -> Tensor:
        return ad.lstm_step(x_t, hc_prev, self.weight, self.bias)

    def zero_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, 2 * self.hidden_dim)))


def lstm_run(cell: LSTMCell, inputs: Tensor, reverse: bool = False,
             state: Tensor | None = None) -> Tensor:
    """Run a cell over a time-major (T, batch, dim) tensor from `state` [h | c],
    zeros if None; returns h_t of step t at rows t*batch:(t+1)*batch of one
    (T*batch, hidden) tensor. Step t narrows those rows of the input, viewed
    once as (T*batch, dim), and steps the cell: 2 nodes per step and 3 per run."""
    if inputs.data.ndim != 3:
        raise ShapeError(f"lstm_run expects (T, batch, dim), got {inputs.shape}")
    t_steps, batch, dim = inputs.shape
    if t_steps < 1:
        raise ShapeError("empty sequence")
    hc = cell.zero_state(batch) if state is None else state
    rows = ad.reshape(inputs, (t_steps * batch, dim))
    states: list = [None] * t_steps
    for t in reversed(range(t_steps)) if reverse else range(t_steps):
        hc = cell.step(ad.narrow(rows, 0, t * batch, batch), hc)
        states[t] = hc
    return ad.narrow(ad.concat(states, axis=0), 1, 0, cell.hidden_dim)


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
