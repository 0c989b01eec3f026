"""Test-only helpers: finite-difference gradient checks, the direct-loop convolution
oracles, the composed LSTM step and run with their gate-product node, and the
metric CSV reader.

Test modules import this as `helpers`; pytest puts `tests/` on `sys.path`.
"""

from pathlib import Path
from typing import Callable

import numpy as np

from xmodal import autodiff as ad
from xmodal.autodiff import GraphError, Tensor, backward, no_grad
from xmodal.errors import FormatError
from xmodal.metrics import MetricReport


class GradientCheckError(RuntimeError):
    """Non-finite value met while finite-differencing; names the coordinate."""


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


def conv_loop_oracle(x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlation of one (C, H, W) sample with (C_out, C, kh, kw) kernels, one output
    pixel at a time."""
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    _, _, kh, kw = w.shape
    _, h, wd = x.shape
    ho, wo = (h - kh) // stride + 1, (wd - kw) // stride + 1
    out = np.zeros((w.shape[0], ho, wo))
    for i in range(ho):
        for j in range(wo):
            window = x[:, i * stride:i * stride + kh, j * stride:j * stride + kw]
            out[:, i, j] = np.sum(window * w, axis=(1, 2, 3))
    return out


def conv_grad_loop_oracle(x: np.ndarray, w: np.ndarray, g: np.ndarray, stride: int = 1,
                          padding: int = 0) -> tuple:
    """d/dw and d/dx of sum(conv(x, w) * g) for one (C, H, W) sample, by direct loops."""
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    _, _, kh, kw = w.shape
    _, ho, wo = g.shape
    for i in range(ho):
        for j in range(wo):
            rows, cols = slice(i * stride, i * stride + kh), slice(j * stride, j * stride + kw)
            dw += g[:, i, j, None, None, None] * xp[:, rows, cols]
            dxp[:, rows, cols] += np.tensordot(g[:, i, j], w, axes=1)
    return dw, dxp[:, padding:xp.shape[1] - padding, padding:xp.shape[2] - padding]


def upsample_conv_oracle(x: np.ndarray, w: np.ndarray, upsample: int = 2, stride: int = 1,
                         padding: int = 1) -> np.ndarray:
    """What `ad.conv2d(..., upsample)` computes over a (N, C, H, W) batch: nearest-neighbour
    upsampling by `np.repeat`, then the loop oracle on each sample."""
    up = np.repeat(np.repeat(x, upsample, axis=2), upsample, axis=3)
    return np.stack([conv_loop_oracle(sample, w, stride, padding) for sample in up])


def gate_product(weight: Tensor) -> Callable[[Tensor], Tensor]:
    """xh -> xh @ weight for the steps of one composed run, whose weight gradient
    is one GEMM as `layers.lstm_run` forms it. Every product consumes one node
    that stands for the weight; each product's rule forms d xh and records
    (xh, d), and that node's rule, whose turn comes after all of them, gives
    the weight concat(xh).T @ concat(d), rows in the order the rules ran."""
    pairs = []

    def weight_backward():
        a, g = pairs[0] if len(pairs) == 1 else map(np.concatenate, zip(*pairs))
        weight._accumulate(a.T @ g, fresh=True)

    node = ad._make_node(weight.data, (weight,), weight_backward)

    def product(xh: Tensor) -> Tensor:
        def backward_fn():
            if xh.requires_grad:
                xh._accumulate(out.grad @ weight.data.T, fresh=True)
            pairs.append((xh.data, out.grad))

        out = ad._make_node(xh.data @ weight.data, (xh, node), backward_fn)
        return out

    return product


def composed_step(cell, x_t: Tensor, hc_prev: Tensor, product=None) -> Tensor:
    """An `LSTMCell` step as separate narrow/concat/gate-product/add_rowvec/sigmoid/
    tanh/mul/add nodes, from the state tensor [h | c] to the next one. The steps
    of one run share one `gate_product`; a step without one gets its own."""
    hid = cell.hidden_dim
    product = product or gate_product(cell.weight)
    h_prev, c_prev = ad.narrow(hc_prev, 1, 0, hid), ad.narrow(hc_prev, 1, hid, hid)
    pre = ad.add_rowvec(product(ad.concat([x_t, h_prev], axis=1)), cell.bias)
    ifo = ad.sigmoid(ad.narrow(pre, 1, 0, 3 * hid))
    g = ad.tanh(ad.narrow(pre, 1, 3 * hid, hid))
    i, f, o = (ad.narrow(ifo, 1, k * hid, hid) for k in range(3))
    c_t = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    return ad.concat([ad.mul(o, ad.tanh(c_t)), c_t], axis=1)


def composed_run(cell, inputs: Tensor, reverse: bool = False, state: Tensor = None) -> Tensor:
    """`layers.lstm_run` as separate nodes: the input rows narrowed per step, each
    step a `composed_step` through the run's one `gate_product`, the states
    concatenated and their h columns narrowed. The oracle that the run's one node
    must match bit for bit, forward and backward."""
    t_steps, batch, dim = inputs.shape
    hc = Tensor(np.zeros((batch, 2 * cell.hidden_dim))) if state is None else state
    rows = ad.reshape(inputs, (t_steps * batch, dim))
    product = gate_product(cell.weight)
    states = [None] * t_steps
    for t in reversed(range(t_steps)) if reverse else range(t_steps):
        hc = composed_step(cell, ad.narrow(rows, 0, t * batch, batch), hc, product)
        states[t] = hc
    return ad.narrow(ad.concat(states, axis=0), 1, 0, cell.hidden_dim)


def read_metric_rows(path) -> list[dict]:
    rows = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body or body[0] != MetricReport.HEADER:
        raise FormatError(f"{path}: missing metric CSV header")
    for ln in body[1:]:
        metric, value, dataset, checkpoint, seed = ln.split(",")
        rows.append({"metric": metric, "value": float(value), "dataset": dataset,
                     "checkpoint": checkpoint, "seed": int(seed)})
    return rows
