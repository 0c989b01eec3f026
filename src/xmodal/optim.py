"""Adam, and the checked update step every trainer runs through."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DivergenceError


class Adam:
    def __init__(self, params: list[Tensor], lr: float, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


class TrainingRun:
    """Metric rows, last good parameters and checked update steps of one training run.

    `named_params` are the (name, tensor) pairs a divergence checkpoint holds.
    `snapshot()` copies them; construction takes the first copy. Each emitted
    row goes to `metrics` and, when given, to `log`.
    """

    def __init__(self, named_params, log=None):
        self.named_params = list(named_params)
        self.log = log
        self.metrics: list[dict] = []
        self.snapshot()

    def emit(self, name: str, value: float):
        row = {"metric": name, "value": value}
        self.metrics.append(row)
        if self.log:
            self.log(row)

    def snapshot(self):
        self.last_good = [(name, p.data.copy()) for name, p in self.named_params]

    def minimize(self, opt: Adam, loss: Tensor, what: str) -> float:
        """One descent step of `opt` on `loss`; returns the loss value.

        A non-finite loss raises DivergenceError, carrying the last snapshot,
        before backward runs or any parameter changes.
        """
        value = loss.item()
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite {what}", self.last_good)
        opt.zero_grad()
        ad.backward(loss)
        opt.step()
        return value
