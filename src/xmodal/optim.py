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
        # Each update replaces p.data and never writes the old array, which
        # TrainingRun.last_good may hold; so nothing writes a run parameter's array
        # in place in training (load_into runs before it, MMDCritic.clamp on the critic).
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
            # p - lr (m / bias1) / (sqrt(v / bias2) + eps), in place in two
            # scratch arrays and in the order written, so bit for bit the same
            upd = np.multiply(g, 1.0 - b1, out=np.empty_like(m))
            m *= b1
            m += upd
            np.multiply(g, g, out=upd)
            upd *= 1.0 - b2
            v *= b2
            v += upd
            np.divide(m, bias1, out=upd)
            upd *= self.lr
            den = np.divide(v, bias2, out=np.empty_like(v))
            np.sqrt(den, out=den)
            den += self.eps
            upd /= den
            p.data = np.subtract(p.data, upd, out=upd)


class TrainingRun:
    """Metric rows, last good parameters and checked update steps of one training run.

    `named_params` are the (name, tensor) pairs a divergence checkpoint holds.
    `last_good` references their arrays at the last finite loss of `opt`, the
    run's own optimizer (at first, the initial arrays). Rows go to `log`, if given.
    """

    def __init__(self, named_params, opt: Adam, log=None):
        self.named_params = list(named_params)
        self.opt = opt
        self.log = log
        self.last_good = [(name, p.data) for name, p in self.named_params]

    def emit(self, name: str, value: float):
        if self.log:
            self.log({"metric": name, "value": value})

    def minimize(self, opt: Adam, loss: Tensor, what: str) -> float:
        """One descent step of `opt` on `loss`, a backward over `opt.params` only (so an
        adversary the loss reads gets no gradient); returns the loss value.

        A non-finite loss raises DivergenceError with `last_good` before any
        parameter changes; a finite loss of the run's own optimizer moves `last_good`.
        """
        value = loss.item()
        if not np.isfinite(value):
            raise DivergenceError(f"non-finite {what}", self.last_good)
        if opt is self.opt:
            self.last_good = [(name, p.data) for name, p in self.named_params]
        opt.zero_grad()
        ad.backward(loss, opt.params)
        opt.step()
        return value
