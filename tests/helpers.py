"""Test-only helpers: finite-difference gradient checks, the generator join's oracle
and the metric CSV reader.

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


def upsample_conv_oracle(x: Tensor, k: Tensor) -> Tensor:
    """What `ad.upsample2x_conv3x3` folds: nearest-neighbour doubling, then a padded 3x3 conv."""
    return ad.conv2d(ad.upsample2x(x), k, stride=1, padding=1)


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
