"""Evaluation protocol: cosine class accuracy, BLEU, ROUGE-L, permutation test.

All metrics are pure functions. The kernel two-sample test derives its kernel
and one Gram matrix from one pooled distance matrix and weighs that Gram matrix
with the mapper losses' MMD^2 weights; one GEMM scores 256 permuted splits.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .data import LabeledEmbeddingSet
from .errors import DivergenceError, FormatError, write_atomic
from .mappers import median_heuristic, mixture_kernel, mmd2_weights

logger = logging.getLogger(__name__)

_SPLIT_BLOCK = 256  # permuted splits scored per GEMM in two_sample_test


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if not np.isfinite(norms).all():  # x/inf would read as a zero embedding
        raise DivergenceError("class_accuracy: an embedding norm is not finite; retrain its model")
    zero = norms[:, 0] == 0.0
    if zero.any():
        logger.warning("class_accuracy: %d zero embedding(s); their similarities are 0", zero.sum())
    norms[norms == 0.0] = 1.0
    return x / norms


def class_accuracy(true_set: LabeledEmbeddingSet, fake_set: LabeledEmbeddingSet) -> float:
    """Percentage of fake embeddings whose cosine-nearest true embedding
    carries their own class label (argmax ties break to the lowest index).

    The argmax is computed as the nearest neighbour among unit-normalized
    rows (identical ordering, but exact when a fake coincides with a true
    embedding, where a direct dot product could lose the tie to rounding).
    """
    if true_set.embeddings.shape[0] < 1:
        raise ShapeError("class_accuracy needs a non-empty true set")
    if true_set.dim != fake_set.dim:
        raise ShapeError(f"class_accuracy dimension mismatch: {true_set.dim} vs {fake_set.dim}")
    fake_unit = _unit_rows(fake_set.embeddings)
    true_unit = _unit_rows(true_set.embeddings)
    d2 = np.maximum(2.0 - 2.0 * fake_unit @ true_unit.T, 0.0)
    for i, row in enumerate(fake_unit):  # bit-equal pairs win outright
        hits = np.flatnonzero((true_unit == row).all(axis=1))
        d2[i, hits] = -1.0
    nearest = np.argmin(d2, axis=1)
    predicted = true_set.labels[nearest]
    return float(np.mean(predicted == fake_set.labels) * 100.0)


# -- text overlap -----------------------------------------------------------


def _ngram_counts(tokens: list, n: int) -> dict:
    counts: dict = {}
    for i in range(len(tokens) - n + 1):
        key = tuple(tokens[i:i + n])
        counts[key] = counts.get(key, 0) + 1
    return counts


def bleu(candidate: list, references: list[list], max_n: int = 4) -> float:
    """Unsmoothed BLEU: geometric mean of clipped modified n-gram precisions
    times the brevity penalty.

    Orders run from 1 to min(max_n, len(candidate)); any zero precision
    yields 0. The effective reference length is the closest to the candidate
    (ties toward the shorter reference).
    """
    if not candidate:
        raise ValueError("bleu: empty candidate")
    if not references:
        raise ValueError("bleu: need at least one reference")
    c = len(candidate)
    orders = min(max_n, c)
    log_sum = 0.0
    for n in range(1, orders + 1):
        cand_counts = _ngram_counts(candidate, n)
        max_ref: dict = {}
        for ref in references:
            for key, cnt in _ngram_counts(ref, n).items():
                if cnt > max_ref.get(key, 0):
                    max_ref[key] = cnt
        clipped = sum(min(cnt, max_ref.get(key, 0)) for key, cnt in cand_counts.items())
        total = sum(cand_counts.values())
        if clipped == 0:
            return 0.0
        log_sum += np.log(clipped / total)
    r = min((abs(len(ref) - c), len(ref)) for ref in references)[1]
    brevity = 1.0 if c > r else float(np.exp(1.0 - r / c))
    return float(brevity * np.exp(log_sum / orders))


def _lcs_length(a: list, b: list) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate: list, reference: list) -> float:
    """Balanced LCS F-measure: 2PR/(P+R) with P = LCS/|cand|, R = LCS/|ref|."""
    if not candidate or not reference:
        raise ValueError("rouge_l: empty sequence")
    lcs = _lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return float(2.0 * p * r / (p + r))


# -- kernel two-sample test ---------------------------------------------------


def _split_mmd2(gram: np.ndarray, w: np.ndarray, n: int, permutations: int,
                rng: np.random.Generator) -> np.ndarray:
    """Unbiased MMD^2 of the observed split of the pooled rows (entry 0) and
    of `permutations` splits drawn by `rng.permutation`, one draw each.

    A split is the indicator row z of its x side. With K0 the Gram matrix
    with a zero diagonal (where `w` is 0) and r = K0 1, its block sums are
    S_xx = z.K0z, S_xy = z.r - S_xx and S_yy = 1.r - 2 z.r + S_xx, so one
    GEMM scores a block of splits and memory stays O(block * len(gram)).
    """
    k0 = gram.copy()
    np.fill_diagonal(k0, 0.0)
    r = k0.sum(axis=1)
    total = r.sum()
    w_xx, w_yy, w_xy = w[0, 1], w[-1, -2], w[0, -1]
    stats = np.empty(permutations + 1)
    for start in range(0, permutations + 1, _SPLIT_BLOCK):
        z = np.zeros((min(_SPLIT_BLOCK, permutations + 1 - start), len(gram)))
        for i, row in enumerate(z, start):
            row[rng.permutation(len(gram))[:n] if i else slice(n)] = 1.0  # row 0: observed
        s_xx = np.einsum("ij,ij->i", z, z @ k0)
        zr = z @ r
        stats[start:start + len(z)] = (w_xx * s_xx + w_yy * (total - 2.0 * zr + s_xx)
                                       + 2.0 * w_xy * (zr - s_xx))
    return stats


def two_sample_test(x: np.ndarray, y: np.ndarray, permutations: int,
                    rng: np.random.Generator) -> tuple[float, float, float]:
    """Kernel two-sample test (Gretton et al. 2012) at the median-heuristic mixture
    kernel of one pooled distance matrix: the unbiased and biased MMD^2 and the
    permutation p = (1 + #{permuted >= observed}) / (permutations + 1) of the first.
    """
    x, y = (np.asarray(a, dtype=np.float64) for a in (x, y))
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(f"two_sample_test: incompatible shapes {x.shape} and {y.shape}")
    n, m = x.shape[0], y.shape[0]
    w = mmd2_weights(n, m, unbiased=True)
    pooled = Tensor(np.concatenate([x, y]))
    d = ad.pairwise_sq_dists(pooled, pooled)
    if not np.isfinite(d.data).all():  # finite embeddings whose squares overflow
        raise DivergenceError("two_sample_test: the squared distances overflow; retrain the model")
    gram = ad.rbf_mixture(d, mixture_kernel(median_heuristic(d.data)).bandwidths).data
    # never negative but for round-off, which is clamped as ad.relu clamps it
    biased = float(np.fmax(np.sum(gram * mmd2_weights(n, m, unbiased=False)), 0.0) + 0.0)
    stats = _split_mmd2(gram, w, n, permutations, rng)
    exceed = int(np.count_nonzero(stats[1:] >= stats[0]))
    return float(np.vdot(gram, w)), biased, (exceed + 1) / (permutations + 1)


# -- report persistence -------------------------------------------------------


class MetricReport:
    """CSV of named scalar metrics with provenance, kept in memory until `save`.

    The file holds '#'-prefixed comment lines (resolved config, seed), the
    column header and the rows; `save` replaces any earlier file whole.
    """

    HEADER = "metric,value,dataset,checkpoint,seed"

    def __init__(self, path, comments: list[str] | None = None):
        self.path = Path(path)
        self._lines = [f"# {line}\n" for line in comments or []] + [self.HEADER + "\n"]

    def append(self, metric: str, value: float, dataset: str, checkpoint: str, seed: int):
        value = float(value)
        if not np.isfinite(value):
            raise FormatError(f"metric {metric!r} is not finite: {value}")
        self._lines.append(f"{metric},{value!r},{dataset},{checkpoint},{seed}\n")

    def save(self) -> None:
        write_atomic(self.path, "".join(self._lines).encode("utf-8"))
