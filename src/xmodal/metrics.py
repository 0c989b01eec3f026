"""Evaluation protocol: cosine class accuracy, BLEU, ROUGE-L, permutation test.

All metrics are pure functions. The kernel two-sample test reuses a pooled
Gram matrix across permutations, so only index bookkeeping varies per draw.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from .autodiff import ShapeError, Tensor
from .data import LabeledEmbeddingSet
from .errors import FormatError
from .mappers import KernelSpec

logger = logging.getLogger(__name__)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
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


def _mmd2_unbiased_gram(k: np.ndarray, ix: np.ndarray, iy: np.ndarray) -> float:
    kxx = k[np.ix_(ix, ix)]
    kyy = k[np.ix_(iy, iy)]
    kxy = k[np.ix_(ix, iy)]
    n, m = len(ix), len(iy)
    within_x = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
    within_y = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    return float(within_x + within_y - 2.0 * kxy.mean())


def two_sample_test(x: np.ndarray, y: np.ndarray, kernel: KernelSpec,
                    permutations: int = 500, rng: np.random.Generator | None = None
                    ) -> tuple[float, float]:
    """Permutation test with the unbiased MMD^2 statistic.

    p = (1 + #{permuted >= observed}) / (permutations + 1).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(f"two_sample_test: incompatible shapes {x.shape} and {y.shape}")
    n, m = x.shape[0], y.shape[0]
    if n < 2 or m < 2:
        raise ShapeError("two_sample_test needs at least 2 samples per batch")
    if rng is None:
        rng = np.random.default_rng()
    pooled = np.concatenate([x, y])
    gram = kernel.gram(Tensor(pooled), Tensor(pooled)).data
    observed = _mmd2_unbiased_gram(gram, np.arange(n), np.arange(n, n + m))
    exceed = 0
    for _ in range(permutations):
        perm = rng.permutation(n + m)
        stat = _mmd2_unbiased_gram(gram, perm[:n], perm[n:])
        if stat >= observed:
            exceed += 1
    return observed, (exceed + 1) / (permutations + 1)


# -- report persistence -------------------------------------------------------


class MetricReport:
    """Append-only CSV of named scalar metrics with provenance.

    New files start with '#'-prefixed comment lines (resolved config, seed)
    and the column header; appends never rewrite existing rows.
    """

    HEADER = "metric,value,dataset,checkpoint,seed"

    def __init__(self, path, comments: list[str] | None = None):
        self.path = Path(path)
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w", encoding="utf-8", newline="\n") as f:
                for line in comments or []:
                    f.write(f"# {line}\n")
                f.write(self.HEADER + "\n")

    def append(self, metric: str, value: float, dataset: str, checkpoint: str, seed: int):
        value = float(value)
        if not np.isfinite(value):
            raise FormatError(f"metric {metric!r} is not finite: {value}")
        with open(self.path, "a", encoding="utf-8", newline="\n") as f:
            f.write(f"{metric},{value!r},{dataset},{checkpoint},{seed}\n")


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
