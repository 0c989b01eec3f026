"""Unpaired translation between the two embedding spaces.

A perceptron maps source-modality embeddings into the target space, trained
either adversarially against a real/fake discriminator or by minimizing the
squared maximum mean discrepancy, optionally through learned critic features
(kernel learning with weight clipping and an autoencoding penalty). Source
and target batches are drawn independently: nothing is paired.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .errors import DivergenceError
from .layers import DenseLayer, Module
from .optim import Adam, TrainingRun

logger = logging.getLogger(__name__)

BANDWIDTH_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass
class KernelSpec:
    """Mixture of RBF kernels: k(x, y) = sum_q exp(-||x-y||^2 / (2 sigma_q^2))."""

    bandwidths: tuple = field(default_factory=lambda: (1.0,))

    def __post_init__(self):
        self.bandwidths = tuple(float(b) for b in self.bandwidths)
        if not self.bandwidths:
            raise ValueError("a kernel needs at least one bandwidth")
        if not all(0.0 < b < np.inf for b in self.bandwidths):
            raise ValueError(f"kernel bandwidths must be positive and finite, got {self.bandwidths}")

    def gram(self, x: Tensor, y: Tensor) -> Tensor:
        """Differentiable Gram matrix between rows of x and rows of y."""
        return ad.rbf_mixture(ad.pairwise_sq_dists(x, y), self.bandwidths)


def _as_batch(x) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if t.data.ndim != 2:
        raise ShapeError(f"embedding batch must be 2-D, got {t.shape}")
    return t


def mmd2_weights(n: int, m: int, unbiased: bool) -> np.ndarray:
    """W with MMD^2 = sum(W * K) for K the Gram matrix of the pooled rows [x; y]
    of x (n rows) and y (m rows): -1/(nm) across the sets; within a set 1/n^2
    (V-statistic), or 1/(n(n-1)) off the diagonal and 0 on it (U-statistic)."""
    skip = int(unbiased)  # diagonal entries per row left out of a within-set mean
    if min(n, m) <= skip:
        raise ShapeError(f"mmd2 needs batches of at least {skip + 1}")
    w = np.full((n + m, n + m), -1.0 / (n * m))
    w[:n, :n] = 1.0 / (n * (n - skip))
    w[n:, n:] = 1.0 / (m * (m - skip))
    if unbiased:
        np.fill_diagonal(w, 0.0)
    return w


def _mmd2(x, y, kernel: KernelSpec, unbiased: bool) -> Tensor:
    x, y = _as_batch(x), _as_batch(y)
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"mmd2: dimension mismatch {x.shape} vs {y.shape}")
    w = mmd2_weights(x.shape[0], y.shape[0], unbiased)
    z = ad.concat([x, y])
    return ad.reduce("sum", ad.mul(kernel.gram(z, z), Tensor(w)))


def mmd2_biased(x, y, kernel: KernelSpec) -> Tensor:
    """V-statistic estimator of squared MMD; symmetric and never negative."""
    # mathematically >= 0; relu only absorbs float round-off near zero
    return ad.relu(_mmd2(x, y, kernel, unbiased=False))


def mmd2_unbiased(x, y, kernel: KernelSpec) -> Tensor:
    """U-statistic estimator: within-set means skip the diagonal; may be negative."""
    return _mmd2(x, y, kernel, unbiased=True)


def median_heuristic(x: np.ndarray, y: np.ndarray) -> float:
    """Base bandwidth: sigma0^2 = median pairwise squared distance / 2.

    Falls back to 1.0 (with a warning) when all pooled points coincide.
    """
    pooled = Tensor(np.concatenate([x, y]))
    if pooled.shape[0] < 2:
        raise ShapeError("median_heuristic needs at least 2 pooled points")
    d = ad.pairwise_sq_dists(pooled, pooled).data
    upper = d[np.triu_indices(pooled.shape[0], k=1)]
    if upper.max() == 0.0:
        logger.warning("median_heuristic: all pooled points identical; using sigma0 = 1")
        return 1.0
    return float(np.sqrt(np.median(upper) / 2.0))


def mixture_kernel(sigma0: float) -> KernelSpec:
    return KernelSpec(tuple(sigma0 * s for s in BANDWIDTH_SCALES))


class MapperGenerator(Module):
    """Two-hidden-layer perceptron from source space to target space."""

    def __init__(self, source_dim: int, target_dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.l1 = self._child("l1", DenseLayer(source_dim, hidden, rng))
        self.l2 = self._child("l2", DenseLayer(hidden, hidden, rng))
        self.l3 = self._child("l3", DenseLayer(hidden, target_dim, rng))

    def __call__(self, x: Tensor) -> Tensor:
        return self.l3(ad.relu(self.l2(ad.relu(self.l1(x)))))


class MapperDiscriminator(Module):
    def __init__(self, target_dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.l1 = self._child("l1", DenseLayer(target_dim, hidden, rng))
        self.l2 = self._child("l2", DenseLayer(hidden, hidden, rng))
        self.l3 = self._child("l3", DenseLayer(hidden, 1, rng))

    def __call__(self, x: Tensor) -> Tensor:
        h = ad.leaky_relu(self.l1(x), 0.2)
        h = ad.leaky_relu(self.l2(h), 0.2)
        return ad.sigmoid(ad.reshape(self.l3(h), (x.shape[0],)))


class MMDCritic(Module):
    """Feature encoder f and decoder f' for adversarial kernel learning.

    All parameters stay inside [-clip, clip]; the decoder supports the
    autoencoding penalty that keeps f from collapsing.
    """

    def __init__(self, target_dim: int, hidden: int, critic_dim: int, clip: float,
                 rng: np.random.Generator):
        super().__init__()
        self.clip = clip
        self.e1 = self._child("e1", DenseLayer(target_dim, hidden, rng))
        self.e2 = self._child("e2", DenseLayer(hidden, critic_dim, rng))
        self.d1 = self._child("d1", DenseLayer(critic_dim, hidden, rng))
        self.d2 = self._child("d2", DenseLayer(hidden, target_dim, rng))
        self.clamp()

    def encode(self, x: Tensor) -> Tensor:
        return self.e2(ad.leaky_relu(self.e1(x), 0.2))

    def decode(self, f: Tensor) -> Tensor:
        return self.d2(ad.leaky_relu(self.d1(f), 0.2))

    def clamp(self):
        for p in self.parameters():
            np.clip(p.data, -self.clip, self.clip, out=p.data)


def map_embedding(gen: MapperGenerator, e: np.ndarray) -> np.ndarray:
    """Deterministic mapping of one embedding or a batch into the target space."""
    e = np.asarray(e, dtype=np.float64)
    single = e.ndim == 1
    batch = e[None] if single else e
    if batch.shape[1] != gen.source_dim:
        raise ShapeError(f"mapper expects dimension {gen.source_dim}, got {batch.shape[1]}")
    with ad.no_grad():
        out = gen(Tensor(batch)).data.copy()
    if not np.isfinite(out).all():
        raise DivergenceError("the mapper maps to non-finite values; retrain it")
    return out[0] if single else out


@dataclass
class MapperConfig:
    kind: str = "mmd"
    hidden: int = 256
    batch: int = 64
    steps: int = 2000
    lr: float = 1e-4
    n_critic: int = 5
    clip: float = 0.1
    lambda_ae: float = 1.0
    critic_hidden: int = 64
    critic_dim: int = 32
    kernel_learning: bool = True


def _sample(rows: np.ndarray, batch: int, rng: np.random.Generator) -> np.ndarray:
    return rows[rng.integers(0, rows.shape[0], size=batch)]


def _check_sets(source: np.ndarray, target: np.ndarray, cfg: MapperConfig):
    if source.ndim != 2 or target.ndim != 2:
        raise ShapeError("embedding sets must be 2-D")
    if cfg.batch < 2:
        raise ShapeError("mapper batch size must be at least 2")


def train_gan_mapper(source: np.ndarray, target: np.ndarray, cfg: MapperConfig,
                     rng: np.random.Generator, log=None) -> MapperGenerator:
    """Alternating discriminator/generator updates with the cross-entropy GAN loss."""
    _check_sets(source, target, cfg)
    gen = MapperGenerator(source.shape[1], target.shape[1], cfg.hidden, rng)
    disc = MapperDiscriminator(target.shape[1], cfg.hidden, rng)
    g_opt = Adam(gen.parameters(), lr=cfg.lr)
    d_opt = Adam(disc.parameters(), lr=cfg.lr)
    run = TrainingRun(gen.named_parameters(), g_opt, log)
    one = Tensor(1.0)
    for step in range(cfg.steps):
        xb = Tensor(_sample(target, cfg.batch, rng))
        with ad.no_grad():
            fake = gen(Tensor(_sample(source, cfg.batch, rng)))
        d_loss = ad.neg(ad.add(ad.reduce("mean", ad.log(disc(xb))),
                               ad.reduce("mean", ad.log(ad.sub(one, disc(fake))))))
        d_value = run.minimize(d_opt, d_loss, f"gan mapper discriminator loss at step {step}")

        fake = gen(Tensor(_sample(source, cfg.batch, rng)))
        g_loss = ad.neg(ad.reduce("mean", ad.log(disc(fake))))
        g_value = run.minimize(g_opt, g_loss, f"gan mapper generator loss at step {step}")
        run.emit("d_loss", d_value)
        run.emit("g_loss", g_value)
    return gen


def _strided_sample(rows: np.ndarray, count: int) -> np.ndarray:
    take = min(count, rows.shape[0])
    idx = np.linspace(0, rows.shape[0] - 1, take).astype(int)
    return rows[idx]


def train_mmd_mapper(source: np.ndarray, target: np.ndarray, cfg: MapperConfig,
                     rng: np.random.Generator, log=None) -> MapperGenerator:
    """Minimize unbiased MMD^2, optionally through adversarially learned features.

    With kernel_learning, each generator step is preceded by n_critic critic
    ascents on MMD^2 minus the autoencoding penalty, with weights clipped
    after every update. Kernel bandwidths are fixed at start by the median
    heuristic in the initial feature space.
    """
    _check_sets(source, target, cfg)
    gen = MapperGenerator(source.shape[1], target.shape[1], cfg.hidden, rng)
    critic = MMDCritic(target.shape[1], cfg.critic_hidden, cfg.critic_dim, cfg.clip, rng) \
        if cfg.kernel_learning else None
    g_opt = Adam(gen.parameters(), lr=cfg.lr)
    c_opt = Adam(critic.parameters(), lr=cfg.lr) if critic else None
    run = TrainingRun(gen.named_parameters(), g_opt, log)

    def features(x: Tensor) -> Tensor:
        return critic.encode(x) if critic else x

    with ad.no_grad():
        probe_t = _strided_sample(target, 128)
        probe_s = gen(Tensor(_strided_sample(source, 128))).data
        fx = features(Tensor(probe_t)).data
        fy = features(Tensor(probe_s)).data
    sigma0 = median_heuristic(fx, fy)
    if not np.isfinite(sigma0):
        raise DivergenceError("non-finite embeddings in the mmd mapper bandwidth probe",
                              run.last_good)
    kernel = mixture_kernel(sigma0)

    for step in range(cfg.steps):
        if critic and cfg.n_critic > 0:
            # the generator is fixed for the round: map its source batches in one forward
            pairs = [(_sample(target, cfg.batch, rng), _sample(source, cfg.batch, rng))
                     for _ in range(cfg.n_critic)]
            with ad.no_grad():
                fakes = gen(Tensor(np.concatenate([s for _, s in pairs]))).data
            for i, (xt, _) in enumerate(pairs):
                xb = Tensor(xt)
                fx = critic.encode(xb)
                fy = critic.encode(Tensor(fakes[i * cfg.batch:(i + 1) * cfg.batch]))
                mmd = mmd2_unbiased(fx, fy, kernel)
                diff = ad.sub(critic.decode(fx), xb)
                rec = ad.reduce("mean", ad.mul(diff, diff))
                critic_obj = ad.neg(ad.sub(mmd, ad.scale(rec, cfg.lambda_ae)))
                run.minimize(c_opt, critic_obj, f"mmd mapper critic objective at step {step}")
                critic.clamp()

        xb = Tensor(_sample(target, cfg.batch, rng))
        fake = gen(Tensor(_sample(source, cfg.batch, rng)))
        loss = mmd2_unbiased(features(xb), features(fake), kernel)
        value = run.minimize(g_opt, loss, f"mmd mapper loss at step {step}")
        run.emit("mmd2", value)
    return gen
