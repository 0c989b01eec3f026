"""Adversarial image autoencoder with a multi-branch generator stack.

A strided convolutional encoder maps an image to an embedding; conditional
augmentation reparameterizes it into a smooth conditioning variable (with a
closed-form KL penalty toward the standard normal); branch networks emit
images at doubling resolutions, each judged by a discriminator with an
unconditional and a conditional head. An L1 reconstruction term on the top
branch (weight configurable, 0 disables) anchors the autoencoder property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .errors import DivergenceError
from .layers import Conv2dLayer, DenseLayer, Module
from .optim import Adam, TrainingRun


@dataclass
class ImageAEConfig:
    branches: int = 3
    base_res: int = 8
    d_img: int = 64
    d_c: int = 16
    d_z: int = 16
    gen_channels: int = 32
    disc_channels: int = 16
    batch: int = 16
    epochs: int = 60
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    lambda_kl: float = 1.0
    lambda_rec: float = 1.0

    @property
    def top_res(self) -> int:
        return self.base_res * (2 ** (self.branches - 1))

    @property
    def resolutions(self) -> list[int]:
        return [self.base_res * (2 ** i) for i in range(self.branches)]


class ImageEncoder(Module):
    """Four stride-2 conv blocks and a dense head; replaces a pretrained backbone."""

    def __init__(self, cfg: ImageAEConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        res = cfg.top_res
        if res % 16 != 0:
            raise ShapeError(f"encoder needs top resolution divisible by 16, got {res}")
        chans = [3, 16, 32, 64, 64]
        self.blocks = [
            self._child(f"conv{i}", Conv2dLayer(chans[i], chans[i + 1], 4, 2, 1, rng))
            for i in range(4)
        ]
        feat = chans[-1] * (res // 16) ** 2
        self.head = self._child("head", DenseLayer(feat, cfg.d_img, rng))

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 4 or x.shape[1:] != (3, self.cfg.top_res, self.cfg.top_res):
            raise ShapeError(f"encoder expects (N, 3, {self.cfg.top_res}, {self.cfg.top_res}), "
                             f"got {x.shape}")
        h = x
        for block in self.blocks:
            h = ad.relu(block(h))
        n = h.shape[0]
        return self.head(ad.reshape(h, (n, h.size // n)))


class CondAugment(Module):
    """Reparameterized Gaussian around the image embedding.

    The projection outputs mean and log-variance, so sigma = exp(logvar/2) stays positive
    without constraints; the training loss and `generate_images` check their finiteness.
    """

    def __init__(self, cfg: ImageAEConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.proj = self._child("proj", DenseLayer(cfg.d_img, 2 * cfg.d_c, rng))

    def moments(self, psi: Tensor) -> tuple[Tensor, Tensor]:
        both = self.proj(psi)
        mu = ad.narrow(both, 1, 0, self.cfg.d_c)
        logvar = ad.narrow(both, 1, self.cfg.d_c, self.cfg.d_c)
        return mu, logvar

    def __call__(self, psi: Tensor, rng: np.random.Generator,
                 sample: bool = True) -> tuple[Tensor, Tensor]:
        """Return (c_hat, kl). With sample=False, c_hat = mu (inference mode)."""
        mu, logvar = self.moments(psi)
        kl = kl_standard_normal(mu, logvar)
        if sample:
            eps = Tensor(rng.standard_normal(mu.shape))
            c_hat = ad.add(mu, ad.mul(ad.exp(ad.scale(logvar, 0.5)), eps))
        else:
            c_hat = mu
        return c_hat, kl


def kl_standard_normal(mu: Tensor, logvar: Tensor) -> Tensor:
    """Batch-mean KL( N(mu, exp(logvar)) || N(0, I) ), in closed form:
    0.5 * sum_d (mu^2 + exp(logvar) - 1 - logvar)."""
    per_elem = ad.sub(ad.add(ad.mul(mu, mu), ad.exp(logvar)), ad.add(Tensor(1.0), logvar))
    batch = mu.shape[0]
    return ad.scale(ad.reduce("sum", per_elem), 0.5 / batch)


class GeneratorStack(Module):
    """Branch networks and image heads: h_0 = f_0(c, z); h_i = f_i(h_{i-1}, c);
    each branch emits a tanh image, resolution doubling per branch.

    Channels halve per branch. Each join `join{i}` doubles h_{i-1} by
    nearest-neighbour upsampling and applies a 3x3 conv, as one
    `ad.conv2d(..., upsample=2)` node that never builds the doubled tensor:
    its tap table folds the 3x3 kernels into a 2x2 window per output phase.
    Each image head `to_img{i}`, a 3x3 conv to 3 channels, takes its taps on
    the output side: 27 GEMM rows per padded pixel where im2col copies 9*C_in.
    The conditioning enters each branch through a dense projection broadcast
    over space (equivalent to concatenating a tiled c and convolving 1x1,
    but without widening the 3x3 im2col).
    """

    def __init__(self, cfg: ImageAEConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.channels = [max(cfg.gen_channels // (2 ** i), 8) for i in range(cfg.branches)]
        self.fc0 = self._child("fc0", DenseLayer(cfg.d_c + cfg.d_z,
                                                 self.channels[0] * cfg.base_res ** 2, rng))
        self.joins = []
        self.cond_projs = []
        self.heads = []
        for i in range(cfg.branches):
            if i > 0:
                self.joins.append(self._child(
                    f"join{i}", Conv2dLayer(self.channels[i - 1], self.channels[i], 3, 1, 1, rng,
                                            upsample=2)))
                self.cond_projs.append(self._child(
                    f"cond_proj{i}", DenseLayer(cfg.d_c, self.channels[i], rng)))
            self.heads.append(self._child(f"to_img{i}", Conv2dLayer(self.channels[i], 3, 3, 1, 1, rng)))

    def __call__(self, c_hat: Tensor, z: Tensor) -> list[Tensor]:
        cfg = self.cfg
        if c_hat.data.ndim != 2 or c_hat.shape[1] != cfg.d_c:
            raise ShapeError(f"generator expects (N, {cfg.d_c}) conditioning, got {c_hat.shape}")
        if z.shape != (c_hat.shape[0], cfg.d_z):
            raise ShapeError(f"generator expects (N, {cfg.d_z}) noise, got {z.shape}")
        n = c_hat.shape[0]
        h = ad.relu(self.fc0(ad.concat([c_hat, z], axis=1)))
        h = ad.reshape(h, (n, self.channels[0], cfg.base_res, cfg.base_res))
        images = [ad.tanh(self.heads[0](h))]
        for i in range(1, cfg.branches):
            res = cfg.base_res * 2 ** i
            spatial = self.joins[i - 1](h)
            conditioned = ad.add(spatial, ad.tile_hw(self.cond_projs[i - 1](c_hat), res, res))
            h = ad.relu(conditioned)
            images.append(ad.tanh(self.heads[i](h)))
        return images


class BranchDiscriminator(Module):
    """Shared conv trunk with an unconditional and a conditional logit head:
    D(x) = sigmoid(logit), and the losses take log D through `ad.log_sigmoid`."""

    def __init__(self, cfg: ImageAEConfig, resolution: int, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.resolution = resolution
        dch = cfg.disc_channels
        self.trunk_layers = []
        ch, res = 3, resolution
        i = 0
        while res > 4:
            out_ch = dch * (2 ** i)
            self.trunk_layers.append(self._child(f"trunk{i}", Conv2dLayer(ch, out_ch, 4, 2, 1, rng)))
            ch, res, i = out_ch, res // 2, i + 1
        self.feat_ch = ch
        self.feat_res = res
        flat = ch * res * res
        self.uncond = self._child("uncond", DenseLayer(flat, 1, rng))
        self.cond_mix = self._child("cond_mix", Conv2dLayer(ch, ch, 1, 1, 0, rng))
        self.cond_proj = self._child("cond_proj", DenseLayer(cfg.d_c, ch, rng))
        self.cond = self._child("cond", DenseLayer(flat, 1, rng))

    def trunk(self, x: Tensor) -> Tensor:
        if x.data.ndim != 4 or x.shape[1:] != (3, self.resolution, self.resolution):
            raise ShapeError(f"discriminator expects (N, 3, {self.resolution}, {self.resolution}), "
                             f"got {x.shape}")
        h = x
        for layer in self.trunk_layers:
            h = ad.leaky_relu(layer(h), 0.2)
        return h

    def _flat(self, h: Tensor) -> Tensor:
        n = h.shape[0]
        return ad.reshape(h, (n, h.size // n))

    def uncond_score(self, feat: Tensor) -> Tensor:
        return ad.reshape(self.uncond(self._flat(feat)), (feat.shape[0],))

    def cond_score(self, feat: Tensor, c: Tensor) -> Tensor:
        tiled = ad.tile_hw(self.cond_proj(c), self.feat_res, self.feat_res)
        mixed = ad.leaky_relu(ad.add(self.cond_mix(feat), tiled), 0.2)
        return ad.reshape(self.cond(self._flat(mixed)), (feat.shape[0],))

    def scores(self, x: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        feat = self.trunk(x)
        return self.uncond_score(feat), self.cond_score(feat, c)


def discriminator_loss(disc: BranchDiscriminator, real: Tensor, fake: Tensor, c: Tensor) -> Tensor:
    """-E[log D(x)] - E[log(1-D(u))] - E[log D(x,c)] - E[log(1-D(u,c))].

    Real and fake batches share one trunk pass. As log(1 - sigmoid(l)) =
    log sigmoid(-l), each term is a mean of log sigmoid(sign * logit) with
    sign +1 on real rows and -1 on fake rows, so the loss is -4 times the
    mean over both heads' 2n signed logits.
    """
    if real.shape != fake.shape:
        raise ShapeError(f"real/fake shapes differ: {real.shape} vs {fake.shape}")
    n = real.shape[0]
    feat = disc.trunk(ad.concat([real, fake], axis=0))
    logits = ad.concat([disc.uncond_score(feat), disc.cond_score(feat, ad.concat([c, c], axis=0))])
    sign = Tensor(np.tile(np.repeat([1.0, -1.0], n), 2))
    return ad.scale(ad.reduce("mean", ad.log_sigmoid(ad.mul(logits, sign))), -4.0)


def generator_adversarial_loss(discs: list[BranchDiscriminator], fakes: list[Tensor],
                               c: Tensor) -> Tensor:
    """Sum over branches of -E[log D_i(u_i)] - E[log D_i(u_i, c_i)] (non-saturating)."""
    total = None
    for disc, fake in zip(discs, fakes):
        branch = ad.scale(ad.reduce("mean", ad.log_sigmoid(ad.concat(disc.scores(fake, c)))), -2.0)
        total = branch if total is None else ad.add(total, branch)
    return total


def l1_reconstruction(fake: Tensor, real: Tensor) -> Tensor:
    return ad.reduce("mean", ad.absolute(ad.sub(fake, real)))


class ImageAutoencoder(Module):
    def __init__(self, cfg: ImageAEConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.encoder = self._child("encoder", ImageEncoder(cfg, rng))
        self.augment = self._child("augment", CondAugment(cfg, rng))
        self.generator = self._child("generator", GeneratorStack(cfg, rng))


def encode_image(model: ImageAutoencoder, image: np.ndarray) -> np.ndarray:
    """Deterministic embedding of one (3, S, S) image with values in [-1, 1]."""
    return encode_image_batch(model, np.asarray(image, dtype=np.float64)[None])[0]


def encode_image_batch(model: ImageAutoencoder, images: np.ndarray) -> np.ndarray:
    """Embeddings of an (N, 3, S, S) batch; a non-finite one raises DivergenceError."""
    with ad.no_grad():
        out = model.encoder(Tensor(images)).data.copy()
    if not np.isfinite(out).all():
        raise DivergenceError("the image encoder maps to non-finite values; retrain it")
    return out


def generate_images(model: ImageAutoencoder, psi: np.ndarray, rng: np.random.Generator,
                    sample_augment: bool = False) -> list[np.ndarray]:
    """Embedding -> branch images. With sample_augment=False, c_hat = mu and only the
    auxiliary noise z is drawn. A non-finite c_hat or image raises DivergenceError."""
    psi = np.atleast_2d(np.asarray(psi, dtype=np.float64))
    with ad.no_grad():
        c_hat, _ = model.augment(Tensor(psi), rng, sample=sample_augment)
        z = Tensor(rng.standard_normal((psi.shape[0], model.cfg.d_z)))
        images = [u.data.copy() for u in model.generator(c_hat, z)]
    if not all(np.isfinite(a).all() for a in [c_hat.data, *images]):
        raise DivergenceError("the image generator maps to non-finite values; retrain it")
    return images


def downsample_to(images: np.ndarray, resolution: int) -> np.ndarray:
    """Average-pool (N, 3, S, S) down to the requested square resolution."""
    out = images
    while out.shape[-1] > resolution:
        out = ad.avgpool2x(Tensor(out)).data
    return out


def train_image_autoencoder(model: ImageAutoencoder, images: np.ndarray,
                            rng: np.random.Generator, log=None) -> None:
    """Alternating per-branch discriminator updates and one generator-side update.

    The discriminators are built from `rng` here and never leave this call.
    `images` is (N, 3, top_res, top_res) in [-1, 1]; metric rows go to `log`.
    A non-finite loss raises DivergenceError (last_good set); a step forms no adversary gradient.
    """
    cfg = model.cfg
    n_total = images.shape[0]
    if images.ndim != 4 or images.shape[1:] != (3, cfg.top_res, cfg.top_res):
        raise ShapeError(f"training images must be (N, 3, {cfg.top_res}, {cfg.top_res}), "
                         f"got {images.shape}")
    reals_by_branch = [downsample_to(images, r) for r in cfg.resolutions]

    discs = [BranchDiscriminator(cfg, r, rng) for r in cfg.resolutions]
    gen_opt = Adam(model.parameters(), lr=cfg.lr, betas=(cfg.beta1, cfg.beta2))
    disc_opts = [Adam(d.parameters(), lr=cfg.lr, betas=(cfg.beta1, cfg.beta2)) for d in discs]

    run = TrainingRun(model.named_parameters(), gen_opt, log)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_total)
        for start in range(0, n_total - cfg.batch + 1, cfg.batch):
            idx = order[start:start + cfg.batch]
            x = Tensor(images[idx])
            # one encoder forward for both phases: the discriminator steps change
            # no encoder weight and their backward never reaches psi
            psi = model.encoder(x)

            # discriminator phase: fakes and conditioning detached
            with ad.no_grad():
                c_hat, _ = model.augment(psi, rng)
                z = Tensor(rng.standard_normal((len(idx), cfg.d_z)))
                fakes = model.generator(c_hat, z)
            for i, (disc, opt) in enumerate(zip(discs, disc_opts)):
                real_i = Tensor(reals_by_branch[i][idx])
                d_loss = discriminator_loss(disc, real_i, fakes[i], c_hat)
                run.emit(f"d_loss_{i}",
                         run.minimize(opt, d_loss, f"image autoencoder discriminator {i} loss"))

            # generator phase: a fresh forward from psi; its step differentiates
            # the model only, so backward forms no discriminator gradient
            c_hat, kl = model.augment(psi, rng)
            z = Tensor(rng.standard_normal((len(idx), cfg.d_z)))
            fakes = model.generator(c_hat, z)
            g_adv = generator_adversarial_loss(discs, fakes, c_hat)
            rec = l1_reconstruction(fakes[-1], x)
            total = ad.add(g_adv, ad.add(ad.scale(kl, cfg.lambda_kl),
                                         ad.scale(rec, cfg.lambda_rec)))
            g_total = run.minimize(gen_opt, total, "image autoencoder generator loss")
            run.emit("g_adv", g_adv.item())
            run.emit("kl", kl.item())
            run.emit("l1_rec", rec.item())
            run.emit("g_total", g_total)
