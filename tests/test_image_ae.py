"""Image autoencoder: conditional augmentation, generator stack, losses."""

import hashlib

import numpy as np
import pytest

from xmodal import autodiff as ad
from xmodal.autodiff import ShapeError, Tensor, backward
from xmodal.image_ae import (BranchDiscriminator, CondAugment, ImageAEConfig, ImageAutoencoder,
                             discriminator_loss, downsample_to, encode_image,
                             generate_images, generator_adversarial_loss, kl_standard_normal,
                             l1_reconstruction, train_image_autoencoder)

from helpers import gradient_check, upsample_conv_oracle

SMALL = ImageAEConfig(branches=3, base_res=8, d_img=16, d_c=8, d_z=8,
                      gen_channels=16, disc_channels=8, batch=8, epochs=1)


def small_model(seed=0, cfg=SMALL):
    return ImageAutoencoder(cfg, np.random.default_rng(seed))


def branch_discriminators(rng, cfg=SMALL):
    return [BranchDiscriminator(cfg, r, rng) for r in cfg.resolutions]


def zero_heads(disc: BranchDiscriminator):
    disc.uncond.weight.data[...] = 0.0
    disc.uncond.bias.data[...] = 0.0
    disc.cond.weight.data[...] = 0.0
    disc.cond.bias.data[...] = 0.0


class TestKL:
    def test_zero_at_prior(self):
        kl = kl_standard_normal(Tensor(np.zeros((4, 8))), Tensor(np.zeros((4, 8))))
        assert kl.item() == 0.0

    def test_unit_mean_closed_form(self):
        d = 8
        kl = kl_standard_normal(Tensor(np.ones((3, d))), Tensor(np.zeros((3, d))))
        assert kl.item() == pytest.approx(0.5 * d, abs=1e-12)

    def test_nonnegative_and_zero_only_at_prior(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mu = rng.normal(size=(2, 5))
            logvar = rng.normal(size=(2, 5))
            value = kl_standard_normal(Tensor(mu), Tensor(logvar)).item()
            assert value >= 0.0
            if abs(value) < 1e-12:
                assert np.allclose(mu, 0) and np.allclose(logvar, 0)

    def test_monte_carlo_oracle(self):
        # closed form vs sample estimate of E[log q - log p] under q
        rng = np.random.default_rng(1)
        mu = rng.normal(size=5)
        logvar = rng.normal(size=5) * 0.5
        closed = kl_standard_normal(Tensor(mu[None]), Tensor(logvar[None])).item()
        n = 100_000
        sigma = np.exp(0.5 * logvar)
        x = mu + sigma * rng.standard_normal((n, 5))
        log_q = -0.5 * np.sum((x - mu) ** 2 / sigma ** 2 + logvar + np.log(2 * np.pi), axis=1)
        log_p = -0.5 * np.sum(x ** 2 + np.log(2 * np.pi), axis=1)
        diffs = log_q - log_p
        stderr = diffs.std(ddof=1) / np.sqrt(n)
        assert abs(diffs.mean() - closed) <= 3.0 * stderr


class TestCondAugment:
    def test_reparameterization(self):
        cfg = SMALL
        aug = CondAugment(cfg, np.random.default_rng(2))
        psi = Tensor(np.random.default_rng(3).normal(size=(4, cfg.d_img)))
        mu, logvar = aug.moments(psi)
        c_hat, _ = aug(psi, np.random.default_rng(7))
        eps = (c_hat.data - mu.data) / np.exp(0.5 * logvar.data)
        want = np.random.default_rng(7).standard_normal(mu.shape)
        np.testing.assert_allclose(eps, want, atol=1e-10)

    def test_inference_mode_uses_mean(self):
        cfg = SMALL
        aug = CondAugment(cfg, np.random.default_rng(4))
        psi = Tensor(np.random.default_rng(5).normal(size=(2, cfg.d_img)))
        mu, _ = aug.moments(psi)
        c_hat, _ = aug(psi, None, sample=False)
        np.testing.assert_array_equal(c_hat.data, mu.data)

    @pytest.mark.parametrize("sample", [False, True])
    def test_non_finite_moments_make_generate_images_raise(self, sample):
        from xmodal.errors import DivergenceError
        model = small_model(6)
        model.augment.proj.weight.data[...] = np.nan
        with pytest.raises(DivergenceError, match="generator"):
            generate_images(model, np.ones(SMALL.d_img), np.random.default_rng(0),
                            sample_augment=sample)


def test_model_holds_only_what_inference_runs():
    # the discriminators belong to train_image_autoencoder, not to the checkpoint
    names = [name for name, _ in small_model(0).named_parameters()]
    assert {name.split(".")[0] for name in names} == {"encoder", "augment", "generator"}


class TestEncoder:
    def test_deterministic_embedding(self):
        model = small_model(1)
        img = np.random.default_rng(2).uniform(-1, 1, size=(3, 32, 32))
        assert np.array_equal(encode_image(model, img), encode_image(model, img))

    def test_embedding_dimension(self):
        model = small_model(3)
        img = np.random.default_rng(4).uniform(-1, 1, size=(3, 32, 32))
        assert encode_image(model, img).shape == (SMALL.d_img,)

    def test_single_pixel_difference_changes_embedding(self):
        model = small_model(5)
        rng = np.random.default_rng(6)
        img = rng.uniform(-1, 1, size=(3, 32, 32))
        other = img.copy()
        other[0, 16, 16] += 0.5
        assert not np.array_equal(encode_image(model, img), encode_image(model, other))

    def test_wrong_resolution_rejected(self):
        model = small_model(7)
        with pytest.raises(ShapeError):
            encode_image(model, np.zeros((3, 16, 16)))


class TestGeneratorStack:
    def test_resolutions_double(self):
        model = small_model(8)
        rng = np.random.default_rng(9)
        c = Tensor(rng.normal(size=(2, SMALL.d_c)))
        z = Tensor(rng.normal(size=(2, SMALL.d_z)))
        images = model.generator(c, z)
        assert [u.shape for u in images] == [(2, 3, 8, 8), (2, 3, 16, 16), (2, 3, 32, 32)]
        for u in images:
            assert np.all(np.abs(u.data) < 1.0)  # tanh range

    def test_resolution_doubling_other_branch_counts(self):
        from xmodal.image_ae import GeneratorStack
        for branches in (1, 2, 4):
            cfg = ImageAEConfig(branches=branches, base_res=8, d_img=16, d_c=8, d_z=8,
                                gen_channels=16, disc_channels=8)
            stack = GeneratorStack(cfg, np.random.default_rng(10))
            c = Tensor(np.zeros((1, 8)))
            z = Tensor(np.zeros((1, 8)))
            sizes = [u.shape[-1] for u in stack(c, z)]
            assert sizes == [8 * 2 ** i for i in range(branches)]

    def test_deterministic_given_inputs(self):
        model = small_model(11)
        rng = np.random.default_rng(12)
        c = Tensor(rng.normal(size=(1, SMALL.d_c)))
        z = Tensor(rng.normal(size=(1, SMALL.d_z)))
        a = model.generator(c, z)
        b = model.generator(c, z)
        for u, v in zip(a, b):
            assert np.array_equal(u.data, v.data)

    def test_noise_changes_output(self):
        model = small_model(13)
        rng = np.random.default_rng(14)
        c = Tensor(rng.normal(size=(1, SMALL.d_c)))
        z1 = Tensor(rng.normal(size=(1, SMALL.d_z)))
        z2 = Tensor(rng.normal(size=(1, SMALL.d_z)))
        a = model.generator(c, z1)
        b = model.generator(c, z2)
        assert not np.array_equal(a[-1].data, b[-1].data)

    def test_full_inference_pipeline_deterministic(self):
        model = small_model(15)
        img = np.random.default_rng(16).uniform(-1, 1, size=(3, 32, 32))
        psi = encode_image(model, img)
        a = generate_images(model, psi, np.random.default_rng(5))
        b = generate_images(model, psi, np.random.default_rng(5))
        for u, v in zip(a, b):
            assert np.array_equal(u, v)


    @pytest.mark.parametrize("batch", [16, 1])
    @pytest.mark.parametrize("layers", ["joins", "heads"])
    def test_generator_convs_match_the_loop_oracle(self, layers, batch, monkeypatch):
        # the default generator, run once through conv2d's tap tables and once
        # with the joins (upsample 2) or the heads through np.repeat upsampling
        # and the direct-loop conv oracle
        cfg = ImageAEConfig()
        model = ImageAutoencoder(cfg, np.random.default_rng(17))
        rng = np.random.default_rng(18)
        c = Tensor(rng.normal(size=(batch, cfg.d_c)))
        z = Tensor(rng.normal(size=(batch, cfg.d_z)))
        images = model.generator(c, z)
        conv2d = ad.conv2d

        def oracle_for_some(x, k, stride=1, padding=0, upsample=1, bias=None):
            if (upsample > 1) != (layers == "joins"):
                return conv2d(x, k, stride, padding, upsample, bias)
            out = upsample_conv_oracle(x.data, k.data, upsample, stride, padding)
            return Tensor(out + bias.data[:, None, None])

        monkeypatch.setattr(ad, "conv2d", oracle_for_some)
        for got, want in zip(images, model.generator(c, z), strict=True):
            np.testing.assert_allclose(got.data, want.data, atol=1e-12, rtol=0)


def test_parameter_names_shapes_and_initial_values_pinned():
    # checkpoints written before the joins became one op keep loading: same
    # names, shapes and draw order
    model = ImageAutoencoder(ImageAEConfig(), np.random.default_rng(0))
    shapes = {name: p.shape for name, p in model.named_parameters()}
    assert shapes["generator.join1.kernels"] == (16, 32, 3, 3)
    assert shapes["generator.join1.bias"] == (16,)
    assert shapes["generator.join2.kernels"] == (8, 16, 3, 3)
    assert shapes["generator.join2.bias"] == (8,)
    assert list(shapes) == [
        f"encoder.conv{i}.{p}" for i in range(4) for p in ("kernels", "bias")] + [
        "encoder.head.weight", "encoder.head.bias", "augment.proj.weight", "augment.proj.bias",
        "generator.fc0.weight", "generator.fc0.bias", "generator.to_img0.kernels",
        "generator.to_img0.bias"] + [
        f"generator.{layer}{i}.{p}" for i in (1, 2)
        for layer, params in (("join", ("kernels", "bias")), ("cond_proj", ("weight", "bias")),
                              ("to_img", ("kernels", "bias")))
        for p in params]
    digest = hashlib.sha256()
    for name, p in model.named_parameters():
        digest.update(name.encode())
        digest.update(p.data.tobytes())
    assert digest.hexdigest() == "6e4054e3cfefa1df94fa9be054fa72b17829b07dcff11636cbf77a214ecfe658"


def test_saved_checkpoint_loads_into_a_fresh_model(tmp_path):
    from xmodal.checkpoint import load_into, save_module
    cfg = ImageAEConfig()
    model = ImageAutoencoder(cfg, np.random.default_rng(19))
    save_module(model, tmp_path / "image_ae.ckpt")
    fresh = ImageAutoencoder(cfg, np.random.default_rng(20))
    load_into(fresh, tmp_path / "image_ae.ckpt")
    for (name, p), (fresh_name, q) in zip(model.named_parameters(), fresh.named_parameters()):
        assert name == fresh_name
        np.testing.assert_array_equal(p.data, q.data)
    psi = np.random.default_rng(21).normal(size=cfg.d_img)
    for u, v in zip(generate_images(model, psi, np.random.default_rng(22)),
                    generate_images(fresh, psi, np.random.default_rng(22))):
        np.testing.assert_array_equal(u, v)


class _StubDisc:
    """Duck-typed discriminator with constant head logits that record gradients."""

    def __init__(self, real_u, fake_u, real_c, fake_c, n):
        self.logits = [Tensor(np.repeat([real, fake], n), requires_grad=True)
                       for real, fake in ((real_u, fake_u), (real_c, fake_c))]

    def trunk(self, x):
        return x

    def uncond_score(self, feat):
        return self.logits[0]

    def cond_score(self, feat, c):
        return self.logits[1]


def log_sigmoid_oracle(logits):
    return -np.logaddexp(0.0, -logits)


class TestLosses:
    def test_discriminator_loss_at_half(self):
        # zeroed head layers output exactly 0.5 for any input
        disc = BranchDiscriminator(SMALL, 8, np.random.default_rng(17))
        zero_heads(disc)
        rng = np.random.default_rng(18)
        real = Tensor(rng.uniform(-1, 1, size=(4, 3, 8, 8)))
        fake = Tensor(rng.uniform(-1, 1, size=(4, 3, 8, 8)))
        c = Tensor(rng.normal(size=(4, SMALL.d_c)))
        loss = discriminator_loss(disc, real, fake, c)
        assert loss.item() == pytest.approx(4.0 * np.log(2.0), abs=1e-9)

    def test_discriminator_loss_perfect_limit(self):
        # saturated heads: the loss is exactly 0 and the gradient finite (and 0)
        stub = _StubDisc(1000.0, -1000.0, 1000.0, -1000.0, n=4)
        dummy = Tensor(np.zeros((4, 1)))
        loss = discriminator_loss(stub, dummy, Tensor(np.zeros((4, 1))), dummy)
        assert loss.item() == 0.0
        backward(loss)
        for logits in stub.logits:
            assert np.all(np.isfinite(logits.grad))

    def test_discriminator_gradient_at_a_confidently_wrong_head(self):
        # real rows scored -50, fakes +50: d loss / d logit = -(sign / n) * sigmoid(-sign * logit),
        # so -1/n on real rows and +1/n on fake ones; a log clamped at 1e-12 over a
        # sigmoid head gave about -2e-10/n
        n = 4
        stub = _StubDisc(-50.0, 50.0, 0.0, 0.0, n=n)
        dummy = Tensor(np.zeros((n, 1)))
        backward(discriminator_loss(stub, dummy, Tensor(np.zeros((n, 1))), dummy))
        np.testing.assert_allclose(stub.logits[0].grad * n, np.repeat([-1.0, 1.0], n),
                                   rtol=0, atol=1e-12)

    def test_discriminator_loss_vs_scalar_oracle(self):
        disc = BranchDiscriminator(SMALL, 16, np.random.default_rng(19))
        rng = np.random.default_rng(20)
        real = Tensor(rng.uniform(-1, 1, size=(3, 3, 16, 16)))
        fake = Tensor(rng.uniform(-1, 1, size=(3, 3, 16, 16)))
        c = Tensor(rng.normal(size=(3, SMALL.d_c)))
        loss = discriminator_loss(disc, real, fake, c).item()
        with ad.no_grad():
            ru, rc = disc.scores(real, c)
            fu, fc = disc.scores(fake, c)
        want = -(np.mean(log_sigmoid_oracle(ru.data)) + np.mean(log_sigmoid_oracle(-fu.data))
                 + np.mean(log_sigmoid_oracle(rc.data)) + np.mean(log_sigmoid_oracle(-fc.data)))
        assert loss == pytest.approx(want, abs=1e-12)

    def test_generator_loss_at_half_single_branch(self):
        disc = BranchDiscriminator(SMALL, 8, np.random.default_rng(21))
        zero_heads(disc)
        rng = np.random.default_rng(22)
        fake = Tensor(rng.uniform(-1, 1, size=(4, 3, 8, 8)))
        c = Tensor(rng.normal(size=(4, SMALL.d_c)))
        loss = generator_adversarial_loss([disc], [fake], c)
        assert loss.item() == pytest.approx(2.0 * np.log(2.0), abs=1e-9)

    def test_generator_loss_sums_over_three_branches(self):
        discs = branch_discriminators(np.random.default_rng(23))
        rng = np.random.default_rng(24)
        for disc in discs:
            zero_heads(disc)
        fakes = [Tensor(rng.uniform(-1, 1, size=(4, 3, r, r))) for r in (8, 16, 32)]
        c = Tensor(rng.normal(size=(4, SMALL.d_c)))
        loss = generator_adversarial_loss(discs, fakes, c)
        assert loss.item() == pytest.approx(6.0 * np.log(2.0), abs=1e-9)

    def test_branch_additivity(self):
        # Eq.-style additivity: the stacked loss equals the sum of per-branch losses
        discs = branch_discriminators(np.random.default_rng(25))
        rng = np.random.default_rng(26)
        fakes = [Tensor(rng.uniform(-1, 1, size=(4, 3, r, r))) for r in (8, 16, 32)]
        c = Tensor(rng.normal(size=(4, SMALL.d_c)))
        total = generator_adversarial_loss(discs, fakes, c).item()
        parts = sum(generator_adversarial_loss([d], [f], c).item() for d, f in zip(discs, fakes))
        assert total == pytest.approx(parts, abs=1e-12)

    def test_generator_gradient_vs_finite_differences(self):
        cfg = ImageAEConfig(branches=2, base_res=8, d_img=8, d_c=4, d_z=4,
                            gen_channels=8, disc_channels=8)
        init = np.random.default_rng(27)
        model = ImageAutoencoder(cfg, init)
        discs = branch_discriminators(init, cfg)
        rng = np.random.default_rng(28)
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, 16, 16)))
        c = Tensor(rng.normal(size=(2, cfg.d_c)))
        z = Tensor(rng.normal(size=(2, cfg.d_z)))
        join = model.generator.joins[0]

        def f(v):
            original = join.kernels
            join.kernels = v
            try:
                fakes = model.generator(c, z)
                adv = generator_adversarial_loss(discs, fakes, c)
                rec = l1_reconstruction(fakes[-1], x)
                return ad.add(adv, rec)
            finally:
                join.kernels = original

        err = gradient_check(f, Tensor(join.kernels.data.copy()))
        assert err <= 1e-5

    def test_l1_reconstruction_oracle(self):
        rng = np.random.default_rng(29)
        a, b = rng.normal(size=(2, 3, 4, 4)), rng.normal(size=(2, 3, 4, 4))
        got = l1_reconstruction(Tensor(a), Tensor(b)).item()
        assert got == pytest.approx(np.abs(a - b).mean(), abs=1e-12)


class TestDownsample:
    def test_average_pooling_chain(self):
        imgs = np.arange(2 * 3 * 8 * 8, dtype=np.float64).reshape(2, 3, 8, 8)
        down = downsample_to(imgs, 4)
        want = imgs.reshape(2, 3, 4, 2, 4, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(down, want)
        assert downsample_to(imgs, 8) is imgs


def test_generator_phase_leaves_discriminators_frozen(monkeypatch):
    # one epoch at the CLI tests' TINY sizes: 24 images, batch 4, default architecture
    from xmodal import image_ae
    opts = []

    class RecordingAdam(image_ae.Adam):
        def __init__(self, params, **kw):
            super().__init__(params, **kw)
            opts.append(self)
            self.grads_after_step, self.steps_changing_every_param = None, 0

        def step(self):
            if self is opts[0]:  # the generator side is built first
                for d in opts[1:]:
                    for p, g in zip(d.params, d.grads_after_step):
                        np.testing.assert_array_equal(p.grad, g)
            before = [p.data.copy() for p in self.params]
            super().step()
            self.grads_after_step = [p.grad.copy() for p in self.params]
            if all(not np.array_equal(b, p.data) for b, p in zip(before, self.params)):
                self.steps_changing_every_param += 1

    monkeypatch.setattr(image_ae, "Adam", RecordingAdam)
    cfg = ImageAEConfig(batch=4, epochs=1)
    images = np.random.default_rng(36).uniform(-1, 1, size=(24, 3, 32, 32))
    model = ImageAutoencoder(cfg, np.random.default_rng(37))
    train_image_autoencoder(model, images, np.random.default_rng(38))
    assert len(opts) == 1 + cfg.branches
    assert [d.t for d in opts] == [6] * len(opts)
    assert [d.steps_changing_every_param for d in opts[1:]] == [6] * cfg.branches


def test_one_encoder_forward_per_iteration(monkeypatch):
    # one epoch at the CLI tests' TINY sizes: 24 images, batch 4, so 6 iterations
    from xmodal import image_ae
    calls = []
    encode = image_ae.ImageEncoder.__call__
    monkeypatch.setattr(image_ae.ImageEncoder, "__call__",
                        lambda self, x: calls.append(x.shape) or encode(self, x))
    cfg = ImageAEConfig(batch=4, epochs=1)
    images = np.random.default_rng(36).uniform(-1, 1, size=(24, 3, 32, 32))
    train_image_autoencoder(ImageAutoencoder(cfg, np.random.default_rng(37)), images,
                            np.random.default_rng(38))
    assert calls == [(4, 3, 32, 32)] * 6


@pytest.mark.slow
class TestTrainingSmoke:
    def test_200_steps_on_64_images(self):
        # reconstruction drops and no discriminator collapse
        from xmodal.data import ColorShapesSpec, render_sample
        spec = ColorShapesSpec()
        rng = np.random.default_rng(30)
        images = np.stack([render_sample(spec, int(c), rng)
                           for c in rng.integers(0, 16, size=64)])
        cfg = ImageAEConfig(batch=16, epochs=50)  # 4 steps/epoch -> 200 steps
        model = ImageAutoencoder(cfg, np.random.default_rng(31))
        rows = []
        train_image_autoencoder(model, images, np.random.default_rng(32), log=rows.append)
        l1 = [m["value"] for m in rows if m["metric"] == "l1_rec"]
        assert len(l1) == 200
        assert l1[-1] <= 0.5 * l1[0] or np.mean(l1[-4:]) <= 0.5 * l1[0]
        band_hi = 8.0 * np.log(2.0)
        for name in ("d_loss_0", "d_loss_1", "d_loss_2"):
            d = np.array([m["value"] for m in rows if m["metric"] == name])
            assert np.all(d > 0.0) and np.all(d < band_hi)

    def test_checkpoint_roundtrip_reproduces_outputs(self, tmp_path):
        from xmodal.checkpoint import load_into, save_module
        model = small_model(33)
        img = np.random.default_rng(34).uniform(-1, 1, size=(3, 32, 32))
        psi = encode_image(model, img)
        out = generate_images(model, psi, np.random.default_rng(35))
        save_module(model, tmp_path / "m.ckpt")
        clone = small_model(99)  # different init
        load_into(clone, tmp_path / "m.ckpt")
        np.testing.assert_array_equal(encode_image(clone, img), psi)
        for u, v in zip(generate_images(clone, psi, np.random.default_rng(35)), out):
            np.testing.assert_array_equal(u, v)
