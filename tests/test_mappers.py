"""MMD estimators, kernels, and mapper training loops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import autodiff as ad
from xmodal.autodiff import ShapeError, Tensor, backward
from xmodal.errors import DivergenceError
from xmodal.mappers import (BANDWIDTH_SCALES, KernelSpec, MapperConfig, MapperDiscriminator,
                            MapperGenerator, MMDCritic, map_embedding, median_heuristic,
                            mixture_kernel, mmd2_biased, mmd2_unbiased, train_gan_mapper,
                            train_mmd_mapper)

from helpers import gradient_check


def rbf_mixture_value(x, y, bandwidths):
    d2 = np.sum((x - y) ** 2)
    return sum(np.exp(-d2 / (2.0 * s * s)) for s in bandwidths)


def pooled_median(x, y):
    pooled = Tensor(np.concatenate([x, y]))
    return median_heuristic(ad.pairwise_sq_dists(pooled, pooled).data)


def mmd2_biased_loop(x, y, bandwidths):
    m, n = len(x), len(y)
    kxx = sum(rbf_mixture_value(a, b, bandwidths) for a in x for b in x)
    kyy = sum(rbf_mixture_value(a, b, bandwidths) for a in y for b in y)
    kxy = sum(rbf_mixture_value(a, b, bandwidths) for a in x for b in y)
    return kxx / (m * m) + kyy / (n * n) - 2.0 * kxy / (m * n)


def mmd2_unbiased_loop(x, y, bandwidths):
    m, n = len(x), len(y)
    kxx = sum(rbf_mixture_value(x[i], x[j], bandwidths)
              for i in range(m) for j in range(m) if i != j)
    kyy = sum(rbf_mixture_value(y[i], y[j], bandwidths)
              for i in range(n) for j in range(n) if i != j)
    kxy = sum(rbf_mixture_value(a, b, bandwidths) for a in x for b in y)
    return kxx / (m * (m - 1)) + kyy / (n * (n - 1)) - 2.0 * kxy / (m * n)


class TestKernelSpec:
    def test_self_similarity_is_mixture_size(self):
        kernel = KernelSpec((0.5, 1.0, 2.0))
        x = np.random.default_rng(0).normal(size=(4, 3))
        gram = kernel.gram(Tensor(x), Tensor(x)).data
        np.testing.assert_allclose(np.diag(gram), 3.0)

    def test_symmetry(self):
        kernel = KernelSpec((1.0, 3.0))
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(5, 2)), rng.normal(size=(6, 2))
        np.testing.assert_allclose(kernel.gram(Tensor(x), Tensor(y)).data,
                                   kernel.gram(Tensor(y), Tensor(x)).data.T, atol=1e-15)

    def test_gram_matches_autodiff_path(self):
        bandwidths = (0.7, 2.0)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        want = [[rbf_mixture_value(a, b, bandwidths) for b in y] for a in x]
        np.testing.assert_allclose(KernelSpec(bandwidths).gram(Tensor(x), Tensor(y)).data,
                                   want, atol=1e-14)

    def test_positive_bandwidths_required(self):
        with pytest.raises(ValueError):
            KernelSpec((1.0, 0.0))

    def test_a_bandwidth_required(self):
        with pytest.raises(ValueError):
            KernelSpec(())

    def test_gram_gradient(self):
        rng = np.random.default_rng(3)
        y, w = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(4, 5)))
        kernel = KernelSpec((0.6, 1.5, 3.0))
        err = gradient_check(lambda v: ad.reduce("sum", ad.mul(kernel.gram(v, y), w)),
                             Tensor(rng.normal(size=(4, 3))))
        assert err <= 1e-6

    def test_gram_is_two_nodes(self, monkeypatch):
        made = []
        make_node = ad._make_node

        def counting(*args):
            made.append(args)
            return make_node(*args)

        monkeypatch.setattr(ad, "_make_node", counting)
        x = Tensor(np.random.default_rng(4).normal(size=(6, 3)), requires_grad=True)
        gram = mixture_kernel(1.1).gram(x, x)
        assert len(made) == 2  # the squared distances and the whole mixture
        assert gram._parents[0]._parents == (x, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finite_bandwidths_required(self, bad):
        with pytest.raises(ValueError):
            KernelSpec((bad,))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 20), st.integers(1, 6), st.integers(0, 10 ** 6))
    def test_gram_positive_semidefinite(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim))
        gram = mixture_kernel(1.3).gram(Tensor(x), Tensor(x)).data
        assert np.linalg.eigvalsh(gram).min() >= -1e-9


class TestMMDEstimators:
    def test_biased_identical_batches_zero(self):
        x = np.random.default_rng(0).normal(size=(8, 4))
        assert abs(mmd2_biased(x, x.copy(), KernelSpec((1.0,))).item()) <= 1e-12

    def test_biased_hand_case(self):
        # X={0}, Y={2} in 1-D, single bandwidth sqrt(2): 2 - 2/e
        x, y = np.array([[0.0]]), np.array([[2.0]])
        got = mmd2_biased(x, y, KernelSpec((np.sqrt(2.0),))).item()
        assert got == pytest.approx(2.0 - 2.0 * np.exp(-1.0), abs=1e-9)

    def test_unbiased_hand_case(self):
        x, y = np.array([[0.0], [0.0]]), np.array([[2.0], [2.0]])
        got = mmd2_unbiased(x, y, KernelSpec((np.sqrt(2.0),))).item()
        assert got == pytest.approx(2.0 - 2.0 * np.exp(-1.0), abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_vs_double_loop_oracles(self, seed):
        rng = np.random.default_rng(seed)
        bandwidths = (0.5, 1.5)
        x = rng.normal(size=(rng.integers(2, 9), 3))
        y = rng.normal(size=(rng.integers(2, 9), 3))
        kernel = KernelSpec(bandwidths)
        assert mmd2_biased(x, y, kernel).item() == pytest.approx(
            mmd2_biased_loop(x, y, bandwidths), abs=1e-12)
        assert mmd2_unbiased(x, y, kernel).item() == pytest.approx(
            mmd2_unbiased_loop(x, y, bandwidths), abs=1e-12)

    def test_unbiased_mean_zero_under_null(self):
        rng = np.random.default_rng(3)
        kernel = KernelSpec((1.0,))
        values = []
        for _ in range(200):
            x, y = rng.normal(size=(10, 3)), rng.normal(size=(10, 3))
            values.append(mmd2_unbiased(x, y, kernel).item())
        mean = np.mean(values)
        stderr = np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(mean) <= 3.0 * stderr

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4), st.integers(0, 10 ** 6))
    def test_biased_symmetric_and_nonnegative(self, m, n, dim, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(m, dim)), rng.normal(size=(n, dim))
        kernel = KernelSpec((0.8, 2.0))
        ab = mmd2_biased(x, y, kernel).item()
        ba = mmd2_biased(y, x, kernel).item()
        assert ab == pytest.approx(ba, abs=1e-12)
        assert ab >= 0.0

    def test_unbiased_equals_biased_minus_diagonal_terms(self):
        rng = np.random.default_rng(4)
        kernel = KernelSpec((0.9, 1.7))
        q = len(kernel.bandwidths)
        x, y = rng.normal(size=(6, 3)), rng.normal(size=(9, 3))
        m, n = 6, 9
        biased = mmd2_biased(x, y, kernel).item()
        unbiased = mmd2_unbiased(x, y, kernel).item()
        sxx = kernel.gram(Tensor(x), Tensor(x)).data.sum()
        syy = kernel.gram(Tensor(y), Tensor(y)).data.sum()
        # within-set sums: biased uses S/m^2, unbiased (S - m q)/(m(m-1))
        want = biased - sxx / m ** 2 - syy / n ** 2 \
            + (sxx - m * q) / (m * (m - 1)) + (syy - n * q) / (n * (n - 1))
        assert unbiased == pytest.approx(want, abs=1e-12)

    def test_gradient_wrt_second_batch(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 3))
        kernel = KernelSpec((1.0, 2.0))

        def f_biased(v):
            return mmd2_biased(Tensor(x), v, kernel)

        def f_unbiased(v):
            return mmd2_unbiased(Tensor(x), v, kernel)

        y = rng.normal(size=(6, 3))
        assert gradient_check(f_biased, Tensor(y)) <= 1e-6
        assert gradient_check(f_unbiased, Tensor(y)) <= 1e-6

    def test_one_gram_per_estimate(self, monkeypatch):
        calls = []
        gram = KernelSpec.gram

        def counting_gram(kernel, a, b):
            calls.append((a.shape, b.shape))
            return gram(kernel, a, b)

        monkeypatch.setattr(KernelSpec, "gram", counting_gram)
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        for estimate in (mmd2_biased, mmd2_unbiased):
            calls.clear()
            estimate(x, y, KernelSpec((1.0, 2.0)))
            assert calls == [((10, 3), (10, 3))]  # the pooled rows against themselves

    def test_unbiased_needs_two_samples(self):
        with pytest.raises(ShapeError):
            mmd2_unbiased(np.ones((1, 2)), np.ones((4, 2)), KernelSpec((1.0,)))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mmd2_biased(np.ones((3, 2)), np.ones((3, 4)), KernelSpec((1.0,)))

    def test_biased_needs_a_row_per_batch(self):
        with pytest.raises(ShapeError):
            mmd2_biased(np.ones((0, 2)), np.ones((3, 2)), KernelSpec((1.0,)))


class TestMedianHeuristic:
    def test_single_pair(self):
        sigma0 = median_heuristic(np.array([[0.0, 4.0], [4.0, 0.0]]))
        assert sigma0 == pytest.approx(np.sqrt(2.0))

    def test_median_of_the_upper_triangle(self):
        # the diagonal and the lower triangle are not read
        d = np.array([[9.0, 2.0, 8.0], [0.0, 9.0, 18.0], [0.0, 0.0, 9.0]])
        assert median_heuristic(d) == 2.0

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
        base = pooled_median(x, y)
        for lam in (0.1, 3.0, 42.0):
            assert pooled_median(lam * x, lam * y) == pytest.approx(lam * base, rel=1e-12)

    def test_degenerate_fallback_warns(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="xmodal.mappers"):
            sigma0 = pooled_median(np.ones((3, 2)), np.ones((4, 2)))
        assert sigma0 == 1.0
        assert any("identical" in rec.message for rec in caplog.records)

    def test_needs_two_points(self):
        with pytest.raises(ShapeError):
            median_heuristic(np.zeros((1, 1)))

    def test_mixture_scales(self):
        kernel = mixture_kernel(2.0)
        assert kernel.bandwidths == tuple(2.0 * s for s in BANDWIDTH_SCALES)


class TestMapperGenerator:
    def test_deterministic_and_dims(self):
        gen = MapperGenerator(8, 5, 32, np.random.default_rng(0))
        e = np.random.default_rng(1).normal(size=8)
        out1, out2 = map_embedding(gen, e), map_embedding(gen, e)
        assert out1.shape == (5,)
        assert np.array_equal(out1, out2)

    def test_batch_equals_elementwise(self):
        gen = MapperGenerator(6, 4, 32, np.random.default_rng(2))
        batch = np.random.default_rng(3).normal(size=(9, 6))
        batched = map_embedding(gen, batch)
        singles = np.stack([map_embedding(gen, row) for row in batch])
        np.testing.assert_allclose(batched, singles, atol=1e-14)

    def test_dimension_mismatch(self):
        gen = MapperGenerator(6, 4, 32, np.random.default_rng(4))
        with pytest.raises(ShapeError):
            map_embedding(gen, np.ones(5))


class TestGanMapper:
    def test_uniform_discriminator_loss_oracle(self):
        # a zeroed final discriminator layer gives logit 0 everywhere:
        # d_loss = 2 ln 2 and g_loss = ln 2
        rng = np.random.default_rng(0)
        disc = MapperDiscriminator(4, 16, np.random.default_rng(2))
        disc.l3.weight.data[...] = 0.0
        disc.l3.bias.data[...] = 0.0
        xb = Tensor(rng.normal(size=(32, 4)))
        fake = Tensor(rng.normal(size=(32, 4)))
        np.testing.assert_array_equal(disc(xb).data, 0.0)
        d_loss = ad.neg(ad.add(ad.reduce("mean", ad.log_sigmoid(disc(xb))),
                               ad.reduce("mean", ad.log_sigmoid(ad.neg(disc(fake)))))).item()
        g_loss = ad.neg(ad.reduce("mean", ad.log_sigmoid(disc(fake)))).item()
        assert d_loss == pytest.approx(2.0 * np.log(2.0), abs=1e-12)
        assert g_loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_one_discriminator_forward_per_step(self, monkeypatch):
        # the discriminator step scores [real; fake] together, the generator step its fakes
        rows = []
        forward = MapperDiscriminator.__call__
        monkeypatch.setattr(MapperDiscriminator, "__call__",
                            lambda self, x: rows.append(x.shape[0]) or forward(self, x))
        rng = np.random.default_rng(3)
        cfg = MapperConfig(kind="gan", steps=3, hidden=16, batch=8)
        train_gan_mapper(rng.normal(size=(20, 6)), rng.normal(size=(20, 4)), cfg,
                         np.random.default_rng(4))
        assert rows == [16, 8] * 3

    @pytest.mark.slow
    def test_degenerate_single_class_discriminator_wins(self):
        # widely separated point masses: trivially separable, so the
        # discriminator race reaches a near-zero loss inside 500 steps
        source = np.full((100, 8), 50.0)
        target = np.full((100, 6), -50.0)
        cfg = MapperConfig(kind="gan", steps=500, hidden=64)
        rows = []
        train_gan_mapper(source, target, cfg, np.random.default_rng(1), log=rows.append)
        d = [m["value"] for m in rows if m["metric"] == "d_loss"]
        assert min(d) < 0.1

    def test_training_improves_mmd(self):
        rng = np.random.default_rng(7)
        source = rng.normal(size=(200, 8)) + 2.0
        target = rng.normal(size=(200, 5)) - 1.0
        cfg = MapperConfig(kind="gan", steps=300, hidden=64, lr=1e-3)
        gen = train_gan_mapper(source, target, cfg, np.random.default_rng(8))
        untrained = MapperGenerator(8, 5, 64, np.random.default_rng(9))
        kernel = mixture_kernel(pooled_median(target, target))
        before = mmd2_unbiased(map_embedding(untrained, source), target, kernel).item()
        after = mmd2_unbiased(map_embedding(gen, source), target, kernel).item()
        assert after < before


class TestMmdMapper:
    def test_fixed_kernel_objective_reduces_to_plain_mmd(self):
        # kernel_learning off and lr=0: each logged objective value equals
        # mmd2_unbiased on raw embeddings for the same sampled batches
        rng = np.random.default_rng(0)
        source, target = rng.normal(size=(100, 6)), rng.normal(size=(100, 4))
        cfg = MapperConfig(kind="mmd", steps=3, lr=0.0, kernel_learning=False, batch=16)
        rows = []
        train_mmd_mapper(source, target, cfg, np.random.default_rng(5), log=rows.append)
        assert len(rows) == 3

        # replay: generator init consumes the stream first, then batch draws
        replay = np.random.default_rng(5)
        gen2 = MapperGenerator(6, 4, cfg.hidden, replay)
        kernel = mixture_kernel(pooled_median(target, map_embedding(gen2, source)))
        for row in rows:
            xb = target[replay.integers(0, 100, size=16)]
            fake = map_embedding(gen2, source[replay.integers(0, 100, size=16)])
            want = mmd2_unbiased(xb, fake, kernel).item()
            assert row["value"] == pytest.approx(want, abs=1e-10)

    def test_matched_distributions_near_zero(self):
        # identity task: source batch and target batch from the same
        # distribution, objective evaluated through fresh critic features
        rng = np.random.default_rng(1)
        kernel = KernelSpec((1.0, 2.0))
        values = []
        for seed in range(50):
            r = np.random.default_rng(seed)
            x = r.normal(size=(24, 5))
            y = r.normal(size=(24, 5))
            critic = MMDCritic(5, 16, 8, 0.1, np.random.default_rng(seed + 100))
            with ad.no_grad():
                fx, fy = critic.encode(Tensor(x)), critic.encode(Tensor(y))
            values.append(mmd2_unbiased(fx.data, fy.data, kernel).item())
        mean = np.mean(values)
        stderr = np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(mean) <= 3.0 * stderr

    @pytest.mark.slow
    def test_training_curve_halves(self):
        rng = np.random.default_rng(2)
        centers_s = rng.normal(size=(3, 8)) * 2.0
        centers_t = rng.normal(size=(3, 6)) * 2.0
        source = centers_s[rng.integers(0, 3, size=300)] + rng.normal(size=(300, 8)) * 0.1
        target = centers_t[rng.integers(0, 3, size=300)] + rng.normal(size=(300, 6)) * 0.1
        cfg = MapperConfig(kind="mmd", steps=400)
        rows = []
        train_mmd_mapper(source, target, cfg, np.random.default_rng(3), log=rows.append)
        mm = [m["value"] for m in rows if m["metric"] == "mmd2"]
        assert np.mean(mm[-20:]) <= 0.5 * np.mean(mm[:20])

    def test_one_generator_forward_per_critic_round(self, monkeypatch):
        import xmodal.mappers as mp

        rng = np.random.default_rng(10)
        source, target = rng.normal(size=(60, 5)), rng.normal(size=(60, 4))
        rows, drawn = [], []
        call, sample = MapperGenerator.__call__, mp._sample

        def counting_call(gen, x):
            rows.append(x.shape[0])
            return call(gen, x)

        def recording_sample(from_rows, batch, r):
            drawn.append("target" if from_rows is target else "source")
            return sample(from_rows, batch, r)

        monkeypatch.setattr(MapperGenerator, "__call__", counting_call)
        monkeypatch.setattr(mp, "_sample", recording_sample)
        cfg = MapperConfig(kind="mmd", steps=2, batch=8, n_critic=3, hidden=8,
                           critic_hidden=8, critic_dim=4)
        train_mmd_mapper(source, target, cfg, np.random.default_rng(11))
        # the bandwidth probe, then per step one critic round of 3 x 8 rows and the generator step
        assert rows == [60, 24, 8, 24, 8]
        # each critic step and generator step still draws its target batch, then its source batch
        assert drawn == ["target", "source"] * 8

    def test_critic_clipping_invariant(self):
        rng = np.random.default_rng(4)
        source, target = rng.normal(size=(60, 5)), rng.normal(size=(60, 4))
        cfg = MapperConfig(kind="mmd", steps=5, clip=0.07, batch=8, n_critic=2)
        gen_and_critic = {}

        # capture the critic by instrumenting the module constructor
        import xmodal.mappers as mp
        original = mp.MMDCritic

        class Capturing(original):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                gen_and_critic["critic"] = self

        mp.MMDCritic = Capturing
        try:
            train_mmd_mapper(source, target, cfg, np.random.default_rng(5))
        finally:
            mp.MMDCritic = original
        critic = gen_and_critic["critic"]
        assert max(np.abs(p.data).max() for p in critic.parameters()) <= 0.07 + 1e-15

    def test_non_finite_critic_objective_raises_before_critic_step(self):
        # the NaN rows lie outside the bandwidth probe, so only the critic
        # batches of step 0 see them
        rng = np.random.default_rng(6)
        source, target = rng.normal(size=(256, 5)), rng.normal(size=(256, 4))
        probe = np.linspace(0, 255, 128).astype(int)
        target[np.setdiff1d(np.arange(256), probe)] = np.nan
        cfg = MapperConfig(kind="mmd", steps=3, batch=16, hidden=8, critic_hidden=8, critic_dim=4)
        with pytest.raises(DivergenceError, match="critic.*step 0") as exc:
            train_mmd_mapper(source, target, cfg, np.random.default_rng(7))
        gen = MapperGenerator(5, 4, cfg.hidden, np.random.default_rng(7))
        assert [n for n, _ in exc.value.last_good] == [n for n, _ in gen.named_parameters()]
        for (_, saved), (_, p) in zip(exc.value.last_good, gen.named_parameters()):
            np.testing.assert_array_equal(saved, p.data)

    def test_non_finite_bandwidth_probe_raises_divergence(self):
        rng = np.random.default_rng(8)
        source, target = rng.normal(size=(40, 5)), rng.normal(size=(40, 4))
        target[0] = np.nan
        cfg = MapperConfig(kind="mmd", steps=2, batch=8, hidden=8, critic_hidden=8, critic_dim=4)
        with pytest.raises(DivergenceError, match="probe"):
            train_mmd_mapper(source, target, cfg, np.random.default_rng(9))


@pytest.mark.parametrize("kind", ["gan", "mmd"])
def test_generator_step_leaves_the_adversary_gradients(monkeypatch, kind):
    # the discriminator's or critic's gradients after its own last step are still
    # its gradients when the generator steps: the generator step forms none for it
    import xmodal.mappers as mp
    opts = []

    class RecordingAdam(mp.Adam):
        def __init__(self, params, **kw):
            super().__init__(params, **kw)
            opts.append(self)
            self.grads_after_step = None

        def step(self):
            if self is opts[0]:  # the generator's optimizer is built first
                (adversary,) = opts[1:]
                for p, g in zip(adversary.params, adversary.grads_after_step, strict=True):
                    np.testing.assert_array_equal(p.grad, g)
            super().step()
            self.grads_after_step = [p.grad.copy() for p in self.params]

    monkeypatch.setattr(mp, "Adam", RecordingAdam)
    rng = np.random.default_rng(12)
    cfg = MapperConfig(kind=kind, steps=3, batch=8, hidden=8, n_critic=2, critic_hidden=8,
                       critic_dim=4)
    train = train_gan_mapper if kind == "gan" else train_mmd_mapper
    train(rng.normal(size=(40, 5)), rng.normal(size=(40, 4)), cfg, np.random.default_rng(13))
    assert [opt.t for opt in opts] == [3, 3 if kind == "gan" else 6]


def test_batch_too_small_rejected():
    cfg = MapperConfig(batch=1)
    with pytest.raises(ShapeError):
        train_gan_mapper(np.ones((4, 2)), np.ones((4, 2)), cfg, np.random.default_rng(0))
