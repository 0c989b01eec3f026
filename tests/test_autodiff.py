"""Forward oracles and finite-difference checks for the autodiff core."""

import zlib
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import autodiff as ad
from xmodal.autodiff import GraphError, ShapeError, Tensor, backward

from helpers import (GradientCheckError, conv_grad_loop_oracle, conv_loop_oracle, gradient_check,
                     upsample_conv_oracle)


def t(data, grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestElementwise:
    def test_add_identity(self):
        x = t(np.random.default_rng(0).normal(size=(3, 4)))
        out = ad.elementwise("add", x, Tensor(np.zeros((3, 4))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_sigmoid_at_zero(self):
        out = ad.sigmoid(t(np.zeros(5)))
        np.testing.assert_allclose(out.data, 0.5)

    def test_exp_log_roundtrip(self):
        # direct evaluation over a sampled grid in (0.1, 10)
        x = t(np.linspace(0.1, 10.0, 200))
        out = ad.exp(ad.log(x))
        np.testing.assert_allclose(out.data, x.data, atol=1e-12, rtol=0)

    def test_scalar_broadcast(self):
        x = t([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.add(x, t(1.0)).data, x.data + 1.0)
        np.testing.assert_array_equal(ad.mul(t(2.0), x).data, 2.0 * x.data)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ad.add(t(np.ones((2, 3))), t(np.ones((3, 2))))
        with pytest.raises(ShapeError):
            ad.elementwise("mul", t(np.ones(3)), t(np.ones(4)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3),
           st.lists(st.integers(1, 4), min_size=1, max_size=3))
    def test_no_silent_broadcast(self, shape_a, shape_b):
        # fuzz: only equal shapes or a scalar operand are ever accepted
        a, b = t(np.ones(shape_a)), t(np.ones(shape_b))
        legal = tuple(shape_a) == tuple(shape_b) or a.size == 1 or b.size == 1
        if legal:
            assert ad.add(a, b).size == max(a.size, b.size)
        else:
            with pytest.raises(ShapeError):
                ad.add(a, b)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            ad.elementwise("pow", t([1.0]))


def log_sigmoid_decimal(x: float) -> float:
    # -log(1 + exp(-x)) in 40 significant digits, rounded once to float64
    with localcontext() as ctx:
        ctx.prec = 40
        return float(-(1 + (-Decimal(x)).exp()).ln())


class TestLogSigmoid:
    def test_matches_the_decimal_oracle(self):
        # log(1/(1+exp(-x))) in float64 is itself off by 1e-15 relative at x = 2
        # and by 1e-3 at x = 30, where 1 + exp(-x) rounds
        x = np.concatenate([np.linspace(-30.0, 30.0, 241), [-1e-9, 1e-9, -0.0, 0.0]])
        want = np.array([log_sigmoid_decimal(v) for v in x])
        np.testing.assert_allclose(ad.log_sigmoid(t(x)).data, want, rtol=1e-15, atol=0)

    def test_finite_value_and_gradient_at_saturated_logits(self):
        out, grad = forward_and_input_grad(ad.log_sigmoid, np.array([-1000.0, 1000.0]), np.ones(2))
        assert out.tolist() == [-1000.0, 0.0]
        assert grad.tolist() == [1.0, 0.0]

    def test_gradient_of_a_confidently_wrong_logit(self):
        # d/dl -log sigmoid(l) = -sigmoid(-l): -1 at l = -50, where the gradient of a
        # log clamped at 1e-12 over a sigmoid head is about -2e-10
        v = t([-50.0], grad=True)
        backward(ad.neg(ad.reduce("sum", ad.log_sigmoid(v))))
        assert abs(v.grad[0] + 1.0) <= 1e-12


# NaN, signed zeros and infinities, the smallest subnormals and exp's overflow edge
EDGE_VALUES = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                        745.0, -745.0, 800.0, -800.0])


def activation_inputs():
    # numpy's short and 0-d loops can treat signed zeros unlike its long ones
    rng = np.random.default_rng(16)
    return ([np.concatenate([EDGE_VALUES, rng.normal(scale=4.0, size=2000)]), EDGE_VALUES]
            + [EDGE_VALUES[i:i + 1] for i in range(EDGE_VALUES.size)]
            + [np.array(v) for v in EDGE_VALUES])


def where_relu(x, g):
    mask = x > 0
    return np.where(mask, x, 0.0), g * mask.astype(np.float64)


def where_leaky_relu(x, g, slope):
    mask = x > 0
    return np.where(mask, x, slope * x), g * np.where(mask, 1.0, slope)


def where_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def forward_and_input_grad(op, x, g):
    # the loss sum(op(x) * g) hands op's backward exactly g
    v = t(x, grad=True)
    out = op(v)
    backward(ad.reduce("sum", ad.mul(out, Tensor(g))))
    return out.data, v.grad


def assert_same_bytes(got, want):
    assert [np.asarray(a).tobytes() for a in got] == [np.asarray(a).tobytes() for a in want]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN edge values
class TestSelectFreeActivations:
    """relu, leaky_relu and sigmoid equal their np.where forms bit for bit."""

    def test_relu(self):
        for x in activation_inputs():
            g = np.random.default_rng(17).normal(size=x.shape)
            assert_same_bytes(forward_and_input_grad(ad.relu, x, g), where_relu(x, g))

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, 1.5, -0.3])
    def test_leaky_relu(self, slope):
        for x in activation_inputs():
            g = np.random.default_rng(18).normal(size=x.shape)
            assert_same_bytes(forward_and_input_grad(lambda v: ad.leaky_relu(v, slope), x, g),
                              where_leaky_relu(x, g, slope))

    def test_sigmoid(self):
        for x in activation_inputs():
            g = np.random.default_rng(19).normal(size=x.shape)
            s = where_sigmoid(x)
            assert_same_bytes([ad._sigmoid(x)], [s])
            assert_same_bytes(forward_and_input_grad(ad.sigmoid, x, g), (s, g * (s * (1.0 - s))))


class TestRbfMixture:
    BANDWIDTHS = (0.3, 0.7, 1.0, 2.2, 4.5)

    def composed(self, d):
        total = None
        for sigma in self.BANDWIDTHS:
            term = ad.exp(ad.scale(d, -1.0 / (2.0 * sigma * sigma)))
            total = term if total is None else ad.add(total, term)
        return total

    def test_equals_the_composed_graph_bit_for_bit(self):
        rng = np.random.default_rng(20)
        d, w = rng.uniform(0.0, 6.0, size=(7, 9)), Tensor(rng.normal(size=(7, 9)))
        results = []
        for mixture in (lambda v: ad.rbf_mixture(v, self.BANDWIDTHS), self.composed):
            v = t(d, grad=True)
            out = mixture(v)
            backward(ad.reduce("sum", ad.mul(out, w)))
            results.append((out.data.tobytes(), v.grad.tobytes()))
        assert results[0] == results[1]


class TestMatmul:
    def test_identity(self):
        x = t(np.random.default_rng(1).normal(size=(3, 3)))
        np.testing.assert_array_equal(ad.matmul(x, t(np.eye(3))).data, x.data)

    def test_scalar_product(self):
        out = ad.matmul(t([[2.0]]), t([[3.0]]))
        np.testing.assert_allclose(out.data, [[6.0]])

    def test_vs_triple_loop(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(ad.matmul(t(a), t(b)).data, want, atol=1e-12, rtol=0)

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))

    def test_operand_without_grad_gets_none(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        for a_grad in (True, False):
            ta, tb = t(a, grad=a_grad), t(b, grad=not a_grad)
            backward(ad.reduce("sum", ad.matmul(ta, tb)))
            frozen, trained = (tb, ta) if a_grad else (ta, tb)
            assert frozen.grad is None
            want = np.ones((3, 2)) @ b.T if a_grad else a.T @ np.ones((3, 2))
            np.testing.assert_array_equal(trained.grad, want)

    def test_shared_right_operand_gets_every_use(self):
        # one matrix as the right operand of three matmuls and an operand of one add
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 3))
        xs = [rng.normal(size=(n, 4)) for n in (1, 2, 5)]
        gs = [rng.normal(size=(n, 3)) for n in (1, 2, 5)]
        c, g_add = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

        def f(wt):
            loss = ad.reduce("sum", ad.mul(ad.add(wt, t(c)), t(g_add)))
            for x, g in zip(xs, gs):
                loss = ad.add(loss, ad.reduce("sum", ad.mul(ad.matmul(t(x), wt), t(g))))
            return loss

        wt = t(w, grad=True)
        backward(f(wt))
        want = sum(x.T @ g for x, g in zip(xs, gs)) + g_add
        np.testing.assert_allclose(wt.grad, want, atol=1e-12, rtol=0)
        # each use adds its own product in the order the pass reaches it: the
        # add first, then the matmuls in the order they were built
        in_pass_order = g_add.copy()
        for x, g in zip(xs, gs):
            in_pass_order += x.T @ g
        assert wt.grad.tobytes() == in_pass_order.tobytes()
        assert gradient_check(f, t(w)) <= 1e-6


class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(3).normal(size=(1, 2, 5, 5))
        k = np.zeros((2, 2, 1, 1))
        k[0, 0, 0, 0] = k[1, 1, 0, 0] = 1.0
        np.testing.assert_array_equal(ad.conv2d(t(x), t(k)).data, x)

    def test_all_ones_2x2(self):
        out = ad.conv2d(t(np.ones((1, 1, 2, 2))), t(np.ones((1, 1, 2, 2))))
        np.testing.assert_allclose(out.data, [[[[4.0]]]])

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (1, 2)])
    def test_vs_loop_oracle(self, stride, padding):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        if (5 + 2 * padding - 3) % stride:
            pytest.skip("shape not representable")
        got = ad.conv2d(t(x), t(k), stride, padding).data
        np.testing.assert_allclose(got[0], conv_loop_oracle(x[0], k, stride, padding),
                                   atol=1e-12, rtol=0)

    @pytest.mark.parametrize("batch, c_in, c_out, min_h", [
        (None, 2, 3, 5), (1, 2, 3, 5), (3, 2, 3, 5),
        (1, 16, 16, 4), (3, 16, 16, 4),
    ], ids=["chw", "n1", "n3", "n1_c16", "n3_c16"])
    @pytest.mark.parametrize("kernel", [1, 3, 4])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_and_gradients_vs_loop_oracle(self, stride, padding, kernel, batch, c_in, c_out,
                                                  min_h):
        # chw: one (C, H, W) sample, given with a leading batch axis of 1 and
        # checked unbatched against the per-sample loops. c16: 16 channels from
        # a 4-px height, where the small outputs take d kernels as one GEMM over
        # the batch (2x3 at stride 2 with a 4x4 kernel and padding 1, like the
        # encoder's conv3). Stride 2 takes 1x1 and 3x3 kernels through the
        # zero-padded taps of the depth-to-space input gradient
        rng = np.random.default_rng(40)
        h = next(s for s in range(min_h, min_h + stride) if (s + 2 * padding - kernel) % stride == 0)
        w = h + stride  # a non-square input keeps the two spatial axes apart
        x = t(rng.normal(size=(1 if batch is None else batch, c_in, h, w)), grad=True)
        k = t(rng.normal(size=(c_out, c_in, kernel, kernel)), grad=True)
        out = ad.conv2d(x, k, stride, padding)
        g = rng.normal(size=out.shape)
        backward(ad.reduce("sum", ad.mul(out, Tensor(g))))

        samples = list(zip(x.data, g))
        want_out = [conv_loop_oracle(xi, k.data, stride, padding) for xi, _ in samples]
        grads = [conv_grad_loop_oracle(xi, k.data, gi, stride, padding) for xi, gi in samples]
        want_dx = [dx for _, dx in grads]
        got_out, got_dx = out.data, x.grad
        if batch is None:
            want_out, want_dx, got_out, got_dx = want_out[0], want_dx[0], got_out[0], got_dx[0]
        np.testing.assert_allclose(got_out, want_out, atol=1e-12, rtol=0)
        np.testing.assert_allclose(k.grad, sum(dw for dw, _ in grads), atol=1e-12, rtol=0)
        np.testing.assert_allclose(got_dx, want_dx, atol=1e-12, rtol=0)

    def test_operand_without_grad_gets_none_and_no_input_gradient(self, monkeypatch):
        rng = np.random.default_rng(41)
        x_data, k_data = rng.normal(size=(2, 3, 6, 6)), rng.normal(size=(4, 3, 3, 3))

        def col2im_must_not_run(*args):
            raise AssertionError("_col2im ran for an input that needs no gradient")

        with monkeypatch.context() as patch:
            patch.setattr(ad, "_col2im", col2im_must_not_run)
            x, k = t(x_data), t(k_data, grad=True)
            backward(ad.reduce("sum", ad.conv2d(x, k, 1, 1)))
            assert x.grad is None and k.grad is not None

        x, k = t(x_data, grad=True), t(k_data)
        backward(ad.reduce("sum", ad.conv2d(x, k, 1, 1)))
        assert k.grad is None and x.grad is not None

    def test_strided_input_gradient_skips_col2im_and_joins_keep_it(self, monkeypatch):
        rng = np.random.default_rng(46)
        folded = []
        col2im = ad._col2im
        monkeypatch.setattr(ad, "_col2im", lambda *args: folded.append(args[1]) or col2im(*args))
        x, k = t(rng.normal(size=(2, 3, 8, 8)), grad=True), t(rng.normal(size=(4, 3, 4, 4)), grad=True)
        backward(ad.reduce("sum", ad.conv2d(x, k, 2, 1)))
        assert folded == [] and x.grad is not None and k.grad is not None

        x, k = t(rng.normal(size=(2, 3, 4, 4)), grad=True), t(rng.normal(size=(4, 3, 3, 3)), grad=True)
        backward(ad.reduce("sum", ad.conv2d(x, k, 1, 1, upsample=2)))
        assert folded == [(2, 3, 6, 6)] and x.grad is not None

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("c_in, c_out, res, kernel, stride, padding, upsample", [
        (16, 32, 16, 4, 2, 1, 1),   # an encoder or trunk conv: 4x4, stride 2
        (64, 64, 4, 1, 1, 0, 1),    # cond_mix: 1x1
        (8, 3, 32, 3, 1, 1, 1),     # an image head: 3x3 taps on the output side
        (32, 16, 8, 3, 1, 1, 2),    # a join: 3x3 of the upsampled input
    ], ids=["strided", "1x1", "head", "join"])
    def test_bias_operand_equals_the_bias_node_bit_for_bit(self, c_in, c_out, res, kernel, stride,
                                                           padding, upsample, batch):
        rng = np.random.default_rng(47)
        x_data = rng.normal(size=(batch, c_in, res, res))
        k_data, b_data = rng.normal(size=(c_out, c_in, kernel, kernel)), rng.normal(size=c_out)

        def run(fused):
            x, k, b = t(x_data, grad=True), t(k_data, grad=True), t(b_data, grad=True)
            if fused:
                out = ad.conv2d(x, k, stride, padding, upsample, bias=b)
            else:
                out = ad.add_channel_bias(ad.conv2d(x, k, stride, padding, upsample), b)
            g = np.random.default_rng(48).normal(size=out.shape)
            backward(ad.reduce("sum", ad.mul(out, Tensor(g))))
            return out.data, x.grad, k.grad, b.grad

        assert_same_bytes(run(True), run(False))

    def test_bias_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(t(np.ones((1, 2, 4, 4))), t(np.ones((3, 2, 2, 2))), bias=t(np.ones(2)))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 2, 6, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        batched = ad.conv2d(t(x), t(k), 1, 1).data
        for i in range(4):
            np.testing.assert_allclose(batched[i], ad.conv2d(t(x[i:i + 1]), t(k), 1, 1).data[0],
                                       atol=1e-14, rtol=0)

    def test_backward_keeps_no_padded_copy(self):
        x, k = t(np.ones((2, 3, 6, 6)), grad=True), t(np.ones((4, 3, 3, 3)), grad=True)
        out = ad.conv2d(x, k, 1, 1)
        held = [c.cell_contents for c in out._backward_fn.__closure__]
        assert not any(isinstance(v, np.ndarray) and v.shape == (2, 3, 8, 8) for v in held)

    def test_non_integer_output_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(t(np.ones((1, 1, 5, 5))), t(np.ones((1, 1, 2, 2))), stride=2)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(t(np.ones((1, 2, 4, 4))), t(np.ones((1, 3, 2, 2))))

    def test_unbatched_input_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(t(np.ones((2, 4, 4))), t(np.ones((1, 2, 2, 2))))


def closure(out: Tensor) -> dict:
    """The arrays and values a node's backward closure holds, by name."""
    fn = out._backward_fn
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))


class TestTapTable:
    @pytest.mark.parametrize("x_shape, k_shape, stride, padding", [
        ((2, 16, 8, 8), (32, 16, 4, 4), 2, 1),    # an encoder or trunk conv
        ((2, 64, 4, 4), (64, 64, 1, 1), 1, 0),    # cond_mix
    ], ids=["stride2", "one_by_one"])
    def test_input_side_bank_is_a_view_of_the_kernels(self, x_shape, k_shape, stride, padding):
        k = t(np.ones(k_shape), grad=True)
        out = ad.conv2d(t(np.ones(x_shape), grad=True), k, stride, padding)
        bank = closure(out)["bank"]
        assert bank.shape == (k_shape[0], k.size // k_shape[0])
        assert np.shares_memory(bank, k.data)

    def test_head_bank_holds_nine_taps_of_output_rows(self):
        out = ad.conv2d(t(np.ones((2, 8, 4, 4)), grad=True), t(np.ones((3, 8, 3, 3)), grad=True), 1, 1)
        assert closure(out)["bank"].shape == (9 * 3, 8)

    def test_join_bank_holds_four_phases_of_2x2_windows(self):
        x, k = t(np.ones((2, 32, 4, 4)), grad=True), t(np.ones((16, 32, 3, 3)), grad=True)
        out = ad.conv2d(x, k, 1, 1, upsample=2)
        assert closure(out)["bank"].shape == (4 * 16, 4 * 32)

    def test_upsample_with_stride_2_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(t(np.ones((1, 2, 4, 4))), t(np.ones((3, 2, 4, 4))), stride=2, padding=1,
                      upsample=2)

    def test_upsample_with_uneven_phases_rejected(self):
        # a 4x4 kernel with padding 1 gives 2H - 1 rows from 2H
        with pytest.raises(ShapeError):
            ad.conv2d(t(np.ones((1, 2, 4, 4))), t(np.ones((3, 2, 4, 4))), padding=1, upsample=2)


class TestUpsampledConv2d:
    @pytest.mark.parametrize("n, c_in, c_out, h, w, upsample, kernel, padding", [
        (16, 32, 16, 8, 8, 2, 3, 1),    # the default generator's join1
        (16, 16, 8, 16, 16, 2, 3, 1),   # and join2
        (1, 32, 16, 8, 8, 2, 3, 1),     # one text-to-image translate
        (4, 32, 16, 1, 1, 2, 3, 1),     # join1 of image_ae.branches=6, base_res=1
        (3, 4, 5, 3, 5, 2, 3, 1),       # non-square
        (2, 3, 2, 3, 4, 2, 1, 0),       # the other tables: one tap per phase
        (2, 3, 2, 3, 4, 2, 5, 2),
        (2, 3, 2, 3, 4, 2, 3, 0),
        (2, 3, 2, 3, 4, 3, 3, 1),       # phases of unequal tap counts
        (2, 3, 2, 3, 4, 3, 2, 2),
        (2, 3, 2, 3, 4, 4, 3, 3),
    ], ids=["join1", "join2", "batch1", "one_pixel", "non_square", "u2_k1", "u2_k5_p2",
            "u2_p0", "u3_k3", "u3_k2_p2", "u4_p3"])
    def test_matches_the_loop_oracle(self, n, c_in, c_out, h, w, upsample, kernel, padding):
        # oracle: np.repeat upsampling, then the direct loops; d input sums each u x u block
        rng = np.random.default_rng(42)
        x = t(rng.normal(size=(n, c_in, h, w)), grad=True)
        k = t(rng.normal(size=(c_out, c_in, kernel, kernel)), grad=True)
        out = ad.conv2d(x, k, 1, padding, upsample=upsample)
        g = rng.normal(size=out.shape)
        backward(ad.reduce("sum", ad.mul(out, Tensor(g))))
        up = np.repeat(np.repeat(x.data, upsample, axis=2), upsample, axis=3)
        grads = [conv_grad_loop_oracle(xi, k.data, gi, 1, padding) for xi, gi in zip(up, g)]
        want_dx = np.stack([dx for _, dx in grads]).reshape(n, c_in, h, upsample, w, upsample)
        np.testing.assert_allclose(out.data, upsample_conv_oracle(x.data, k.data, upsample, 1, padding),
                                   atol=1e-12, rtol=0)
        np.testing.assert_allclose(x.grad, want_dx.sum(axis=(3, 5)), atol=1e-12, rtol=0)
        np.testing.assert_allclose(k.grad, sum(dw for dw, _ in grads), atol=1e-12, rtol=0)

    def test_gradients_of_input_and_kernels(self):
        rng = np.random.default_rng(43)
        x, k = rng.normal(size=(2, 3, 3, 4)), rng.normal(size=(2, 3, 3, 3))
        w = Tensor(rng.normal(size=(2, 2, 6, 8)))  # weighs every output pixel differently

        def loss(out):
            return ad.reduce("sum", ad.mul(out, w))

        assert gradient_check(lambda v: loss(ad.conv2d(v, Tensor(k), 1, 1, upsample=2)), t(x)) <= 1e-6
        assert gradient_check(lambda v: loss(ad.conv2d(Tensor(x), v, 1, 1, upsample=2)), t(k)) <= 1e-6

    def test_closure_keeps_cols_and_bank_only(self):
        x, k = t(np.ones((2, 3, 4, 4)), grad=True), t(np.ones((5, 3, 3, 3)), grad=True)
        out = ad.conv2d(x, k, 1, 1, upsample=2)
        held = [c.cell_contents for c in out._backward_fn.__closure__]
        arrays = sorted(v.shape for v in held if isinstance(v, np.ndarray))
        assert arrays == [(2, 3 * 4, 5 * 5), (4 * 5, 3 * 4)]  # cols, phase bank

    def test_no_grad_keeps_no_closure(self):
        x, k = t(np.ones((2, 3, 4, 4)), grad=True), t(np.ones((5, 3, 3, 3)), grad=True)
        with ad.no_grad():
            out = ad.conv2d(x, k, 1, 1, upsample=2)
        assert out._backward_fn is None and out._parents == () and not out.requires_grad


class TestOutputSideConv2d:
    # stride 1, no upsampling and C_out < C_in: the image heads' tap bank
    @pytest.mark.parametrize("n, c_in, c_out, h, w, kernel, padding", [
        (16, 8, 3, 32, 32, 3, 1),    # the default generator's to_img2
        (16, 16, 3, 16, 16, 3, 1),   # to_img1
        (16, 32, 3, 8, 8, 3, 1),     # to_img0
        (1, 8, 3, 32, 32, 3, 1),     # one text-to-image translate
        (3, 4, 2, 3, 6, 3, 1),       # non-square
        (4, 5, 3, 1, 1, 3, 1),       # one pixel
        (2, 3, 2, 5, 6, 1, 0),       # other kernels and paddings
        (2, 3, 2, 5, 6, 2, 0),
        (2, 3, 2, 5, 6, 3, 0),
        (2, 3, 2, 5, 6, 4, 1),
        (2, 3, 2, 5, 6, 2, 2),
    ], ids=["to_img2", "to_img1", "to_img0", "batch1", "non_square", "one_pixel", "k1_p0",
            "k2_p0", "k3_p0", "k4_p1", "k2_p2"])
    def test_matches_the_loop_oracle(self, n, c_in, c_out, h, w, kernel, padding):
        rng = np.random.default_rng(44)
        x = t(rng.normal(size=(n, c_in, h, w)), grad=True)
        k = t(rng.normal(size=(c_out, c_in, kernel, kernel)), grad=True)
        out = ad.conv2d(x, k, 1, padding)
        g = rng.normal(size=out.shape)
        backward(ad.reduce("sum", ad.mul(out, Tensor(g))))
        grads = [conv_grad_loop_oracle(xi, k.data, gi, 1, padding) for xi, gi in zip(x.data, g)]
        want_out = np.stack([conv_loop_oracle(xi, k.data, 1, padding) for xi in x.data])
        for got, want in ((out.data, want_out), (x.grad, np.stack([dx for _, dx in grads])),
                          (k.grad, sum(dw for dw, _ in grads))):
            np.testing.assert_allclose(got, want, atol=1e-12 * np.abs(want).max(), rtol=0)

    def test_gradients_of_input_and_kernels(self):
        rng = np.random.default_rng(45)
        x, k = rng.normal(size=(2, 3, 3, 4)), rng.normal(size=(2, 3, 3, 3))
        w = Tensor(rng.normal(size=(2, 2, 3, 4)))  # weighs every output pixel differently

        def loss(out):
            return ad.reduce("sum", ad.mul(out, w))

        assert gradient_check(lambda v: loss(ad.conv2d(v, Tensor(k), 1, 1)), t(x)) <= 1e-6
        assert gradient_check(lambda v: loss(ad.conv2d(Tensor(x), v, 1, 1)), t(k)) <= 1e-6

    def test_closure_keeps_padded_input_and_bank_only(self):
        x, k = t(np.ones((2, 7, 4, 5)), grad=True), t(np.ones((3, 7, 3, 3)), grad=True)
        out = ad.conv2d(x, k, 1, 1)
        held = [c.cell_contents for c in out._backward_fn.__closure__]
        arrays = sorted(v.shape for v in held if isinstance(v, np.ndarray))
        assert arrays == [(2, 7, 6 * 7), (9 * 3, 7)]  # padded input, tap bank


class TestReduce:
    def test_sum_of_zeros(self):
        assert ad.reduce("sum", t(np.zeros((3, 2)))).item() == 0.0

    def test_mean(self):
        assert ad.reduce("mean", t([1.0, 2.0, 3.0])).item() == 2.0

    def test_axis_reductions(self):
        # max runs over one axis only; sum and mean only over every element
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        np.testing.assert_array_equal(ad.reduce("max", t(x), axis=1).data, x.max(axis=1))
        for op_tag, axis in (("sum", 0), ("mean", 1), ("max", None)):
            with pytest.raises(ShapeError):
                ad.reduce(op_tag, t(x), axis=axis)

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            ad.reduce("max", t(np.ones((2, 2))), axis=2)

    def test_max_duplicate_routes_lowest_index(self):
        # duplicated maxima: the whole gradient goes to the first occurrence
        x = t([[1.0, 5.0, 5.0, 0.0]], grad=True)
        out = ad.reduce("max", x, axis=1)
        backward(ad.reduce("sum", out))
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 0.0]])

    def test_max_gradient_vs_finite_difference_off_ties(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 5))

        def f(v):
            return ad.reduce("sum", ad.reduce("max", v, axis=1))

        assert gradient_check(f, t(x)) <= 1e-8


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t(np.random.default_rng(7).normal(size=(2, 3)), grad=True)
        backward(ad.reduce("sum", x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        x = t([1.0, -2.0, 3.0], grad=True)
        backward(ad.reduce("sum", ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_composite_mlp_vs_finite_differences(self):
        rng = np.random.default_rng(8)
        w1, w2 = rng.normal(size=(5, 4)), rng.normal(size=(1, 5))
        xin = Tensor(rng.normal(size=(6, 4)))

        def f(w):
            h = ad.tanh(ad.matmul(xin, ad.transpose(w)))
            o = ad.sigmoid(ad.matmul(h, ad.transpose(Tensor(w2))))
            return ad.reduce("mean", ad.mul(o, o))

        assert gradient_check(f, t(w1)) <= 1e-6

    def test_non_scalar_loss_rejected(self):
        x = t(np.ones(3), grad=True)
        with pytest.raises(GraphError):
            backward(ad.mul(x, x))

    def test_second_backward_rejected(self):
        x = t(np.ones(3), grad=True)
        loss = ad.reduce("sum", ad.mul(x, x))
        backward(loss)
        with pytest.raises(GraphError):
            backward(loss)

    def test_backward_through_consumed_subgraph_rejected(self):
        x = t(np.ones(3), grad=True)
        y = ad.mul(x, x)
        backward(ad.reduce("sum", y))
        with pytest.raises(GraphError):
            backward(ad.reduce("mean", y))

    def test_gradient_accumulates_on_reuse_within_graph(self):
        x = t([2.0], grad=True)
        y = ad.add(ad.mul(x, x), x)  # x^2 + x -> 2x + 1 = 5
        backward(ad.reduce("sum", y))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_failed_backward_does_not_reach_the_next(self):
        # the matmul forms its interior right operand's gradient at once, then the
        # left operand's rule raises before that operand's turn comes
        w = t(np.eye(2), grad=True)
        left, right = ad.reshape(w, (2, 2)), ad.transpose(w)

        def fail():
            raise RuntimeError("backward rule failed")

        left._backward_fn = fail
        with pytest.raises(RuntimeError):
            backward(ad.reduce("sum", ad.matmul(left, right)))
        assert right.grad is None
        w.grad = None
        backward(ad.reduce("sum", ad.matmul(t(np.ones((1, 2))), right)))
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    @staticmethod
    def _sibling_graph_failing_once():
        # z = x*x feeds two losses; z's rule raises during backward(l1) only
        x = t([3.0], grad=True)
        z = ad.scale(ad.mul(x, x), 1.0)
        l1, l2 = ad.reduce("sum", z), ad.reduce("sum", ad.scale(z, 2.0))
        rule, calls = z._backward_fn, []

        def fail_once():
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("backward rule failed")
            rule()

        z._backward_fn = fail_once
        with pytest.raises(RuntimeError):
            backward(l1)
        return x, l1, l2

    def test_failed_backward_leaves_no_partial_interior_gradient(self):
        x, _, l2 = self._sibling_graph_failing_once()
        backward(l2)
        np.testing.assert_array_equal(x.grad, [12.0])  # d(2x^2)/dx, nothing of l1

    def test_failed_backward_cannot_be_retried(self):
        _, l1, _ = self._sibling_graph_failing_once()
        with pytest.raises(GraphError):
            backward(l1)

    def test_consumer_released_before_its_parents_rule_runs(self):
        x = t([0.5, -1.0], grad=True)
        y = ad.tanh(x)
        z = ad.scale(y, 2.0)
        rule, seen = y._backward_fn, []

        def watch():
            seen.append((z.grad is None, z._parents, z._backward_fn is None))
            rule()

        y._backward_fn = watch
        backward(ad.reduce("sum", z))
        assert seen == [(True, (), True)]
        np.testing.assert_allclose(x.grad, 2.0 * (1.0 - np.tanh([0.5, -1.0]) ** 2))

    @staticmethod
    def _generator_and_adversary():
        # a dense generator feeding a dense adversary, as in a GAN's generator step
        rng = np.random.default_rng(12)
        gen, adv_w, adv_b = (t(rng.normal(size=s), grad=True) for s in ((3, 4), (2, 3), (2,)))
        h = ad.tanh(ad.matmul(t(rng.normal(size=(5, 4))), ad.transpose(gen)))
        scores = ad.add_rowvec(ad.matmul(h, ad.transpose(adv_w)), adv_b)
        return gen, (adv_w, adv_b), h, ad.reduce("sum", ad.mul(scores, scores))

    @pytest.mark.parametrize("params", [None, "generator"])
    def test_backward_over_params_forms_no_other_gradient(self, monkeypatch, params):
        transposed, transpose = [], ad.transpose
        monkeypatch.setattr(ad, "transpose",
                            lambda a: transposed.append(transpose(a)) or transposed[-1])
        gen, adversary, _, loss = self._generator_and_adversary()
        monkeypatch.undo()
        gen_t, adv_t = transposed
        reached, accumulate = [], Tensor._accumulate
        monkeypatch.setattr(Tensor, "_accumulate",
                            lambda self, g, fresh=False: reached.append(self) or accumulate(self, g, fresh))
        backward(loss, None if params is None else [gen])
        # one weight product per transposed weight that the pass differentiates,
        # the adversary's first as the pass reaches it first
        products = [node for node in reached if node is gen_t or node is adv_t]
        assert products == ([adv_t, gen_t] if params is None else [gen_t])
        monkeypatch.undo()
        full_gen, full_adversary, _, full_loss = self._generator_and_adversary()
        backward(full_loss)
        np.testing.assert_array_equal(gen.grad, full_gen.grad)
        for p, full in zip(adversary, full_adversary):
            assert p.requires_grad
            if params is None:  # today's behaviour: every reachable leaf
                np.testing.assert_array_equal(p.grad, full.grad)
            else:
                assert p.grad is None

    def test_backward_over_params_restores_flags_after_a_failed_pass(self):
        gen, adversary, h, loss = self._generator_and_adversary()

        def fail():
            raise RuntimeError("backward rule failed")

        h._backward_fn = fail
        with pytest.raises(RuntimeError):
            backward(loss, [gen])
        assert all(p.requires_grad and p.grad is None for p in adversary)
        assert gen.requires_grad and h.requires_grad


def record_gradient_buffers(loss: Tensor) -> list:
    """Run backward on `loss` and return (tensor, gradient buffer) for every
    interior node, as its rule saw it, and then for every leaf."""
    seen, held, stack = [], {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) in held:
            continue
        held[id(node)] = node
        stack.extend(node._parents)
        if node._parents:
            def watch(node=node, rule=node._backward_fn):
                seen.append((node, node.grad))
                rule()
            node._backward_fn = watch
    backward(loss)
    return seen + [(n, n.grad) for n in held.values() if not n._parents and n.grad is not None]


OWNERSHIP_CASES = {
    "add": lambda a, b, v: ad.add(a, b),
    "sub": lambda a, b, v: ad.sub(a, b),
    "concat": lambda a, b, v: ad.concat([a, b], axis=0),
    "reshape": lambda a, b, v: ad.add(ad.reshape(a, (3, 2)), ad.reshape(b, (3, 2))),
    "add_rowvec": lambda a, b, v: ad.add_rowvec(ad.add(a, b), v),
    "two_consumers": lambda a, b, v: ad.add(ad.add(a, b), ad.tanh(a)),
    "dense": lambda a, b, v: ad.add_rowvec(ad.matmul(a, ad.transpose(b)), ad.narrow(v, 0, 0, 2)),
}


class TestGradientOwnership:
    @pytest.mark.parametrize("name", sorted(OWNERSHIP_CASES))
    def test_no_two_tensors_share_a_gradient_buffer(self, name):
        rng = np.random.default_rng(15)
        a, b, v = (t(rng.normal(size=s), grad=True) for s in ((2, 3), (2, 3), (3,)))
        out = OWNERSHIP_CASES[name](a, b, v)
        loss = ad.reduce("sum", ad.mul(out, Tensor(rng.normal(size=out.shape))))
        buffers = record_gradient_buffers(loss)
        assert a.grad is not None and b.grad is not None
        for i, (n, g) in enumerate(buffers):
            for m, h in buffers[i + 1:]:
                assert not np.shares_memory(g, h), f"{n} and {m} share a gradient buffer"
        for leaf in (a, b, v):
            if leaf.grad is not None:
                assert leaf.grad.dtype == np.float64 and leaf.grad.flags.c_contiguous

    def test_square_by_mul_gives_twice_g_times_a(self):
        rng = np.random.default_rng(16)
        a, g = t(rng.normal(size=(3, 4)), grad=True), rng.normal(size=(3, 4))
        backward(ad.reduce("sum", ad.mul(ad.mul(a, a), Tensor(g))))
        np.testing.assert_array_equal(a.grad, 2.0 * (g * a.data))

    def test_fresh_contiguous_gradient_is_kept_and_a_view_is_copied(self):
        a, fresh = t(np.zeros((2, 3)), grad=True), np.ones((2, 3))
        a._accumulate(fresh, fresh=True)
        assert a.grad is fresh
        b, base = t(np.zeros((3, 2)), grad=True), np.ones((2, 3))
        b._accumulate(base.T, fresh=True)
        assert b.grad.flags.c_contiguous and not np.shares_memory(b.grad, base)
        c, given = t(np.zeros((2, 3)), grad=True), np.ones((2, 3))
        c._accumulate(given)
        assert not np.shares_memory(c.grad, given)


class TestGradientCheck:
    def test_sum_is_exact(self):
        assert gradient_check(lambda v: ad.reduce("sum", v), t(np.ones((3, 3)))) <= 1e-10

    def test_sigmoid_dense(self):
        rng = np.random.default_rng(9)
        w = Tensor(rng.normal(size=(3, 4)))

        def f(v):
            return ad.reduce("mean", ad.sigmoid(ad.matmul(v, ad.transpose(w))))

        assert gradient_check(f, t(rng.normal(size=(5, 4)))) <= 1e-6

    def test_wrong_gradient_detected(self):
        # negative control: op with a deliberately wrong backward rule
        def bad_square(v):
            out = ad.Tensor(v.data * v.data)
            out.requires_grad = True
            out._parents = (v,)

            def backward_fn():
                v._accumulate(out.grad * 3.0 * v.data)  # should be 2x

            out._backward_fn = backward_fn
            return out

        err = gradient_check(lambda v: ad.reduce("sum", bad_square(v)), t([1.0, 2.0]))
        assert err > 1e-2

    def test_non_finite_reported_with_coordinate(self):
        # a backward rule that hands out NaN
        def g(v):
            out = ad.Tensor(np.array(v.data.sum()))
            out.requires_grad = True
            out._parents = (v,)

            def backward_fn():
                v._accumulate(np.full_like(v.data, np.nan))

            out._backward_fn = backward_fn
            return out

        with pytest.raises(GradientCheckError, match="coordinate"):
            gradient_check(g, t([1.0, 2.0]))


STRUCTURAL_CASES = {
    "reshape": lambda v: ad.reshape(v, (v.size,)),
    "transpose": lambda v: ad.transpose(v),
    "concat": lambda v: ad.concat([v, ad.mul(v, v)], axis=1),
    "narrow": lambda v: ad.narrow(v, 1, 1, 2),
    "upsample2x": lambda v: ad.upsample2x(ad.reshape(v, (1, 1) + v.shape)),
    "avgpool2x": lambda v: ad.avgpool2x(ad.reshape(v, (1, 1) + v.shape)),
    "tile_hw": lambda v: ad.tile_hw(v, 3, 2),
    "log_softmax": lambda v: ad.log_softmax(v),
    "add_rowvec": lambda v: ad.add_rowvec(ad.mul(v, v), ad.reshape(ad.narrow(v, 0, 0, 1), (v.shape[1],))),
    "add_channel_bias": lambda v: ad.add_channel_bias(ad.reshape(ad.mul(v, v), (1, 4, 2, 2)),
                                                      ad.reshape(ad.narrow(v, 0, 0, 1), (4,))),
    "absolute": ad.absolute,
    "sigmoid": ad.sigmoid,
    "tanh": ad.tanh,
    "exp": ad.exp,
    "neg": ad.neg,
    "scale": lambda v: ad.scale(v, -1.7),
    "mul": lambda v: ad.mul(v, v),
    "sub": lambda v: ad.sub(ad.exp(v), v),
    "relu": ad.relu,
    "leaky_relu": lambda v: ad.leaky_relu(v, 0.2),
    "log": lambda v: ad.log(ad.add(ad.mul(v, v), Tensor(0.5))),
    "log_sigmoid": lambda v: ad.log_sigmoid(ad.scale(v, 3.0)),
    "pairwise_sq_dists": lambda v: ad.pairwise_sq_dists(v, ad.mul(v, Tensor(0.5))),
    "rbf_mixture": lambda v: ad.rbf_mixture(ad.mul(v, v), (0.7, 1.9)),
}


@pytest.mark.parametrize("name", sorted(STRUCTURAL_CASES))
def test_every_operation_gradient(name):
    # registered-op invariant: finite-difference error <= 1e-6 on seeded input
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x = rng.normal(size=(4, 4))
    if name in ("relu", "leaky_relu", "absolute"):
        x = x + np.where(x >= 0, 0.5, -0.5)  # keep clear of the kink
    fn = STRUCTURAL_CASES[name]
    err = gradient_check(lambda v: ad.reduce("sum", ad.mul(fn(v), fn(v))), t(x))
    assert err <= 1e-6, f"{name}: {err}"


def test_add_channel_bias_gradient_of_the_bias_alone():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(2, 3, 2, 2)))
    w = Tensor(rng.normal(size=(2, 3, 2, 2)))
    err = gradient_check(lambda v: ad.reduce("sum", ad.mul(ad.add_channel_bias(x, v), w)),
                         t(rng.normal(size=3)))
    assert err <= 1e-6


@pytest.mark.parametrize("op, x, c, factor, want", [
    ("add", [1e-300, 1e-300], 0.0, 1e308, [1e308, 1e308]),  # d c: a sum of two 1e308
    ("sub", [1e-300, 1e-300], 0.0, 1e308, [1e308, 1e308]),
    ("mul", [1e300], [1e-300], 1e10, [1e10 * 1e-300]),      # d c: 1e10 * 1e300
], ids=["add", "sub", "mul"])
def test_constant_operand_gets_no_gradient(op, x, c, factor, want):
    # only the discarded gradient of the constant operand would overflow
    x, c = t(x, grad=True), t(c)
    loss = ad.reduce("sum", ad.scale(getattr(ad, op)(x, c), factor))
    with np.errstate(over="raise"):
        backward(loss)
    np.testing.assert_array_equal(x.grad, want)
    assert c.grad is None


def test_embedding_and_gather_gradients():
    rng = np.random.default_rng(11)
    ids = np.array([0, 2, 2, 1])

    def f_table(v):
        picked = ad.embedding_lookup(v, ids)
        return ad.reduce("sum", ad.mul(picked, picked))

    assert gradient_check(f_table, t(rng.normal(size=(3, 4)))) <= 1e-6

    cols = np.array([1, 0, 3, 2])

    def f_gather(v):
        picked = ad.gather_index(v, cols)
        return ad.reduce("sum", ad.mul(picked, picked))

    assert gradient_check(f_gather, t(rng.normal(size=(4, 4)))) <= 1e-6


def test_conv2d_gradients():
    rng = np.random.default_rng(12)
    k = Tensor(rng.normal(size=(2, 3, 3, 3)))
    x = rng.normal(size=(1, 3, 6, 6))

    def f_input(v):
        out = ad.conv2d(v, k, stride=1, padding=1)
        return ad.reduce("sum", ad.mul(out, out))

    assert gradient_check(f_input, t(x)) <= 1e-6

    xt = Tensor(rng.normal(size=(2, 3, 6, 6)))

    def f_kernel(v):
        out = ad.conv2d(xt, v, stride=2, padding=1)
        return ad.reduce("sum", ad.mul(out, out))

    assert gradient_check(f_kernel, t(rng.normal(size=(2, 3, 4, 4)))) <= 1e-6


def test_forward_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(8, 8)))
        w = Tensor(rng.normal(size=(8, 8)))
        out = ad.reduce("sum", ad.tanh(ad.matmul(x, w)))
        return out.item()

    assert run() == run()


def test_detach_blocks_gradient():
    x = t([1.0, 2.0], grad=True)
    y = Tensor(ad.mul(x, x).data)
    loss = ad.reduce("sum", ad.mul(y, y))
    backward(loss)
    assert x.grad is None


def test_no_grad_suppresses_recording():
    x = t([1.0, 2.0], grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y._parents == () and not y.requires_grad


def test_no_grad_restores_recording_after_nesting_and_errors():
    x = t([1.0, 2.0], grad=True)
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert not ad.mul(x, x).requires_grad  # the inner exit keeps the outer off
    assert ad.mul(x, x).requires_grad
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("forward failed")
    assert ad.mul(x, x).requires_grad
