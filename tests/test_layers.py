"""Layer-level oracles: dense, LSTM, bidirectional encoding, pooling, init."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import autodiff as ad
from xmodal.autodiff import ShapeError, Tensor, backward
from xmodal.layers import (Conv2dLayer, DenseLayer, EmbeddingTable, LSTMCell, bilstm_encode,
                           glorot_uniform, lstm_run, max_over_time)
from xmodal.text_ae import Vocabulary

from helpers import composed_step, gradient_check


def rng_for(seed=0):
    return np.random.default_rng(seed)


class TestDense:
    def test_identity_weight(self):
        layer = DenseLayer(3, 3, rng_for())
        layer.weight.data[...] = np.eye(3)
        layer.bias.data[...] = 0.0
        x = rng_for(1).normal(size=(4, 3))
        np.testing.assert_array_equal(layer(Tensor(x)).data, x)

    def test_zero_weight_gives_bias_rows(self):
        layer = DenseLayer(3, 2, rng_for())
        layer.weight.data[...] = 0.0
        layer.bias.data[...] = [1.5, -2.0]
        out = layer(Tensor(np.ones((5, 3)))).data
        np.testing.assert_array_equal(out, np.tile([1.5, -2.0], (5, 1)))

    def test_vs_matmul_oracle(self):
        layer = DenseLayer(4, 3, rng_for(2))
        x = rng_for(3).normal(size=(6, 4))
        want = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, want, atol=1e-12, rtol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            DenseLayer(4, 3, rng_for())(Tensor(np.ones((2, 5))))

    def test_gradients(self):
        layer = DenseLayer(4, 3, rng_for(4))
        x = Tensor(rng_for(5).normal(size=(5, 4)))

        def f(w):
            layer.weight.data = w.data
            out = layer(x)
            return ad.reduce("sum", ad.mul(out, out))

        probe = Tensor(layer.weight.data.copy())
        # reroute the check through the weight leaf directly
        def g(w):
            out = ad.add_rowvec(ad.matmul(x, ad.transpose(w)), layer.bias)
            return ad.reduce("sum", ad.mul(out, out))

        assert gradient_check(g, probe) <= 1e-6

    def test_weight_gradient_is_row_major(self):
        # the transpose node hands back a column-major view; the parameter is row-major
        layer = DenseLayer(5, 3, rng_for(6))
        backward(ad.reduce("sum", layer(Tensor(rng_for(7).normal(size=(4, 5))))))
        assert layer.weight.grad.flags.c_contiguous


def lstm_scalar_oracle(cell: LSTMCell, x, h, c):
    """Pure-python per-coordinate evaluation of one LSTM step; gate k is columns k*h:(k+1)*h."""
    cat = np.concatenate([x, h])
    hid = cell.hidden_dim

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    gates = {}
    for k, gate in enumerate(LSTMCell.GATES):
        w = cell.weight.data[:, k * hid:(k + 1) * hid]
        b = cell.bias.data[k * hid:(k + 1) * hid]
        gates[gate] = np.array([np.dot(w[:, j], cat) + b[j] for j in range(hid)])
    i, f, o = sig(gates["input"]), sig(gates["forget"]), sig(gates["output"])
    g = np.tanh(gates["candidate"])
    c_t = f * c + i * g
    return o * np.tanh(c_t), c_t


def state(h, c) -> Tensor:
    """The [h | c] state tensor of a cell."""
    return Tensor(np.concatenate([h, c], axis=1))


class TestLSTMCell:
    def test_all_zero_parameters(self):
        cell = LSTMCell(3, 4, rng_for(0))
        cell.weight.data[...] = 0.0
        cell.bias.data[...] = 0.0
        hc_t = cell.step(Tensor(np.ones((2, 3))), cell.zero_state(2))
        assert hc_t.shape == (2, 8)
        np.testing.assert_array_equal(hc_t.data, 0.0)

    def test_forget_saturation_carries_memory(self):
        cell = LSTMCell(3, 4, rng_for(1))
        cell.weight.data[...] = 0.0
        cell.bias.data[...] = 0.0
        cell.bias.data[4:8] = 50.0  # saturated forget gate
        c_prev = rng_for(2).normal(size=(2, 4))
        hc_t = cell.step(Tensor(np.ones((2, 3))), state(np.zeros((2, 4)), c_prev))
        np.testing.assert_allclose(hc_t.data[:, 4:], c_prev, atol=1e-12)

    def test_vs_scalar_oracle(self):
        cell = LSTMCell(3, 5, rng_for(3))
        x = rng_for(4).normal(size=(2, 3))
        h = rng_for(5).normal(size=(2, 5))
        c = rng_for(6).normal(size=(2, 5))
        hc_t = cell.step(Tensor(x), state(h, c)).data
        for row in range(2):
            h_want, c_want = lstm_scalar_oracle(cell, x[row], h[row], c[row])
            np.testing.assert_allclose(hc_t[row, :5], h_want, atol=1e-12, rtol=0)
            np.testing.assert_allclose(hc_t[row, 5:], c_want, atol=1e-12, rtol=0)

    def test_initial_values_are_the_per_gate_draws(self):
        # each gate is its own Glorot draw with fan-out hidden, in GATES order;
        # one fused draw with fan-out 4*hidden would move every text artifact
        d, h = 3, 4
        cell = LSTMCell(d, h, rng_for(7))
        rng = rng_for(7)
        want = np.concatenate([glorot_uniform(rng, (h, d + h), d + h, h) for _ in LSTMCell.GATES]).T
        assert cell.weight.shape == (d + h, 4 * h)
        assert np.array_equal(cell.weight.data, want)
        np.testing.assert_array_equal(cell.bias.data[h:2 * h], 1.0)  # forget gate
        np.testing.assert_array_equal(np.delete(cell.bias.data, np.s_[h:2 * h]), 0.0)

    @pytest.mark.parametrize("x_shape, hc_shape", [((2, 3), (2, 10)), ((2, 3), (1, 8)),
                                                   ((2, 3), (2, 4)), ((2, 4), (2, 8))])
    def test_shape_mismatch(self, x_shape, hc_shape):
        cell = LSTMCell(3, 4, rng_for(8))
        with pytest.raises(ShapeError):
            cell.step(Tensor(np.ones(x_shape)), Tensor(np.ones(hc_shape)))

    def test_gradient_through_step(self):
        cell = LSTMCell(3, 4, rng_for(9))
        hc0 = cell.zero_state(2)

        def f(v):
            hc_t = cell.step(v, hc0)
            return ad.reduce("sum", ad.mul(ad.narrow(hc_t, 1, 0, 4), ad.narrow(hc_t, 1, 4, 4)))

        assert gradient_check(f, Tensor(rng_for(10).normal(size=(2, 3)))) <= 1e-6

    def test_run_makes_one_lstm_step_per_step_and_no_matmul(self, monkeypatch):
        calls = {"matmul": 0, "transpose": 0, "lstm_step": 0}
        for name in calls:
            def counted(*args, _fn=getattr(ad, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(ad, name, counted)
        cell = LSTMCell(3, 4, rng_for(11))
        lstm_run(cell, Tensor(rng_for(12).normal(size=(5, 2, 3))))
        assert calls == {"matmul": 0, "transpose": 0, "lstm_step": 5}

    def test_run_records_two_nodes_per_step_and_three_per_run(self, monkeypatch):
        # the narrow of the input rows and the lstm_step per step; the reshape of
        # the input, the concat of the states and the narrow of their h columns per run
        made = []

        def counted(*args, _fn=ad._make_node):
            made.append(_fn(*args))
            return made[-1]

        monkeypatch.setattr(ad, "_make_node", counted)
        cell = LSTMCell(3, 4, rng_for(11))
        lstm_run(cell, Tensor(rng_for(12).normal(size=(5, 2, 3)), requires_grad=True))
        assert len(made) == 2 * 5 + 3
        assert all(node.requires_grad for node in made)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_run_is_bit_identical_to_the_composed_step(self, monkeypatch, reverse):
        def run(step):
            cell = LSTMCell(3, 4, rng_for(16))
            x = Tensor(rng_for(17).normal(size=(5, 2, 3)), requires_grad=True)
            hc0 = Tensor(rng_for(18).normal(size=(2, 8)), requires_grad=True)
            monkeypatch.setattr(cell, "step", step(cell))
            out = lstm_run(cell, x, reverse=reverse, state=hc0)
            w = Tensor(rng_for(19).normal(size=(10, 4)))
            backward(ad.reduce("sum", ad.mul(out, w)))
            return [out.data, x.grad, hc0.grad, cell.weight.grad, cell.bias.grad]

        fused = run(lambda cell: cell.step)
        composed = run(lambda cell: lambda *args: composed_step(cell, *args))
        assert all(np.array_equal(a, b) for a, b in zip(fused, composed, strict=True))

    @pytest.mark.parametrize("constant_hc", [True, False])
    def test_step_is_bit_identical_to_the_composed_step(self, constant_hc):
        def run(step):
            cell = LSTMCell(3, 4, rng_for(19))
            rng = rng_for(20)
            x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
            hc = Tensor(rng.normal(size=(2, 8)), requires_grad=not constant_hc)
            hc_t = step(cell, x, hc)
            backward(ad.reduce("sum", ad.mul(hc_t, Tensor(rng.normal(size=(2, 8))))))
            return [hc_t.data, x.grad, hc.grad, cell.weight.grad, cell.bias.grad]

        fused = run(LSTMCell.step)
        composed = run(composed_step)
        assert (fused[2] is None) == constant_hc
        assert all(np.array_equal(a, b) for a, b in zip(fused, composed, strict=True))

    def test_run_writes_the_fused_weight_gradient_once(self):
        class CountedWeight(Tensor):
            """A leaf that counts the arrays written into its gradient buffer."""
            __slots__ = ("writes",)

            def __init__(self, data):
                self.writes = 0
                super().__init__(data, requires_grad=True)

            @property
            def grad(self):
                return Tensor.grad.__get__(self)

            @grad.setter
            def grad(self, value):
                self.writes += value is not None
                Tensor.grad.__set__(self, value)

        cell = LSTMCell(3, 4, rng_for(13))
        x = rng_for(14).normal(size=(5, 2, 3))
        weight = cell.weight.data

        # oracle: a separate weight leaf per step, each given its own product
        leaves, states = [], []
        hc = cell.zero_state(2)
        for t in range(5):
            cell.weight = Tensor(weight, requires_grad=True)
            leaves.append(cell.weight)
            hc = cell.step(Tensor(x[t]), hc)
            states.append(ad.narrow(hc, 1, 0, 4))
        backward(ad.reduce("sum", ad.stack0(states)))
        want = sum(leaf.grad for leaf in leaves)

        cell.weight = CountedWeight(weight)
        backward(ad.reduce("sum", lstm_run(cell, Tensor(x))))
        assert cell.weight.writes == 1  # one product for the 5 steps, not one per step
        np.testing.assert_allclose(cell.weight.grad, want, atol=1e-12, rtol=0)


class TestBiLSTM:
    def test_single_step_is_concat(self):
        fwd, bwd = LSTMCell(3, 4, rng_for(0)), LSTMCell(3, 4, rng_for(1))
        x = rng_for(2).normal(size=(1, 2, 3))
        out = bilstm_encode(fwd, bwd, Tensor(x))
        h_f = fwd.step(Tensor(x[0]), fwd.zero_state(2)).data[:, :4]
        h_b = bwd.step(Tensor(x[0]), bwd.zero_state(2)).data[:, :4]
        np.testing.assert_allclose(out.data[0], np.concatenate([h_f, h_b], axis=1), atol=1e-14)

    def test_output_shape_with_paper_hidden(self):
        fwd, bwd = LSTMCell(7, 50, rng_for(3)), LSTMCell(7, 50, rng_for(4))
        out = bilstm_encode(fwd, bwd, Tensor(rng_for(5).normal(size=(5, 2, 7))))
        assert out.shape == (5, 2, 100)

    def test_palindrome_with_tied_weights(self):
        cell = LSTMCell(3, 4, rng_for(6))
        seq = rng_for(7).normal(size=(3, 1, 3))
        pal = np.concatenate([seq, seq[::-1]], axis=0)  # x_t == x_{T-1-t}
        out = bilstm_encode(cell, cell, Tensor(pal)).data
        t_steps = pal.shape[0]
        for t in range(t_steps):
            mirrored = out[t_steps - 1 - t]
            swapped = np.concatenate([mirrored[:, 4:], mirrored[:, :4]], axis=1)
            np.testing.assert_allclose(out[t], swapped, atol=1e-12)

    def test_empty_sequence_rejected(self):
        fwd, bwd = LSTMCell(3, 4, rng_for(8)), LSTMCell(3, 4, rng_for(9))
        with pytest.raises(ShapeError):
            lstm_run(fwd, Tensor(np.zeros((0, 2, 3))))
        with pytest.raises(ShapeError):
            bilstm_encode(fwd, bwd, Tensor(np.zeros((2, 3))))


class TestMaxOverTime:
    def test_single_timestep_identity(self):
        h = rng_for(0).normal(size=(1, 3, 4))
        np.testing.assert_array_equal(max_over_time(Tensor(h)).data, h[0])

    def test_dominant_timestep(self):
        h = rng_for(1).normal(size=(4, 2, 3))
        h[2] = 100.0
        np.testing.assert_array_equal(max_over_time(Tensor(h)).data, h[2])

    def test_gradient_vs_finite_differences(self):
        h = rng_for(2).normal(size=(4, 2, 3))

        def f(v):
            pooled = max_over_time(v)
            return ad.reduce("sum", ad.mul(pooled, pooled))

        assert gradient_check(f, Tensor(h)) <= 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5), st.integers(0, 10 ** 6))
    def test_pooled_dominates_every_timestep(self, t_steps, batch, dim, seed):
        h = np.random.default_rng(seed).normal(size=(t_steps, batch, dim))
        pooled = max_over_time(Tensor(h)).data
        assert np.all(pooled[None, :, :] >= h - 1e-15)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = DenseLayer(7, 5, rng_for(42))
        b = DenseLayer(7, 5, rng_for(42))
        assert np.array_equal(a.weight.data, b.weight.data)
        c1 = Conv2dLayer(3, 8, 3, 1, 1, rng_for(7))
        c2 = Conv2dLayer(3, 8, 3, 1, 1, rng_for(7))
        assert np.array_equal(c1.kernels.data, c2.kernels.data)

    def test_empirical_mean_near_zero(self):
        draws = glorot_uniform(rng_for(11), (100, 100), 100, 100)
        a = np.sqrt(6.0 / 200.0)
        stderr = a / np.sqrt(3.0) / np.sqrt(draws.size)
        assert abs(draws.mean()) <= 3.0 * stderr

    def test_values_within_bound(self):
        a = np.sqrt(6.0 / (30 + 20))
        draws = glorot_uniform(rng_for(12), (20, 30), 30, 20)
        assert np.all(np.abs(draws) < a)

    def test_biases_zero(self):
        layer = DenseLayer(4, 3, rng_for(13))
        np.testing.assert_array_equal(layer.bias.data, 0.0)
        conv = Conv2dLayer(3, 4, 3, 1, 1, rng_for(14))
        np.testing.assert_array_equal(conv.bias.data, 0.0)


class TestEmbeddingTable:
    def test_lookup_shape_and_specials(self):
        # the special ids, which Vocabulary owns, are the first four rows
        table = EmbeddingTable(10, 6, rng_for(0))
        specials = [Vocabulary.PAD, Vocabulary.BOS, Vocabulary.EOS, Vocabulary.UNK]
        out = table(np.array([specials, [9, 3, 9, 3]]))
        assert out.shape == (2, 4, 6)
        np.testing.assert_array_equal(out.data[0], table.table.data[:4])

    def test_out_of_range_rejected(self):
        table = EmbeddingTable(10, 6, rng_for(1))
        with pytest.raises(ShapeError):
            table(np.array([10]))

    def test_gradient_accumulates_per_use(self):
        table = EmbeddingTable(5, 3, rng_for(2))
        out = table(np.array([2, 2, 4]))
        backward(ad.reduce("sum", out))
        grad = table.table.grad
        np.testing.assert_array_equal(grad[2], 2.0)
        np.testing.assert_array_equal(grad[4], 1.0)
        np.testing.assert_array_equal(grad[0], 0.0)


def test_named_parameters_unique_and_complete():
    cell = LSTMCell(3, 4, rng_for(3))
    names = [name for name, _ in cell.named_parameters()]
    assert len(names) == len(set(names)) == 2
