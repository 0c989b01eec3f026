"""Layer-level oracles: dense, LSTM, bidirectional encoding, pooling, init."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import autodiff as ad
from xmodal.autodiff import ShapeError, Tensor, backward
from xmodal.layers import (Conv2dLayer, DenseLayer, EmbeddingTable, LSTMCell, bilstm_encode,
                           glorot_uniform, lstm_run, max_over_time)
from xmodal.text_ae import TextAutoencoder, Vocabulary, decode_texts, train_text_autoencoder

from helpers import composed_run, composed_step, gradient_check


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


def state(h, c) -> np.ndarray:
    """The [h | c] state array of a cell."""
    return np.concatenate([h, c], axis=1)


class TestLSTMCell:
    def test_all_zero_parameters(self):
        cell = LSTMCell(3, 4, rng_for(0))
        cell.weight.data[...] = 0.0
        cell.bias.data[...] = 0.0
        hc_t, _ = cell.step(np.ones((2, 3)), np.zeros((2, 8)))
        assert hc_t.shape == (2, 8)
        np.testing.assert_array_equal(hc_t, 0.0)

    def test_forget_saturation_carries_memory(self):
        cell = LSTMCell(3, 4, rng_for(1))
        cell.weight.data[...] = 0.0
        cell.bias.data[...] = 0.0
        cell.bias.data[4:8] = 50.0  # saturated forget gate
        c_prev = rng_for(2).normal(size=(2, 4))
        hc_t, _ = cell.step(np.ones((2, 3)), state(np.zeros((2, 4)), c_prev))
        np.testing.assert_allclose(hc_t[:, 4:], c_prev, atol=1e-12)

    def test_vs_scalar_oracle(self):
        cell = LSTMCell(3, 5, rng_for(3))
        x = rng_for(4).normal(size=(2, 3))
        h = rng_for(5).normal(size=(2, 5))
        c = rng_for(6).normal(size=(2, 5))
        hc_t, _ = cell.step(x, state(h, c))
        for row in range(2):
            h_want, c_want = lstm_scalar_oracle(cell, x[row], h[row], c[row])
            np.testing.assert_allclose(hc_t[row, :5], h_want, atol=1e-12, rtol=0)
            np.testing.assert_allclose(hc_t[row, 5:], c_want, atol=1e-12, rtol=0)

    def test_step_is_bit_identical_to_the_composed_step(self):
        cell = LSTMCell(3, 4, rng_for(19))
        rng = rng_for(20)
        x, hc = rng.normal(size=(2, 3)), rng.normal(size=(2, 8))
        hc_t, (xh, ifo, g, c_prev, tc) = cell.step(x, hc)
        assert hc_t.tobytes() == composed_step(cell, Tensor(x), Tensor(hc)).data.tobytes()
        assert np.array_equal(xh, np.concatenate([x, hc[:, :4]], axis=1))
        assert ifo.shape == (2, 12) and g.shape == c_prev.shape == tc.shape == (2, 4)
        assert np.array_equal(c_prev, hc[:, 4:]) and np.array_equal(tc, np.tanh(hc_t[:, 4:]))

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


class TestLSTMRun:
    @pytest.mark.parametrize("x_shape, hc_shape", [
        ((2, 3), (2, 10)),   # state wider than [h | c]
        ((2, 3), (1, 8)),    # batch differs
        ((2, 3), (2, 4)),    # state narrower
        ((2, 4), (2, 8)),    # input width is not the cell's
        ((2, 3), (8,)),      # rank of the state
        ((2, 3), (1, 2, 8)),
    ])
    def test_shape_mismatch(self, x_shape, hc_shape):
        cell = LSTMCell(3, 4, rng_for(8))
        with pytest.raises(ShapeError):
            lstm_run(cell, Tensor(np.ones((1,) + x_shape)), state=Tensor(np.ones(hc_shape)))

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("which", ["inputs", "state", "weight", "bias"])
    def test_gradient_of_each_operand(self, which, reverse):
        rng = rng_for(15)
        cell = LSTMCell(3, 4, rng)
        operands = {"inputs": rng.normal(size=(3, 2, 3)), "state": rng.normal(size=(2, 8)),
                    "weight": cell.weight.data, "bias": cell.bias.data}
        w = Tensor(rng.normal(size=(6, 4)))

        def loss(v):
            args = {name: Tensor(a) for name, a in operands.items()}
            args[which] = v
            cell.weight, cell.bias = args["weight"], args["bias"]
            out = lstm_run(cell, args["inputs"], reverse=reverse, state=args["state"])
            return ad.reduce("sum", ad.mul(out, w))

        assert gradient_check(loss, Tensor(operands[which])) <= 1e-6

    def test_constant_operands_get_no_gradient(self):
        rng = rng_for(16)
        cell = LSTMCell(3, 4, rng)
        cell.bias.requires_grad = False
        x, hc = Tensor(rng.normal(size=(3, 2, 3))), Tensor(rng.normal(size=(2, 8)))
        backward(ad.reduce("sum", lstm_run(cell, x, state=hc)))
        assert cell.weight.grad is not None
        assert x.grad is None and hc.grad is None and cell.bias.grad is None

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("t_steps, batch", [(5, 1), (5, 2), (1, 1), (1, 2)])
    @pytest.mark.parametrize("start", ["zeros", "constant", "with-gradient"])
    def test_run_is_bit_identical_to_the_composed_run(self, reverse, t_steps, batch, start):
        def run(run_fn):
            rng = rng_for(17)
            cell = LSTMCell(3, 4, rng)
            x = Tensor(rng.normal(size=(t_steps, batch, 3)), requires_grad=True)
            hc0 = None if start == "zeros" else Tensor(rng.normal(size=(batch, 8)),
                                                       requires_grad=start == "with-gradient")
            out = run_fn(cell, x, reverse=reverse, state=hc0)
            w = rng.normal(size=out.shape)
            w[:batch, ::2] = -0.0  # signed zeros into one step's h gradient
            backward(ad.reduce("sum", ad.mul(out, Tensor(w))))
            grads = [x.grad, None if hc0 is None else hc0.grad, cell.weight.grad, cell.bias.grad]
            return [out.data.tobytes()] + [None if g is None else g.tobytes() for g in grads]

        got, want = run(lstm_run), run(composed_run)
        assert (got[2] is None) == (start != "with-gradient")
        assert got == want

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_signed_zeros_are_the_composed_run_s(self, reverse):
        # one hidden unit; x0 drives the output gate and x1 the forget gate. The
        # first step in run order shuts its output gate and the second its forget
        # gate, so the second passes back dc * f = -0.5 * 0.0 to the first, which
        # adds it to the concat's zero-filled c gradient: 0.0 + -0.0 is 0.0, and
        # the start state's c gradient reads +0.0 where -0.0 + -0.0 would give -0.0
        x = np.array([[[-1000.0, 0.0]], [[0.0, -1000.0]]])

        def run(run_fn):
            cell = LSTMCell(2, 1, rng_for(0))
            cell.weight.data[...] = 0.0
            cell.weight.data[0, 2] = cell.weight.data[1, 1] = 1.0
            cell.bias.data[...] = 0.0
            hc0 = Tensor(np.zeros((1, 2)), requires_grad=True)
            out = run_fn(cell, Tensor(x[::-1] if reverse else x), reverse=reverse, state=hc0)
            backward(ad.reduce("sum", ad.scale(out, -1.0)))
            return [a.tobytes() for a in (out.data, hc0.grad, cell.weight.grad, cell.bias.grad)]

        assert run(lstm_run) == run(composed_run)

    def test_run_records_one_node_and_the_reshape(self, monkeypatch):
        made = []

        def counted(*args, _fn=ad._make_node):
            made.append(_fn(*args))
            return made[-1]

        monkeypatch.setattr(ad, "_make_node", counted)
        cell = LSTMCell(3, 4, rng_for(11))
        x = Tensor(rng_for(12).normal(size=(5, 2, 3)), requires_grad=True)
        out = lstm_run(cell, x)
        assert made[-1] is out and len(made) == 2
        assert all(node.requires_grad for node in made)
        assert out._parents == (made[0], cell.weight, cell.bias)

    def test_run_under_no_grad_keeps_nothing(self):
        cell = LSTMCell(3, 4, rng_for(11))
        x = Tensor(rng_for(12).normal(size=(5, 2, 3)), requires_grad=True)
        with ad.no_grad():
            out = lstm_run(cell, x, state=Tensor(np.zeros((2, 8)), requires_grad=True))
        assert out._parents == () and out._backward_fn is None and not out.requires_grad

    @staticmethod
    def count_steps(monkeypatch) -> list:
        calls = []

        def counted(self, *args, _fn=LSTMCell.step):
            calls.append(self)
            return _fn(self, *args)

        monkeypatch.setattr(LSTMCell, "step", counted)
        return calls

    @pytest.mark.parametrize("caption", ["red circle", "a small red circle on white"])
    def test_training_step_steps_the_cells_three_t_plus_one_times(self, monkeypatch, caption):
        # T steps of each encoder direction and T + 1 of the decoder (BOS, then the tokens)
        corpus = [(0, caption.split())]
        vocab = Vocabulary.from_corpus(corpus)
        model = TextAutoencoder(len(vocab), 5, 3, rng_for(21))
        calls = self.count_steps(monkeypatch)
        train_text_autoencoder(corpus, vocab, model, epochs=1, batch_size=1, lr=1e-3,
                               rng=rng_for(22))
        t_steps = len(corpus[0][1])
        assert len(calls) == 3 * t_steps + 1
        assert calls.count(model.dec) == t_steps + 1

    def test_decode_steps_the_cell_once_per_emitted_step(self, monkeypatch):
        vocab = Vocabulary.from_corpus([(0, "a red circle on a white square".split())])
        model = TextAutoencoder(len(vocab), 5, 3, rng_for(26), max_len=8)
        model.out.bias.data[Vocabulary.EOS] += 0.2  # every row ends, after 0 to 2 tokens
        s = rng_for(24).normal(size=(8, model.sentence_dim)) * 3.0
        calls = self.count_steps(monkeypatch)
        rows = decode_texts(model, s)
        # the batch stops at the step where its last row met EOS
        steps = max(len(ids) + 1 for ids in rows)
        assert steps < model.max_len and len({len(ids) for ids in rows}) > 1
        assert len(calls) == steps and set(map(id, calls)) == {id(model.dec)}

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
        hc = Tensor(np.zeros((2, 8)))
        for t in range(5):
            cell.weight = Tensor(weight, requires_grad=True)
            leaves.append(cell.weight)
            hc = composed_step(cell, Tensor(x[t]), hc)
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
        h_f = fwd.step(x[0], np.zeros((2, 8)))[0][:, :4]
        h_b = bwd.step(x[0], np.zeros((2, 8)))[0][:, :4]
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
