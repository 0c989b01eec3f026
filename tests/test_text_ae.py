"""Text autoencoder: tokenizer, vocabulary, encoding, decoding, training."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal import autodiff as ad
from xmodal import layers, text_ae
from xmodal.autodiff import ShapeError, Tensor, backward
from xmodal.errors import FormatError
from xmodal.layers import bilstm_encode
from xmodal.text_ae import (TextAutoencoder, Vocabulary, decode_text, decode_texts, decoder_loss,
                            detokenize, encode_text, encode_texts, roundtrip, tokenize,
                            train_text_autoencoder)

from helpers import composed_run, composed_step, gate_product, gradient_check

CORPUS = [
    (0, tokenize("a red circle on a white background")),
    (1, tokenize("there is a red square")),
    (2, tokenize("the triangle is red")),
    (5, tokenize("a green square on a white background")),
    (10, tokenize("the triangle is blue")),
]


def make_model(vocab, seed=0, max_len=24):
    return TextAutoencoder(len(vocab), 100, 50, np.random.default_rng(seed), max_len=max_len)


class TestTokenizer:
    def test_lowercase_and_punctuation(self):
        assert tokenize("A Red Circle, on a WHITE background!") == \
            ["a", "red", "circle", "on", "a", "white", "background"]

    def test_roundtrip(self):
        sentence = "a red circle on a white background"
        assert detokenize(tokenize(sentence)) == sentence

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(alphabet="abcz019", min_size=1, max_size=6), min_size=1, max_size=8))
    def test_roundtrip_property(self, words):
        sentence = " ".join(words)
        assert detokenize(tokenize(sentence)) == sentence


class TestVocabulary:
    def test_special_ids(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        assert (vocab.PAD, vocab.BOS, vocab.EOS, vocab.UNK) == (0, 1, 2, 3)
        assert vocab.decode([0, 1, 2, 3]) == list(Vocabulary.SPECIALS)

    def test_bijective_over_words(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        words = sorted({t for _, toks in CORPUS for t in toks})
        ids = vocab.encode(words)
        assert len(set(ids.tolist())) == len(words)
        assert vocab.decode(ids) == words

    def test_oov_maps_to_unk(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        assert vocab.encode(["zeppelin"]).tolist() == [Vocabulary.UNK]

    def test_save_load_roundtrip(self, tmp_path):
        vocab = Vocabulary.from_corpus(CORPUS)
        vocab.save(tmp_path / "vocab.txt")
        loaded = Vocabulary.load(tmp_path / "vocab.txt")
        assert len(loaded) == len(vocab)
        words = ["red", "circle", "background"]
        assert loaded.encode(words).tolist() == vocab.encode(words).tolist()

    def test_load_rejects_bad_specials(self, tmp_path):
        (tmp_path / "bad.txt").write_text("<pad>\n<bos>\nwrong\n<unk>\nred\n")
        with pytest.raises(FormatError):
            Vocabulary.load(tmp_path / "bad.txt")


class TestEncode:
    def test_single_token_equals_concat_hidden(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab, seed=1)
        ids = vocab.encode(["red"])
        s = encode_text(model, ids)
        hidden = bilstm_encode(model.enc_fwd, model.enc_bwd, model.embed(ids[:, None]))
        np.testing.assert_allclose(s, hidden.data[0, 0], atol=1e-14)
        assert s.shape == (100,)

    def test_deterministic(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab, seed=2)
        ids = vocab.encode(CORPUS[0][1])
        assert np.array_equal(encode_text(model, ids), encode_text(model, ids))

    def test_empty_rejected(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab)
        with pytest.raises(ShapeError):
            encode_text(model, np.array([], dtype=np.int64))

    def test_too_long_rejected(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab, max_len=4)
        with pytest.raises(ShapeError):
            encode_text(model, vocab.encode(CORPUS[0][1]))

    def test_pooling_monotone_in_sequence_extension(self):
        # recorded hidden sequences: pooling over a prefix never exceeds
        # pooling over the full sequence
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab, seed=3)
        ids = vocab.encode(CORPUS[0][1])
        from xmodal.layers import max_over_time
        hidden = bilstm_encode(model.enc_fwd, model.enc_bwd, model.embed(ids[:, None])).data
        for t in range(1, len(ids) + 1):
            prefix = max_over_time(Tensor(hidden[:t])).data
            full = max_over_time(Tensor(hidden)).data
            assert np.all(prefix <= full + 1e-15)

    @pytest.mark.parametrize("bad", [[], list(range(4, 30))], ids=["empty", "over-long"])
    def test_a_bad_sequence_in_a_set_is_rejected(self, bad):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab)
        good = [vocab.encode(tokens) for _, tokens in CORPUS]
        with pytest.raises(ShapeError):
            encode_texts(model, good[:2] + [np.asarray(bad, dtype=np.int64)] + good[2:])

    def test_set_equals_one_at_a_time_in_record_order(self, monkeypatch):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab, seed=9)
        rng = np.random.default_rng(9)
        lengths = [3, 5, 2, 3, 2, 5, 7, 2, 3, 5]  # 2, 3 and 5 interleaved; 7 once
        seqs = [rng.integers(0, len(vocab), size=n) for n in lengths]
        want = np.stack([encode_text(model, ids) for ids in seqs])
        calls = []
        encode_ids = model.encode_ids
        monkeypatch.setattr(model, "encode_ids", lambda ids: calls.append(ids.shape) or encode_ids(ids))
        got = encode_texts(model, seqs)
        assert calls == [(2, 3), (3, 3), (5, 3), (7, 1)]  # one pass per length group
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


class TestDecode:
    def test_deterministic(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab, seed=4)
        s = np.random.default_rng(0).normal(size=100)
        assert decode_text(model, s) == decode_text(model, s)

    def test_no_pad_or_bos_and_truncation(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab, seed=5, max_len=6)
        for seed in range(10):
            s = np.random.default_rng(seed).normal(size=100) * 3.0
            out = decode_text(model, s)
            assert len(out) <= 6
            assert Vocabulary.PAD not in out
            assert Vocabulary.BOS not in out
            assert Vocabulary.EOS not in out

    def test_wrong_dimension_rejected(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab)
        with pytest.raises(ShapeError):
            decode_text(model, np.zeros(64))


def decode_one_row(model, s):
    """Oracle: greedy decoding of one embedding by stepping the cell on one row."""
    out = []
    with ad.no_grad():
        hc = np.concatenate([s, np.zeros(model.sentence_dim)]).reshape(1, -1)
        prev = np.asarray([Vocabulary.BOS])
        for _ in range(model.max_len):
            hc, _ = model.dec.step(model.embed(prev).data, hc)
            logits = model.out(Tensor(hc[:, :model.sentence_dim])).data[0].copy()
            logits[Vocabulary.PAD] = -np.inf
            logits[Vocabulary.BOS] = -np.inf
            token = int(np.argmax(logits))
            if token == Vocabulary.EOS:
                break
            out.append(token)
            prev = np.asarray([token])
    return out


class TestDecodeTexts:
    """The batch decoder steps all rows together and matches one-row decoding."""

    def model_and_batch(self, n=12):
        model = make_model(Vocabulary.from_corpus(CORPUS), seed=1, max_len=8)
        model.out.bias.data[Vocabulary.EOS] += 0.25  # some rows end early, some run to max_len
        return model, np.random.default_rng(1).normal(size=(n, 100)) * 3.0

    def test_matches_one_row_decoding_at_mixed_lengths(self):
        model, s = self.model_and_batch()
        got = decode_texts(model, s)
        assert got == [decode_one_row(model, row) for row in s]
        lengths = {len(ids) for ids in got}
        assert 0 in lengths and model.max_len in lengths and len(lengths) >= 4

    def test_row_at_max_len_keeps_every_token(self):
        model, s = self.model_and_batch()
        model.out.bias.data[Vocabulary.EOS] = -1e3  # no row ever ends on EOS
        got = decode_texts(model, s)
        assert all(len(ids) == model.max_len for ids in got)
        assert got == [decode_one_row(model, row) for row in s]

    def test_all_tie_row_decodes_to_nothing(self):
        model, s = self.model_and_batch(n=3)
        model.out.weight.data[:] = 0.0
        model.out.bias.data[:] = 0.0  # every logit ties; PAD and BOS are suppressed, EOS wins
        assert decode_texts(model, s) == [[], [], []]
        assert decode_one_row(model, s[0]) == []

    def test_one_row_is_decode_text(self):
        model, s = self.model_and_batch(n=1)
        assert decode_texts(model, s) == [decode_text(model, s[0])] == [decode_one_row(model, s[0])]

    @pytest.mark.parametrize("shape", [(100,), (3, 64), (3, 101), (2, 3, 100)])
    def test_bad_shape_rejected(self, shape):
        model, _ = self.model_and_batch()
        with pytest.raises(ShapeError):
            decode_texts(model, np.zeros(shape))


class TestDecoderLoss:
    def test_uniform_predictor_gives_log_vocab(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab, seed=6)
        model.out.weight.data[...] = 0.0
        model.out.bias.data[...] = 0.0  # uniform logits
        ids = vocab.encode(CORPUS[0][1])[:, None]
        s = model.encode_ids(ids)
        bos = np.full((1, 1), Vocabulary.BOS, dtype=np.int64)
        eos = np.full((1, 1), Vocabulary.EOS, dtype=np.int64)
        loss = decoder_loss(model, s, np.concatenate([bos, ids]), np.concatenate([ids, eos]))
        assert loss.item() == pytest.approx(np.log(len(vocab)), abs=1e-12)

    @staticmethod
    def per_step_oracle(model, s, input_ids, target_ids):
        """Mean token cross-entropy in numpy, one decoder step and one gate at a time."""
        hid = model.dec.hidden_dim

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        def pre(gate, cat):
            k = model.dec.GATES.index(gate)  # gate k is columns k*hid:(k+1)*hid
            cols = slice(k * hid, (k + 1) * hid)
            return cat @ model.dec.weight.data[:, cols] + model.dec.bias.data[cols]

        h, c = s.copy(), np.zeros_like(s)
        total = 0.0
        for inputs, targets in zip(input_ids, target_ids):
            cat = np.concatenate([model.embed.table.data[inputs], h], axis=1)
            c = sig(pre("forget", cat)) * c + sig(pre("input", cat)) * np.tanh(pre("candidate", cat))
            h = sig(pre("output", cat)) * np.tanh(c)
            logits = h @ model.out.weight.data.T + model.out.bias.data
            z = logits - logits.max(axis=1, keepdims=True)
            log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            total += log_probs[np.arange(len(targets)), targets].sum()
        return -total / target_ids.size

    def test_vs_per_step_oracle(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab, seed=10)
        rng = np.random.default_rng(11)
        input_ids = rng.integers(0, len(vocab), size=(5, 3))
        target_ids = rng.integers(0, len(vocab), size=(5, 3))
        s = rng.normal(size=(3, model.sentence_dim))
        loss = decoder_loss(model, Tensor(s), input_ids, target_ids).item()
        assert abs(loss - self.per_step_oracle(model, s, input_ids, target_ids)) <= 1e-12

    @staticmethod
    def per_step_logits(model, s, input_ids):
        """The decoder as its own loop of composed steps through one gate product,
        one embedding lookup per step."""
        hc = model._dec_start(s)
        product, states = gate_product(model.dec.weight), []
        for t in range(input_ids.shape[0]):
            hc = composed_step(model.dec, model.embed(input_ids[t]), hc, product)
            states.append(ad.narrow(hc, 1, 0, model.dec.hidden_dim))
        return model.out(ad.concat(states, axis=0))

    @staticmethod
    def teacher_forced(logits_fn, vocab, tokens):
        """Logits of a pass over (T, batch) `tokens` from their own encoding, then
        every parameter gradient of a weighted sum of the logits."""
        model = make_model(vocab, seed=14)
        bos = np.full((1, tokens.shape[1]), Vocabulary.BOS, dtype=np.int64)
        logits = logits_fn(model, model.encode_ids(tokens), np.concatenate([bos, tokens]))
        weights = np.random.default_rng(15).normal(size=logits.shape)
        backward(ad.reduce("sum", ad.mul(logits, Tensor(weights))))
        return {"logits": logits.data, **{name: p.grad for name, p in model.named_parameters()}}

    def test_logits_and_gradients_bit_equal_to_a_per_step_loop(self):
        # each caption alone, as training at batch 1 feeds it
        vocab = Vocabulary.from_corpus(CORPUS)
        for _, tokens in CORPUS:
            ids = vocab.encode(tokens)[:, None]
            want = self.teacher_forced(self.per_step_logits, vocab, ids)
            got = self.teacher_forced(TextAutoencoder.decoder_logits, vocab, ids)
            assert all(np.array_equal(got[k], want[k]) for k in want), tokens

    def test_batch_with_repeated_tokens_moves_only_the_table_gradient(self):
        # One lookup adds the rows of a token in step order, where the loop's per-step
        # lookups added them from the last step back: a row that three or more steps
        # share may differ in its last bits.
        vocab = Vocabulary.from_corpus(CORPUS)
        tokens = np.random.default_rng(16).integers(4, len(vocab), size=(6, 3))
        want = self.teacher_forced(self.per_step_logits, vocab, tokens)
        got = self.teacher_forced(TextAutoencoder.decoder_logits, vocab, tokens)
        assert all(np.array_equal(got[k], want[k]) for k in want if k != "embed.table")
        np.testing.assert_allclose(got["embed.table"], want["embed.table"], rtol=0, atol=1e-15)

    def test_gradient_wrt_a_decoder_gate_weight(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = TextAutoencoder(len(vocab), 3, 2, np.random.default_rng(12), max_len=6)
        rng = np.random.default_rng(13)
        input_ids = rng.integers(0, len(vocab), size=(4, 2))
        target_ids = rng.integers(0, len(vocab), size=(4, 2))
        s = Tensor(rng.normal(size=(2, model.sentence_dim)))
        weight, hid = model.dec.weight, model.dec.hidden_dim
        before, after = Tensor(weight.data[:, :hid]), Tensor(weight.data[:, 2 * hid:])

        def f(w):  # w is the forget gate, columns hid:2*hid
            model.dec.weight = ad.concat([before, w, after], axis=1)
            return decoder_loss(model, s, input_ids, target_ids)

        try:
            assert gradient_check(f, Tensor(weight.data[:, hid:2 * hid])) <= 1e-6
        finally:
            model.dec.weight = weight


def test_named_parameters_match_the_checkpoint_layout():
    vocab = Vocabulary.from_corpus(CORPUS)
    model = make_model(vocab)
    v = len(vocab)
    want = [("embed.table", (v, 100))]
    for cell, hidden in (("enc_fwd", 50), ("enc_bwd", 50), ("dec", 100)):
        want += [(f"{cell}.weight", (100 + hidden, 4 * hidden)), (f"{cell}.bias", (4 * hidden,))]
    want += [("out.weight", (v, 100)), ("out.bias", (v,))]
    assert len(want) == 9
    assert [(name, p.shape) for name, p in model.named_parameters()] == want


def test_model_built_to_load_allocates_each_parameter_once():
    # with rng=None every parameter, the fused LSTM weights too, is one fresh array
    vocab = Vocabulary.from_corpus(CORPUS)
    tracemalloc.start()
    try:
        model = TextAutoencoder(len(vocab), 100, 50, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * sum(p.data.nbytes for _, p in model.named_parameters())


class TestTraining:
    def test_loss_decreases(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab, seed=8)
        rng = np.random.default_rng(8)
        rows = []
        train_text_autoencoder(CORPUS, vocab, model, epochs=10, batch_size=1, lr=3e-3, rng=rng,
                               log=rows.append)
        values = [m["value"] for m in rows]
        assert values[-1] < values[0]

    @pytest.mark.slow
    def test_small_corpus_overfits(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab, seed=9)
        rng = np.random.default_rng(9)
        train_text_autoencoder(CORPUS, vocab, model, epochs=40, batch_size=1, lr=3e-3, rng=rng)
        exact = sum(list(roundtrip(model, vocab.encode(toks))) == vocab.encode(toks).tolist()
                    for _, toks in CORPUS)
        assert exact >= 4

    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_training_is_bit_identical_to_the_composed_run(self, monkeypatch, batch_size):
        # every run of a cell, encoder and decoder, built from the composed oracle's nodes
        vocab = Vocabulary.from_corpus(CORPUS)
        s = np.random.default_rng(18).normal(size=(3, 100))
        runs = []

        def counted_run(*args, **kw):
            runs.append(None)
            return composed_run(*args, **kw)

        def train(composed):
            model = make_model(vocab, seed=17, max_len=8)
            if composed:
                monkeypatch.setattr(layers, "lstm_run", counted_run)  # bilstm_encode's
                monkeypatch.setattr(text_ae, "lstm_run", counted_run)  # decoder_logits'
            train_text_autoencoder(CORPUS, vocab, model, epochs=2, batch_size=batch_size, lr=3e-3,
                                   rng=np.random.default_rng(17))
            if composed:  # 3 runs a step; 5 captions make 5 batches of 1, or 3 of equal length
                assert len(runs) == 3 * 2 * {1: 5, 2: 3}[batch_size]
            embeddings = encode_texts(model, [vocab.encode(toks) for _, toks in CORPUS])
            params = {name: p.data for name, p in model.named_parameters()}
            return params, embeddings, decode_texts(model, np.concatenate([embeddings, s]))

        (fused, fused_emb, fused_ids), (composed, composed_emb, composed_ids) = (
            train(composed=False), train(composed=True))
        assert fused.keys() == composed.keys()
        assert all(np.array_equal(fused[name], composed[name]) for name in fused)
        assert np.array_equal(fused_emb, composed_emb)
        assert fused_ids == composed_ids

    def test_empty_corpus_rejected(self):
        vocab = Vocabulary.from_corpus(CORPUS)
        model = make_model(vocab)
        with pytest.raises(FormatError):
            train_text_autoencoder([], vocab, model, 1, 1, 1e-3, np.random.default_rng(0))
