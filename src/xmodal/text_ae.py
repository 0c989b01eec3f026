"""Sequence-to-sequence text autoencoder.

Bidirectional LSTM encoder (hidden 50 per direction) with max-over-time
pooling produces a 100-dim sentence embedding; a unidirectional LSTM
decoder (hidden 100) initialized from that embedding regenerates the token
sequence. Trained with teacher forcing and token cross-entropy.
"""

from __future__ import annotations

import re

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .errors import DivergenceError, FormatError, read_utf8, write_atomic
from .layers import (DenseLayer, EmbeddingTable, LSTMCell, Module, bilstm_encode, lstm_run,
                     max_over_time)
from .optim import Adam, TrainingRun

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation; punctuation is dropped."""
    return _TOKEN_RE.findall(text.lower())


def detokenize(tokens: list[str]) -> str:
    return " ".join(tokens)


class Vocabulary:
    PAD, BOS, EOS, UNK = 0, 1, 2, 3
    SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")

    def __init__(self, tokens):
        words = sorted(set(tokens) - set(self.SPECIALS))
        self._id_to_token = list(self.SPECIALS) + words
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}

    @classmethod
    def from_corpus(cls, records) -> "Vocabulary":
        tokens = [t for _, toks in records for t in toks]
        return cls(tokens)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def encode(self, tokens: list[str]) -> np.ndarray:
        return np.asarray([self._token_to_id.get(t, self.UNK) for t in tokens], dtype=np.int64)

    def decode(self, ids) -> list[str]:
        return [self._id_to_token[int(i)] for i in ids]

    def save(self, path):
        write_atomic(path, "".join(t + "\n" for t in self._id_to_token).encode("utf-8"))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        lines = read_utf8(path).splitlines()
        if lines[:4] != list(cls.SPECIALS):
            raise FormatError(f"{path}: vocabulary must start with {cls.SPECIALS}")
        vocab = cls.__new__(cls)
        vocab._id_to_token = lines
        vocab._token_to_id = {t: i for i, t in enumerate(lines)}
        return vocab


class TextAutoencoder(Module):
    def __init__(self, vocab_size: int, embed_dim: int, hidden: int, rng: np.random.Generator,
                 max_len: int = 24):
        super().__init__()
        self.hidden = hidden
        self.sentence_dim = 2 * hidden
        self.max_len = max_len
        self.embed = self._child("embed", EmbeddingTable(vocab_size, embed_dim, rng))
        self.enc_fwd = self._child("enc_fwd", LSTMCell(embed_dim, hidden, rng))
        self.enc_bwd = self._child("enc_bwd", LSTMCell(embed_dim, hidden, rng))
        self.dec = self._child("dec", LSTMCell(embed_dim, self.sentence_dim, rng))
        self.out = self._child("out", DenseLayer(self.sentence_dim, vocab_size, rng))

    # -- encoding ----------------------------------------------------------

    def encode_ids(self, ids: np.ndarray) -> Tensor:
        """Encode a (T, batch) id matrix to (batch, 2*hidden) embeddings."""
        return max_over_time(bilstm_encode(self.enc_fwd, self.enc_bwd, self.embed(ids)))

    # -- decoding ----------------------------------------------------------

    def _dec_start(self, s: Tensor) -> Tensor:
        # sentence embedding becomes the initial hidden state directly
        # (decoder hidden size equals the embedding size); cell starts at zero
        return ad.concat([s, Tensor(np.zeros((s.shape[0], self.sentence_dim)))], axis=1)

    def decoder_logits(self, s: Tensor, input_ids: np.ndarray) -> Tensor:
        """Teacher-forced decoder: time-major (T*batch, vocab) logits.

        One embedding lookup and one `lstm_run` from the sentence embedding;
        the output layer then runs once over all T*batch states, so row
        t*batch + b is step t of sequence b.
        """
        return self.out(lstm_run(self.dec, self.embed(input_ids), state=self._dec_start(s)))


def decoder_loss(model: TextAutoencoder, s: Tensor, input_ids: np.ndarray,
                 target_ids: np.ndarray) -> Tensor:
    """Mean token cross-entropy; equal-length batches hold no padding targets."""
    target_ids = np.asarray(target_ids)
    logits = model.decoder_logits(s, input_ids)
    total = ad.reduce("sum", ad.gather_index(ad.log_softmax(logits), target_ids.reshape(-1)))
    return ad.scale(ad.neg(total), 1.0 / target_ids.size)


def encode_texts(model: TextAutoencoder, seqs) -> np.ndarray:
    """Sentence embeddings (N, 2*hidden) of N id sequences (1 <= len <= max_len
    each), row i for sequence i; one encoder pass per length group. A
    non-finite embedding raises DivergenceError."""
    seqs = [np.asarray(ids, dtype=np.int64) for ids in seqs]
    for ids in seqs:
        if ids.ndim != 1 or not 1 <= ids.size <= model.max_len:
            raise ShapeError(f"encode_texts expects 1 to {model.max_len} ids, got shape {ids.shape}")
    out = np.empty((len(seqs), model.sentence_dim))
    with ad.no_grad():
        for group in _length_groups(seqs, range(len(seqs))):
            out[group] = model.encode_ids(np.stack([seqs[i] for i in group], axis=1)).data
    if not np.isfinite(out).all():
        raise DivergenceError("the text encoder maps to non-finite values; retrain it")
    return out


def encode_text(model: TextAutoencoder, token_ids: np.ndarray) -> np.ndarray:
    """Sentence embedding of one id sequence (1 <= len <= max_len)."""
    return encode_texts(model, [token_ids])[0]


def decode_texts(model: TextAutoencoder, s: np.ndarray) -> list[list[int]]:
    """Greedy argmax decoding of each row of an (N, sentence_dim) batch, from
    BOS until EOS or the model's max_len; all rows step the decoder cell
    together, on arrays, with no graph.

    PAD and BOS are suppressed so they never appear in the output; argmax
    breaks ties toward the lowest token id.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] != model.sentence_dim:
        raise ShapeError(f"decode_texts expects (N, {model.sentence_dim}) embeddings, "
                         f"got {s.shape}")
    steps = []
    ended = np.zeros(s.shape[0], dtype=bool)
    with ad.no_grad():
        hc = model._dec_start(Tensor(s)).data
        prev = np.full(s.shape[0], Vocabulary.BOS)
        for _ in range(model.max_len):
            hc = model.dec.step(model.embed(prev).data, hc)[0]
            logits = model.out(Tensor(hc[:, :model.sentence_dim])).data
            logits[:, Vocabulary.PAD] = -np.inf
            logits[:, Vocabulary.BOS] = -np.inf
            prev = np.argmax(logits, axis=1)
            steps.append(prev)
            ended |= prev == Vocabulary.EOS
            if ended.all():
                break
    tokens = np.stack(steps, axis=1).tolist()
    # a row that ended stops before its first EOS, the others run to max_len
    return [row[:row.index(Vocabulary.EOS)] if done else row for row, done in zip(tokens, ended)]


def decode_text(model: TextAutoencoder, s: np.ndarray) -> list[int]:
    """Greedy decoding of one sentence embedding (see `decode_texts`)."""
    return decode_texts(model, np.reshape(s, (1, -1)))[0]


def roundtrip(model: TextAutoencoder, token_ids: np.ndarray) -> list[int]:
    return decode_text(model, encode_text(model, token_ids))


# -- training ---------------------------------------------------------------


def _length_groups(seqs: list[np.ndarray], order) -> list[list[int]]:
    """The indices in `order` grouped by sequence length, shortest first, each in `order`."""
    groups: dict[int, list[int]] = {}
    for idx in order:
        groups.setdefault(len(seqs[idx]), []).append(int(idx))
    return [groups[length] for length in sorted(groups)]


def _length_batches(records_ids: list[np.ndarray], batch_size: int,
                    rng: np.random.Generator) -> list[list[int]]:
    """Deterministic equal-length batches from a seeded permutation."""
    groups = _length_groups(records_ids, rng.permutation(len(records_ids)))
    return [group[i:i + batch_size] for group in groups
            for i in range(0, len(group), batch_size)]


def train_text_autoencoder(records: list[tuple[int, list[str]]], vocab: Vocabulary,
                           model: TextAutoencoder, epochs: int, batch_size: int, lr: float,
                           rng: np.random.Generator, log=None) -> None:
    """Teacher-forced training on a caption corpus; per-epoch metric rows go to `log`.

    A non-finite loss raises DivergenceError, carrying the parameters at which
    the last finite loss was computed.
    """
    ids = [vocab.encode(tokens) for _, tokens in records if tokens]
    if not ids:
        raise FormatError("text autoencoder: empty corpus")
    opt = Adam(model.parameters(), lr=lr)
    run = TrainingRun(model.named_parameters(), opt, log)
    for epoch in range(epochs):
        batches = _length_batches(ids, batch_size, rng)
        epoch_loss = 0.0
        epoch_tokens = 0
        for batch_idx in batches:
            tokens = np.stack([ids[i] for i in batch_idx], axis=1)  # (T, B)
            bos, eos = (np.full((1, len(batch_idx)), v, dtype=np.int64)
                        for v in (Vocabulary.BOS, Vocabulary.EOS))
            loss = decoder_loss(model, model.encode_ids(tokens), np.concatenate([bos, tokens]),
                                np.concatenate([tokens, eos]))
            value = run.minimize(opt, loss, f"text autoencoder loss at epoch {epoch}")
            n_tok = tokens.size + len(batch_idx)  # B*(T+1) targets
            epoch_loss += value * n_tok
            epoch_tokens += n_tok
        run.emit("ce_epoch", epoch_loss / epoch_tokens)
