"""Sequence-to-sequence text autoencoder.

Bidirectional LSTM encoder (hidden 50 per direction) with max-over-time
pooling produces a 100-dim sentence embedding; a unidirectional LSTM
decoder (hidden 100) initialized from that embedding regenerates the token
sequence. Trained with teacher forcing and PAD-masked cross-entropy.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .errors import FormatError
from .layers import DenseLayer, EmbeddingTable, LSTMCell, Module, bilstm_encode, max_over_time
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
        Path(path).write_text("".join(t + "\n" for t in self._id_to_token), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
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
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
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
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[0] < 1:
            raise ShapeError(f"encode_ids expects a non-empty (T, batch) matrix, got {ids.shape}")
        hidden_seq = bilstm_encode(self.enc_fwd, self.enc_bwd, self.embed(ids))
        return max_over_time(hidden_seq)

    # -- decoding ----------------------------------------------------------

    def _dec_start(self, s: Tensor) -> tuple[Tensor, Tensor]:
        # sentence embedding becomes the initial hidden state directly
        # (decoder hidden size equals the embedding size); cell starts at zero
        batch = s.shape[0]
        return s, Tensor(np.zeros((batch, self.sentence_dim)))

    def decoder_logits(self, s: Tensor, input_ids: np.ndarray) -> list[Tensor]:
        """Teacher-forced decoder: per-step (batch, vocab) logits."""
        input_ids = np.asarray(input_ids)
        h, c = self._dec_start(s)
        logits = []
        for t in range(input_ids.shape[0]):
            x_t = self.embed(input_ids[t])
            h, c = self.dec.step(x_t, h, c)
            logits.append(self.out(h))
        return logits


def decoder_loss(model: TextAutoencoder, s: Tensor, input_ids: np.ndarray,
                 target_ids: np.ndarray) -> Tensor:
    """Mean token cross-entropy with PAD targets masked out."""
    target_ids = np.asarray(target_ids)
    logits = model.decoder_logits(s, input_ids)
    total = None
    count = 0
    for t, step_logits in enumerate(logits):
        targets = target_ids[t]
        mask = targets != Vocabulary.PAD
        if not mask.any():
            continue
        logp = ad.gather_index(ad.log_softmax(step_logits), targets)
        masked = ad.mul(logp, Tensor(mask.astype(np.float64)))
        step_sum = ad.reduce("sum", masked)
        total = step_sum if total is None else ad.add(total, step_sum)
        count += int(mask.sum())
    if total is None:
        raise ShapeError("decoder_loss: all targets are PAD")
    return ad.scale(ad.neg(total), 1.0 / count)


def encode_text(model: TextAutoencoder, token_ids: np.ndarray) -> np.ndarray:
    """Sentence embedding of one id sequence (1 <= len <= max_len)."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if token_ids.ndim != 1 or token_ids.size < 1:
        raise ShapeError("encode_text expects a non-empty id sequence")
    if token_ids.size > model.max_len:
        raise ShapeError(f"sequence length {token_ids.size} exceeds max_len {model.max_len}")
    with ad.no_grad():
        s = model.encode_ids(token_ids[:, None])
    return s.data[0].copy()


def decode_text(model: TextAutoencoder, s: np.ndarray, max_len: int | None = None) -> list[int]:
    """Greedy argmax decoding from BOS until EOS or max_len.

    PAD and BOS are suppressed so they never appear in the output; argmax
    breaks ties toward the lowest token id.
    """
    max_len = model.max_len if max_len is None else max_len
    s = np.asarray(s, dtype=np.float64).reshape(1, -1)
    if s.shape[1] != model.sentence_dim:
        raise ShapeError(f"sentence embedding dim {s.shape[1]} != {model.sentence_dim}")
    out: list[int] = []
    with ad.no_grad():
        h, c = model._dec_start(Tensor(s))
        prev = np.asarray([Vocabulary.BOS])
        for _ in range(max_len):
            h, c = model.dec.step(model.embed(prev), h, c)
            logits = model.out(h).data[0].copy()
            logits[Vocabulary.PAD] = -np.inf
            logits[Vocabulary.BOS] = -np.inf
            token = int(np.argmax(logits))
            if token == Vocabulary.EOS:
                break
            out.append(token)
            prev = np.asarray([token])
    return out


def roundtrip(model: TextAutoencoder, token_ids: np.ndarray) -> list[int]:
    return decode_text(model, encode_text(model, token_ids))


# -- training ---------------------------------------------------------------


def _length_batches(records_ids: list[np.ndarray], batch_size: int,
                    rng: np.random.Generator) -> list[list[int]]:
    """Deterministic equal-length batches from a seeded permutation."""
    perm = rng.permutation(len(records_ids))
    by_len: dict[int, list[int]] = {}
    for idx in perm:
        by_len.setdefault(len(records_ids[idx]), []).append(int(idx))
    batches = []
    for length in sorted(by_len):
        group = by_len[length]
        for i in range(0, len(group), batch_size):
            batches.append(group[i:i + batch_size])
    return batches


def train_text_autoencoder(records: list[tuple[int, list[str]]], vocab: Vocabulary,
                           model: TextAutoencoder, epochs: int, batch_size: int, lr: float,
                           rng: np.random.Generator, log=None) -> list[dict]:
    """Teacher-forced training on a caption corpus; returns per-epoch metrics.

    Raises DivergenceError (carrying the last finite-loss parameter snapshot)
    if the loss goes non-finite.
    """
    ids = [vocab.encode(tokens) for _, tokens in records if tokens]
    if not ids:
        raise FormatError("text autoencoder: empty corpus")
    opt = Adam(model.parameters(), lr=lr)
    run = TrainingRun(model.named_parameters(), log)
    for epoch in range(epochs):
        batches = _length_batches(ids, batch_size, rng)
        epoch_loss = 0.0
        epoch_tokens = 0
        for batch_idx in batches:
            seqs = [ids[i] for i in batch_idx]
            length = len(seqs[0])
            tokens = np.stack(seqs, axis=1)  # (T, B)
            bos = np.full((1, tokens.shape[1]), Vocabulary.BOS, dtype=np.int64)
            eos = np.full((1, tokens.shape[1]), Vocabulary.EOS, dtype=np.int64)
            input_ids = np.concatenate([bos, tokens], axis=0)
            target_ids = np.concatenate([tokens, eos], axis=0)

            s = model.encode_ids(tokens)
            loss = decoder_loss(model, s, input_ids, target_ids)
            value = run.minimize(opt, loss, f"text autoencoder loss at epoch {epoch}")
            n_tok = len(batch_idx) * (length + 1)
            epoch_loss += value * n_tok
            epoch_tokens += n_tok
        run.snapshot()
        run.emit("ce_epoch", epoch_loss / epoch_tokens)
    return run.metrics
