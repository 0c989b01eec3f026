"""Mutation fuzzing of the file parsers.

Each test starts from a valid file, applies a few random byte edits and
checks that only the parser's own error ever leaves it: FormatError for
PPM, EMB1, CKPT and the vocabulary, ConfigError for the config file.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal.checkpoint import load_checkpoint, save_checkpoint
from xmodal.config import resolve_config
from xmodal.data import LabeledEmbeddingSet, read_embeddings, read_ppm, write_embeddings, write_ppm
from xmodal.errors import ConfigError, FormatError
from xmodal.text_ae import Vocabulary

# (kind, position, byte); positions wrap around the current length
EDITS = st.lists(st.tuples(st.sampled_from(("set", "insert", "delete", "truncate")),
                           st.integers(0, 1 << 16), st.integers(0, 255)),
                 min_size=1, max_size=8)

FUZZ = settings(max_examples=200, deadline=None)


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, pos, byte in edits:
        i = pos % (len(buf) + 1)
        if kind == "insert":
            buf.insert(i, byte)
        elif kind == "truncate":
            del buf[i:]
        elif i < len(buf):
            if kind == "set":
                buf[i] = byte
            else:
                del buf[i]
    return bytes(buf)


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Valid files of every format, as bytes, and a path to write mutants to."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_ppm(rng.uniform(-1, 1, size=(3, 2, 3)), root / "seed.ppm")
    write_embeddings(LabeledEmbeddingSet(rng.normal(size=(2, 2)), np.array([0, 5])),
                     root / "seed.emb")
    save_checkpoint(root / "seed.ckpt", [("encoder.weight", rng.normal(size=(2,))),
                                         ("head.bias", rng.normal(size=(1,)))])
    Vocabulary(["red", "circle", "the"]).save(root / "seed.vocab")
    (root / "seed.cfg").write_text("# tiny run\ndata.samples_per_class = 2\nimage_ae.lr = 2e-4\n"
                                   "mapper.kind = gan  # or mmd\ntranslate.sample = true\n",
                                   encoding="utf-8")
    files = {ext: (root / f"seed.{ext}").read_bytes() for ext in ("ppm", "emb", "ckpt", "vocab", "cfg")}
    return files, root / "mutant"


def parse_mutant(path, data: bytes, parser, error=FormatError):
    path.write_bytes(data)
    try:
        parser(path)
    except error:
        pass


@FUZZ
@given(EDITS)
def test_read_ppm_raises_only_format_error(seeds, edits):
    files, path = seeds
    parse_mutant(path, mutate(files["ppm"], edits), read_ppm)


@FUZZ
@given(EDITS)
def test_read_embeddings_raises_only_format_error(seeds, edits):
    files, path = seeds
    parse_mutant(path, mutate(files["emb"], edits), read_embeddings)


@FUZZ
@given(EDITS)
def test_load_checkpoint_raises_only_format_error(seeds, edits):
    # re-seal each mutant with a valid CRC so the body parser sees it
    files, path = seeds
    body = mutate(files["ckpt"][:-4], edits)
    parse_mutant(path, body + struct.pack("<I", zlib.crc32(body)), load_checkpoint)


@FUZZ
@given(EDITS)
def test_vocabulary_load_raises_only_format_error(seeds, edits):
    files, path = seeds
    parse_mutant(path, mutate(files["vocab"], edits), Vocabulary.load)


@FUZZ
@given(EDITS)
def test_resolve_config_raises_only_config_error(seeds, edits):
    files, path = seeds
    parse_mutant(path, mutate(files["cfg"], edits), resolve_config, ConfigError)
