"""Config parsing, binary checkpoint format and the atomic writes of every output."""

import dataclasses
import os
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal.checkpoint import load_checkpoint, load_into, save_checkpoint, save_module
from xmodal.config import DEFAULTS, config_lines, help_text, resolve_config, section
from xmodal.errors import ConfigError, FormatError
from xmodal.image_ae import ImageAEConfig
from xmodal.layers import DenseLayer
from xmodal.mappers import MapperConfig
from xmodal.metrics import MetricReport
from xmodal.text_ae import Vocabulary


class TestConfig:
    def test_defaults_without_file(self):
        cfg = resolve_config(None)
        assert cfg["image_ae.d_img"] == 64
        assert cfg["mapper.kind"] == "mmd"
        assert cfg["text_ae.hidden"] == 50

    def test_file_overrides_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\nmapper.kind = gan\nimage_ae.epochs=3  # trailing\n")
        cfg = resolve_config(path)
        assert cfg["mapper.kind"] == "gan"
        assert cfg["image_ae.epochs"] == 3

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("mapper.krnd = gan\n")
        with pytest.raises(ConfigError, match="mapper.krnd"):
            resolve_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("image_ae.epochs = soon\n")
        with pytest.raises(ConfigError, match="image_ae.epochs"):
            resolve_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            resolve_config(tmp_path / "nope.cfg")

    def test_resolution_consistency_enforced(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("data.image_size = 64\n")
        with pytest.raises(ConfigError, match="top branch"):
            resolve_config(path)

    def test_bad_mapper_kind(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("mapper.kind = vae\n")
        with pytest.raises(ConfigError, match="mapper.kind"):
            resolve_config(path)

    def test_bool_parsing(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("mapper.kernel_learning = false\ntranslate.sample = TRUE\n")
        cfg = resolve_config(path)
        assert cfg["mapper.kernel_learning"] is False
        assert cfg["translate.sample"] is True

    def test_help_documents_every_key(self):
        text = help_text()
        for key, (default, _, _, _) in DEFAULTS.items():
            assert key in text
            assert str(default) in text

    @pytest.mark.parametrize("key", [key for key, entry in DEFAULTS.items() if entry[2]])
    def test_bounded_key_documents_and_enforces_its_domain(self, tmp_path, key):
        domain = DEFAULTS[key][2]
        line = next(ln for ln in help_text().splitlines() if ln.startswith(f"  {key} "))
        assert line.endswith(f", {domain.text}")
        rejected = {"positive and finite": 0, "finite and at least 0": -1, "in [0, 1)": 1,
                    "finite and at least 2": 1, "gan or mmd": "vae"}[domain.text]
        # a float key also rejects NaN and +-inf; an int key's parser already does
        floats = ["nan", "inf", "-inf"] if DEFAULTS[key][1] is float else []
        for value in [rejected] + floats:
            path = tmp_path / "c.cfg"
            path.write_text(f"{key} = {value}\n")
            with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be"):
                resolve_config(path)

    def test_config_lines_sorted_and_complete(self):
        cfg = resolve_config(None)
        lines = config_lines(cfg)
        assert lines == sorted(lines)
        assert len(lines) == len(DEFAULTS)

    @pytest.mark.parametrize("namespace, cls", [("image_ae", ImageAEConfig),
                                                ("mapper", MapperConfig)])
    def test_section_matches_component_config(self, namespace, cls):
        values = section(resolve_config(None), namespace)
        assert set(values) == {f.name for f in dataclasses.fields(cls)}
        assert cls(**values) == cls()


def _save_report(path, k):
    report = MetricReport(path, comments=[f"run={k}"])
    report.append("m", k, "d", "c", k)
    report.save()


# every durable output's writer -> (file name, save of version k of the file)
WRITERS = {
    "checkpoint": ("m.ckpt", lambda path, k: save_checkpoint(path, [("w", np.full(3, k))])),
    "metric-report": ("r.csv", _save_report),
    "vocabulary": ("vocab.txt", lambda path, k: Vocabulary([f"word{k}"]).save(path)),
}


# float64 bit patterns: quiet and signalling NaNs with payloads, both infinities, -0.0
SPECIAL_BITS = [0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001, 0x7FF4DEADBEEF0000,
                0x7FF0000000000000, 0xFFF0000000000000, 0x8000000000000000]


@st.composite
def float64_arrays(draw):
    """An array of rank 0-4, zero-length axes included, of any float64 bit patterns."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=4)))
    n = int(np.prod(shape))
    bits = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1)),
                         min_size=n, max_size=n))
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape)


def assert_loaded_exactly(loaded, named_arrays):
    assert list(loaded) == [name for name, _ in named_arrays]
    for name, arr in named_arrays:
        got = loaded[name]
        assert got.dtype == np.float64 and got.shape == arr.shape
        assert got.flags.c_contiguous and got.flags.aligned and got.flags.writeable
        assert got.tobytes() == arr.tobytes()  # bit for bit, NaN payloads and -0.0 included
    arrays = list(loaded.values())
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


class TestCheckpoint:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(max_size=9), min_size=1, max_size=5, unique=True), st.data())
    def test_roundtrip_bit_exact(self, tmp_path_factory, names, data):
        named_arrays = [(name, data.draw(float64_arrays())) for name in names]
        path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        save_checkpoint(path, named_arrays)
        assert_loaded_exactly(load_checkpoint(path), named_arrays)

    def test_payload_offsets_at_every_residue_mod_8(self, tmp_path):
        # names sized so that the 8 payloads start at file offsets 0, 1, ..., 7 mod 8
        named_arrays, offset = [], 12
        for residue in range(8):
            name_len = (residue - offset - 12 - 1) % 8 + 1
            arr = np.arange(3.0) - residue
            named_arrays.append((str(residue) * name_len, arr))
            offset += 12 + name_len  # name length, name, rank, one dim
            assert offset % 8 == residue
            offset += arr.nbytes
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, named_arrays)
        assert_loaded_exactly(load_checkpoint(path), named_arrays)

    def test_crc_detects_corruption(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, [("w", np.arange(6.0).reshape(2, 3)), ("bias", np.ones(2))])
        blob = path.read_bytes()
        for i in range(len(blob)):
            flipped = bytearray(blob)
            flipped[i] ^= 0x5A
            path.write_bytes(bytes(flipped))
            # the magic is checked first; every other byte, the stored CRC's too, by the CRC
            with pytest.raises(FormatError, match="magic" if i < 4 else "CRC"):
                load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, [("w", np.arange(6.0).reshape(2, 3)), ("bias", np.ones(2))])
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(FormatError):
                load_checkpoint(path)

    def test_load_peaks_at_its_payload(self, tmp_path):
        # each tensor is read straight into its own array: no whole-file blob, no second copy
        named_arrays = [(f"layer{i}.weight", np.full((256, 256), float(i))) for i in range(8)]
        payload = sum(arr.nbytes for _, arr in named_arrays)
        assert payload >= 4 * 2**20
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, named_arrays)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * payload
        assert_loaded_exactly(loaded, named_arrays)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_duplicate_names_rejected_on_save(self, tmp_path):
        with pytest.raises(FormatError, match="unique"):
            save_checkpoint(tmp_path / "m.ckpt", [("w", np.ones(2)), ("w", np.ones(2))])

    def test_architecture_mismatch_names(self, tmp_path):
        layer = DenseLayer(3, 2, np.random.default_rng(1))
        path = tmp_path / "m.ckpt"
        save_module(layer, path)
        other = DenseLayer(3, 2, np.random.default_rng(2))
        load_into(other, path)  # same architecture loads fine
        np.testing.assert_array_equal(other.weight.data, layer.weight.data)

        class Wrapper:
            def named_parameters(self):
                yield ("other.weight", layer.weight)

        with pytest.raises(FormatError, match="missing"):
            load_into(Wrapper(), path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, [("weight", np.ones((2, 3))), ("bias", np.ones(2))])
        target = DenseLayer(4, 2, np.random.default_rng(3))

        class Named:
            def named_parameters(self):
                yield ("weight", target.weight)
                yield ("bias", target.bias)

        with pytest.raises(FormatError, match="shape"):
            load_into(Named(), path)

    def test_failed_load_leaves_every_parameter_untouched(self, tmp_path):
        # the weight matches and comes first; only the bias does not
        layer = DenseLayer(3, 2, np.random.default_rng(4))
        weight = layer.weight.data
        before = weight.copy()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, [("weight", np.ones((2, 3))), ("bias", np.ones(5))])
        with pytest.raises(FormatError, match="shape mismatch for 'bias'"):
            load_into(layer, path)
        assert layer.weight.data is weight
        np.testing.assert_array_equal(weight, before)

    @pytest.mark.parametrize("writer", WRITERS)
    def test_no_temp_file_after_save(self, tmp_path, writer):
        name, save = WRITERS[writer]
        save(tmp_path / "out" / name, 0)  # the parent directory is made too
        assert [p.name for p in (tmp_path / "out").iterdir()] == [name]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_interrupted_write_preserves_previous(self, tmp_path, monkeypatch, writer):
        name, save = WRITERS[writer]
        path = tmp_path / name
        save(path, 0)
        original = path.read_bytes()

        def explode(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            save(path, 1)
        monkeypatch.undo()
        assert path.read_bytes() == original
        assert [p.name for p in tmp_path.iterdir()] == [name]  # the temp file is gone

    @pytest.mark.parametrize("rank, dims, match", [
        (1, (1000,), "overruns"),
        (2, (0xFFFFFFFF, 0xFFFFFFFF), "overruns"),
        (0xFFFFFFFF, (), "malformed"),
        (3, (0, 0xFFFFFFFF, 0xFFFFFFFF), "malformed"),  # no values, yet too big for numpy
    ])
    def test_oversized_tensor_rejected(self, tmp_path, rank, dims, match):
        # valid CRC, but the rank or dims ask for more than the payload holds
        path = tmp_path / "m.ckpt"
        body = (b"CKPT" + struct.pack("<IIIsI", 1, 1, 1, b"w", rank)
                + struct.pack(f"<{len(dims)}I", *dims) + np.ones(2).tobytes())
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=match):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # no buffer sized by a field: nothing read past the file

    def test_non_utf8_name_rejected(self, tmp_path):
        # valid CRC, but the tensor name is not UTF-8
        path = tmp_path / "m.ckpt"
        body = b"CKPT" + struct.pack("<IIIsII", 1, 1, 1, b"\xff", 1, 1) + np.ones(1).tobytes()
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="malformed"):
            load_checkpoint(path)
