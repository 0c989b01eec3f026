"""Config parsing and binary checkpoint format."""

import struct
import zlib

import numpy as np
import pytest

from xmodal.checkpoint import load_checkpoint, load_into, save_checkpoint, save_module
from xmodal.config import DEFAULTS, config_lines, help_text, resolve_config
from xmodal.errors import ConfigError, FormatError
from xmodal.layers import DenseLayer


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
        path.write_text("mapper.kernel_learning = false\neval.debug_self_match = TRUE\n")
        cfg = resolve_config(path)
        assert cfg["mapper.kernel_learning"] is False
        assert cfg["eval.debug_self_match"] is True

    def test_help_documents_every_key(self):
        text = help_text()
        for key, (default, _, _) in DEFAULTS.items():
            assert key in text
            assert str(default) in text

    def test_config_lines_sorted_and_complete(self):
        cfg = resolve_config(None)
        lines = config_lines(cfg)
        assert lines == sorted(lines)
        assert len(lines) == len(DEFAULTS)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = [("a.weight", rng.normal(size=(3, 4))),
                  ("b.bias", rng.normal(size=(5,))),
                  ("scalarish", rng.normal(size=(1,)))]
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"a.weight", "b.bias", "scalarish"}
        for name, arr in arrays:
            assert np.array_equal(loaded[name], arr)

    def test_crc_detects_corruption(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, [("w", np.ones((2, 2)))])
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="CRC"):
            load_checkpoint(path)

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

    def test_no_temp_file_after_save(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, [("w", np.ones(3))])
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_interrupted_write_preserves_previous(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, [("w", np.zeros(3))])
        original = path.read_bytes()

        import os
        def explode(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            save_checkpoint(path, [("w", np.ones(3))])
        monkeypatch.undo()
        assert path.read_bytes() == original
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded["w"], np.zeros(3))

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, [("w", np.ones((4, 4)))])
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_oversized_tensor_rejected(self, tmp_path):
        # valid CRC, but the dims ask for more values than the payload holds
        path = tmp_path / "m.ckpt"
        body = b"CKPT" + struct.pack("<IIIsII", 1, 1, 1, b"w", 1, 1000) + np.ones(2).tobytes()
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="overruns"):
            load_checkpoint(path)

