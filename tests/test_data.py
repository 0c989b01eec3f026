"""Dataset generation and byte-level file format tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodal.data import (CAPTION_TEMPLATES, DEFAULT_SHAPES, ColorShapesSpec, LabeledEmbeddingSet, caption_for,
                         generate_colorshapes, load_caption_corpus, load_caption_split,
                         load_image_split, read_embeddings, read_manifest, read_ppm,
                         render_sample, write_embeddings, write_ppm)
from xmodal.errors import FormatError


def dir_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestColorShapes:
    def test_default_split_counts(self):
        spec = ColorShapesSpec()
        assert spec.class_count == 16
        assert len(spec.train_classes()) == 12
        assert len(spec.test_classes()) == 4
        assert set(spec.train_classes()) | set(spec.test_classes()) == set(range(16))

    def test_split_is_class_disjoint(self):
        spec = ColorShapesSpec()
        assert not set(spec.train_classes()) & set(spec.test_classes())

    def test_holdout_covers_every_color_and_shape(self):
        spec = ColorShapesSpec()
        held = [spec.class_name(c) for c in spec.test_classes()]
        assert {color for color, _ in held} == set(spec.colors)
        assert {shape for _, shape in held} == set(spec.shapes)

    def test_generation_deterministic(self, tmp_path):
        spec = ColorShapesSpec(samples_per_class=3, seed=9)
        a = generate_colorshapes(spec, tmp_path / "a")
        b = generate_colorshapes(spec, tmp_path / "b")
        assert dir_bytes(a) == dir_bytes(b)

    def test_every_shape_renders_pixels(self):
        from xmodal.data import _shape_mask
        for shape in DEFAULT_SHAPES:
            mask = _shape_mask(shape, 32, 16.0, 16.0, 9.6)
            assert mask.sum() > 50, shape

    def test_every_class_produces_non_white_image(self):
        spec = ColorShapesSpec(seed=11)
        rng = np.random.default_rng(0)
        for class_id in range(spec.class_count):
            img = render_sample(spec, class_id, rng)
            assert (img.min(axis=0) < 0.9).sum() > 50, spec.class_name(class_id)

    def test_red_circle_histogram(self):
        spec = ColorShapesSpec(seed=5)
        img = render_sample(spec, spec.class_id(0, 0), np.random.default_rng(1))  # red circle
        non_white = img.min(axis=0) < 0.99
        assert non_white.sum() > 20
        sums = [img[ch][non_white].sum() for ch in range(3)]
        assert np.argmax(sums) == 0

    def test_caption_matches_class(self):
        spec = ColorShapesSpec()
        for class_id in range(spec.class_count):
            color, shape = spec.class_name(class_id)
            for idx in range(6):
                caption = caption_for(spec, class_id, idx)
                assert color in caption and shape in caption

    def test_templates_rotate(self):
        spec = ColorShapesSpec()
        caps = {caption_for(spec, 0, i) for i in range(len(CAPTION_TEMPLATES))}
        assert len(caps) == len(CAPTION_TEMPLATES)

    def test_split_loading(self, tmp_path):
        spec = ColorShapesSpec(samples_per_class=2, seed=3)
        root = generate_colorshapes(spec, tmp_path / "ds")
        images, labels = load_image_split(root, "train", spec.image_size)
        assert images.shape == (24, 3, 32, 32)
        assert sorted(set(labels)) == spec.train_classes()
        records = load_caption_split(root, "test")
        assert len(records) == 8
        assert {c for c, _ in records} == set(spec.test_classes())
        manifest = read_manifest(root)
        assert manifest["dataset_id"] == "colorshapes16-seed3"


class TestPPM:
    def test_black_and_white_endpoints(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(-np.ones((3, 4, 4)), path)
        np.testing.assert_array_equal(read_ppm(path), -1.0)
        write_ppm(np.ones((3, 4, 4)), path)
        np.testing.assert_array_equal(read_ppm(path), 1.0)

    def test_roundtrip_quantized(self, tmp_path):
        rng = np.random.default_rng(0)
        quantized = rng.integers(0, 256, size=(3, 5, 7)).astype(np.float64) * (2.0 / 255.0) - 1.0
        path = tmp_path / "img.ppm"
        write_ppm(quantized, path)
        first = path.read_bytes()
        write_ppm(read_ppm(path), path)
        assert path.read_bytes() == first

    def test_rounding_and_clamping(self, tmp_path):
        # x=0 maps to exactly 127.5: the half rounds away from zero, to 128;
        # out-of-range values clamp to the byte range
        img = np.array([0.0, 5.0, -5.0, 1.0, -1.0, 0.5]).reshape(3, 1, 2)
        path = tmp_path / "img.ppm"
        write_ppm(img, path)
        # payload interleaves channels per pixel: (0,-5,-1) then (5,1,0.5)
        assert path.read_bytes().endswith(bytes([128, 0, 0, 255, 255, 191]))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError, match="magic"):
            read_ppm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(FormatError, match="maxval"):
            read_ppm(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(FormatError, match="byte offset"):
            read_ppm(path)

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\x10\x20\x30")
        img = read_ppm(path)
        assert img.shape == (3, 1, 1)


class TestEMB1:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        original = LabeledEmbeddingSet(rng.normal(size=(7, 5)), rng.integers(0, 4, size=7))
        path = tmp_path / "e.emb"
        write_embeddings(original, path)
        loaded = read_embeddings(path)
        assert np.array_equal(loaded.embeddings, original.embeddings)
        assert np.array_equal(loaded.labels, original.labels)
        assert path.stat().st_size == 12 + 7 * 5 * 8 + 7 * 4

    def test_empty_set_roundtrips(self, tmp_path):
        path = tmp_path / "empty.emb"
        write_embeddings(LabeledEmbeddingSet(np.zeros((0, 3)), np.zeros(0)), path)
        assert path.stat().st_size == 12
        loaded = read_embeddings(path)
        assert loaded.embeddings.shape == (0, 3)

    def test_truncated_reports_lengths(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "t.emb"
        write_embeddings(LabeledEmbeddingSet(rng.normal(size=(3, 2)), np.arange(3)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match="expected"):
            read_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"XEMB" + b"\x00" * 8)
        with pytest.raises(FormatError, match="magic"):
            read_embeddings(path)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 10 ** 6))
    def test_roundtrip_property(self, count, dim, seed):
        import tempfile
        rng = np.random.default_rng(seed)
        original = LabeledEmbeddingSet(rng.normal(size=(count, dim)),
                                       rng.integers(0, 9, size=count))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/p.emb"
            write_embeddings(original, path)
            loaded = read_embeddings(path)
        assert np.array_equal(loaded.embeddings, original.embeddings)
        assert np.array_equal(loaded.labels, original.labels)


class TestCaptionCorpus:
    def test_parse(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("3\ta red circle on a white background\n", encoding="utf-8")
        records = load_caption_corpus(path)
        assert records == [(3, ["a", "red", "circle", "on", "a", "white", "background"])]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("", encoding="utf-8")
        assert load_caption_corpus(path) == []

    def test_missing_tab_names_line(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("1\tfine caption\nno tab here\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2"):
            load_caption_corpus(path)

    def test_non_integer_class_names_line(self, tmp_path):
        path = tmp_path / "caps.tsv"
        path.write_text("x\tcaption\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 1"):
            load_caption_corpus(path)
