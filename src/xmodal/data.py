"""Synthetic ColorShapes corpus and the byte-level file formats.

A dataset directory looks like:

    <root>/manifest.txt          resolved generation parameters, key=value
    <root>/<split>/captions.tsv  class_id<TAB>caption, one record per line
    <root>/<split>/images.tsv    class_id<TAB>image filename, same order
    <root>/<split>/images/*.ppm  P6 images, paired with the caption rows

Images are binary PPM (P6, maxval 255) mapped linearly to [-1, 1];
embedding sets use the little-endian EMB1 layout defined below.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError
from .text_ae import tokenize

DEFAULT_COLORS = ("red", "green", "blue", "yellow")
DEFAULT_SHAPES = ("circle", "square", "triangle", "cross")

COLOR_RGB = {
    "red": (220, 30, 30),
    "green": (30, 200, 60),
    "blue": (40, 60, 230),
    "yellow": (240, 220, 30),
}

CAPTION_TEMPLATES = (
    "a {color} {shape} on a white background",
    "there is a {color} {shape}",
    "the {shape} is {color}",
)


@dataclass
class ColorShapesSpec:
    colors: tuple = DEFAULT_COLORS
    shapes: tuple = DEFAULT_SHAPES
    image_size: int = 32
    samples_per_class: int = 24
    jitter_pos: float = 3.0
    jitter_scale: float = 0.15
    seed: int = 0

    @property
    def class_count(self) -> int:
        return len(self.colors) * len(self.shapes)

    def class_id(self, color_idx: int, shape_idx: int) -> int:
        return color_idx * len(self.shapes) + shape_idx

    def class_name(self, class_id: int) -> tuple[str, str]:
        return (self.colors[class_id // len(self.shapes)], self.shapes[class_id % len(self.shapes)])

    def test_classes(self) -> list[int]:
        # deterministic class-disjoint holdout: roughly 25% of classes,
        # hitting every color and every shape once on the default 4x4 grid
        out = []
        for ci in range(len(self.colors)):
            for si in range(len(self.shapes)):
                if (ci + si) % 4 == 3:
                    out.append(self.class_id(ci, si))
        return out

    def train_classes(self) -> list[int]:
        test = set(self.test_classes())
        return [c for c in range(self.class_count) if c not in test]

    def dataset_id(self) -> str:
        return f"colorshapes{self.class_count}-seed{self.seed}"


@dataclass
class LabeledEmbeddingSet:
    embeddings: np.ndarray  # (N, dim) float64
    labels: np.ndarray      # (N,) non-negative ints
    dim: int = field(init=False)

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.uint32)
        if self.embeddings.ndim != 2 or self.labels.shape != (self.embeddings.shape[0],):
            raise FormatError(f"embedding set shapes inconsistent: "
                              f"{self.embeddings.shape} vs {self.labels.shape}")
        self.dim = self.embeddings.shape[1]


# -- PPM ------------------------------------------------------------------


def write_ppm(image, path):
    """Write a (3, H, W) array with values in [-1, 1] as binary P6.

    Quantization rounds half away from zero and clamps to [0, 255].
    """
    data = np.asarray(image, dtype=np.float64)
    if data.ndim != 3 or data.shape[0] != 3:
        raise FormatError(f"write_ppm expects (3, H, W), got {data.shape}")
    _, h, w = data.shape
    scaled = np.clip((data + 1.0) * 127.5, 0.0, 255.0)
    quantized = np.floor(scaled + 0.5).clip(0, 255).astype(np.uint8)
    payload = quantized.transpose(1, 2, 0).tobytes()
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(payload)


def _read_header_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments, then collect one token
    n = len(buf)
    while pos < n:
        ch = buf[pos:pos + 1]
        if ch == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"ppm: truncated header at byte offset {pos}")
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 PPM with maxval 255 into a (3, H, W) array in [-1, 1]."""
    buf = Path(path).read_bytes()
    if buf[:2] != b"P6":
        raise FormatError(f"ppm: bad magic {buf[:2]!r} at byte offset 0")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_header_token(buf, pos)
        if not token.isdigit():
            raise FormatError(f"ppm: non-numeric header field {token!r} at byte offset {pos - len(token)}")
        fields.append(int(token))
    w, h, maxval = fields
    if maxval != 255:
        raise FormatError(f"ppm: unsupported maxval {maxval} at byte offset {pos - len(str(maxval))}")
    pos += 1  # single whitespace byte after maxval
    expected = w * h * 3
    payload = buf[pos:pos + expected]
    if len(payload) != expected:
        raise FormatError(f"ppm: truncated payload at byte offset {pos + len(payload)} "
                          f"(expected {expected} bytes, got {len(payload)})")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1)
    # C order: the reductions that pool these images depend on the layout
    return np.ascontiguousarray(arr.astype(np.float64) * (2.0 / 255.0) - 1.0)


# -- EMB1 -----------------------------------------------------------------


def write_embeddings(embedding_set: LabeledEmbeddingSet, path):
    """EMB1: magic, u32 count, u32 dim, count*dim f64, count u32 labels (all LE)."""
    embs = embedding_set.embeddings
    count, dim = embs.shape
    with open(path, "wb") as f:
        f.write(b"EMB1")
        f.write(struct.pack("<II", count, dim))
        f.write(embs.astype("<f8").tobytes())
        f.write(embedding_set.labels.astype("<u4").tobytes())


def read_embeddings(path) -> LabeledEmbeddingSet:
    buf = Path(path).read_bytes()
    if buf[:4] != b"EMB1":
        raise FormatError(f"emb: bad magic {buf[:4]!r}")
    if len(buf) < 12:
        raise FormatError(f"emb: truncated header (12 bytes expected, got {len(buf)})")
    count, dim = struct.unpack("<II", buf[4:12])
    expected = 12 + count * dim * 8 + count * 4
    if len(buf) != expected:
        raise FormatError(f"emb: length mismatch (expected {expected} bytes, got {len(buf)})")
    embs = np.frombuffer(buf, dtype="<f8", count=count * dim, offset=12).reshape(count, dim)
    labels = np.frombuffer(buf, dtype="<u4", count=count, offset=12 + count * dim * 8)
    return LabeledEmbeddingSet(embs.copy(), labels.copy())


# -- caption corpus -------------------------------------------------------


def load_caption_corpus(path) -> list[tuple[int, list[str]]]:
    """Parse class_id<TAB>caption lines into (class_id, tokens) records."""
    records = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if "\t" not in line:
            raise FormatError(f"{path}: line {lineno}: missing tab separator")
        class_field, caption = line.split("\t", 1)
        try:
            class_id = int(class_field)
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-integer class id {class_field!r}") from None
        records.append((class_id, tokenize(caption)))
    return records


# -- shape rasterization ---------------------------------------------------


def _shape_mask(shape: str, size: int, cx: float, cy: float, r: float) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size] + 0.5
    dx, dy = xx - cx, yy - cy
    if shape == "circle":
        return dx * dx + dy * dy <= r * r
    if shape == "square":
        half = 0.9 * r
        return (np.abs(dx) <= half) & (np.abs(dy) <= half)
    if shape == "triangle":
        top = (cx, cy - r)
        left = (cx - 0.95 * r, cy + 0.75 * r)
        right = (cx + 0.95 * r, cy + 0.75 * r)

        def half_plane(p, q):
            return (q[0] - p[0]) * (yy - p[1]) - (q[1] - p[1]) * (xx - p[0])

        d1, d2, d3 = half_plane(top, left), half_plane(left, right), half_plane(right, top)
        # all signs agree inside, independent of vertex orientation
        return ((d1 >= 0) & (d2 >= 0) & (d3 >= 0)) | ((d1 <= 0) & (d2 <= 0) & (d3 <= 0))
    if shape == "cross":
        bar = 0.35 * r
        return ((np.abs(dx) <= bar) & (np.abs(dy) <= r)) | ((np.abs(dy) <= bar) & (np.abs(dx) <= r))
    raise ValueError(f"unknown shape {shape!r}")


def render_sample(spec: ColorShapesSpec, class_id: int, rng: np.random.Generator) -> np.ndarray:
    """One (3, S, S) float image in [-1, 1]: jittered shape on white."""
    color, shape = spec.class_name(class_id)
    s = spec.image_size
    cx = s / 2.0 + rng.uniform(-spec.jitter_pos, spec.jitter_pos)
    cy = s / 2.0 + rng.uniform(-spec.jitter_pos, spec.jitter_pos)
    r = 0.30 * s * (1.0 + rng.uniform(-spec.jitter_scale, spec.jitter_scale))
    mask = _shape_mask(shape, s, cx, cy, r)
    img = np.ones((3, s, s))
    rgb = COLOR_RGB.get(color)
    if rgb is None:
        raise ValueError(f"no RGB defined for color {color!r}")
    for ch in range(3):
        img[ch][mask] = rgb[ch] * (2.0 / 255.0) - 1.0
    return img


def caption_for(spec: ColorShapesSpec, class_id: int, sample_idx: int) -> str:
    color, shape = spec.class_name(class_id)
    template = CAPTION_TEMPLATES[sample_idx % len(CAPTION_TEMPLATES)]
    return template.format(color=color, shape=shape)


def generate_colorshapes(spec: ColorShapesSpec, out_dir) -> Path:
    """Write the full dataset; a pure function of spec (byte-identical reruns)."""
    root = Path(out_dir)
    rng = np.random.default_rng(spec.seed)
    split_of = {c: "test" for c in spec.test_classes()}
    rows: dict[str, list[tuple[int, str, str]]] = {"train": [], "test": []}

    for split in ("train", "test"):
        (root / split / "images").mkdir(parents=True, exist_ok=True)

    for class_id in range(spec.class_count):
        split = split_of.get(class_id, "train")
        for idx in range(spec.samples_per_class):
            img = render_sample(spec, class_id, rng)
            fname = f"cls{class_id:02d}_s{idx:03d}.ppm"
            write_ppm(img, root / split / "images" / fname)
            rows[split].append((class_id, caption_for(spec, class_id, idx), fname))

    for split in ("train", "test"):
        captions = "".join(f"{c}\t{cap}\n" for c, cap, _ in rows[split])
        images = "".join(f"{c}\t{fn}\n" for c, _, fn in rows[split])
        (root / split / "captions.tsv").write_text(captions, encoding="utf-8")
        (root / split / "images.tsv").write_text(images, encoding="utf-8")

    manifest = [
        f"dataset_id={spec.dataset_id()}",
        f"colors={','.join(spec.colors)}",
        f"shapes={','.join(spec.shapes)}",
        f"image_size={spec.image_size}",
        f"samples_per_class={spec.samples_per_class}",
        f"jitter_pos={spec.jitter_pos}",
        f"jitter_scale={spec.jitter_scale}",
        f"seed={spec.seed}",
        f"train_classes={','.join(str(c) for c in spec.train_classes())}",
        f"test_classes={','.join(str(c) for c in spec.test_classes())}",
    ]
    (root / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    return root


# -- dataset loading -------------------------------------------------------


def read_manifest(dataset_dir) -> dict:
    path = Path(dataset_dir) / "manifest.txt"
    if not path.is_file():
        raise FormatError(f"missing dataset manifest: {path}")
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and "=" in line:
            k, v = line.split("=", 1)
            out[k] = v
    return out


def load_image_split(dataset_dir, split: str) -> tuple[np.ndarray, np.ndarray]:
    """All images of a split as ((N, 3, S, S) array, (N,) labels), file order."""
    root = Path(dataset_dir) / split
    index = root / "images.tsv"
    if not index.is_file():
        raise FormatError(f"missing image index: {index}")
    images, labels = [], []
    for lineno, line in enumerate(index.read_text(encoding="utf-8").splitlines(), start=1):
        if not line:
            continue
        if "\t" not in line:
            raise FormatError(f"{index}: line {lineno}: missing tab separator")
        class_field, fname = line.split("\t", 1)
        images.append(read_ppm(root / "images" / fname))
        labels.append(int(class_field))
    if not images:
        raise FormatError(f"{index}: empty split")
    return np.stack(images), np.asarray(labels, dtype=np.int64)


def load_caption_split(dataset_dir, split: str) -> list[tuple[int, list[str]]]:
    return load_caption_corpus(Path(dataset_dir) / split / "captions.tsv")
