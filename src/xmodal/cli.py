"""End-to-end pipeline: datagen -> train stages -> translate -> evaluate.

One command runs at a time per working directory (lock file). Exit codes:
0 ok, 2 config error (also configured sizes that do not fit in memory), 3 I/O
or format error, 4 missing prerequisite checkpoint, 5 numerical divergence
(last good checkpoint retained).
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_into, save_checkpoint, save_module
from .config import config_lines, help_text, resolve_config, section
from .data import (COLOR_RGB, DEFAULT_SHAPES, ColorShapesSpec, LabeledEmbeddingSet,
                   generate_colorshapes, load_caption_split, load_image_split, read_manifest,
                   read_ppm, write_embeddings, write_ppm)
from .errors import ConfigError, DivergenceError, FormatError, MissingDependencyError, read_utf8
from .image_ae import (ImageAEConfig, ImageAutoencoder, encode_image, encode_image_batch,
                       generate_images, train_image_autoencoder)
from .mappers import (MapperConfig, MapperGenerator, map_embedding, train_gan_mapper,
                      train_mmd_mapper)
from .metrics import MetricReport, bleu, class_accuracy, rouge_l, two_sample_test
from .text_ae import (TextAutoencoder, Vocabulary, decode_text, decode_texts, detokenize,
                      encode_text, encode_texts, tokenize, train_text_autoencoder)

TRAIN_STAGES = ("image-ae", "text-ae", "mapper-i2t", "mapper-t2i")
DIRECTIONS = ("image-to-text", "text-to-image")

_STAGE_STREAMS = {"datagen": 0, "image-ae": 1, "text-ae": 2, "mapper-i2t": 3,
                  "mapper-t2i": 4, "translate": 5, "evaluate": 6}


def stage_rng(seed: int, stage: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STAGE_STREAMS[stage],)))


class Workspace:
    def __init__(self, root):
        self.root = Path(root)
        self.checkpoints = self.root / "checkpoints"
        self.metrics = self.root / "metrics"
        self.reports = self.root / "reports"
        self.embeddings = self.root / "embeddings"
        self.translations = self.root / "translations"

    def dataset_dir(self, cfg: dict) -> Path:
        return self.root / cfg["data.dir"]

    def checkpoint(self, stage: str) -> Path:
        return self.checkpoints / (stage.replace("-", "_") + ".ckpt")

    def require_checkpoint(self, stage: str) -> Path:
        path = self.checkpoint(stage)
        if not path.is_file():
            raise MissingDependencyError(f"missing checkpoint for stage {stage!r}: {path}")
        return path

    def require_vocabulary(self) -> Path:
        path = self.checkpoints / "vocab.txt"
        if not path.is_file():
            raise MissingDependencyError(f"missing vocabulary for stage 'text-ae': {path}")
        return path


def colorshapes_spec(cfg: dict, seed: int) -> ColorShapesSpec:
    colors = tuple(c.strip() for c in cfg["data.colors"].split(",") if c.strip())
    shapes = tuple(s.strip() for s in cfg["data.shapes"].split(",") if s.strip())
    unknown_colors = [c for c in colors if c not in COLOR_RGB]
    unknown_shapes = [s for s in shapes if s not in DEFAULT_SHAPES]
    if unknown_colors or unknown_shapes:
        raise ConfigError(f"unknown colors {unknown_colors} or shapes {unknown_shapes}")
    spec = ColorShapesSpec(colors=colors, shapes=shapes, image_size=cfg["data.image_size"],
                           samples_per_class=cfg["data.samples_per_class"],
                           jitter_pos=cfg["data.jitter_pos"],
                           jitter_scale=cfg["data.jitter_scale"], seed=seed)
    if not spec.test_classes():
        raise ConfigError(f"the {len(colors)} x {len(shapes)} color x shape grid "
                          f"holds out no test class")
    return spec


def _require_dataset(ws: Workspace, cfg: dict) -> Path:
    root = ws.dataset_dir(cfg)
    if not (root / "manifest.txt").is_file():
        raise MissingDependencyError(f"missing dataset (run datagen first): {root}")
    return root


def _dataset_id(ws: Workspace, cfg: dict) -> str:
    return read_manifest(_require_dataset(ws, cfg)).get("dataset_id", "unknown")


def _captions(ws: Workspace, cfg: dict, split: str) -> list[tuple[int, list[str]]]:
    """The caption records of a split; each must fit the text model."""
    records = load_caption_split(_require_dataset(ws, cfg), split)
    bad = [len(tokens) for _, tokens in records if not 1 <= len(tokens) <= cfg["text_ae.max_len"]]
    if bad:
        raise FormatError(f"{ws.dataset_dir(cfg) / split / 'captions.tsv'}: a caption of {bad[0]} "
                          f"tokens, the text model takes 1 to {cfg['text_ae.max_len']}")
    return records


# -- model loading -----------------------------------------------------------


def load_image_model(ws: Workspace, cfg: dict) -> ImageAutoencoder:
    path = ws.require_checkpoint("image-ae")
    model = ImageAutoencoder(ImageAEConfig(**section(cfg, "image_ae")), None)
    load_into(model, path)
    return model


def load_text_model(ws: Workspace, cfg: dict) -> tuple[TextAutoencoder, Vocabulary]:
    path = ws.require_checkpoint("text-ae")
    vocab = Vocabulary.load(ws.require_vocabulary())
    model = TextAutoencoder(len(vocab), cfg["text_ae.embed_dim"], cfg["text_ae.hidden"],
                            None, max_len=cfg["text_ae.max_len"])
    load_into(model, path)
    return model, vocab


def load_mapper(ws: Workspace, cfg: dict, stage: str) -> MapperGenerator:
    path = ws.require_checkpoint(stage)
    d_img = cfg["image_ae.d_img"]
    d_txt = 2 * cfg["text_ae.hidden"]
    src, dst = (d_img, d_txt) if stage == "mapper-i2t" else (d_txt, d_img)
    gen = MapperGenerator(src, dst, cfg["mapper.hidden"], None)
    load_into(gen, path)
    return gen


# -- embeddings ----------------------------------------------------------------


def encode_caption_set(model: TextAutoencoder, vocab: Vocabulary,
                       records) -> LabeledEmbeddingSet:
    embs = encode_texts(model, [vocab.encode(tokens) for _, tokens in records])
    labels = np.asarray([class_id for class_id, _ in records], dtype=np.uint32)
    return LabeledEmbeddingSet(embs, labels)


def encode_image_set(model: ImageAutoencoder, images: np.ndarray,
                     labels: np.ndarray) -> LabeledEmbeddingSet:
    chunks = [encode_image_batch(model, images[i:i + 64]) for i in range(0, len(images), 64)]
    return LabeledEmbeddingSet(np.concatenate(chunks), labels.astype(np.uint32))


def export_embeddings(ws: Workspace, cfg: dict, split: str, img_model: ImageAutoencoder,
                      txt_model: TextAutoencoder, vocab: Vocabulary
                      ) -> tuple[LabeledEmbeddingSet, LabeledEmbeddingSet, list]:
    """Both embedding sets of a split, and the caption records the text set encodes."""
    dataset = _require_dataset(ws, cfg)
    images, labels = load_image_split(dataset, split, cfg["data.image_size"])
    img_set = encode_image_set(img_model, images, labels)
    records = _captions(ws, cfg, split)
    txt_set = encode_caption_set(txt_model, vocab, records)
    ws.embeddings.mkdir(parents=True, exist_ok=True)
    write_embeddings(img_set, ws.embeddings / f"img_{split}.emb")
    write_embeddings(txt_set, ws.embeddings / f"txt_{split}.emb")
    return img_set, txt_set, records


# -- commands -------------------------------------------------------------------


def cmd_datagen(ws: Workspace, cfg: dict, seed: int) -> int:
    spec = colorshapes_spec(cfg, seed)
    root = generate_colorshapes(spec, ws.dataset_dir(cfg))
    print(f"dataset {spec.dataset_id()}: {spec.class_count} classes "
          f"({len(spec.train_classes())} train / {len(spec.test_classes())} test) at {root}")
    return 0


def cmd_train(ws: Workspace, cfg: dict, seed: int, stage: str) -> int:
    dataset = _require_dataset(ws, cfg)
    dataset_id = _dataset_id(ws, cfg) + "/train"
    ckpt_path = ws.checkpoint(stage)
    ckpt_name = ckpt_path.name
    rng = stage_rng(seed, stage)

    # Load and check every input before the stage writes anything.
    if stage == "image-ae":
        images, _ = load_image_split(dataset, "train", cfg["data.image_size"])
        if cfg["image_ae.batch"] > len(images):
            raise ConfigError(f"image_ae.batch={cfg['image_ae.batch']} exceeds the "
                              f"{len(images)} images of the training split")

        def train(log):
            model = ImageAutoencoder(ImageAEConfig(**section(cfg, "image_ae")), rng)
            train_image_autoencoder(model, images, rng, log=log)
            return model
    elif stage == "text-ae":
        records = _captions(ws, cfg, "train")
        vocab = Vocabulary.from_corpus(records)

        def train(log):
            model = TextAutoencoder(len(vocab), cfg["text_ae.embed_dim"], cfg["text_ae.hidden"],
                                    rng, max_len=cfg["text_ae.max_len"])
            train_text_autoencoder(records, vocab, model, cfg["text_ae.epochs"],
                                   cfg["text_ae.batch"], cfg["text_ae.lr"], rng, log=log)
            return model
    else:
        img_model = load_image_model(ws, cfg)
        txt_model, vocab = load_text_model(ws, cfg)
        img_set, txt_set, _ = export_embeddings(ws, cfg, "train", img_model, txt_model, vocab)
        if stage == "mapper-i2t":
            source, target = img_set.embeddings, txt_set.embeddings
        else:
            source, target = txt_set.embeddings, img_set.embeddings
        mcfg = MapperConfig(**section(cfg, "mapper"))
        trainer = train_gan_mapper if mcfg.kind == "gan" else train_mmd_mapper

        def train(log):
            return trainer(source, target, mcfg, rng, log=log)

    # Training writes nothing. Then the stage publishes its vocabulary
    # (text-ae), checkpoint and metric CSV, in that order: on success, or on
    # divergence with its last finite-loss parameters. A run that stops before
    # that, or is killed, leaves the previous run's files as they were.
    report = MetricReport(ws.metrics / (stage.replace("-", "_") + ".csv"),
                          comments=config_lines(cfg) + [f"seed={seed}"])

    def log(row: dict):
        report.append(row["metric"], row["value"], dataset_id, ckpt_name, seed)

    def publish(save):
        if stage == "text-ae":
            vocab.save(ws.checkpoints / "vocab.txt")
        save()
        report.save()

    try:
        model = train(log)
    except DivergenceError as e:
        if e.last_good is not None:
            publish(lambda: save_checkpoint(ckpt_path, e.last_good))
        raise
    publish(lambda: save_module(model, ckpt_path))
    print(f"stage {stage}: checkpoint {ckpt_path}")
    return 0


def cmd_translate(ws: Workspace, cfg: dict, seed: int, direction: str,
                  input_path: str, output_path: str | None) -> int:
    rng = stage_rng(seed, "translate")
    i2t = direction == "image-to-text"
    mapper_stage = "mapper-i2t" if i2t else "mapper-t2i"
    # prerequisites, then the input, before any model loads: a failed translate writes nothing
    for stage in ("image-ae", "text-ae", mapper_stage):
        ws.require_checkpoint(stage)
    ws.require_vocabulary()
    if i2t:
        image = read_ppm(input_path)
        size = ImageAEConfig(**section(cfg, "image_ae")).top_res
        if image.shape != (3, size, size):
            raise FormatError(f"{input_path}: image is {image.shape[2]}x{image.shape[1]}, "
                              f"the model takes {size}x{size}")
    else:
        tokens = tokenize(read_utf8(input_path))
        if not 1 <= len(tokens) <= cfg["text_ae.max_len"]:
            raise FormatError(f"{input_path}: {len(tokens)} tokens in input text, "
                              f"the model takes 1 to {cfg['text_ae.max_len']}")
    img_model = load_image_model(ws, cfg)
    txt_model, vocab = load_text_model(ws, cfg)
    mapper = load_mapper(ws, cfg, mapper_stage)
    if i2t:
        psi = encode_image(img_model, image)
        sentence = map_embedding(mapper, psi)
        caption = detokenize(vocab.decode(decode_text(txt_model, sentence)))
        ws.translations.mkdir(parents=True, exist_ok=True)
        out = Path(output_path) if output_path else ws.translations / "i2t.txt"
        out.write_text(caption + "\n", encoding="utf-8")
        print(caption)
    else:
        sentence = encode_text(txt_model, vocab.encode(tokens))
        psi = map_embedding(mapper, sentence)
        images = generate_images(img_model, psi, rng, sample_augment=cfg["translate.sample"])
        ws.translations.mkdir(parents=True, exist_ok=True)
        out = Path(output_path) if output_path else ws.translations / "t2i.ppm"
        write_ppm(images[-1][0], out)
        print(out)
    return 0


def _text_overlap_rows(txt_model: TextAutoencoder, vocab: Vocabulary, records,
                       embeddings: np.ndarray) -> dict:
    """Overlap of each caption with the decoding of its sentence embedding."""
    bleu1_sum = bleu4_sum = rouge_sum = exact = 0
    for (_, tokens), ids in zip(records, decode_texts(txt_model, embeddings)):
        reference = vocab.decode(vocab.encode(tokens))
        candidate = vocab.decode(ids)
        exact += int(candidate == reference)
        if candidate:
            bleu1_sum += bleu(candidate, [reference], max_n=1)
            bleu4_sum += bleu(candidate, [reference], max_n=4)
            rouge_sum += rouge_l(candidate, reference)
    n = len(records)
    return {"bleu1_text_ae": bleu1_sum / n, "bleu4_text_ae": bleu4_sum / n,
            "rougeL_text_ae": rouge_sum / n, "roundtrip_exact_pct": 100.0 * exact / n}


def cmd_evaluate(ws: Workspace, cfg: dict, seed: int, split: str) -> int:
    rng = stage_rng(seed, "evaluate")
    img_model = load_image_model(ws, cfg)
    txt_model, vocab = load_text_model(ws, cfg)
    mappers = {"i2t": load_mapper(ws, cfg, "mapper-i2t"), "t2i": load_mapper(ws, cfg, "mapper-t2i")}
    dataset_ref = f"{_dataset_id(ws, cfg)}/{split}"
    # saved last, so a failed or killed evaluate leaves the previous report whole
    report = MetricReport(ws.reports / f"eval_{split}.csv",
                          comments=config_lines(cfg) + [f"seed={seed}"])

    split_sets = {}
    full_sets = {"img": [], "txt": []}
    for part in ("train", "test"):
        img_set, txt_set, records = export_embeddings(ws, cfg, part, img_model, txt_model, vocab)
        full_sets["img"].append(img_set)
        full_sets["txt"].append(txt_set)
        if part == split:
            split_sets["img"], split_sets["txt"], split_records = img_set, txt_set, records
            if min(len(img_set.labels), len(txt_set.labels)) < 2:  # for the two-sample test
                raise FormatError(f"{ws.dataset_dir(cfg) / split}: {len(img_set.labels)} images and "
                                  f"{len(txt_set.labels)} captions, evaluate needs 2 of each")
    reference = {
        mod: LabeledEmbeddingSet(np.concatenate([s.embeddings for s in sets]),
                                 np.concatenate([s.labels for s in sets]))
        for mod, sets in full_sets.items()
    }

    rows = _text_overlap_rows(txt_model, vocab, split_records, split_sets["txt"].embeddings)
    for name, value in rows.items():
        report.append(name, value, dataset_ref, "text_ae.ckpt", seed)

    for direction, (src_mod, dst_mod) in {"i2t": ("img", "txt"), "t2i": ("txt", "img")}.items():
        src_split = split_sets[src_mod]
        mapped = map_embedding(mappers[direction], src_split.embeddings)
        ckpt = f"mapper_{direction}.ckpt"
        acc = class_accuracy(reference[dst_mod], LabeledEmbeddingSet(mapped, src_split.labels))
        report.append(f"class_acc_{direction}", acc, dataset_ref, ckpt, seed)

        stat, biased, p_value = two_sample_test(split_sets[dst_mod].embeddings, mapped,
                                                cfg["eval.permutations"], rng)
        report.append(f"mmd2_unbiased_{direction}", stat, dataset_ref, ckpt, seed)
        report.append(f"mmd2_biased_{direction}", biased, dataset_ref, ckpt, seed)
        report.append(f"pvalue_{direction}", p_value, dataset_ref, ckpt, seed)
        print(f"{direction}: class_acc={acc:.2f}% mmd2={stat:.6f} p={p_value:.4f}")
    report.save()
    print(f"report: {report.path}")
    return 0


# -- entry point ------------------------------------------------------------------


def _seed(text: str) -> int:
    """A `--seed` value: a non-negative integer, as `np.random.SeedSequence` takes."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {seed}")
    return seed


@functools.cache  # one parser per process: building it costs more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmodal",
        description="Self-supervised image/text embedding translation pipeline.",
        epilog=help_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=_seed, default=42,
                       help="base seed, at least 0 (default 42)")

    common(sub.add_parser("datagen", help="generate the synthetic dataset"))
    p_train = sub.add_parser("train", help="train one pipeline stage")
    common(p_train)
    p_train.add_argument("--stage", required=True, choices=TRAIN_STAGES)
    p_tr = sub.add_parser("translate", help="translate an image or a caption")
    common(p_tr)
    p_tr.add_argument("--direction", required=True, choices=DIRECTIONS)
    p_tr.add_argument("--input", required=True, help="input PPM (image-to-text) or text file")
    p_tr.add_argument("--output", default=None, help="output path override")
    p_ev = sub.add_parser("evaluate", help="run the evaluation protocol")
    common(p_ev)
    p_ev.add_argument("--split", default="test", choices=("train", "test"))
    return parser


class _Lock:
    """An exclusive flock on `<root>/.lock`. The kernel drops it when the
    holder exits, however it exits, so a killed run leaves no stale lock;
    the file itself stays."""

    def __init__(self, root: Path):
        self.path = root / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self.fd)
            raise FormatError(f"working directory is locked by another run: {self.path}") from None
        return self

    def __exit__(self, *exc):
        os.close(self.fd)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config)
        ws = Workspace(os.environ.get("XMODAL_WORKDIR", "."))
        with _Lock(ws.root):
            if args.command == "datagen":
                return cmd_datagen(ws, cfg, args.seed)
            if args.command == "train":
                return cmd_train(ws, cfg, args.seed, args.stage)
            if args.command == "translate":
                return cmd_translate(ws, cfg, args.seed, args.direction, args.input, args.output)
            return cmd_evaluate(ws, cfg, args.seed, args.split)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # every array size comes from the config
        print(f"config error: the configured sizes do not fit in memory: {e}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as e:
        print(f"i/o or format error: {e}", file=sys.stderr)
        return 3
    except MissingDependencyError as e:
        print(f"missing dependency: {e}", file=sys.stderr)
        return 4
    except DivergenceError as e:
        print(f"numerical divergence: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
