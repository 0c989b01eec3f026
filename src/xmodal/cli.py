"""End-to-end pipeline: datagen -> train stages -> translate -> evaluate.

One command runs at a time per working directory (lock file). Exit codes:
0 ok, 2 config error, 3 I/O or format error, 4 missing prerequisite
checkpoint, 5 numerical divergence (last good checkpoint retained).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_into, save_checkpoint, save_module
from .config import config_lines, help_text, resolve_config
from .data import (COLOR_RGB, DEFAULT_SHAPES, ColorShapesSpec, LabeledEmbeddingSet,
                   generate_colorshapes, load_caption_split, load_image_split, read_manifest,
                   read_ppm, write_embeddings, write_ppm)
from .errors import ConfigError, DivergenceError, FormatError, MissingDependencyError
from .image_ae import (ImageAEConfig, ImageAutoencoder, encode_image, encode_image_batch,
                       generate_images, train_image_autoencoder)
from .mappers import (MapperConfig, MapperGenerator, map_embedding, median_heuristic,
                      mixture_kernel, mmd2_biased, train_gan_mapper, train_mmd_mapper)
from .metrics import MetricReport, bleu, class_accuracy, rouge_l, two_sample_test
from .text_ae import (TextAutoencoder, Vocabulary, decode_text, detokenize, encode_text,
                      tokenize, train_text_autoencoder)

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


def colorshapes_spec(cfg: dict, seed: int) -> ColorShapesSpec:
    colors = tuple(c.strip() for c in cfg["data.colors"].split(",") if c.strip())
    shapes = tuple(s.strip() for s in cfg["data.shapes"].split(",") if s.strip())
    unknown_colors = [c for c in colors if c not in COLOR_RGB]
    unknown_shapes = [s for s in shapes if s not in DEFAULT_SHAPES]
    if unknown_colors or unknown_shapes:
        raise ConfigError(f"unknown colors {unknown_colors} or shapes {unknown_shapes}")
    return ColorShapesSpec(colors=colors, shapes=shapes, image_size=cfg["data.image_size"],
                           samples_per_class=cfg["data.samples_per_class"],
                           jitter_pos=cfg["data.jitter_pos"],
                           jitter_scale=cfg["data.jitter_scale"], seed=seed)


def image_ae_config(cfg: dict) -> ImageAEConfig:
    return ImageAEConfig(
        branches=cfg["image_ae.branches"], base_res=cfg["image_ae.base_res"],
        d_img=cfg["image_ae.d_img"], d_c=cfg["image_ae.d_c"], d_z=cfg["image_ae.d_z"],
        gen_channels=cfg["image_ae.gen_channels"], disc_channels=cfg["image_ae.disc_channels"],
        batch=cfg["image_ae.batch"], epochs=cfg["image_ae.epochs"], lr=cfg["image_ae.lr"],
        beta1=cfg["image_ae.beta1"], beta2=cfg["image_ae.beta2"],
        lambda_kl=cfg["image_ae.lambda_kl"], lambda_rec=cfg["image_ae.lambda_rec"])


def mapper_config(cfg: dict) -> MapperConfig:
    return MapperConfig(
        kind=cfg["mapper.kind"], hidden=cfg["mapper.hidden"], batch=cfg["mapper.batch"],
        steps=cfg["mapper.steps"], lr=cfg["mapper.lr"], n_critic=cfg["mapper.n_critic"],
        clip=cfg["mapper.clip"], lambda_ae=cfg["mapper.lambda_ae"],
        critic_hidden=cfg["mapper.critic_hidden"], critic_dim=cfg["mapper.critic_dim"],
        kernel_learning=cfg["mapper.kernel_learning"])


def _dataset_id(ws: Workspace, cfg: dict) -> str:
    return read_manifest(ws.dataset_dir(cfg)).get("dataset_id", "unknown")


def _require_dataset(ws: Workspace, cfg: dict) -> Path:
    root = ws.dataset_dir(cfg)
    if not (root / "manifest.txt").is_file():
        raise MissingDependencyError(f"missing dataset (run datagen first): {root}")
    return root


# -- model loading -----------------------------------------------------------


def load_image_model(ws: Workspace, cfg: dict) -> ImageAutoencoder:
    path = ws.require_checkpoint("image-ae")
    model = ImageAutoencoder(image_ae_config(cfg), np.random.default_rng(0))
    load_into(model, path)
    return model


def load_text_model(ws: Workspace, cfg: dict) -> tuple[TextAutoencoder, Vocabulary]:
    path = ws.require_checkpoint("text-ae")
    vocab_path = ws.checkpoints / "vocab.txt"
    if not vocab_path.is_file():
        raise MissingDependencyError(f"missing vocabulary for stage 'text-ae': {vocab_path}")
    vocab = Vocabulary.load(vocab_path)
    model = TextAutoencoder(len(vocab), cfg["text_ae.embed_dim"], cfg["text_ae.hidden"],
                            np.random.default_rng(0), max_len=cfg["text_ae.max_len"])
    load_into(model, path)
    return model, vocab


def load_mapper(ws: Workspace, cfg: dict, stage: str) -> MapperGenerator:
    path = ws.require_checkpoint(stage)
    d_img = cfg["image_ae.d_img"]
    d_txt = 2 * cfg["text_ae.hidden"]
    src, dst = (d_img, d_txt) if stage == "mapper-i2t" else (d_txt, d_img)
    gen = MapperGenerator(src, dst, cfg["mapper.hidden"], np.random.default_rng(0))
    load_into(gen, path)
    return gen


# -- embeddings ----------------------------------------------------------------


def encode_caption_set(model: TextAutoencoder, vocab: Vocabulary,
                       records) -> LabeledEmbeddingSet:
    embs = np.stack([encode_text(model, vocab.encode(tokens)) for _, tokens in records])
    labels = np.asarray([class_id for class_id, _ in records], dtype=np.uint32)
    return LabeledEmbeddingSet(embs, labels)


def encode_image_set(model: ImageAutoencoder, images: np.ndarray,
                     labels: np.ndarray) -> LabeledEmbeddingSet:
    chunks = [encode_image_batch(model, images[i:i + 64]) for i in range(0, len(images), 64)]
    return LabeledEmbeddingSet(np.concatenate(chunks), labels.astype(np.uint32))


def export_embeddings(ws: Workspace, cfg: dict, split: str, img_model: ImageAutoencoder,
                      txt_model: TextAutoencoder, vocab: Vocabulary
                      ) -> tuple[LabeledEmbeddingSet, LabeledEmbeddingSet]:
    dataset = _require_dataset(ws, cfg)
    images, labels = load_image_split(dataset, split)
    img_set = encode_image_set(img_model, images, labels)
    txt_set = encode_caption_set(txt_model, vocab, load_caption_split(dataset, split))
    ws.embeddings.mkdir(parents=True, exist_ok=True)
    write_embeddings(img_set, ws.embeddings / f"img_{split}.emb")
    write_embeddings(txt_set, ws.embeddings / f"txt_{split}.emb")
    return img_set, txt_set


# -- metric CSV streaming ------------------------------------------------------


class StepLog:
    """Per-step metric rows streamed to a fresh CSV with provenance columns."""

    def __init__(self, path: Path, cfg: dict, seed: int, dataset: str, checkpoint: str):
        path.parent.mkdir(parents=True, exist_ok=True)
        self.dataset = dataset
        self.checkpoint = checkpoint
        self.seed = seed
        self.f = open(path, "w", encoding="utf-8", newline="\n")
        for line in config_lines(cfg):
            self.f.write(f"# {line}\n")
        self.f.write(f"# seed={seed}\n")
        self.f.write(MetricReport.HEADER + "\n")

    def __call__(self, row: dict):
        self.f.write(f"{row['metric']},{float(row['value'])!r},{self.dataset},"
                     f"{self.checkpoint},{self.seed}\n")

    def close(self):
        self.f.close()


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
    log = StepLog(ws.metrics / (stage.replace("-", "_") + ".csv"), cfg, seed, dataset_id, ckpt_name)
    try:
        if stage == "image-ae":
            images, _ = load_image_split(dataset, "train")
            model = ImageAutoencoder(image_ae_config(cfg), rng)
            train_image_autoencoder(model, images, rng, log=log)
            save_module(model, ckpt_path)
        elif stage == "text-ae":
            records = load_caption_split(dataset, "train")
            vocab = Vocabulary.from_corpus(records)
            model = TextAutoencoder(len(vocab), cfg["text_ae.embed_dim"], cfg["text_ae.hidden"],
                                    rng, max_len=cfg["text_ae.max_len"])
            train_text_autoencoder(records, vocab, model, cfg["text_ae.epochs"],
                                   cfg["text_ae.batch"], cfg["text_ae.lr"], rng, log=log)
            ws.checkpoints.mkdir(parents=True, exist_ok=True)
            vocab.save(ws.checkpoints / "vocab.txt")
            save_module(model, ckpt_path)
        else:
            img_model = load_image_model(ws, cfg)
            txt_model, vocab = load_text_model(ws, cfg)
            img_set, txt_set = export_embeddings(ws, cfg, "train", img_model, txt_model, vocab)
            if stage == "mapper-i2t":
                source, target = img_set.embeddings, txt_set.embeddings
            else:
                source, target = txt_set.embeddings, img_set.embeddings
            mcfg = mapper_config(cfg)
            train = train_gan_mapper if mcfg.kind == "gan" else train_mmd_mapper
            gen, _ = train(source, target, mcfg, rng, log=log)
            save_module(gen, ckpt_path)
    except DivergenceError as e:
        if e.last_good is not None:
            save_checkpoint(ckpt_path, e.last_good)
        raise
    finally:
        log.close()
    print(f"stage {stage}: checkpoint {ckpt_path}")
    return 0


def cmd_translate(ws: Workspace, cfg: dict, seed: int, direction: str,
                  input_path: str, output_path: str | None) -> int:
    rng = stage_rng(seed, "translate")
    img_model = load_image_model(ws, cfg)
    txt_model, vocab = load_text_model(ws, cfg)
    ws.translations.mkdir(parents=True, exist_ok=True)
    if direction == "image-to-text":
        mapper = load_mapper(ws, cfg, "mapper-i2t")
        image = read_ppm(input_path)
        size = img_model.cfg.top_res
        if image.shape != (3, size, size):
            raise FormatError(f"{input_path}: image is {image.shape[2]}x{image.shape[1]}, "
                              f"the model takes {size}x{size}")
        psi = encode_image(img_model, image)
        sentence = map_embedding(mapper, psi)
        caption = detokenize(vocab.decode(decode_text(txt_model, sentence)))
        out = Path(output_path) if output_path else ws.translations / "i2t.txt"
        out.write_text(caption + "\n", encoding="utf-8")
        print(caption)
    else:
        mapper = load_mapper(ws, cfg, "mapper-t2i")
        text = Path(input_path).read_text(encoding="utf-8").strip()
        tokens = tokenize(text)
        if not 1 <= len(tokens) <= txt_model.max_len:
            raise FormatError(f"{input_path}: {len(tokens)} tokens in input text, "
                              f"the model takes 1 to {txt_model.max_len}")
        sentence = encode_text(txt_model, vocab.encode(tokens))
        psi = map_embedding(mapper, sentence)
        images = generate_images(img_model, psi, rng, sample_augment=cfg["translate.sample"])
        out = Path(output_path) if output_path else ws.translations / "t2i.ppm"
        write_ppm(images[-1][0], out)
        print(out)
    return 0


def _text_overlap_rows(txt_model: TextAutoencoder, vocab: Vocabulary, records) -> dict:
    from .text_ae import roundtrip
    bleu1_sum = bleu4_sum = rouge_sum = exact = 0
    for _, tokens in records:
        ids = vocab.encode(tokens)
        decoded = roundtrip(txt_model, ids)
        reference = vocab.decode(ids)
        candidate = vocab.decode(decoded)
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
    dataset_id = _dataset_id(ws, cfg)

    split_sets = {}
    full_sets = {"img": [], "txt": []}
    for part in ("train", "test"):
        img_set, txt_set = export_embeddings(ws, cfg, part, img_model, txt_model, vocab)
        full_sets["img"].append(img_set)
        full_sets["txt"].append(txt_set)
        if part == split:
            split_sets["img"], split_sets["txt"] = img_set, txt_set
    reference = {
        mod: LabeledEmbeddingSet(np.concatenate([s.embeddings for s in sets]),
                                 np.concatenate([s.labels for s in sets]))
        for mod, sets in full_sets.items()
    }

    report = MetricReport(ws.reports / f"eval_{split}.csv",
                          comments=config_lines(cfg) + [f"seed={seed}"])
    dataset_ref = f"{dataset_id}/{split}"

    rows = _text_overlap_rows(txt_model, vocab, load_caption_split(ws.dataset_dir(cfg), split))
    for name, value in rows.items():
        report.append(name, value, dataset_ref, "text_ae.ckpt", seed)

    for direction, (src_mod, dst_mod) in {"i2t": ("img", "txt"), "t2i": ("txt", "img")}.items():
        src_split = split_sets[src_mod]
        mapped = map_embedding(mappers[direction], src_split.embeddings)
        fake_set = LabeledEmbeddingSet(mapped, src_split.labels)
        if cfg["eval.debug_self_match"]:
            fake_set = reference[dst_mod]
        ckpt = f"mapper_{direction}.ckpt"
        acc = class_accuracy(reference[dst_mod], fake_set)
        report.append(f"class_acc_{direction}", acc, dataset_ref, ckpt, seed)

        true_split = split_sets[dst_mod].embeddings
        kernel = mixture_kernel(median_heuristic(true_split, mapped))
        stat, p_value = two_sample_test(true_split, mapped, kernel,
                                        permutations=cfg["eval.permutations"], rng=rng)
        biased = mmd2_biased(true_split, mapped, kernel).item()
        report.append(f"mmd2_unbiased_{direction}", stat, dataset_ref, ckpt, seed)
        report.append(f"mmd2_biased_{direction}", biased, dataset_ref, ckpt, seed)
        report.append(f"pvalue_{direction}", p_value, dataset_ref, ckpt, seed)
        print(f"{direction}: class_acc={acc:.2f}% mmd2={stat:.6f} p={p_value:.4f}")
    print(f"report: {report.path}")
    return 0


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmodal",
        description="Self-supervised image/text embedding translation pipeline.",
        epilog=help_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=42, help="base seed (default 42)")

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
    def __init__(self, root: Path):
        self.path = root / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise FormatError(f"working directory is locked by another run: {self.path}") from None
        os.close(fd)
        return self

    def __exit__(self, *exc):
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


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
