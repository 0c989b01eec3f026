"""Command-line pipeline contracts: exit codes, lock, determinism, provenance."""

import os
from pathlib import Path

import numpy as np
import pytest

from xmodal.checkpoint import load_checkpoint, load_into
from xmodal.cli import image_ae_config, main
from xmodal.config import resolve_config
from xmodal.data import load_caption_split, write_ppm
from xmodal.image_ae import ImageAutoencoder
from xmodal.mappers import MapperGenerator
from xmodal.text_ae import TextAutoencoder, Vocabulary

TINY = """
data.samples_per_class = 2
image_ae.epochs = 1
image_ae.batch = 4
text_ae.epochs = 1
mapper.steps = 4
eval.permutations = 20
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("XMODAL_WORKDIR", str(tmp_path))
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    return tmp_path, str(cfg)


def train_stages(cfg: str, stages) -> None:
    assert main(["datagen", "--config", cfg]) == 0
    for stage in stages:
        assert main(["train", "--stage", stage, "--config", cfg]) == 0


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.suffix != ".cfg"}


class TestExitCodes:
    def test_bad_config_key_exits_2(self, workdir):
        ws, _ = workdir
        bad = ws / "bad.cfg"
        bad.write_text("data.smples = 2\n")
        assert main(["datagen", "--config", str(bad)]) == 2

    def test_missing_dataset_exits_4(self, workdir):
        ws, cfg = workdir
        assert main(["train", "--stage", "image-ae", "--config", cfg]) == 4

    def test_mapper_without_autoencoders_exits_4(self, workdir):
        ws, cfg = workdir
        assert main(["datagen", "--config", cfg]) == 0
        assert main(["train", "--stage", "mapper-i2t", "--config", cfg]) == 4

    def test_malformed_input_exits_3(self, workdir):
        ws, cfg = workdir
        assert main(["datagen", "--config", cfg]) == 0
        assert main(["train", "--stage", "image-ae", "--config", cfg]) == 0
        assert main(["train", "--stage", "text-ae", "--config", cfg]) == 0
        assert main(["train", "--stage", "mapper-i2t", "--config", cfg]) == 0
        bad = ws / "bad.ppm"
        bad.write_bytes(b"not a ppm")
        assert main(["translate", "--direction", "image-to-text",
                     "--input", str(bad), "--config", cfg]) == 3

    def test_wrong_image_size_exits_3(self, workdir):
        ws, cfg = workdir
        train_stages(cfg, ("image-ae", "text-ae", "mapper-i2t"))
        small = ws / "small.ppm"
        write_ppm(np.zeros((3, 16, 16)), small)
        assert main(["translate", "--direction", "image-to-text",
                     "--input", str(small), "--config", cfg]) == 3

    def test_caption_over_max_len_exits_3(self, workdir):
        ws, cfg = workdir
        train_stages(cfg, ("image-ae", "text-ae", "mapper-t2i"))
        caption = ws / "long.txt"
        caption.write_text(" ".join(["red"] * 30) + "\n")
        assert main(["translate", "--direction", "text-to-image",
                     "--input", str(caption), "--config", cfg]) == 3

    def test_locked_workdir_exits_3(self, workdir):
        ws, cfg = workdir
        (ws / ".lock").touch()
        assert main(["datagen", "--config", cfg]) == 3
        (ws / ".lock").unlink()
        assert main(["datagen", "--config", cfg]) == 0
        assert not (ws / ".lock").exists()


DIVERGING = {
    "image-ae": "image_ae.lr = 1e300\n",
    "text-ae": "text_ae.lr = 1e300\n",
    "mapper-i2t": "mapper.lr = 1e300\n",
    "mapper-t2i": "mapper.lr = 1e300\nmapper.kind = gan\n",
}


@pytest.mark.parametrize("stage", DIVERGING)
def test_divergence_keeps_last_good_checkpoint(workdir, stage):
    ws, cfg = workdir
    train_stages(cfg, ("image-ae", "text-ae") if stage.startswith("mapper") else ())
    diverging = ws / "diverging.cfg"
    diverging.write_text(TINY + DIVERGING[stage])
    assert main(["train", "--stage", stage, "--config", str(diverging)]) == 5

    ckpt = ws / "checkpoints" / (stage.replace("-", "_") + ".ckpt")
    arrays = load_checkpoint(ckpt)
    assert all(np.isfinite(a).all() for a in arrays.values())
    resolved = resolve_config(str(diverging))
    rng = np.random.default_rng(0)
    if stage == "image-ae":
        module = ImageAutoencoder(image_ae_config(resolved), rng)
    elif stage == "text-ae":
        vocab = Vocabulary.from_corpus(load_caption_split(ws / "dataset", "train"))
        module = TextAutoencoder(len(vocab), resolved["text_ae.embed_dim"],
                                 resolved["text_ae.hidden"], rng)
    else:
        d_img, d_txt = resolved["image_ae.d_img"], 2 * resolved["text_ae.hidden"]
        dims = (d_img, d_txt) if stage == "mapper-i2t" else (d_txt, d_img)
        module = MapperGenerator(*dims, resolved["mapper.hidden"], rng)
    assert list(arrays) == [name for name, _ in module.named_parameters()]
    load_into(module, ckpt)  # shapes match too


class TestDatagen:
    def test_deterministic_bytes(self, workdir, tmp_path, monkeypatch):
        ws, cfg = workdir
        assert main(["datagen", "--config", cfg, "--seed", "5"]) == 0
        first = tree_bytes(ws / "dataset")
        import shutil
        shutil.rmtree(ws / "dataset")
        assert main(["datagen", "--config", cfg, "--seed", "5"]) == 0
        assert tree_bytes(ws / "dataset") == first

    def test_default_class_counts(self, workdir):
        ws, cfg = workdir
        assert main(["datagen", "--config", cfg]) == 0
        manifest = (ws / "dataset" / "manifest.txt").read_text()
        assert "train_classes=" in manifest
        train_line = [ln for ln in manifest.splitlines() if ln.startswith("train_classes=")][0]
        test_line = [ln for ln in manifest.splitlines() if ln.startswith("test_classes=")][0]
        assert len(train_line.split("=")[1].split(",")) == 12
        assert len(test_line.split("=")[1].split(",")) == 4


@pytest.mark.slow
class TestPipeline:
    def test_tiny_pipeline_and_contracts(self, workdir):
        ws, cfg = workdir
        assert main(["datagen", "--config", cfg]) == 0
        assert main(["train", "--stage", "image-ae", "--config", cfg]) == 0
        assert main(["train", "--stage", "text-ae", "--config", cfg]) == 0

        ae_bytes = (ws / "checkpoints" / "image_ae.ckpt").read_bytes()
        txt_bytes = (ws / "checkpoints" / "text_ae.ckpt").read_bytes()
        assert main(["train", "--stage", "mapper-i2t", "--config", cfg]) == 0
        assert main(["train", "--stage", "mapper-t2i", "--config", cfg]) == 0
        # frozen-weights contract: mapper training does not touch autoencoders
        assert (ws / "checkpoints" / "image_ae.ckpt").read_bytes() == ae_bytes
        assert (ws / "checkpoints" / "text_ae.ckpt").read_bytes() == txt_bytes

        # all four checkpoints emitted
        for stage in ("image_ae", "text_ae", "mapper_i2t", "mapper_t2i"):
            assert (ws / "checkpoints" / f"{stage}.ckpt").is_file()

        # metric CSVs carry config and seed as comment lines
        metrics = (ws / "metrics" / "image_ae.csv").read_text().splitlines()
        assert any(ln.startswith("# image_ae.epochs=1") for ln in metrics)
        assert any(ln.startswith("# seed=42") for ln in metrics)
        assert "metric,value,dataset,checkpoint,seed" in metrics

        caption = ws / "cap.txt"
        caption.write_text("a red circle on a white background\n")
        assert main(["translate", "--direction", "text-to-image", "--input", str(caption),
                     "--config", cfg]) == 0
        out = ws / "translations" / "t2i.ppm"
        assert out.read_bytes().startswith(b"P6\n32 32\n255\n")

        img = next((ws / "dataset" / "test" / "images").iterdir())
        assert main(["translate", "--direction", "image-to-text", "--input", str(img),
                     "--config", cfg]) == 0
        assert (ws / "translations" / "i2t.txt").read_text().strip()

        assert main(["evaluate", "--split", "test", "--config", cfg]) == 0
        report = (ws / "reports" / "eval_test.csv").read_text()
        for metric in ("class_acc_i2t", "class_acc_t2i", "bleu1_text_ae", "rougeL_text_ae",
                       "mmd2_unbiased_i2t", "pvalue_t2i", "roundtrip_exact_pct"):
            assert metric in report

    def test_debug_self_match_gives_100(self, workdir):
        ws, cfg_path = workdir
        debug_cfg = ws / "debug.cfg"
        debug_cfg.write_text(TINY + "eval.debug_self_match = true\n")
        assert main(["datagen", "--config", str(debug_cfg)]) == 0
        for stage in ("image-ae", "text-ae", "mapper-i2t", "mapper-t2i"):
            assert main(["train", "--stage", stage, "--config", str(debug_cfg)]) == 0
        assert main(["evaluate", "--split", "test", "--config", str(debug_cfg)]) == 0
        from xmodal.metrics import read_metric_rows
        rows = read_metric_rows(ws / "reports" / "eval_test.csv")
        accs = {r["metric"]: r["value"] for r in rows}
        assert accs["class_acc_i2t"] == 100.0
        assert accs["class_acc_t2i"] == 100.0


def test_help_documents_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "image_ae.lambda_kl" in out
    assert "mapper.kind" in out
