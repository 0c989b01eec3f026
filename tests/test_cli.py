"""Command-line pipeline contracts: exit codes, lock, determinism, provenance."""

import fcntl
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from xmodal import autodiff as ad
from xmodal import cli, layers
from xmodal.checkpoint import load_checkpoint, load_into, save_checkpoint, save_module
from xmodal.cli import (TRAIN_STAGES, Workspace, load_image_model, load_mapper, load_text_model,
                        main)
from xmodal.config import config_lines, resolve_config, section
from xmodal.data import load_caption_split, read_ppm, write_ppm
from xmodal.image_ae import ImageAEConfig, ImageAutoencoder, encode_image_batch, generate_images
from xmodal.layers import LSTMCell
from xmodal.mappers import MapperGenerator, map_embedding
from xmodal.text_ae import TextAutoencoder, Vocabulary, decode_text, encode_text

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
            if p.is_file() and p.suffix != ".cfg" and p.name != ".lock"}


# builder of each checkpointed model from a resolved config and an rng (or None)
BUILDERS = {
    "image-ae": lambda cfg, vocab, rng: ImageAutoencoder(
        ImageAEConfig(**section(cfg, "image_ae")), rng),
    "text-ae": lambda cfg, vocab, rng: TextAutoencoder(
        len(vocab), cfg["text_ae.embed_dim"], cfg["text_ae.hidden"], rng,
        max_len=cfg["text_ae.max_len"]),
    "mapper-i2t": lambda cfg, vocab, rng: MapperGenerator(
        cfg["image_ae.d_img"], 2 * cfg["text_ae.hidden"], cfg["mapper.hidden"], rng),
    "mapper-t2i": lambda cfg, vocab, rng: MapperGenerator(
        2 * cfg["text_ae.hidden"], cfg["image_ae.d_img"], cfg["mapper.hidden"], rng),
}


class TestExitCodes:
    def test_bad_config_key_exits_2(self, workdir):
        ws, _ = workdir
        bad = ws / "bad.cfg"
        bad.write_text("data.smples = 2\n")
        assert main(["datagen", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("lines", [
        "image_ae.lr = 0", "text_ae.lr = -1", "mapper.lr = nan", "mapper.clip = 0",
        "text_ae.hidden = 0", "text_ae.embed_dim = -2", "text_ae.max_len = 0",
        "image_ae.d_img = 0", "image_ae.d_c = 0", "mapper.hidden = 0", "mapper.critic_dim = 0",
        "mapper.batch = 1", "data.jitter_pos = -1", "data.jitter_pos = 17",
        "data.jitter_scale = -0.9", "data.jitter_scale = -5", "data.jitter_scale = 1",
        "image_ae.disc_channels = 0", "image_ae.d_z = -1", "image_ae.beta1 = 1",
        "image_ae.beta2 = 1.5", "image_ae.epochs = 0", "text_ae.epochs = 0",
        "image_ae.gen_channels = 0", "image_ae.lambda_kl = -1", "image_ae.lambda_rec = -0.5",
        "mapper.lambda_ae = -1", "mapper.n_critic = 0", "mapper.n_critic = -1",
        "mapper.lr = inf", "image_ae.lambda_kl = inf", "mapper.clip = inf", "image_ae.lr = -inf",
        pytest.param("data.image_size = 8\nimage_ae.branches = 1", id="top-res-8"),
        pytest.param("image_ae.base_res = 6\ndata.image_size = 24", id="top-res-24"),
        pytest.param("image_ae.branches = 0\nimage_ae.base_res = 64", id="no-branches"),
        pytest.param("data.colors = red,green\ndata.shapes = circle,square", id="no-test-class"),
        pytest.param("mapper.kind = gan\udcff", id="not-utf8"),  # a lone 0xff byte
    ])
    def test_bad_config_value_exits_2(self, workdir, lines):
        ws, _ = workdir
        bad = ws / "bad.cfg"
        bad.write_bytes((TINY + lines + "\n").encode("utf-8", "surrogateescape"))
        assert main(["datagen", "--config", str(bad)]) == 2
        assert not (ws / "dataset").exists()

    def test_sizes_beyond_memory_exit_2(self, workdir):
        ws, cfg = workdir
        assert main(["datagen", "--config", cfg]) == 0
        huge = ws / "huge.cfg"
        # the first LSTM gate weight would take 6.94 EiB, past any address space
        huge.write_text(TINY + "text_ae.hidden = 1000000000\n")
        assert main(["train", "--stage", "text-ae", "--config", str(huge)]) == 2

    @pytest.mark.parametrize("size", ["99999999999999999999", "100000000000000000"],
                             ids=["past-intp", "past-address-space"])
    @pytest.mark.parametrize("key, stage", [("image_ae.d_img", "image-ae"),
                                            ("text_ae.embed_dim", "text-ae"),
                                            ("mapper.hidden", "mapper-i2t")])
    def test_sizes_past_numpy_index_range_exit_2(self, workdir, capsys, key, stage, size):
        ws, cfg = workdir
        train_stages(cfg, ("image-ae", "text-ae") if stage == "mapper-i2t" else ())
        huge = ws / "huge.cfg"
        huge.write_text(TINY + f"{key} = {size}\n")
        capsys.readouterr()
        assert main(["train", "--stage", stage, "--config", str(huge)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "do not fit in memory" in err

    @pytest.mark.parametrize("name", ["manifest.txt", "train/captions.tsv", "train/images.tsv"])
    def test_non_utf8_dataset_file_exits_3(self, workdir, name):
        ws, cfg = workdir
        assert main(["datagen", "--config", cfg]) == 0
        path = ws / "dataset" / name
        path.write_bytes(b"\xff" + path.read_bytes())
        stage = "image-ae" if name.endswith("images.tsv") else "text-ae"
        assert main(["train", "--stage", stage, "--config", cfg]) == 3

    def test_non_utf8_caption_input_and_vocabulary_exit_3(self, workdir):
        ws, cfg = workdir
        train_stages(cfg, ("image-ae", "text-ae", "mapper-t2i"))
        caption = ws / "cap.txt"
        caption.write_bytes(b"a red \xff circle\n")
        translate = ["translate", "--direction", "text-to-image", "--input", str(caption),
                     "--config", cfg]
        assert main(translate) == 3
        caption.write_text("a red circle\n")
        assert main(translate) == 0
        vocab = ws / "checkpoints" / "vocab.txt"
        vocab.write_bytes(vocab.read_bytes() + b"\xfe\n")
        assert main(translate) == 3

    def test_caption_over_text_max_len_exits_3(self, workdir):
        ws, cfg = workdir
        train_stages(cfg, ("image-ae", "text-ae", "mapper-i2t", "mapper-t2i"))
        short = ws / "short.cfg"
        short.write_text(TINY + "text_ae.max_len = 3\n")  # every caption is longer
        for command in (["train", "--stage", "text-ae"], ["train", "--stage", "mapper-i2t"],
                        ["evaluate", "--split", "test"]):
            assert main(command + ["--config", str(short)]) == 3, command

    def test_non_integer_image_class_id_exits_3(self, workdir):
        ws, cfg = workdir
        assert main(["datagen", "--config", cfg]) == 0
        index = ws / "dataset" / "train" / "images.tsv"
        index.write_text("x\t" + index.read_text().split("\t", 1)[1])
        assert main(["train", "--stage", "image-ae", "--config", cfg]) == 3

    # labels are stored as uint32: an id below 0 or from 2^32 on would wrap or overflow
    @pytest.mark.parametrize("name,stage,class_id", [
        pytest.param("images.tsv", "image-ae", -1, id="images.tsv-image-ae"),
        pytest.param("captions.tsv", "text-ae", -1, id="captions.tsv-text-ae"),
        pytest.param("images.tsv", "image-ae", 2**32, id="images.tsv-image-ae-2**32"),
        pytest.param("captions.tsv", "text-ae", 2**32, id="captions.tsv-text-ae-2**32"),
        pytest.param("images.tsv", "image-ae", 10**23, id="images.tsv-image-ae-10**23"),
        pytest.param("captions.tsv", "text-ae", 10**23, id="captions.tsv-text-ae-10**23"),
    ])
    def test_negative_class_id_exits_3(self, workdir, name, stage, class_id):
        ws, cfg = workdir
        assert main(["datagen", "--config", cfg]) == 0
        index = ws / "dataset" / "train" / name
        index.write_text(f"{class_id}\t" + index.read_text().split("\t", 1)[1])
        assert main(["train", "--stage", stage, "--config", cfg]) == 3

    def test_empty_caption_split_exits_3(self, workdir):
        ws, cfg = workdir
        train_stages(cfg, TRAIN_STAGES)

        def published():
            return {k: v for k, v in tree_bytes(ws).items() if k.parts[0] in ("checkpoints", "metrics")}

        before = published()
        (ws / "dataset" / "test" / "captions.tsv").write_text("")
        assert main(["evaluate", "--split", "test", "--config", cfg]) == 3
        assert not (ws / "reports" / "eval_test.csv").exists()
        (ws / "dataset" / "train" / "captions.tsv").write_text("")
        assert main(["train", "--stage", "mapper-t2i", "--config", cfg]) == 3
        assert published() == before

    @pytest.mark.parametrize("case", ["mixed", "uniform"])
    def test_dataset_image_of_another_size_exits_3(self, workdir, case):
        ws, cfg = workdir
        train_stages(cfg, TRAIN_STAGES)
        images = sorted((ws / "dataset" / "train" / "images").iterdir())
        for path in images[:1] if case == "mixed" else images:
            write_ppm(np.zeros((3, 16, 16)), path)
        for command in (["train", "--stage", "image-ae"], ["train", "--stage", "mapper-i2t"],
                        ["evaluate", "--split", "test"]):
            assert main(command + ["--config", cfg]) == 3, command

    @pytest.mark.parametrize("names", [("captions.tsv",), ("images.tsv",),
                                       ("captions.tsv", "images.tsv")],
                             ids=["captions", "images", "both"])
    def test_evaluate_on_a_split_of_one_exits_3(self, workdir, names):
        ws, cfg = workdir
        train_stages(cfg, TRAIN_STAGES)
        assert main(["evaluate", "--split", "test", "--config", cfg]) == 0
        report = ws / "reports" / "eval_test.csv"
        before = report.read_bytes()
        for name in names:
            index = ws / "dataset" / "test" / name
            index.write_text(index.read_text().splitlines(keepends=True)[0])
        assert main(["evaluate", "--split", "test", "--config", cfg]) == 3
        assert report.read_bytes() == before
        assert list(report.parent.iterdir()) == [report]

    def test_image_batch_over_training_split_exits_2(self, workdir):
        ws, cfg = workdir
        assert main(["datagen", "--config", cfg]) == 0  # 24 training images
        big = ws / "big.cfg"
        big.write_text(TINY + "image_ae.batch = 64\n")
        assert main(["train", "--stage", "image-ae", "--config", str(big)]) == 2
        assert not (ws / "checkpoints" / "image_ae.ckpt").exists()

    @pytest.mark.parametrize("stage,lines,code", [
        ("image-ae", "image_ae.batch = 64", 2),
        ("text-ae", "text_ae.max_len = 3", 3),  # every caption is longer
        ("text-ae", "text_ae.hidden = 1000000000", 2),  # fails in training, out of memory
    ])
    def test_stage_stopped_before_training_keeps_metric_csv(self, workdir, stage, lines, code):
        ws, cfg = workdir
        train_stages(cfg, (stage,))
        csv = ws / "metrics" / (stage.replace("-", "_") + ".csv")
        before = csv.read_bytes()
        bad = ws / "bad.cfg"
        bad.write_text(TINY + lines + "\n")
        assert main(["train", "--stage", stage, "--config", str(bad)]) == code
        assert csv.read_bytes() == before
        assert list(csv.parent.iterdir()) == [csv]  # no .part file left

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
        with open(ws / ".lock", "w") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            assert main(["datagen", "--config", cfg]) == 3
        assert main(["datagen", "--config", cfg]) == 0

    def test_lock_file_without_holder_does_not_block(self, workdir):
        ws, cfg = workdir
        (ws / ".lock").touch()  # left behind by a killed run
        assert main(["datagen", "--config", cfg]) == 0
        assert main(["datagen", "--config", cfg]) == 0


def _drop_vocabulary(checkpoints: Path):
    (checkpoints / "vocab.txt").unlink()


def _add_discriminator_tensor(checkpoints: Path):
    # the layout written while the image autoencoder still held its discriminators
    path = checkpoints / "image_ae.ckpt"
    save_checkpoint(path, [*load_checkpoint(path).items(), ("disc0.uncond.bias", np.zeros(1))])


def _split_lstm_gates(checkpoints: Path):
    # the layout written while each LSTM cell stored one weight and one bias per gate
    path = checkpoints / "text_ae.ckpt"
    fused = load_checkpoint(path)
    arrays = []
    for name, value in fused.items():
        cell, kind = name.rsplit(".", 1)
        if cell not in ("enc_fwd", "enc_bwd", "dec"):
            arrays.append((name, value))
        elif kind == "weight":
            bias = fused[f"{cell}.bias"]
            hid = bias.size // 4
            for k, gate in enumerate(LSTMCell.GATES):
                cols = slice(k * hid, (k + 1) * hid)
                arrays += [(f"{cell}.{gate}.weight", value[:, cols].T),
                           (f"{cell}.{gate}.bias", bias[cols])]
    assert len(arrays) == 27
    save_checkpoint(path, arrays)


# case -> (fault put into a workdir holding both autoencoders, command, exit code)
AFTER_AUTOENCODERS = {
    "mapper-without-vocabulary": (_drop_vocabulary, ["train", "--stage", "mapper-t2i"], 4),
    "translate-without-mapper": (None, ["translate", "--direction", "text-to-image",
                                        "--input", "{ws}/cap.txt"], 4),
    "evaluate-without-mappers": (None, ["evaluate", "--split", "test"], 4),
    "image-ae-with-discriminator": (_add_discriminator_tensor,
                                    ["train", "--stage", "mapper-i2t"], 3),
    "text-ae-per-gate-layout": (_split_lstm_gates, ["train", "--stage", "mapper-i2t"], 3),
}


@pytest.mark.parametrize("case", AFTER_AUTOENCODERS)
def test_fault_after_autoencoders_exit_code(workdir, case):
    ws, cfg = workdir
    fault, command, code = AFTER_AUTOENCODERS[case]
    train_stages(cfg, ("image-ae", "text-ae"))
    (ws / "cap.txt").write_text("a red circle\n")
    if fault is not None:
        fault(ws / "checkpoints")
    assert main([arg.format(ws=ws) for arg in command] + ["--config", cfg]) == code


# case -> (stage, config lines that make it diverge)
DIVERGING = {
    "image-ae": ("image-ae", "image_ae.lr = 1e300\n"),
    # the conditioning moments overflow in the second epoch; the loss check catches it
    "image-ae-moments": ("image-ae", "image_ae.epochs = 2\nimage_ae.lr = 1e60\n"),
    "text-ae": ("text-ae", "text_ae.lr = 1e300\n"),
    "mapper-i2t": ("mapper-i2t", "mapper.lr = 1e300\n"),
    "mapper-t2i": ("mapper-t2i", "mapper.lr = 1e300\nmapper.kind = gan\n"),
}


@pytest.mark.parametrize("case", DIVERGING)
def test_divergence_keeps_last_good_checkpoint(workdir, case):
    ws, cfg = workdir
    stage, lines = DIVERGING[case]
    train_stages(cfg, ("image-ae", "text-ae") if stage.startswith("mapper") else ())
    diverging = ws / "diverging.cfg"
    diverging.write_text(TINY + lines)
    assert main(["train", "--stage", stage, "--config", str(diverging)]) == 5

    ckpt = ws / "checkpoints" / (stage.replace("-", "_") + ".ckpt")
    arrays = load_checkpoint(ckpt)
    assert all(np.isfinite(a).all() for a in arrays.values())
    resolved = resolve_config(str(diverging))
    vocab = Vocabulary.from_corpus(load_caption_split(ws / "dataset", "train"))
    module = BUILDERS[stage](resolved, vocab, np.random.default_rng(0))
    assert list(arrays) == [name for name, _ in module.named_parameters()]
    load_into(module, ckpt)  # shapes match too
    if stage.startswith("mapper"):  # the published mapper maps the training embeddings
        other = "mapper-t2i" if stage == "mapper-i2t" else "mapper-i2t"
        assert main(["train", "--stage", other, "--config", cfg]) == 0
        assert main(["evaluate", "--split", "train", "--config", cfg]) == 0
    if stage == "text-ae":  # so does the vocabulary the diverged run built
        saved = Vocabulary.load(ws / "checkpoints" / "vocab.txt")
        assert saved.decode(range(len(saved))) == vocab.decode(range(len(vocab)))
    # the metric CSV of the diverged run sits next to its checkpoint
    csv = ws / "metrics" / (stage.replace("-", "_") + ".csv")
    comments = [ln[2:] for ln in csv.read_text().splitlines() if ln.startswith("# ")]
    assert comments[:-1] == config_lines(resolved)
    assert all(p.suffix == ".csv" for p in csv.parent.iterdir())  # no stray file


def test_gan_mapper_at_a_saturating_learning_rate_still_trains(workdir):
    # mapper.lr = 1 saturates the discriminator at its first step; on logits
    # the generator's gradient stays alive and it moves off its initial draw
    ws, cfg = workdir
    train_stages(cfg, ("image-ae", "text-ae"))
    gan = ws / "gan.cfg"
    gan.write_text(TINY + "mapper.kind = gan\nmapper.lr = 1\n")
    assert main(["train", "--stage", "mapper-t2i", "--config", str(gan)]) == 0
    arrays = load_checkpoint(ws / "checkpoints" / "mapper_t2i.ckpt")
    named = dict(BUILDERS["mapper-t2i"](resolve_config(str(gan)), None,
                                        cli.stage_rng(42, "mapper-t2i")).named_parameters())
    assert list(arrays) == list(named)
    assert all(np.isfinite(a).all() for a in arrays.values())
    assert any(not np.array_equal(arrays[name], p.data) for name, p in named.items())


def test_evaluate_replaces_report_with_its_own_provenance(workdir):
    ws, cfg = workdir
    train_stages(cfg, TRAIN_STAGES)
    assert main(["evaluate", "--split", "test", "--config", cfg]) == 0
    second = ws / "second.cfg"
    second.write_text(TINY + "eval.permutations = 30\n")
    assert main(["evaluate", "--split", "test", "--config", str(second), "--seed", "7"]) == 0
    report = ws / "reports" / "eval_test.csv"
    lines = report.read_text().splitlines()
    assert [ln[2:] for ln in lines if ln.startswith("# ")] == (
        config_lines(resolve_config(str(second))) + ["seed=7"])
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")][1:]
    assert len(rows) == 12 and all(row[-1] == "7" for row in rows)
    before = report.read_bytes()
    short = ws / "short.cfg"
    short.write_text(TINY + "text_ae.max_len = 3\n")  # fails once every model is loaded
    assert main(["evaluate", "--split", "test", "--config", str(short)]) == 3
    assert report.read_bytes() == before
    assert list(report.parent.iterdir()) == [report]


def test_evaluate_reads_each_split_of_captions_once(workdir, monkeypatch):
    ws, cfg = workdir
    train_stages(cfg, TRAIN_STAGES)
    splits = []

    def counted(root, split):
        splits.append(split)
        return load_caption_split(root, split)

    monkeypatch.setattr(cli, "load_caption_split", counted)
    assert main(["evaluate", "--split", "test", "--config", cfg]) == 0
    assert sorted(splits) == ["test", "train"]


def test_evaluate_builds_one_distance_matrix_and_one_gram_per_direction(workdir, monkeypatch):
    ws, cfg = workdir
    train_stages(cfg, TRAIN_STAGES)
    calls = []

    def counted(name):
        op = getattr(ad, name)

        def call(*args):
            calls.append(name)
            return op(*args)
        return call

    for name in ("pairwise_sq_dists", "rbf_mixture"):
        monkeypatch.setattr(ad, name, counted(name))
    assert main(["evaluate", "--split", "test", "--config", cfg]) == 0
    assert sorted(calls) == ["pairwise_sq_dists"] * 2 + ["rbf_mixture"] * 2


def test_mapper_with_non_finite_output_exits_5(workdir):
    ws, cfg = workdir
    train_stages(cfg, TRAIN_STAGES)
    ckpt = ws / "checkpoints" / "mapper_i2t.ckpt"
    save_checkpoint(ckpt, [(name, a * 1e150) for name, a in load_checkpoint(ckpt).items()])
    assert main(["evaluate", "--split", "test", "--config", cfg]) == 5
    assert not (ws / "reports" / "eval_test.csv").exists()
    image = sorted((ws / "dataset" / "test" / "images").iterdir())[0]
    assert main(["translate", "--direction", "image-to-text", "--input", str(image),
                 "--config", cfg]) == 5
    assert not (ws / "translations" / "i2t.txt").exists()


def test_mapper_with_huge_finite_output_exits_0_or_5(workdir):
    # scaled by 10^54 the mapped set is finite but its squared distances overflow
    ws, cfg = workdir
    train_stages(cfg, TRAIN_STAGES)
    (ws / "cap.txt").write_text("a red circle\n")
    image = sorted((ws / "dataset" / "test" / "images").iterdir())[0]
    ckpts = [ws / "checkpoints" / f"mapper_{direction}.ckpt" for direction in ("i2t", "t2i")]
    trained = {ckpt: load_checkpoint(ckpt) for ckpt in ckpts}
    commands = [["evaluate", "--split", "test"],
                ["translate", "--direction", "image-to-text", "--input", str(image)],
                ["translate", "--direction", "text-to-image", "--input", str(ws / "cap.txt")]]
    codes = {}
    for k in (0, 40, 54, 100, 160, 300):
        for ckpt, arrays in trained.items():
            save_checkpoint(ckpt, [(name, a * 10.0 ** k) for name, a in arrays.items()])
        for command in commands:
            codes[k, command[-1]] = main(command + ["--config", cfg])
    assert set(codes.values()) <= {0, 5}, codes
    assert codes[0, "test"] == 0 and codes[54, "test"] == 5, codes


# case -> (checkpoint, tensor set to NaN, stages trained first, command)
NON_FINITE_ENCODER = {
    "evaluate": ("image_ae.ckpt", "encoder.head.bias", TRAIN_STAGES,
                 ["evaluate", "--split", "test"]),
    "mapper-i2t": ("image_ae.ckpt", "encoder.head.bias", ("image-ae", "text-ae"),
                   ["train", "--stage", "mapper-i2t"]),
    "translate": ("image_ae.ckpt", "encoder.head.bias", ("image-ae", "text-ae", "mapper-i2t"),
                  ["translate", "--direction", "image-to-text", "--input", "{image}"]),
    "text-encoder": ("text_ae.ckpt", "enc_fwd.bias", ("image-ae", "text-ae"),
                     ["train", "--stage", "mapper-t2i"]),
    # a NaN conditioning variable, which the generator's relus would map to finite images
    "text-to-image": ("image_ae.ckpt", "augment.proj.weight", ("image-ae", "text-ae", "mapper-t2i"),
                      ["translate", "--direction", "text-to-image", "--input", "{caption}"]),
}


@pytest.mark.parametrize("case", NON_FINITE_ENCODER)
def test_non_finite_encoder_output_exits_5_and_writes_nothing(workdir, capsys, case):
    ws, cfg = workdir
    name, tensor, stages, command = NON_FINITE_ENCODER[case]
    train_stages(cfg, stages)
    ckpt = ws / "checkpoints" / name
    arrays = load_checkpoint(ckpt)
    arrays[tensor][0] = np.nan
    save_checkpoint(ckpt, list(arrays.items()))  # a valid CKPT file
    image = sorted((ws / "dataset" / "test" / "images").iterdir())[0]
    caption = ws / "cap.txt"
    caption.write_text("a red circle\n")
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main([arg.format(image=image, caption=caption) for arg in command]
                + ["--config", cfg]) == 5
    out, err = capsys.readouterr()
    assert out == "" and "non-finite" in err
    assert tree_bytes(ws) == before


def test_evaluate_without_dataset_exits_4(workdir, capsys):
    ws, cfg = workdir
    train_stages(cfg, TRAIN_STAGES)
    shutil.rmtree(ws / "dataset")
    capsys.readouterr()
    assert main(["evaluate", "--split", "test", "--config", cfg]) == 4
    assert "run datagen first" in capsys.readouterr().err


# -- loading ----------------------------------------------------------------------


@pytest.fixture
def saved_models(workdir):
    """A workdir holding seeded, untrained checkpoints of every model and a vocabulary."""
    ws, cfg_path = workdir
    cfg = resolve_config(cfg_path)
    workspace = Workspace(ws)
    vocab = Vocabulary(["a", "red", "blue", "circle", "square"])
    vocab.save(workspace.checkpoints / "vocab.txt")
    for k, (stage, build) in enumerate(BUILDERS.items()):
        save_module(build(cfg, vocab, np.random.default_rng(k)), workspace.checkpoint(stage))
    return workspace, cfg, cfg_path, vocab


def _record_glorot_rngs(monkeypatch) -> list:
    rngs = []
    draw = layers.glorot_uniform

    def recording(rng, *args):
        rngs.append(rng)
        return draw(rng, *args)

    monkeypatch.setattr(layers, "glorot_uniform", recording)
    return rngs


def _load_all(workspace: Workspace, cfg: dict) -> dict:
    return {"image-ae": load_image_model(workspace, cfg),
            "text-ae": load_text_model(workspace, cfg)[0],
            "mapper-i2t": load_mapper(workspace, cfg, "mapper-i2t"),
            "mapper-t2i": load_mapper(workspace, cfg, "mapper-t2i")}


def test_loaders_draw_nothing(saved_models, monkeypatch):
    workspace, cfg, _, _ = saved_models
    rngs = _record_glorot_rngs(monkeypatch)
    _load_all(workspace, cfg)
    assert rngs and all(rng is None for rng in rngs)


def test_training_stages_still_draw_from_a_generator(workdir, monkeypatch):
    ws, cfg = workdir
    rngs = _record_glorot_rngs(monkeypatch)
    train_stages(cfg, ("image-ae", "text-ae"))
    assert rngs and all(isinstance(rng, np.random.Generator) for rng in rngs)
    rngs.clear()
    assert main(["train", "--stage", "mapper-i2t", "--config", cfg]) == 0
    # the autoencoders load without drawing; the mapper it trains draws
    assert {type(rng) for rng in rngs} == {type(None), np.random.Generator}


def test_loaded_parameters_are_the_checkpoint_values_in_their_own_arrays(saved_models):
    workspace, cfg, _, _ = saved_models
    datas = []
    for stage, model in _load_all(workspace, cfg).items():
        arrays = load_checkpoint(workspace.checkpoint(stage))
        for name, p in model.named_parameters():
            assert p.data.dtype == np.float64
            assert p.data.flags.c_contiguous and p.data.flags.writeable
            assert p.data.tobytes() == arrays[name].tobytes()  # bit for bit
            datas.append(p.data)
    for i, a in enumerate(datas):
        assert not any(np.may_share_memory(a, b) for b in datas[i + 1:])


def test_model_built_without_draws_computes_as_a_seeded_one(saved_models):
    workspace, cfg, _, vocab = saved_models
    pairs = {}
    for stage, build in BUILDERS.items():
        pairs[stage] = [build(cfg, vocab, rng) for rng in (np.random.default_rng(9), None)]
        for model in pairs[stage]:
            load_into(model, workspace.checkpoint(stage))
    size = ImageAEConfig(**section(cfg, "image_ae")).top_res
    images = np.random.default_rng(1).uniform(-1, 1, size=(2, 3, size, size))
    ids = vocab.encode(["a", "red", "circle"])

    def forward(img, txt, i2t, t2i):
        psi = encode_image_batch(img, images)
        sentence = encode_text(txt, ids)
        return [psi, sentence, *generate_images(img, psi, np.random.default_rng(2)),
                map_embedding(i2t, psi), map_embedding(t2i, sentence),
                np.asarray(decode_text(txt, sentence))]

    seeded, undrawn = (forward(*models) for models in zip(*pairs.values()))
    for a, b in zip(seeded, undrawn, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _drop_mapper_i2t(workspace: Workspace):
    workspace.checkpoint("mapper-i2t").unlink()


def _blank_ppm(shrink: int):
    return lambda path, size: write_ppm(np.zeros((3, size // shrink, size // shrink)), path)


# case -> (direction, input bytes or writer of the input, fault put into the workdir, exit code)
TRANSLATE_FAILURES = {
    "bad-ppm": ("image-to-text", b"not a ppm", None, 3),
    "small-image": ("image-to-text", _blank_ppm(2), None, 3),
    "caption-over-max-len": ("text-to-image", b"red " * 26, None, 3),
    "missing-mapper": ("image-to-text", _blank_ppm(1), _drop_mapper_i2t, 4),
}


@pytest.mark.parametrize("case", TRANSLATE_FAILURES)
def test_failed_translate_loads_and_writes_nothing(saved_models, monkeypatch, case):
    workspace, cfg, cfg_path, _ = saved_models
    direction, data, fault, code = TRANSLATE_FAILURES[case]
    source = workspace.root / "input"
    if isinstance(data, bytes):
        source.write_bytes(data)
    else:
        data(source, ImageAEConfig(**section(cfg, "image_ae")).top_res)
    if fault is not None:
        fault(workspace)
    loads = []
    monkeypatch.setattr("xmodal.cli.load_into", lambda module, path: loads.append(path))
    assert main(["translate", "--direction", direction, "--input", str(source),
                 "--config", cfg_path]) == code
    assert loads == []
    assert not workspace.translations.exists()


def test_sampled_text_to_image_translate_is_deterministic(saved_models):
    # translate.sample = true draws the conditioning variable around its mean
    workspace, cfg, cfg_path, _ = saved_models
    sampled = workspace.root / "sampled.cfg"
    sampled.write_text(TINY + "translate.sample = true\n")
    caption = workspace.root / "cap.txt"
    caption.write_text("a red circle\n")
    outputs = {}
    for name, config in (("first", sampled), ("second", sampled), ("mean", cfg_path)):
        outputs[name] = workspace.root / f"{name}.ppm"
        assert main(["translate", "--direction", "text-to-image", "--input", str(caption),
                     "--output", str(outputs[name]), "--config", str(config)]) == 0
    size = ImageAEConfig(**section(cfg, "image_ae")).top_res
    assert read_ppm(outputs["first"]).shape == (3, size, size)
    assert outputs["first"].read_bytes() == outputs["second"].read_bytes()
    assert outputs["first"].read_bytes() != outputs["mean"].read_bytes()


class TestDatagen:
    def test_deterministic_bytes(self, workdir, tmp_path, monkeypatch):
        ws, cfg = workdir
        assert main(["datagen", "--config", cfg, "--seed", "5"]) == 0
        first = tree_bytes(ws / "dataset")
        import shutil
        shutil.rmtree(ws / "dataset")
        assert main(["datagen", "--config", cfg, "--seed", "5"]) == 0
        assert tree_bytes(ws / "dataset") == first

    def test_failed_datagen_leaves_no_manifest(self, workdir, monkeypatch):
        ws, cfg = workdir
        assert main(["datagen", "--config", cfg, "--seed", "1"]) == 0
        written = []

        def write_ten_then_fail(img, path):
            if len(written) == 10:
                raise OSError("disk full")
            written.append(path)
            write_ppm(img, path)

        monkeypatch.setattr("xmodal.data.write_ppm", write_ten_then_fail)
        assert main(["datagen", "--config", cfg, "--seed", "2"]) == 3
        assert not (ws / "dataset" / "manifest.txt").exists()
        assert main(["train", "--stage", "image-ae", "--config", cfg]) == 4

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
    def test_two_runs_write_identical_trees(self, tmp_path, monkeypatch):
        # datagen, the four stages, both translates and evaluate on both splits, twice
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY)
        trees = []
        for root in (tmp_path / "first", tmp_path / "second"):
            monkeypatch.setenv("XMODAL_WORKDIR", str(root))
            train_stages(str(cfg), TRAIN_STAGES)
            (root / "cap.txt").write_text("a red circle\n")
            image = sorted((root / "dataset" / "test" / "images").iterdir())[0]
            for direction, source in (("text-to-image", root / "cap.txt"),
                                      ("image-to-text", image)):
                assert main(["translate", "--direction", direction, "--input", str(source),
                             "--config", str(cfg)]) == 0
            for split in ("test", "train"):
                assert main(["evaluate", "--split", split, "--config", str(cfg)]) == 0
            trees.append(tree_bytes(root))
        assert trees[0] == trees[1]
        assert Path("checkpoints/mapper_t2i.ckpt") in trees[0]
        assert Path("reports/eval_train.csv") in trees[0]

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


def test_one_parser_serves_every_call(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("XMODAL_WORKDIR", str(tmp_path))  # a parse that let a call through runs there
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    assert parser.parse_args(["evaluate", "--split", "train"]).split == "train"
    assert parser.parse_args(["evaluate"]).split == "test"  # no state kept between parses
    bad_seeds = [[*argv, "--seed", seed] for seed in ("-1", "x") for argv in (
        ["datagen"], ["train", "--stage", "text-ae"],
        ["translate", "--direction", "text-to-image", "--input", "caption.txt"], ["evaluate"])]
    for argv, code in ((["--help"], 0), (["evaluate", "--split", "dev"], 2), (["--help"], 0),
                       *((argv, 2) for argv in bad_seeds)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert ("argument --seed" in capsys.readouterr().err) == (argv in bad_seeds)
    assert list(tmp_path.iterdir()) == []


def test_help_documents_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "image_ae.lambda_kl" in out
    assert "mapper.kind" in out
    assert "image_ae.beta1 (default 0.5): first moment decay, in [0, 1)" in out
    for key in ("image_ae.epochs", "text_ae.epochs", "image_ae.gen_channels"):
        assert next(line for line in out.splitlines()
                    if key in line).endswith(", positive and finite")
    for key in ("image_ae.lambda_kl", "image_ae.lambda_rec", "mapper.lambda_ae"):
        assert next(line for line in out.splitlines()
                    if key in line).endswith(", finite and at least 0")
