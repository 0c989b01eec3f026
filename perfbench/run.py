#!/usr/bin/env python3
"""Benchmark of the xmodal pipeline, driven through `xmodal.cli.main`.

    python3 perfbench/run.py --workload train-image --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. With `--trace 0` the run measures the end-to-end metrics; with
`--trace 1` it wraps the program's public functions, records spans and
reports the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Everything the run
writes goes under `.bench_out/` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, the same on every commit: artifact bytes depend
# on the BLAS thread count, and one thread is at or below nproc everywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up runs at least SETUP_REPEATS times and, while that has taken less than
# SETUP_SECONDS, again (at most SETUP_MAX times): a set-up of 0.3 s needs more
# repeats than one of 3 s for a median that holds still.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
SETUP_MAX = 11
# The untraced timed phase moves the process to the next CPU it may use every
# ROTATE_S seconds, between commands: on a shared host one CPU can stay slowed
# by a neighbour for a whole run while the other is not.
ROTATE_S = 1.0
MIN_COMMANDS = 10       # training commands per untraced run, at least
TRANSLATES_PER_CYCLE = 40  # map-eval: translate requests per cycle of its loop
# The gated timings are this quantile of a run's samples, from the fast side
# (the 98th percentile of rates, the 2nd of times): other load on a shared
# machine only ever slows a sample.
FAST_Q = 0.02
SUBPROCESS_TIMEOUT_S = 150

# Rows every reports/eval_<split>.csv must carry, each with a finite value.
EVAL_ROWS = ("bleu1_text_ae", "bleu4_text_ae", "rougeL_text_ae", "roundtrip_exact_pct") + tuple(
    f"{m}_{d}" for d in ("i2t", "t2i")
    for m in ("class_acc", "mmd2_unbiased", "mmd2_biased", "pvalue"))


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                        # bench.cfg, for set-up and the timed phase
    train_stage: str | None = None      # closed loop of this training stage
    setup_stages: tuple = ()            # stages set-up trains after datagen
    # the samples the gated throughput and latency are taken from
    throughput_from: str = ""
    latency_from: str = "step_ms"
    # per-layer spans that must record calls, and spans that must record none
    uses: tuple = ()
    bypasses: tuple = ()


WORKLOADS = {w.name: w for w in (
    Workload(
        "train-image", {"data.samples_per_class": 6, "image_ae.epochs": 1},
        train_stage="image-ae", throughput_from="step_image_ae_images_per_s",
        uses=("autodiff.conv2d", "autodiff.backward", "autodiff.matmul", "optim.Adam.step",
              "image_ae.ImageEncoder", "image_ae.GeneratorStack", "image_ae.discriminator_loss",
              "image_ae.generator_adversarial_loss", "data.generate_colorshapes",
              "data.load_image_split", "checkpoint.save_module"),
        bypasses=("layers.LSTMCell.step", "mappers.mmd2_unbiased", "mappers.KernelSpec.gram",
                  "metrics.two_sample_test", "metrics.class_accuracy", "metrics.bleu",
                  "metrics.rouge_l", "cli.export_embeddings", "checkpoint.load_into")),
    Workload(
        "train-text", {"data.samples_per_class": 4, "text_ae.epochs": 1},
        train_stage="text-ae", throughput_from="step_text_ae_tokens_per_s",
        uses=("autodiff.backward", "autodiff.matmul", "autodiff.transpose",
              "layers.LSTMCell.step", "optim.Adam.step", "text_ae.TextAutoencoder.encode_ids",
              "text_ae.decoder_loss", "data.generate_colorshapes", "checkpoint.save_module"),
        bypasses=("autodiff.conv2d", "image_ae.ImageEncoder", "mappers.mmd2_unbiased",
                  "metrics.two_sample_test", "metrics.class_accuracy", "cli.export_embeddings",
                  "checkpoint.load_into")),
    Workload(
        "map-eval", {"data.samples_per_class": 6, "image_ae.epochs": 1, "text_ae.epochs": 1,
                     "mapper.steps": 20},
        setup_stages=("image-ae", "text-ae"),
        throughput_from="step_mapper_steps_per_s", latency_from="translate_ms",
        uses=("autodiff.conv2d", "autodiff.backward", "autodiff.matmul", "autodiff.transpose",
              "layers.LSTMCell.step", "optim.Adam.step", "image_ae.ImageEncoder",
              "image_ae.GeneratorStack", "text_ae.encode_text", "text_ae.decode_text",
              "mappers.mmd2_unbiased", "mappers.KernelSpec.gram", "mappers.train_mmd_mapper",
              "metrics.two_sample_test", "metrics.class_accuracy", "metrics.bleu",
              "metrics.rouge_l", "cli.export_embeddings", "data.generate_colorshapes",
              "data.load_image_split", "data.write_embeddings", "checkpoint.load_into",
              "checkpoint.save_module"),
        bypasses=("image_ae.discriminator_loss", "image_ae.generator_adversarial_loss",
                  "text_ae.decoder_loss")),
)}

# metric -> unit; every workload reports all of them. The two timings come
# from samples of 10 to 250 ms each, not from whole commands: training steps
# (throughput, and latency on the training workloads) and translate requests
# (latency on map-eval). A shared host's speed moves many times a second and
# the share of fast stretches moves from run to run; a whole command averages
# over that share, while the fastest samples of a run sit in the fast speed.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_p98_per_s": "1/s",
    "latency_p2_ms": "ms",
}

PER_LAYER = {  # metric -> unit
    "autodiff.conv2d.calls": "count", "autodiff.conv2d.self_s": "s",
    "autodiff.backward.calls": "count", "autodiff.backward.self_s": "s",
    "autodiff.op_calls": "count", "autodiff.op_self_s": "s",
    "autodiff.matmul.calls": "count", "autodiff.matmul.self_s": "s",
    "autodiff.transpose.calls": "count",
    "layers.LSTMCell.step.calls": "count", "layers.LSTMCell.step.s": "s",
    "optim.Adam.step.calls": "count", "optim.Adam.step.s": "s",
    "optim.unused_grad_frac": "ratio",
    "image_ae.ImageEncoder.s": "s", "image_ae.GeneratorStack.s": "s",
    "image_ae.discriminator_loss.s": "s", "image_ae.generator_adversarial_loss.s": "s",
    "text_ae.encode_ids.s": "s", "text_ae.decoder_loss.s": "s",
    "text_ae.encode_text.calls": "count", "text_ae.encode_text.s": "s",
    "text_ae.decode_text.calls": "count", "text_ae.decode_text.s": "s",
    "text_ae.decode_text.tokens": "count",
    "mappers.mmd2_unbiased.calls": "count", "mappers.mmd2_unbiased.s": "s",
    "mappers.KernelSpec.gram.s": "s", "mappers.train_mmd_mapper.s": "s",
    "metrics.two_sample_test.s": "s", "metrics.class_accuracy.s": "s",
    "metrics.bleu.s": "s", "metrics.rouge_l.s": "s",
    "cli.export_embeddings.calls": "count", "cli.export_embeddings.s": "s",
    "data.generate_colorshapes.s": "s", "data.load_image_split.s": "s",
    "data.write_embeddings.calls": "count", "data.write_embeddings.bytes": "bytes",
    "checkpoint.load_into.calls": "count", "checkpoint.load_into.s": "s",
    "checkpoint.save_module.calls": "count", "checkpoint.save_module.bytes": "bytes",
    "trace.overhead_pct": "%",
}

# Per-layer metrics that must repeat exactly between runs of the same code.
EXACT = tuple(m for m, unit in PER_LAYER.items() if unit in ("count", "bytes")) + (
    "optim.unused_grad_frac",)


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values) -> str:
    """The highest of p99.9/p99/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n - math.ceil(n * pct / 100) >= 10:
            return f"p{pct:g}={quantile(values, pct / 100):.6g}"
    return "no tail (fewer than 20 samples)"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def code_id() -> str:
    """Digest of the program and benchmark sources: keys the repeat checks."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("xmodal/*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def blas_runtime_threads():
    """Thread count OpenBLAS reports, when numpy bundles a library that says."""
    import numpy as np
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name, "blas_threads": BLAS_THREADS,
            "blas_threads_runtime": blas_runtime_threads(), "machine": platform.machine(),
            "code_id": code_id()}


def write_config(path: Path, keys: dict):
    path.write_text("".join(f"{k}={v}\n" for k, v in keys.items()), encoding="utf-8")


class StepClock:
    """Times training steps from outside the program, with one clock read per
    step. A step is the interval between consecutive `Adam.step` calls of the
    optimizer that steps least often in a command: the only one on text-ae,
    the generator's on the mappers (whose critic steps several times a step),
    and any of the four on image-ae (all step once an iteration). On text-ae
    it also counts the target tokens (caption plus EOS) of each step.

    A training command lasts about a second and mixes the host's fast and
    slow stretches; steps last 10 to 250 ms, so the fast side of their
    distribution is what the program costs on a quiet machine."""

    def __init__(self):
        self.calls: list[tuple[int, float]] = []  # (id(optimizer), time after step)
        self.tokens: list[int] = []
        self._saved = None

    def install(self):
        import numpy as np
        from xmodal import optim, text_ae
        step, loss = self._saved = (optim.Adam.step, text_ae.decoder_loss)
        calls, tokens = self.calls, self.tokens

        def timed_step(opt):
            result = step(opt)
            calls.append((id(opt), time.perf_counter()))
            return result

        def counted_loss(model, s, input_ids, target_ids):
            tokens.append(int(np.size(target_ids)))
            return loss(model, s, input_ids, target_ids)

        optim.Adam.step, text_ae.decoder_loss = timed_step, counted_loss

    def uninstall(self):
        from xmodal import optim, text_ae
        if self._saved is not None:
            optim.Adam.step, text_ae.decoder_loss = self._saved
            self._saved = None

    def take(self) -> tuple[list[float], list[int]]:
        """Step times (s) of the command just run, and on text-ae the tokens of
        each; the first step of a command has no start and is left out."""
        by_opt: dict[int, list[float]] = {}
        for key, t in self.calls:
            by_opt.setdefault(key, []).append(t)
        ends = min(by_opt.values(), key=len) if by_opt else []
        tokens = self.tokens[1:len(ends)]
        self.calls.clear()
        self.tokens.clear()
        return [b - a for a, b in zip(ends, ends[1:])], tokens


class CpuRotation:
    """Moves the process to the next CPU it may use once it has spent
    ROTATE_S seconds on one, so that a run samples every CPU it was given."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.index = -1
        self.since = -math.inf

    def tick(self):
        now = time.perf_counter()
        if len(self.cpus) > 1 and now - self.since >= ROTATE_S:
            self.index = (self.index + 1) % len(self.cpus)
            os.sched_setaffinity(0, {self.cpus[self.index]})
            self.since = now

    def close(self):
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus)


class Run:
    """One benchmark run: a working directory, the CLI commands issued into it
    and the checks made on what they wrote."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = None  # set while the traced pass runs
        self.clock = None     # set while the untraced timed phase runs
        self.rotation = None  # likewise
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.samples: dict[str, list] = {}
        self.base = OUT / "work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.workdir = self.base
        self.sink = open(os.devnull, "w")

    def close(self):
        self.sink.close()
        shutil.rmtree(self.base, ignore_errors=True)

    # -- checks ------------------------------------------------------------------

    def problem(self, text: str):
        self.problems.append(text)

    def digest(self, label: str, path: Path) -> bool:
        """Record an artifact digest; it must equal any earlier one of this run."""
        if not path.is_file():
            self.problem(f"{label}: missing")
            return False
        value = sha256(path)
        previous = self.digests.setdefault(label, value)
        if previous != value:
            self.problem(f"{label}: digest {value[:12]} differs from {previous[:12]} in this run")
            return False
        return True

    def check_eval_report(self, split: str) -> bool:
        path = self.workdir / "reports" / f"eval_{split}.csv"
        if not path.is_file():
            self.problem(f"{path.name}: missing")
            return False
        values = {}
        lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
                 if ln and not ln.startswith("#")]
        for line in lines[1:]:
            metric, value = line.split(",")[:2]
            values[metric] = float(value)
        bad = [r for r in EVAL_ROWS if r not in values or not math.isfinite(values[r])]
        if bad:
            self.problem(f"{path.name}: rows missing or not finite: {bad}")
            return False
        return self.digest(f"reports/{path.name}", path)

    def check_translation(self, direction: str) -> bool:
        if direction == "image-to-text":
            path = self.workdir / "translations" / "i2t.txt"
            ok = path.is_file() and path.read_text(encoding="utf-8").strip() != ""
        else:
            path = self.workdir / "translations" / "t2i.ppm"
            ok = path.is_file() and path.stat().st_size > 15
        if not ok:
            self.problem(f"translate {direction}: empty or missing output {path.name}")
        return ok

    # -- commands ----------------------------------------------------------------

    def args(self, argv) -> list[str]:
        return [*argv, "--config", str(self.workdir / "bench.cfg"), "--seed", str(self.seed)]

    def command(self, *argv, check=None, traced=True) -> float:
        """Run one command in-process; a non-zero exit or a failed check fails it.
        Returns its wall time."""
        from xmodal import cli
        args = self.args(argv)
        # stage.datagen, stage.train.image-ae, stage.evaluate.test, stage.translate.<direction>
        label = ".".join(("stage", argv[0], *argv[2:3]))
        self.attempted += 1
        if self.rotation is not None:
            self.rotation.tick()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(self.sink):
                if self.tracer is not None and traced:
                    with self.tracer.span(label):
                        code = cli.main(args)
                else:
                    code = cli.main(args)
        except Exception:  # the run goes on; the command counts as failed
            traceback.print_exc(file=sys.stderr)
            code = -1
        elapsed = time.perf_counter() - t0
        ok = code == 0
        if not ok:
            self.problem(f"{' '.join(argv)}: exit {code}")
        elif check is not None:
            ok = check()
        self.failed += not ok
        return elapsed

    def cli_subprocess(self, *argv) -> bool:
        self.attempted += 1
        env = dict(os.environ, PYTHONPATH=str(SRC), XMODAL_WORKDIR=str(self.workdir))
        proc = subprocess.Popen([sys.executable, "-m", "xmodal.cli", *self.args(argv)],
                                env=env, stdout=subprocess.DEVNULL)
        # a blocking wait: wait(timeout=...) polls and rounds times up to 50 ms
        watchdog = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        if code != 0:
            self.problem(f"set-up {' '.join(argv)}: exit {code}")
            self.failed += 1
        return code == 0

    # -- set-up --------------------------------------------------------------------

    def setup_commands(self) -> list[tuple]:
        write_config(self.workdir / "bench.cfg", self.w.config)
        return [("datagen",), *(("train", "--stage", stage) for stage in self.w.setup_stages)]

    def check_setup(self):
        for stage in self.w.setup_stages:
            name = stage.replace("-", "_") + ".ckpt"
            self.digest(f"set-up/{name}", self.workdir / "checkpoints" / name)

    def setup(self) -> list[float]:
        """Set up from scratch several times, as a user would: one fresh
        interpreter per command. Keeps the last working directory."""
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX:
            if times:
                shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = self.base / f"setup{len(times)}"
            self.workdir.mkdir(parents=True)
            t0 = time.perf_counter()
            for argv in self.setup_commands():
                self.cli_subprocess(*argv)
            times.append(time.perf_counter() - t0)
            self.check_setup()
        os.environ["XMODAL_WORKDIR"] = str(self.workdir)
        return times

    def setup_in_process(self):
        """The traced run's set-up: once, in this process, untraced."""
        self.workdir = self.base / "setup"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        os.environ["XMODAL_WORKDIR"] = str(self.workdir)
        for argv in self.setup_commands():
            self.command(*argv, traced=False)
        self.check_setup()

    # -- timed phase -----------------------------------------------------------------

    def train_units(self) -> tuple[int, int]:
        """(units, steps) one training command processes: images or target tokens."""
        from xmodal.config import resolve_config
        from xmodal.text_ae import tokenize
        cfg = resolve_config(self.workdir / "bench.cfg")
        data = self.workdir / cfg["data.dir"] / "train"
        if self.w.train_stage == "image-ae":
            n = sum(1 for ln in (data / "images.tsv").read_text().splitlines() if ln)
            steps = n // cfg["image_ae.batch"] * cfg["image_ae.epochs"]
            return steps * cfg["image_ae.batch"], steps
        captions = [tokenize(ln.split("\t", 1)[1])
                    for ln in (data / "captions.tsv").read_text(encoding="utf-8").splitlines() if ln]
        lengths = [len(c) for c in captions if c]
        epochs = cfg["text_ae.epochs"]
        return (sum(lengths) + len(lengths)) * epochs, len(lengths) * epochs

    def train_request(self, stage: str):
        ckpt = stage.replace("-", "_") + ".ckpt"
        path = self.workdir / "checkpoints" / ckpt
        return lambda: self.command("train", "--stage", stage,
                                    check=lambda: self.digest(f"checkpoints/{ckpt}", path))

    def take_steps(self, steps: int) -> tuple[list[float], list[int]]:
        """The step clock's reading for a command of `steps` training steps."""
        if self.clock is None:
            return [], []
        step_s, tokens = self.clock.take()
        if len(step_s) != steps - 1 or tokens and len(tokens) != len(step_s):
            self.problem(f"step clock: {len(step_s)} step times and {len(tokens)} token counts "
                         f"for {steps} steps")
        return step_s, tokens

    def timed_train(self, fixed: bool) -> dict:
        stage = self.w.train_stage
        units, steps = self.train_units()
        request = self.train_request(stage)
        times, step_s, step_rates = [], [], []
        t0 = time.perf_counter()
        while not times or not fixed and (len(times) < MIN_COMMANDS
                                          or time.perf_counter() < t0 + self.seconds):
            times.append(request())
            seconds, tokens = self.take_steps(steps)
            step_s += seconds
            if stage == "text-ae":
                step_rates += [n / t for n, t in zip(tokens, seconds)]
            else:
                step_rates += [units / steps / t for t in seconds]
        rate_name = "image_ae_images_per_s" if stage == "image-ae" else "text_ae_tokens_per_s"
        return {
            "wall_s": time.perf_counter() - t0,
            "samples": {rate_name: [units / t for t in times],
                        f"{stage.replace('-', '_')}_command_s": times,
                        "step_" + rate_name: step_rates,
                        "step_ms": [1000.0 * t for t in step_s]},
        }

    def translate_inputs(self) -> list[tuple[str, Path]]:
        """Alternating requests over the test split, in a seed-shuffled order."""
        test = self.workdir / "dataset" / "test"
        images = [test / "images" / ln.split("\t", 1)[1]
                  for ln in (test / "images.tsv").read_text().splitlines() if ln]
        captions = [ln.split("\t", 1)[1]
                    for ln in (test / "captions.tsv").read_text(encoding="utf-8").splitlines() if ln]
        inputs = self.workdir / "inputs"
        inputs.mkdir(exist_ok=True)
        texts = []
        for i, caption in enumerate(captions):
            path = inputs / f"caption{i:03d}.txt"
            path.write_text(caption + "\n", encoding="utf-8")
            texts.append(path)
        rng = random.Random(self.seed)
        rng.shuffle(images)
        rng.shuffle(texts)
        requests = []
        for i in range(max(len(images), len(texts))):
            requests.append(("image-to-text", images[i % len(images)]))
            requests.append(("text-to-image", texts[i % len(texts)]))
        return requests

    def evaluate_request(self, split: str):
        def request():
            # reports are append-only; every evaluate starts from none
            (self.workdir / "reports" / f"eval_{split}.csv").unlink(missing_ok=True)
            return self.command("evaluate", "--split", split,
                                check=lambda: self.check_eval_report(split))
        return request

    def timed_map_eval(self, fixed: bool) -> dict:
        """A closed loop over one cycle of requests: mapper-i2t, mapper-t2i,
        evaluate on the test split, translates, evaluate on the train split,
        translates. Interleaving spreads every metric's samples over the whole
        run, so a slow stretch of the machine hits them all alike."""
        inputs = self.translate_inputs()
        served = []

        def translate():
            direction, path = inputs[len(served) % len(inputs)]
            served.append(self.command("translate", "--direction", direction, "--input", str(path),
                                       check=lambda: self.check_translation(direction)))
            return served[-1]

        half = [("translate", translate)] * (TRANSLATES_PER_CYCLE // 2)
        cycle = [("mapper", self.train_request("mapper-i2t")),
                 ("mapper", self.train_request("mapper-t2i")),
                 ("evaluate_test", self.evaluate_request("test")), *half,
                 ("evaluate_train", self.evaluate_request("train")), *half]
        samples = {tag: [] for tag, _ in cycle}
        steps = self.w.config["mapper.steps"]
        step_s = []
        t0 = time.perf_counter()
        done = 0
        while done < len(cycle) or not fixed and time.perf_counter() < t0 + self.seconds:
            tag, request = cycle[done % len(cycle)]
            samples[tag].append(request())
            if tag == "mapper":
                step_s += self.take_steps(steps)[0]
            done += 1
        return {
            "wall_s": time.perf_counter() - t0,
            "samples": {"mapper_steps_per_s": [steps / t for t in samples["mapper"]],
                        "step_mapper_steps_per_s": [1.0 / t for t in step_s],
                        "evaluate_test_s": samples["evaluate_test"],
                        "evaluate_train_s": samples["evaluate_train"],
                        "translate_ms": [1000.0 * t for t in samples["translate"]]},
        }

    def timed(self, fixed: bool) -> dict:
        return self.timed_train(fixed) if self.w.train_stage else self.timed_map_eval(fixed)


# -- persisted state: repeat checks across runs of the same code ------------------------


def state_path(run: Run) -> Path:
    return OUT / "state" / f"{run.w.name}-seed{run.seed}-blas{BLAS_THREADS}-{code_id()}.json"


def check_repeats(run: Run, counts: dict | None):
    """Digests (and traced counts) must equal those of earlier runs of this
    workload, seed and code. A differing artifact counts as a failed operation."""
    path = state_path(run)
    state = json.loads(path.read_text()) if path.is_file() else {}
    seen = state.setdefault("digests", {})
    for label, value in sorted(run.digests.items()):
        if seen.setdefault(label, value) != value:
            run.problem(f"{label}: digest {value[:12]} differs from an earlier run "
                        f"({seen[label][:12]})")
            run.failed = min(run.failed + 1, run.attempted)
    if counts is not None:
        earlier = state.setdefault("counts", {})
        for name, value in sorted(counts.items()):
            if earlier.setdefault(name, value) != value:
                run.problem(f"{name}: count {value!r} differs from an earlier run "
                            f"({earlier[name]!r})")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(state, indent=1, sort_keys=True) + "\n")


# -- modes ----------------------------------------------------------------------------


def run_untraced(run: Run) -> tuple[dict, list[str]]:
    setup_times = run.setup()
    run.clock = StepClock()
    run.clock.install()
    run.rotation = CpuRotation()
    try:
        timed = run.timed(fixed=False)
    finally:
        run.rotation.close()
        run.clock.uninstall()
    check_repeats(run, None)
    samples = timed["samples"]
    values = {"setup_s": statistics.median(setup_times),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "throughput_p98_per_s": quantile(samples[run.w.throughput_from], 1.0 - FAST_Q),
              "latency_p2_ms": quantile(samples[run.w.latency_from], FAST_Q)}
    run.samples = dict(timed["samples"], setup_s=setup_times)
    samples_path = OUT / "samples" / f"{run.w.name}-seed{run.seed}.json"
    samples_path.parent.mkdir(parents=True, exist_ok=True)
    samples_path.write_text(json.dumps(run.samples) + "\n")
    lines = [f"  {name:<22} {values[name]:>14.6g} {unit}" for name, unit in END_TO_END.items()]
    lines.append("  medians of the samples, with the count and the tail percentile:")
    for name, values_ in run.samples.items():
        unit = "1/s" if name.endswith("_per_s") else name.rsplit("_", 1)[1]
        lines.append(f"  {name:<22} {statistics.median(values_):>14.6g} {unit:<4} "
                     f"n={len(values_):<4} {tail(values_)}")
    if "evaluate_test_s" in run.samples:
        evaluate_s = (statistics.median(run.samples["evaluate_test_s"])
                      + statistics.median(run.samples["evaluate_train_s"]))
        ms = run.samples["translate_ms"]
        lines.append(f"  {'evaluate_s':<22} {evaluate_s:>14.6g} s    (test + train medians)")
        lines.append(f"  {'translate_p50_ms':<22} {quantile(ms, 0.5):>14.6g} ms   n={len(ms)}")
        lines.append(f"  {'translate_p90_ms':<22} {quantile(ms, 0.9):>14.6g} ms   n={len(ms)} "
                     f"({len(ms) - math.ceil(0.9 * len(ms))} beyond)")
    lines.append(f"  {'ops_failed_frac':<22} {run.failed / max(run.attempted, 1):>14.6g} "
                 f"ratio n={run.attempted}")
    lines.append(f"  timed phase {timed['wall_s']:.3f} s")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, lines


# per-layer metric prefix -> span it reads, where the two differ
SPAN_OF = {"text_ae.encode_ids": "text_ae.TextAutoencoder.encode_ids"}


def layer_metrics(tracer, overhead_pct: float) -> dict:
    from spans import AUTODIFF_OPS
    totals = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    values = {}
    for metric in PER_LAYER:
        if metric == "autodiff.op_calls":
            values[metric] = sum(totals.get(f"autodiff.{op}", zero)["calls"] for op in AUTODIFF_OPS)
        elif metric == "autodiff.op_self_s":
            values[metric] = sum(totals.get(f"autodiff.{op}", zero)["self_s"] for op in AUTODIFF_OPS)
        elif metric == "optim.unused_grad_frac":
            values[metric] = tracer.grads.unused_frac
        elif metric == "trace.overhead_pct":
            values[metric] = overhead_pct
        elif metric in tracer.counts:
            values[metric] = tracer.counts[metric]
        else:
            span, kind = metric.rsplit(".", 1)
            values[metric] = totals.get(SPAN_OF.get(span, span), zero)[kind]
    return values


def run_traced(run: Run) -> tuple[dict, list[str]]:
    from spans import Tracer
    run.setup_in_process()
    run.timed(fixed=True)  # warm-up, so that both measured passes run warm
    tracer = Tracer()
    tracer.install()
    run.tracer = tracer
    try:
        run.command("datagen")
        traced = run.timed(fixed=True)["wall_s"]
    finally:
        tracer.uninstall()
        run.tracer = None
    untraced = run.timed(fixed=True)["wall_s"]
    overhead = 100.0 * (traced / untraced - 1.0)
    values = layer_metrics(tracer, overhead)
    lines = [f"  {name:<40} {values[name]:>16.6g} {unit}" for name, unit in PER_LAYER.items()]
    lines.append(f"  tracing overhead {overhead:.1f}% on {run.w.name}: timed phase "
                 f"{traced:.3f} s traced vs {untraced:.3f} s untraced")
    stages: dict[str, list] = {}
    for name, duration, self_sum in tracer.root_balance():
        entry = stages.setdefault(name, [0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_sum
        entry[3] = max(entry[3], abs(duration - self_sum) / max(duration, 1e-3))
    for name, (n, duration, self_sum, worst) in stages.items():
        lines.append(f"  {name:<30} n={n:<4} {duration:11.6f} s; self times under them sum to "
                     f"{self_sum:.6f} s (worst relative gap {worst:.1e})")
        if worst > 1e-6:
            run.problem(f"{name}: self times do not add up to the span duration")
    missing_sites = [name for name, sites in tracer.sites.items() if sites == 0]
    if missing_sites:
        run.problem(f"wrapped functions bound nowhere: {missing_sites}")
    totals = tracer.totals()
    for name in run.w.uses:
        if totals.get(name, {"calls": 0})["calls"] == 0:
            run.problem(f"{name}: no calls on {run.w.name}, which uses it")
    for name in run.w.bypasses:
        if totals.get(name, {"calls": 0})["calls"] != 0:
            run.problem(f"{name}: called on {run.w.name}, which bypasses it")
    check_repeats(run, {name: values[name] for name in EXACT})
    tracer.save(OUT / "traces" / f"{run.w.name}-seed{run.seed}.npz")
    lines.append(f"  {len(tracer.span_id)} spans written to .bench_out/traces/")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xmodal" / "cli.py").is_file():
        print(f"error: no xmodal sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import xmodal.cli  # noqa: F401  (imported before any timing)

    env = environment(args.seed)
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    if env["blas_threads_runtime"] not in (None, BLAS_THREADS):
        run.problem(f"BLAS runs {env['blas_threads_runtime']} threads, not {BLAS_THREADS}")
    try:
        metrics, lines = (run_traced if args.trace else run_untraced)(run)
    finally:
        run.close()
    correct = not run.problems and run.failed == 0
    print(f"xmodal benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("\n".join(lines))
    print("digests (sha256, first 16 hex):")
    for label, value in sorted(run.digests.items()):
        print(f"  {label:<32} {value[:16]}")
    for text in run.problems:
        print(f"CHECK FAILED: {text}")
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = dict(result, env=env, digests=run.digests, problems=run.problems, report=lines,
                  samples=run.samples)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
