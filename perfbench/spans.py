"""Span tracing for the benchmark, done from outside the program.

`Tracer.install()` wraps the public functions and methods of every xmodal
module listed in `TARGETS`. A module-level function is replaced at every
site that binds it, because several modules import names directly (for
example `cli` does `from .metrics import class_accuracy`), and patching only
the defining module would miss those calls. Methods are replaced on their
class, which every instance shares.

Each call records one span: name, start, end, parent span id and trace id
(the id of the root span, one per CLI command). Spans are kept in memory in
flat arrays and written out when the run ends. Self time is a span's
duration minus the time its children cover, so the self times under a root
span add up to that root span's duration.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Public autodiff operations: every graph node is built by one of these.
AUTODIFF_OPS = (
    "add", "sub", "mul", "neg", "exp", "log", "tanh", "sigmoid", "relu", "leaky_relu",
    "scale", "elementwise", "absolute", "matmul", "transpose", "reshape", "concat", "narrow",
    "stack0", "add_rowvec", "add_channel_bias", "tile_hw", "embedding_lookup",
    "gather_index", "log_softmax", "pairwise_sq_dists", "conv2d", "upsample2x",
    "avgpool2x", "reduce",
)

# module -> wrapped public callables ("Class.method" for methods)
TARGETS = {
    "autodiff": AUTODIFF_OPS + ("backward",),
    "layers": ("DenseLayer.__call__", "Conv2dLayer.__call__", "EmbeddingTable.__call__",
               "LSTMCell.step", "lstm_run", "bilstm_encode", "max_over_time"),
    "optim": ("Adam.__init__", "Adam.zero_grad", "Adam.step"),
    "image_ae": ("ImageEncoder.__call__", "CondAugment.__call__", "GeneratorStack.__call__",
                 "BranchDiscriminator.scores", "kl_standard_normal", "discriminator_loss",
                 "generator_adversarial_loss", "l1_reconstruction", "encode_image",
                 "encode_image_batch", "generate_images", "train_image_autoencoder"),
    "text_ae": ("TextAutoencoder.encode_ids", "TextAutoencoder.decoder_logits", "decoder_loss",
                "encode_text", "decode_text", "roundtrip", "train_text_autoencoder"),
    "mappers": ("KernelSpec.gram", "mmd2_biased", "mmd2_unbiased", "median_heuristic",
                "MapperGenerator.__call__", "map_embedding", "train_gan_mapper",
                "train_mmd_mapper"),
    "metrics": ("class_accuracy", "bleu", "rouge_l", "two_sample_test"),
    "data": ("generate_colorshapes", "read_manifest", "read_ppm", "write_ppm",
             "load_image_split", "load_caption_split", "write_embeddings", "read_embeddings"),
    "checkpoint": ("save_checkpoint", "load_checkpoint", "load_into", "save_module"),
    "cli": ("load_image_model", "load_text_model", "load_mapper", "encode_caption_set",
            "encode_image_set", "export_embeddings", "cmd_datagen", "cmd_train",
            "cmd_translate", "cmd_evaluate"),
}


def span_name(module: str, target: str) -> str:
    """`image_ae.ImageEncoder.__call__` is reported as `image_ae.ImageEncoder`."""
    name = f"{module}.{target}"
    return name[:-len(".__call__")] if name.endswith(".__call__") else name


class GradLedger:
    """Counts parameter-gradient elements produced by `backward` and those
    cleared by `Adam.zero_grad` before any `Adam.step` consumed them.

    `backward` produces a gradient for a registered parameter (one an `Adam`
    of the current command was built over) when it creates or changes that
    parameter's gradient buffer.
    """

    def __init__(self):
        self.params: dict[int, object] = {}
        self.pending: set[int] = set()
        self.produced = 0
        self.unused = 0

    def new_command(self):
        self.params.clear()
        self.pending.clear()

    def register(self, optimizer):
        for p in optimizer.params:
            self.params[id(p)] = p

    def before_backward(self) -> dict:
        return {key: None if p.grad is None else p.grad.copy() for key, p in self.params.items()}

    def after_backward(self, before: dict):
        for key, old in before.items():
            grad = self.params[key].grad
            if grad is not None and (old is None or not np.array_equal(grad, old)):
                self.produced += grad.size
                self.pending.add(key)

    def consume(self, optimizer):
        for p in optimizer.params:
            if p.grad is not None:
                self.pending.discard(id(p))

    def clear(self, optimizer):
        for p in optimizer.params:
            if id(p) in self.pending:
                self.unused += p.grad.size
                self.pending.discard(id(p))

    @property
    def unused_frac(self) -> float:
        return self.unused / self.produced if self.produced else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id, self.parent, self.trace = array("q"), array("q"), array("q")
        self.name = array("i")
        self.start, self.end, self.child = array("d"), array("d"), array("d")
        self._stack: list[list] = []  # open spans: [span id, trace id, child time]
        self._next_id = 0
        self._restore: list[tuple] = []
        self.sites: dict[str, int] = {}
        self.grads = GradLedger()
        self.counts = {"text_ae.decode_text.tokens": 0, "data.write_embeddings.bytes": 0,
                       "checkpoint.save_module.bytes": 0}

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self) -> list:
        sid = self._next_id
        self._next_id += 1
        stack = self._stack
        pid, tid = (stack[-1][0], stack[-1][1]) if stack else (-1, sid)
        frame = [sid, tid, 0.0, pid]
        stack.append(frame)
        return frame

    def _close(self, frame: list, nid: int, t0: float, t1: float):
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][2] += t1 - t0
        self.span_id.append(frame[0])
        self.parent.append(frame[3])
        self.trace.append(frame[1])
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.child.append(frame[2])

    @contextmanager
    def span(self, name: str):
        """A root span around one CLI command; its optimizers live only inside it."""
        self.grads.new_command()
        nid = self._intern(name)
        frame = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, nid, t0, time.perf_counter())

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self._intern(name)
        open_, close, clock = self._open, self._close, time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before else None
            frame = open_()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, nid, t0, clock())
            if after:
                after(args, result, token)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name: str) -> dict:
        grads, counts = self.grads, self.counts

        def add_count(key, value):
            counts[key] += value

        return {
            "autodiff.backward": dict(before=lambda a: grads.before_backward(),
                                      after=lambda a, r, t: grads.after_backward(t)),
            "optim.Adam.__init__": dict(after=lambda a, r, t: grads.register(a[0])),
            "optim.Adam.step": dict(before=lambda a: grads.consume(a[0])),
            "optim.Adam.zero_grad": dict(before=lambda a: grads.clear(a[0])),
            "text_ae.decode_text": dict(
                after=lambda a, r, t: add_count("text_ae.decode_text.tokens", len(r))),
            "data.write_embeddings": dict(
                after=lambda a, r, t: add_count("data.write_embeddings.bytes",
                                                os.path.getsize(a[1]))),
            "checkpoint.save_module": dict(
                after=lambda a, r, t: add_count("checkpoint.save_module.bytes",
                                                os.path.getsize(a[1]))),
        }.get(name, {})

    def install(self):
        """Wrap every target at every binding site; `uninstall` undoes it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import xmodal.cli  # noqa: F401  (imports every xmodal module)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "xmodal" or key.startswith("xmodal.")]
        for module, targets in TARGETS.items():
            owner = sys.modules[f"xmodal.{module}"]
            for target in targets:
                name = span_name(module, target)
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(name, original, **self._hooks(name)))
                    self._restore.append((cls, meth, original))
                    self.sites[name] = 1
                    continue
                original = getattr(owner, target)
                wrapper = self.wrap(name, original, **self._hooks(name))
                sites = 0
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._restore.append((m, attr, original))
                            sites += 1
                self.sites[name] = sites

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return {
            "span_id": np.frombuffer(self.span_id, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "trace": np.frombuffer(self.trace, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": start.copy(),
            "end": end.copy(),
            "self": end - start - np.frombuffer(self.child, dtype=np.float64),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        incl = np.bincount(a["name"], weights=a["end"] - a["start"], minlength=n)
        own = np.bincount(a["name"], weights=a["self"], minlength=n)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def root_balance(self) -> list[tuple[str, float, float]]:
        """(root name, root duration, sum of self times in its trace) per root span."""
        a = self.arrays()
        roots = np.flatnonzero(a["parent"] == -1)
        traces, inverse = np.unique(a["trace"], return_inverse=True)
        by_trace = dict(zip(traces.tolist(), np.bincount(inverse, weights=a["self"]).tolist()))
        return [(self.names[a["name"][i]], float(a["end"][i] - a["start"][i]),
                 by_trace[int(a["span_id"][i])]) for i in roots]

    def save(self, path):
        path = os.fspath(path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.asarray(self.names), **self.arrays())
