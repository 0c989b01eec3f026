"""Tests of the benchmark's tracing. Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import xmodal.cli  # noqa: E402,F401
from xmodal import autodiff as ad  # noqa: E402
from xmodal import text_ae  # noqa: E402
from xmodal.optim import Adam  # noqa: E402


def xmodal_bindings() -> dict:
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "xmodal" or name.startswith("xmodal.")
            for attr, value in vars(module).items() if callable(value)}


def test_install_replaces_every_binding_site_and_uninstall_restores():
    before = xmodal_bindings()
    originals = {id(getattr(sys.modules[f"xmodal.{m}"], t))
                 for m, targets in spans.TARGETS.items() for t in targets if "." not in t}
    tracer = spans.Tracer()
    tracer.install()
    try:
        after = xmodal_bindings()
        stale = [key for key, value in after.items() if id(value) in originals]
        assert stale == []
        # names imported directly into other modules are wrapped there too
        assert xmodal.cli.class_accuracy.__wrapped__ is before[("xmodal.metrics", "class_accuracy")]
        assert xmodal.text_ae.bilstm_encode.__wrapped__ is before[("xmodal.layers",
                                                                   "bilstm_encode")]
        assert tracer.sites["metrics.class_accuracy"] == 2
        assert all(sites > 0 for sites in tracer.sites.values())
    finally:
        tracer.uninstall()
    assert xmodal_bindings() == before


def test_self_times_under_a_root_add_up_to_its_duration():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(2000)))

    def middle():
        return [leaf() for _ in range(3)]

    middle = tracer.wrap("middle", middle)
    with tracer.span("root"):
        middle()
        leaf()
    ((name, duration, self_sum),) = tracer.root_balance()
    assert name == "root"
    assert self_sum == pytest.approx(duration, rel=1e-9)
    totals = tracer.totals()
    assert totals["leaf"]["calls"] == 4 and totals["middle"]["calls"] == 1
    assert totals["middle"]["self_s"] < totals["middle"]["s"]


def test_grad_ledger_counts_gradients_cleared_without_a_step():
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("root"):
            a = ad.Tensor(np.ones(3), requires_grad=True)
            b = ad.Tensor(np.ones(5), requires_grad=True)
            opt_a, opt_b = Adam([a], lr=0.1), Adam([b], lr=0.1)
            loss = ad.add(ad.reduce("sum", a), ad.reduce("sum", b))
            opt_a.zero_grad()
            ad.backward(loss)
            opt_a.step()      # consumes a's gradient
            opt_b.zero_grad()  # b's gradient was never used
    finally:
        tracer.uninstall()
    assert (tracer.grads.produced, tracer.grads.unused) == (8, 5)


SMALL = {"data.samples_per_class": 4, "mapper.steps": 3, "eval.permutations": 10}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_workload_calls_every_layer_it_uses(name, tmp_path, monkeypatch):
    """Fails when a wrapped function records no calls on a workload that uses it."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "TRANSLATES_PER_CYCLE", 4)
    workload = run.WORKLOADS[name]
    small = dataclasses.replace(workload, config={**workload.config, **SMALL})
    bench = run.Run(small, seed=3, seconds=1)
    try:
        metrics, _ = run.run_traced(bench)
    finally:
        bench.close()
    assert bench.problems == []
    assert bench.failed == 0 and bench.attempted > 0
    assert set(metrics) == set(run.PER_LAYER)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_untraced_workload_times_every_step(name, tmp_path, monkeypatch):
    """The step clock sees every training step of every command (a miss is a
    run problem) and puts back what it replaced."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "MIN_COMMANDS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "TRANSLATES_PER_CYCLE", 4)
    monkeypatch.setenv("XMODAL_WORKDIR", str(tmp_path))
    originals = (Adam.step, text_ae.decoder_loss)
    workload = run.WORKLOADS[name]
    small = dataclasses.replace(workload, config={**workload.config, **SMALL})
    bench = run.Run(small, seed=3, seconds=0)
    try:
        metrics, _ = run.run_untraced(bench)
    finally:
        bench.close()
    assert bench.problems == []
    assert bench.failed == 0 and bench.attempted > 0
    assert (Adam.step, text_ae.decoder_loss) == originals
    assert set(metrics) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    assert len(bench.samples[workload.throughput_from]) >= 2
