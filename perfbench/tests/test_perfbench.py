"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from meter import REFERENCE_CPU_S, Meter  # noqa: E402
from spans import LAYERS, Hook, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, measure, setup  # noqa: E402

TINY = {
    "iris-protocol": dict(run_count=1, online_rows=5, roundtrips=1, acc_floor=0.0),
    "blobs-wide": dict(train_size=15, per_class=6, max_epochs=2,
                       online_rows=5, roundtrips=1, acc_floor=0.0),
    "predict-bulk": dict(per_class=4, heldout_per_class=5, max_epochs=2,
                         online_rows=5, roundtrips=1, acc_floor=0.0),
}


@pytest.fixture(scope="module")
def sefm_modules():
    run.OUT.mkdir(exist_ok=True)
    return run.import_sefm(run.ROOT)


def tiny_state(m, name):
    w = dataclasses.replace(WORKLOADS[name], **TINY[name])
    state = setup(m, w, 3, run.ROOT, Meter())
    if hasattr(state, "cfg"):
        state.cfg = state.cfg.with_overrides(max_epochs=2)
    return w, state


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload(sefm_modules, name):
    w, state = tiny_state(sefm_modules, name)
    tally = measure(sefm_modules, w, state, 0.0, run.OUT)
    assert tally.problems == []
    assert tally.failed == 0
    assert tally.attempted == w.run_count + w.batch_calls + w.online_rows + w.roundtrips
    assert [(len(splits), len(trains)) for splits, trains, _ in tally.protocols] == \
        ([(w.run_count, w.run_count)] if w.run_count else [])
    assert len(tally.cycles) == 1 and len(tally.classify) == w.batch_calls
    assert [len(cycle) for cycle in tally.online] == [w.online_rows]
    assert len(tally.roundtrips) == w.roundtrips
    assert tally.model_terms > 0
    assert len(tally.digests) == 1
    again = measure(sefm_modules, w, state, 0.0, run.OUT)
    assert again.digests == tally.digests


def test_a_failed_check_is_counted(sefm_modules):
    w, state = tiny_state(sefm_modules, "predict-bulk")
    w = dataclasses.replace(w, architecture="96-3")
    tally = measure(sefm_modules, w, state, 0.0, run.OUT)
    assert tally.failed == w.roundtrips
    assert tally.problems == ["checkpoint architecture 96-4 != 96-3"]


def test_traced_pass_reports_every_layer(sefm_modules):
    w, state = tiny_state(sefm_modules, "iris-protocol")
    metrics, tallies, absent = run.traced_metrics(sefm_modules, w, state, 0.0, seed=3)
    assert absent == []
    assert len(tallies) == 2 and all(t.failed == 0 for t in tallies)
    layer_self = [metrics[f"{layer}.self_s"] for layer in LAYERS]
    assert all(s > 0 for s in layer_self)
    assert sum(layer_self) <= metrics["trace.wall_s"]
    assert metrics["training.process_sample.calls"] > 0
    assert metrics["benchmark.run_split.calls"] == 1


def test_hooks_are_removed_after_tracing(sefm_modules):
    original = sefm_modules.dynamics.OutputNeuron.sample_weights
    tracer = Tracer()
    tracer.install()
    assert sefm_modules.dynamics.OutputNeuron.sample_weights is not original
    tracer.remove()
    assert sefm_modules.dynamics.OutputNeuron.sample_weights is original


def test_missing_hook_target_is_reported_absent(sefm_modules):
    tracer = Tracer()
    tracer.install([Hook("sefm.dynamics", "OutputNeuron.no_such_method", "dynamics.gone"),
                    Hook("sefm.no_such_module", "anything", "data.gone"),
                    Hook("sefm.training", "train", "training.train")])
    try:
        assert tracer.absent == ["sefm.dynamics.OutputNeuron.no_such_method",
                                 "sefm.no_such_module.anything"]
    finally:
        tracer.remove()
    metrics = layer_metrics(tracer)
    assert metrics["trace.hooks_absent"] == 2


def test_meter_leaves_reference_samples_out_and_scales():
    meter = Meter()
    readings = []
    with meter.unit(readings):
        meter.sample()
        meter.sample()
    (start, end), = readings
    assert end - start < min(meter.took)  # the unit did nothing but take samples
    meter.at, meter.took = [0.0, 1.0, 2.0], [REFERENCE_CPU_S, 2 * REFERENCE_CPU_S,
                                             2 * REFERENCE_CPU_S]
    # slowness 2 (median of the samples around each stretch) from 0 to 3
    assert meter.scaled([(0.5, 2.5), (2.0, 3.0)]) == [1.0, 0.5]


def test_self_time_is_span_minus_children():
    #   0 [0, 10]
    #   +- 1 [1, 4]
    #   |  +- 3 [2, 3]
    #   +- 2 [5, 9]
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 9.0, 3.0])
    assert self_times(parent, end - start).tolist() == [3.0, 2.0, 4.0, 1.0]


def test_layer_self_times_sum_to_outer_span():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    inner = tracer.wrap(leaf, "dynamics.leaf")
    middle = tracer.wrap(lambda: [inner() for _ in range(3)], "training.middle")
    outer = tracer.wrap(lambda: middle(), "benchmark.outer")
    outer()
    a = tracer.arrays()
    total = float(a["end"][0] - a["start"][0])
    metrics = layer_metrics(tracer)
    assert sum(metrics[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(total)
    assert metrics["dynamics.self_s"] > 0 and metrics["training.self_s"] > 0


def test_benchmark_json_names_what_the_run_prints(sefm_modules):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    w, state = tiny_state(sefm_modules, "predict-bulk")
    metrics, _, _ = run.traced_metrics(sefm_modules, w, state, 0.0, seed=3)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.per_layer_unit(name) for name in metrics}


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "iris-protocol",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
