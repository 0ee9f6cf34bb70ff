"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints "[PASS]"/"[FAIL] criterion N: ..." before asserting, so
the one-line verdicts survive in captured output.  Benchmarks run the
repeated-random-split protocol at the published train/test sizes with
the shipped per-dataset configurations; criteria whose datasets cannot
be loaded in this environment fail with the loader's message rather
than being skipped or weakened.
"""

import json
import time

import numpy as np
import pytest

from sefm.benchmark import benchmark, sigma_sweep
from sefm.cli import main
from sefm.config import NetworkConfig
from sefm.data import DATASETS, load_dataset
from sefm.dynamics import (
    OutputNeuron,
    SimulationConfig,
    epsilon,
    model_to_json_bytes,
)
from sefm.encoding import SpikePattern, encode_dataset, fit_ranges
from sefm.errors import DataError
from sefm.learning import NoEligibleSpikes, compute_update
from sefm.training import Outcome, predict, train

from conftest import random_neuron, random_pattern
from oracles import predict_constant, process_sample, train_constant

SEED = 0
RUNS = 10
SIM = SimulationConfig()

# small widths for the ablation sweep; 1e6 is the constant-weight limit
SWEEP_SIGMAS = (0.3, 0.5, 1.0, 2.0)
CONSTANT_SIGMA = 1e6


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def dataset_config(name: str) -> NetworkConfig:
    spec = DATASETS[name]
    return NetworkConfig(sigma=spec.sigma, reference_rate=spec.reference_rate)


def run_benchmark(name: str):
    spec = DATASETS[name]
    dataset = load_dataset(name)
    started = time.perf_counter()
    result = benchmark(dataset, dataset_config(name), train_size=spec.train_size,
                       run_count=RUNS, seed=SEED)
    elapsed = time.perf_counter() - started
    for run in result.runs:
        assert run.train_size == spec.train_size
        assert run.test_size == spec.test_size
    return result, elapsed


def accuracy_criterion(num: int, name: str, floor: float) -> None:
    spec = DATASETS[name]
    try:
        result, elapsed = run_benchmark(name)
    except DataError as exc:
        _verdict(num, False, f"{name} benchmark unavailable: {exc}")
        return
    mean, sd = result.test_stats
    detail = (f"{name} mean test {mean:.1f}({sd:.1f})% over {RUNS} folds, "
              f"need >= {floor}; architecture {result.architecture} "
              f"(want {spec.architecture}); {elapsed:.0f}s")
    _verdict(num, mean >= floor and result.architecture == spec.architecture, detail)


def test_criterion_01_iris_benchmark():
    try:
        result, elapsed = run_benchmark("iris")
    except DataError as exc:
        _verdict(1, False, f"iris benchmark unavailable: {exc}")
        return
    mean, sd = result.test_stats
    ok = mean >= 94.0 and result.architecture == "24-3" and elapsed < 300.0
    _verdict(1, ok, f"iris mean test {mean:.1f}({sd:.1f})% over {RUNS} folds "
                    f"(need >= 94.0), architecture {result.architecture} "
                    f"(want 24-3), {elapsed:.0f}s (limit 300)")


def test_criterion_02_wine_benchmark():
    try:
        result, _ = run_benchmark("wine")
    except DataError as exc:
        _verdict(2, False, f"wine benchmark unavailable: {exc}")
        return
    test_mean, test_sd = result.test_stats
    train_best = max(100.0 * r.train_accuracy for r in result.runs)
    ok = (test_mean >= 94.0 and train_best >= 99.0
          and result.architecture == "78-3")
    _verdict(2, ok, f"wine mean test {test_mean:.1f}({test_sd:.1f})% "
                    f"(need >= 94.0), best train {train_best:.1f}% "
                    f"(need >= 99 achievable), architecture "
                    f"{result.architecture} (want 78-3)")


def test_criterion_03_breast_cancer_benchmark():
    accuracy_criterion(3, "breast-cancer", 95.5)


def test_criterion_04_liver_benchmark():
    accuracy_criterion(4, "liver", 66.0)


def test_criterion_05_narrow_width_beats_constant_weights():
    """Width sweep on every loadable benchmark set: the best small-sigma
    accuracy must beat the sigma=1e6 (constant-weight) accuracy by at
    least 2 points on at least two datasets."""
    gaps = {}
    problems = {}
    for name in DATASETS:
        spec = DATASETS[name]
        try:
            dataset = load_dataset(name)
        except DataError as exc:
            problems[name] = str(exc)
            continue
        rows = sigma_sweep(dataset, dataset_config(name),
                           [*SWEEP_SIGMAS, CONSTANT_SIGMA],
                           train_size=spec.train_size, run_count=RUNS, seed=SEED)
        constant = next(r for r in rows if r.sigma == CONSTANT_SIGMA)
        best = max((r for r in rows if r.sigma != CONSTANT_SIGMA),
                   key=lambda r: r.test_mean)
        gaps[name] = (best.sigma, best.test_mean - constant.test_mean)
    shaped = [n for n, (_, gap) in gaps.items() if gap >= 2.0]
    detail = "; ".join(f"{n}: best sigma {s:g} gap {g:+.1f}"
                       for n, (s, g) in gaps.items())
    if problems:
        detail += "; unavailable: " + "; ".join(f"{n} ({m})" for n, m in problems.items())
    _verdict(5, len(shaped) >= 2,
             f"datasets with >= 2.0-point gap: {len(shaped)} of {len(gaps)} "
             f"swept (need 2). {detail}")


def test_criterion_06_update_identity(rng):
    """The per-spike deltas must move the potential at the reference time
    by exactly the threshold gap."""
    checked = 0
    worst = 0.0
    while checked < 1100:
        neuron = random_neuron(rng, input_count=10, sigma=float(rng.uniform(0.05, 3.0)))
        pattern = random_pattern(rng, neuron_count=10, max_spikes=8)
        t_hat = float(rng.uniform(0.0, 8.0))
        if checked % 5 == 0 and pattern.spike_count:
            # engineered dv = 0: set the threshold to the momentary potential
            w = neuron.sample_weights(pattern.neuron_ids, pattern.times)
            eps = epsilon(t_hat - pattern.times, SIM.tau)
            neuron.threshold = float(w @ eps)
        try:
            step = compute_update(neuron, pattern, t_hat, SIM)
        except NoEligibleSpikes:
            continue
        err = abs(float(step.deltas @ step.eps_vals) - step.dv)
        bound = 1e-9 * abs(step.dv) if step.dv != 0.0 else 1e-12
        worst = max(worst, err - bound)
        assert err <= bound, (step.dv, err)
        checked += 1
    _verdict(6, worst <= 0.0,
             f"{checked} randomized updates, |induced - gap| within "
             f"1e-9 relative (1e-12 absolute at zero gap)")


def test_criterion_07_normalization(rng):
    """Normalized responses and update shares each sum to one, fallback
    branch included."""
    checked = 0
    fallbacks = 0
    while checked < 1100:
        sigma = float(rng.uniform(0.05, 3.0))
        neuron = random_neuron(rng, input_count=10, sigma=sigma)
        pattern = random_pattern(rng, neuron_count=10, max_spikes=8)
        if checked % 3 == 0 and pattern.spike_count:
            # saturate the momentary weights so every excess clamps to zero
            neuron.add_terms(pattern.neuron_ids, pattern.times,
                             np.full(pattern.spike_count, 10.0))
        t_hat = float(rng.uniform(0.0, 8.0))
        try:
            step = compute_update(neuron, pattern, t_hat, SIM)
        except NoEligibleSpikes:
            continue
        assert abs(step.normalized.sum() - 1.0) <= 1e-12
        assert abs(step.shares.sum() - 1.0) <= 1e-12
        fallbacks += step.used_fallback
        checked += 1
    ok = fallbacks >= 100
    _verdict(7, ok, f"{checked} randomized patterns: sum(u) = 1 and sum(M) = 1 "
                    f"within 1e-12; fallback branch hit {fallbacks} times")


def test_criterion_08_constant_weight_equivalence():
    """With sigma = 1e6 the trained model must agree with the separately
    coded constant-weight path: per-sample sampled weights within 1e-6
    and identical predictions on every test sample."""
    try:
        dataset = load_dataset("iris")
    except DataError as exc:
        _verdict(8, False, f"iris unavailable: {exc}")
        return
    cfg = NetworkConfig(sigma=CONSTANT_SIGMA, reference_rate=0.05, max_epochs=40)
    from sefm.data import stratified_split
    train_idx, test_idx = stratified_split(dataset.labels, 45, seed=11)
    encoder = fit_ranges(dataset.features[train_idx])
    train_patts = encode_dataset(dataset.features[train_idx], encoder)
    test_patts = encode_dataset(dataset.features[test_idx], encoder)
    train_y = dataset.labels[train_idx]

    fit = train(train_patts, train_y, cfg, class_count=3, seed=21)
    const = train_constant(train_patts, train_y, cfg, class_count=3, seed=21)

    worst = 0.0
    for pattern in train_patts + test_patts:
        if pattern.spike_count == 0:
            continue
        for j, neuron in enumerate(fit.network.neurons):
            sampled = neuron.sample_weights(pattern.neuron_ids, pattern.times)
            constant = const.weights[j, pattern.neuron_ids]
            worst = max(worst, float(np.abs(sampled - constant).max()))
    main_preds = predict(fit.network, test_patts)
    const_preds = predict_constant(const, test_patts, cfg)
    agree = int((main_preds == const_preds).sum())
    ok = worst <= 1e-6 and agree == len(test_patts)
    _verdict(8, ok, f"max sampled-weight gap {worst:.2e} (limit 1e-6); "
                    f"predictions agree on {agree}/{len(test_patts)} test samples")


def test_criterion_09_byte_identical_outputs(tmp_path):
    """Same config and seed twice: model checkpoint and report bytes match."""
    args = ["--dataset", "iris", "--seed", "5", "--max-epochs", "25"]
    for d in ("one", "two"):
        assert main(["train", *args, "--output-dir", str(tmp_path / d)]) == 0
        assert main(["benchmark", *args, "--runs", "3",
                     "--report-out", str(tmp_path / d / "bench.json")]) == 0
    pairs = []
    for name in ("model.json", "report.json", "bench.json"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        pairs.append((name, a == b))
    ok = all(same for _, same in pairs)
    _verdict(9, ok, "byte-identical across reruns: " +
             ", ".join(f"{n} {'yes' if same else 'NO'}" for n, same in pairs))


def test_criterion_10_skip_sample_soundness(rng):
    """Skipped samples leave the model bit-identical; every sample takes
    exactly one branch of the per-sample decision procedure."""
    cfg = NetworkConfig(sigma=0.5)
    from sefm.training import build_network
    net = build_network(cfg, class_count=3, input_count=9)
    seen = {outcome: 0 for outcome in Outcome}
    pool = []
    for trial in range(400):
        if trial % 7 == 0:
            pattern = SpikePattern(neuron_count=9,
                                   neuron_ids=np.zeros(0, dtype=np.int64),
                                   times=np.zeros(0))
            label = int(rng.integers(0, 3))
        elif pool and rng.random() < 0.5:
            # re-presenting trained samples exercises the punctual branch
            pattern, label = pool[int(rng.integers(0, len(pool)))]
        else:
            pattern = random_pattern(rng, neuron_count=9, max_spikes=6,
                                     allow_repeats=False)
            label = int(rng.integers(0, 3))
            if pattern.spike_count:
                pool.append((pattern, label))
        was_initialized = net.neurons[label] is not None
        before = model_to_json_bytes(net)
        result = process_sample(net, pattern, label, cfg)
        after = model_to_json_bytes(net)
        seen[result.outcome] += 1

        # exactly one branch: the outcome is a single enum value and its
        # bookkeeping is consistent with what happened to the model
        if result.outcome in (Outcome.NO_SPIKES, Outcome.SKIPPED):
            assert after == before, "skip branch must not touch the model"
            assert result.updated_classes == ()
        if result.outcome is Outcome.INITIALIZED:
            assert not was_initialized and net.neurons[label] is not None
        if result.outcome in (Outcome.ON_TIME, Outcome.LATE):
            assert was_initialized
            if not result.updated_classes:
                assert after == before
            else:
                assert after != before
        if not result.updated_classes:
            assert after == before
    ok = (seen[Outcome.SKIPPED] >= 30 and seen[Outcome.NO_SPIKES] >= 30
          and seen[Outcome.INITIALIZED] == 3
          and seen[Outcome.ON_TIME] + seen[Outcome.LATE] >= 30)
    _verdict(10, ok, "400 fuzzed samples, branch counts " +
             ", ".join(f"{o.value} {c}" for o, c in seen.items()) +
             "; every skip left the model bit-identical")
