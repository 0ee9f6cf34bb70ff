"""Repeated-split benchmarks, sigma sweeps, grid search."""

import numpy as np
import pytest

import sefm.benchmark as bench
from sefm.benchmark import (
    REPORT_FORMAT,
    benchmark,
    format_mean_sd,
    grid_search,
    run_split,
    sigma_sweep,
    summarize,
)
from sefm.config import NetworkConfig
from sefm.data import TabularDataset, stratified_split
from sefm.dynamics import model_to_json_bytes
from sefm.errors import ConfigError, DataError
from sefm.rng import derive_seed

from conftest import blobs_dataset


CFG = NetworkConfig(sigma=0.5, max_epochs=15)


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(515151)
    x, y = blobs_dataset(rng, classes=3, per_class=20)
    return TabularDataset(name="blobs", features=x, labels=y,
                          label_names=["a", "b", "c"])


def test_summarize_mean_and_sample_sd():
    mean, sd = summarize([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert sd == pytest.approx(1.0)  # ddof=1
    assert summarize([5.0]) == (5.0, 0.0)


def test_format_mean_sd_display():
    assert format_mean_sd(97.61, 1.49) == "97.6(1.5)"
    assert format_mean_sd(100.0, 0.0) == "100.0(0.0)"


def test_run_split_scores_both_sides(blobs):
    train_idx, test_idx = stratified_split(blobs.labels, 30, seed=1)
    outcome = run_split(blobs, train_idx, test_idx, CFG, seed=42)
    r = outcome.result
    assert r.train_size == 30 and r.test_size == 30
    assert 0.0 <= r.test_accuracy <= 1.0
    assert r.train_accuracy >= 0.9
    assert r.confusion.sum() == 30
    assert outcome.encoder.neuron_count == 24
    assert len(r.epoch_stats) == r.epochs_run


def test_benchmark_runs_and_architecture(blobs):
    res = benchmark(blobs, CFG, train_size=30, run_count=3, seed=7)
    assert len(res.runs) == 3
    assert res.architecture == "24-3"
    assert [r.run for r in res.runs] == [0, 1, 2]
    mean, sd = res.test_stats
    assert mean >= 90.0
    assert sd >= 0.0
    assert res.last_outcome is None


def test_benchmark_deterministic_and_seed_sensitive(blobs):
    a = benchmark(blobs, CFG, train_size=30, run_count=2, seed=7).to_dict()
    b = benchmark(blobs, CFG, train_size=30, run_count=2, seed=7).to_dict()
    c = benchmark(blobs, CFG, train_size=30, run_count=2, seed=8).to_dict()
    assert a == b
    assert a != c
    assert a["format"] == REPORT_FORMAT
    assert a["config"]["sigma"] == 0.5


def test_benchmark_parallel_matches_serial(blobs):
    serial = benchmark(blobs, CFG, train_size=30, run_count=3, seed=3).to_dict()
    parallel = benchmark(blobs, CFG, train_size=30, run_count=3, seed=3,
                         jobs=2).to_dict()
    assert serial == parallel


def test_benchmark_keep_last_exposes_model(blobs):
    res = benchmark(blobs, CFG, train_size=30, run_count=2, seed=1, keep_last=True)
    assert res.last_outcome is not None
    assert res.last_outcome.network.class_count == 3
    assert res.last_outcome.encoder.neuron_count == 24


@pytest.mark.parametrize("jobs", [1, 2])
def test_benchmark_keeps_only_the_last_network(blobs, monkeypatch, jobs):
    returned = []
    real_map = bench._map
    monkeypatch.setattr(bench, "_map", lambda fn, units, jobs: returned.extend(
        real_map(fn, units, jobs)) or returned)
    res = bench.benchmark(blobs, CFG, train_size=30, run_count=3, seed=1,
                          keep_last=True, jobs=jobs)
    assert [o.network is None for o in returned] == [True, True, False]
    assert res.last_outcome is returned[-1]
    train_idx, test_idx, train_seed, _ = bench._plan(blobs, 30, 3, 1)[2]
    alone = bench._run_unit((blobs, CFG, train_idx, test_idx, train_seed, 2, True))
    assert model_to_json_bytes(res.last_outcome.network) == model_to_json_bytes(alone.network)


def test_plan_fold_seed_chain(blobs, monkeypatch):
    """Run k of a benchmark with root seed s splits with
    derive_seed(derive_seed(s, k), 0), independently of every other run;
    indices 1 and 2 of the run seed seed its training and validation."""
    labels = np.array([0, 1] * 20)
    alternating = TabularDataset(name="alt", features=np.zeros((40, 1)), labels=labels,
                                 label_names=["a", "b"])
    train_idx, test_idx, train_seed, val_seed = bench._plan(alternating, 10, 3, 77)[2]
    manual = stratified_split(labels, 10, derive_seed(derive_seed(77, 2), 0))
    assert np.array_equal(train_idx, manual[0]) and np.array_equal(test_idx, manual[1])
    assert train_seed == derive_seed(derive_seed(77, 2), 1)
    assert val_seed == derive_seed(derive_seed(77, 2), 2)

    seeds = []
    real = bench.stratified_split
    monkeypatch.setattr(bench, "stratified_split",
                        lambda labels, size, seed: seeds.append(seed) or real(labels, size, seed))
    benchmark(blobs, CFG.with_overrides(max_epochs=1), train_size=30, run_count=3, seed=77)
    assert seeds == [derive_seed(derive_seed(77, k), 0) for k in range(3)]
    assert len({tuple(real(blobs.labels, 30, s)[0]) for s in seeds}) == 3


def test_benchmark_rejects_bad_train_size(blobs):
    with pytest.raises(DataError):
        benchmark(blobs, CFG, train_size=0, run_count=1)
    with pytest.raises(DataError):
        benchmark(blobs, CFG, train_size=60, run_count=1)


@pytest.mark.parametrize("jobs", [0, -3])
def test_protocols_reject_jobs_below_one(blobs, jobs):
    with pytest.raises(ConfigError):
        benchmark(blobs, CFG, train_size=30, run_count=1, jobs=jobs)
    with pytest.raises(ConfigError):
        sigma_sweep(blobs, CFG, [0.5], train_size=30, run_count=1, jobs=jobs)
    with pytest.raises(ConfigError):
        grid_search(blobs, CFG, [0.5], [0.05], train_size=30, run_count=1, jobs=jobs)


def test_sigma_sweep_pairs_runs_across_widths(blobs):
    rows = sigma_sweep(blobs, CFG, [0.5, 1e6], train_size=30, run_count=2, seed=5)
    assert [r.sigma for r in rows] == [0.5, 1e6]
    for row in rows:
        assert 0.0 <= row.test_mean <= 100.0
        assert row.epochs_mean >= 1.0
        d = row.to_dict()
        assert d["sigma"] == row.sigma and d["test_mean"] == row.test_mean
    again = sigma_sweep(blobs, CFG, [0.5, 1e6], train_size=30, run_count=2, seed=5)
    assert [r.to_dict() for r in rows] == [r.to_dict() for r in again]


def test_grid_search_picks_best_validation_cell(blobs):
    res = grid_search(blobs, CFG, sigmas=[0.5, 1.0], reference_rates=[0.05, 0.2],
                      train_size=30, run_count=2, seed=2)
    assert len(res.cells) == 4
    assert res.best in res.cells
    top = max(c.val_mean for c in res.cells)
    assert res.best.val_mean == top
    # ties prefer the smaller sigma, then the smaller rate
    tied = [c for c in res.cells if c.val_mean == top]
    assert res.best.sigma == min(c.sigma for c in tied)


def test_grid_search_single_cell(blobs):
    res = grid_search(blobs, CFG, sigmas=[0.7], reference_rates=[0.1],
                      train_size=30, run_count=2, seed=2)
    assert res.best.sigma == 0.7
    assert res.best.reference_rate == 0.1
    assert len(res.cells) == 1


def test_grid_search_deterministic(blobs):
    kw = dict(train_size=30, run_count=2, seed=9)
    a = grid_search(blobs, CFG, [0.5, 2.0], [0.05], **kw).to_dict()
    b = grid_search(blobs, CFG, [0.5, 2.0], [0.05], **kw).to_dict()
    assert a == b


def test_grid_search_rejects_empty_axes(blobs):
    with pytest.raises(DataError):
        grid_search(blobs, CFG, [], [0.05], train_size=30)
    with pytest.raises(DataError):
        grid_search(blobs, CFG, [1.0], [], train_size=30)
