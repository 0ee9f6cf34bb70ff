"""Constant-weight reference classifier and its agreement with the wide-
Gaussian limit of the main model."""

import numpy as np
import pytest

from sefm.config import NetworkConfig
from sefm.dynamics import epsilon
from sefm.encoding import SpikePattern, encode_dataset, fit_ranges
from sefm.training import accuracy_score, predict, train

from conftest import blobs_dataset
from oracles import ConstantModel, _kernel, predict_constant, train_constant


def encoded_blobs(seed=2024, classes=3, per_class=20):
    rng = np.random.default_rng(seed)
    x, y = blobs_dataset(rng, classes=classes, per_class=per_class)
    enc = fit_ranges(x)
    return encode_dataset(x, enc), y


def test_kernel_matches_main_kernel(rng):
    t = rng.uniform(-2, 10, size=200)
    assert np.array_equal(_kernel(t, 3.0), epsilon(t, 3.0))


def test_constant_model_starts_empty():
    model = ConstantModel(class_count=2, input_count=5)
    assert model.weights.shape == (2, 5)
    assert not model.initialized.any()
    assert np.all(model.weights == 0.0)


def test_train_constant_learns_blobs():
    patterns, labels = encoded_blobs()
    cfg = NetworkConfig(sigma=1.0, max_epochs=20)
    model = train_constant(patterns, labels, cfg, class_count=3, seed=4)
    assert model.initialized.all()
    preds = predict_constant(model, patterns, cfg)
    assert accuracy_score(preds, labels) >= 0.9


def test_train_constant_deterministic():
    patterns, labels = encoded_blobs()
    cfg = NetworkConfig(max_epochs=6)
    w1 = train_constant(patterns, labels, cfg, 3, seed=5).weights
    w2 = train_constant(patterns, labels, cfg, 3, seed=5).weights
    assert np.array_equal(w1, w2)


def test_predict_constant_empty_pattern_defaults_to_first_class():
    patterns, labels = encoded_blobs()
    cfg = NetworkConfig(max_epochs=3)
    model = train_constant(patterns, labels, cfg, 3, seed=1)
    empty = SpikePattern(neuron_count=patterns[0].neuron_count,
                         neuron_ids=np.zeros(0, dtype=np.int64), times=np.zeros(0))
    assert predict_constant(model, [empty], cfg)[0] == 0


def test_wide_gaussian_limit_matches_constant_path_smoke():
    """Small-scale version of the degeneracy check: with sigma = 1e6 the
    main model's accumulated amplitudes and predictions should coincide
    with the independently coded constant-weight classifier."""
    patterns, labels = encoded_blobs(seed=909, classes=2, per_class=15)
    cfg = NetworkConfig(sigma=1e6, max_epochs=10)
    fit = train(patterns, labels, cfg, class_count=2, seed=13)
    const = train_constant(patterns, labels, cfg, class_count=2, seed=13)

    for j, neuron in enumerate(fit.network.neurons):
        assert neuron is not None and const.initialized[j]
        summed = np.bincount(neuron.inputs, weights=neuron.amplitudes,
                             minlength=neuron.input_count)
        assert np.allclose(summed, const.weights[j], rtol=0, atol=1e-6)
        assert neuron.threshold == pytest.approx(const.thresholds[j], abs=1e-9)

    main_preds = predict(fit.network, patterns)
    const_preds = predict_constant(const, patterns, cfg)
    assert np.array_equal(main_preds, const_preds)
