import math

import numpy as np
import pytest

from sefm.dynamics import Network, SimulationConfig
from sefm.encoding import TIME_QUANTUM, SpikePattern

from oracles import NeuronView, add_terms, neurons


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_pattern(rng, neuron_count=12, spike_interval=3.0, max_spikes=8,
                   allow_repeats=False) -> SpikePattern:
    """Random spike pattern on the encoding time grid; may be empty.

    With allow_repeats a neuron may be drawn twice, which SpikePattern
    rejects.
    """
    n = int(rng.integers(0, max_spikes + 1))
    if allow_repeats:
        ids = rng.integers(0, neuron_count, size=n)
    else:
        n = min(n, neuron_count)
        ids = rng.permutation(neuron_count)[:n]
    steps = int(round(spike_interval / TIME_QUANTUM))
    times = rng.integers(0, steps + 1, size=n) * TIME_QUANTUM
    return SpikePattern(neuron_count=neuron_count, neuron_ids=ids, times=times)


def network_of(input_count, classes, sigma=0.5, sim=None, spike_interval=3.0) -> Network:
    """Network whose class j holds ``classes[j]``: None for a class never
    initialized, else a (threshold, ids, centers, amplitudes) tuple whose
    terms go in through one call of the ``oracles.add_terms`` merge."""
    net = Network(len(classes), input_count, sigma, sim or SimulationConfig(), spike_interval)
    for j, neuron in enumerate(classes):
        if neuron is not None:
            threshold, ids, centers, amplitudes = neuron
            add_terms(net, j, ids, centers, amplitudes)
            net.thresholds[j] = threshold
            net.initialized[j] = True
    return net


def random_terms(rng, input_count=12, max_terms=4, spike_interval=3.0):
    """A positive threshold and random Gaussian terms, as ``network_of`` takes them."""
    threshold = float(rng.uniform(0.2, 1.5))
    steps = int(round(spike_interval / TIME_QUANTUM))
    ids, centers, amps = [], [], []
    for i in range(input_count):
        for _ in range(int(rng.integers(0, max_terms + 1))):
            ids.append(i)
            centers.append(int(rng.integers(0, steps + 1)) * TIME_QUANTUM)
            amps.append(float(rng.normal(0.0, 0.6)))
    return threshold, ids, centers, amps


def random_neuron(rng, input_count=12, sigma=0.5, max_terms=4) -> NeuronView:
    """The neuron view of a one-class network with ``random_terms``."""
    net = network_of(input_count, [random_terms(rng, input_count, max_terms)], sigma)
    return neurons(net)[0]


def scalar_weight(neuron, i, t) -> float:
    """Oracle for sampling: input i's weight at time t, one term at a time."""
    total = 0.0
    for inp, c, a in zip(neuron.inputs.tolist(), neuron.centers.tolist(),
                         neuron.amplitudes.tolist()):
        if inp == i:
            total += a * math.exp(-0.5 * ((t - c) / neuron.sigma) ** 2)
    return total


def all_terms(neuron) -> list[tuple[int, float, float]]:
    """Every (input, center, amplitude) term of a neuron, in stored order."""
    return list(zip(neuron.inputs.tolist(), neuron.centers.tolist(),
                    neuron.amplitudes.tolist()))


def terms_of(neuron, i) -> list[tuple[float, float]]:
    """(center, amplitude) pairs of input i, in stored order."""
    return [(c, a) for inp, c, a in all_terms(neuron) if inp == i]


def blobs_dataset(rng, classes=3, per_class=30, features=4, spread=0.12):
    """Well-separated Gaussian blobs: easy, fast to learn, no downloads."""
    centers = rng.uniform(0.0, 1.0, size=(classes, features))
    rows, labels = [], []
    for c in range(classes):
        rows.append(centers[c] + rng.normal(0.0, spread, size=(per_class, features)))
        labels.append(np.full(per_class, c))
    x = np.vstack(rows)
    y = np.concatenate(labels).astype(np.int64)
    order = rng.permutation(len(y))
    return x[order], y[order]


def loop_encode(features, cfg) -> SpikePattern:
    """Oracle for encoding: one feature at a time, fields from the closed form."""
    x = np.asarray(features, dtype=np.float64)
    m = cfg.receptive_field_count
    ids = []
    times = []
    for f in range(cfg.feature_count):
        lo, hi = cfg.feature_ranges[f]
        span = (hi - lo) / (m - 2)
        h = np.arange(1, m + 1, dtype=np.float64)
        centers = lo + (2.0 * h - 3.0) / 2.0 * span
        width = span / cfg.overlap
        d = (x[f] - centers) / width
        resp = np.exp(-0.5 * d * d)
        fired = resp >= cfg.response_cutoff
        t = np.rint(cfg.spike_interval * (1.0 - resp[fired]) / TIME_QUANTUM) * TIME_QUANTUM
        ids.append(np.flatnonzero(fired) + f * m)
        times.append(t)
    return SpikePattern(
        neuron_count=cfg.neuron_count,
        neuron_ids=np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64),
        times=np.concatenate(times) if times else np.zeros(0),
    )
