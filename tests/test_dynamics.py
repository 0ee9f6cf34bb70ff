"""Kernel, weight sampling, potentials, firing, model serialization."""

import copy
import json
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sefm import dynamics
from sefm.config import NetworkConfig
from sefm.dynamics import (
    MAX_CELLS,
    MAX_KERNEL_ROW,
    RACE_BLOCK,
    Network,
    SimulationConfig,
    _epsilon_consuming,
    epsilon,
    load_model,
    model_from_dict,
    model_to_dict,
    model_to_json_bytes,
    race_blocks,
    response_matrix,
    responses,
    save_model,
)
from sefm.encoding import TIME_QUANTUM, SpikePattern, fit_ranges
from sefm.errors import ConfigError, InputError
from sefm.training import predict, predict_chunk, train

from conftest import (all_terms, network_of, random_neuron, random_pattern, random_terms,
                      scalar_weight, terms_of)
from oracles import (add_terms, direct_response, evaluate_pattern, fire_time, grid, potential,
                     race_end, sample_weights, sampled_weights_per_term, spike_time_matrix)


# --- spike response kernel --------------------------------------------------

def test_epsilon_closed_form_and_frozen_value():
    # (t/tau) e^(1 - t/tau); at t=1, tau=3 that is (1/3) e^(2/3).
    expected = (1.0 / 3.0) * math.exp(2.0 / 3.0)
    assert epsilon(1.0, 3.0) == pytest.approx(expected, rel=1e-15)
    assert epsilon(1.0, 3.0) == pytest.approx(0.649245, abs=5e-7)


def test_epsilon_gate_and_peak():
    assert epsilon(0.0, 3.0) == 0.0
    assert epsilon(-0.5, 3.0) == 0.0
    assert epsilon(3.0, 3.0) == 1.0
    assert epsilon(7.0, 7.0) == 1.0


def test_epsilon_bounded_and_maximal_at_tau():
    t = np.linspace(-2.0, 20.0, 4001)
    v = epsilon(t, 3.0)
    assert v.min() >= 0.0
    assert v.max() <= 1.0
    assert t[np.argmax(v)] == pytest.approx(3.0, abs=0.01)


def test_epsilon_vector_matches_scalar():
    t = np.array([-1.0, 0.0, 0.4, 3.0, 9.9])
    vec = epsilon(t, 2.5)
    for ti, vi in zip(t, vec):
        assert vi == epsilon(float(ti), 2.5)


def test_epsilon_equals_masked_form_bitwise(rng):
    t = np.concatenate([rng.uniform(-10.0, 30.0, 5000), [0.0, -0.0, 1e-300, 3.0]])
    masked = np.zeros_like(t)
    positive = t > 0
    scaled = t[positive] / 3.0
    masked[positive] = scaled * np.exp(1.0 - scaled)
    assert epsilon(t, 3.0).tobytes() == masked.tobytes()
    grid = t[:4000].reshape(50, 80)
    assert epsilon(grid, 3.0).tobytes() == masked[:4000].reshape(50, 80).tobytes()


def test_epsilon_far_below_zero_is_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = epsilon(np.array([-1e6, -1e300, -np.inf, np.nan, 1.0]), 3.0)
    assert out.tolist() == [0.0, 0.0, 0.0, 0.0, epsilon(1.0, 3.0)]


def test_epsilon_rejects_bad_tau():
    for tau in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            epsilon(1.0, tau)


# --- output neuron terms and sampling ---------------------------------------

def sample_at(neuron, i, t):
    return float(neuron.sample_weights(np.array([i]), np.array([t]))[0])


def test_single_term_sample_closed_form():
    neuron = network_of(2, [(0.0, [1], [1.0], [0.5])], sigma=0.5).neurons[0]
    # one width from center: amplitude * exp(-1/2)
    assert sample_at(neuron, 1, 1.5) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)
    assert sample_at(neuron, 1, 1.5) == pytest.approx(0.303265, abs=5e-7)
    assert sample_at(neuron, 1, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert sample_at(neuron, 0, 1.0) == 0.0


def test_empty_efficacy_samples_zero():
    neuron = network_of(3, [(0.0, [], [], [])], sigma=1.0).neurons[0]
    assert sample_at(neuron, 2, 1.7) == 0.0
    assert neuron.sample_weights(np.array([2]), np.array([1.7])).dtype == np.float64
    assert neuron.amplitudes.size == 0
    assert terms_of(neuron, 2) == []


def _pattern_terms(net, class_label, ids, ticks, amplitudes):
    net._add_pattern_terms(class_label, np.asarray(ids, dtype=np.int64),
                           np.asarray(ticks, dtype=np.int32),
                           np.asarray(amplitudes, dtype=np.float64))


def test_terms_merge_at_same_quantized_center():
    net = network_of(2, [(0.0, [0], [0.25], [0.4])], sigma=1.0)
    for amplitude in (0.1, -0.2):  # two terms on the stored tick 250
        _pattern_terms(net, 0, [0], [250], [amplitude])
    neuron = net.neurons[0]
    assert neuron.amplitudes.size == 1
    assert terms_of(neuron, 0) == [(0.25, pytest.approx(0.3))]
    # merged in arrival order, exactly as sequential float additions
    assert neuron.amplitudes[0] == (0.4 + 0.1) + -0.2


def test_terms_sorted_by_input_then_center(rng):
    net = network_of(5, [(0.0, [], [], [])], sigma=1.0)
    for _ in range(6):
        pattern = random_pattern(rng, neuron_count=5, max_spikes=5)
        _pattern_terms(net, 0, pattern.neuron_ids, pattern.ticks,
                       rng.normal(size=pattern.spike_count))
    neuron = net.neurons[0]
    keys = list(zip(neuron.inputs.tolist(), neuron.centers.tolist()))
    assert keys == sorted(set(keys))


def test_add_terms_rejects_unknown_input():
    """The oracle merge that builds the tests' networks rejects an input or
    a class outside the network."""
    net = network_of(2, [(0.0, [], [], [])], sigma=1.0)
    with pytest.raises(InputError):
        add_terms(net, 0, [2], [0.5], [1.0])
    with pytest.raises(InputError):
        add_terms(net, 1, [0], [0.5], [1.0])  # class outside the network


@pytest.mark.parametrize("center, amplitude",
                         [(np.nan, 1.0), (5e6, 1.0), (0.5, np.inf), (-0.5, 1.0)],
                         ids=["nan-center", "center-past-31-bits", "inf-amplitude",
                              "negative-center"])
def test_add_terms_rejects_a_term_its_key_cannot_hold(center, amplitude):
    """A NaN center would be stored at about -9.2e15 ms, a 5e6 ms center
    on input 0 (tick 5e9 >= 2**31) would sort after input 1's terms, so
    ``synapses()`` would file input 1's term under input 0, and a negative
    center would borrow from the key's (class, input) bits.  The oracle
    merge rejects such a term and changes nothing, and the checkpoint
    loader rejects a checkpoint that holds one."""
    net = network_of(2, [(0.0, [1], [0.5], [0.25])], sigma=1.0)
    with pytest.raises(InputError):
        add_terms(net, 0, [0], [center], [amplitude])
    assert net.neurons[0].synapses() == [[], [[0.5, 0.25]]]
    doc = model_to_dict(net)
    doc["neurons"][0]["synapses"][0] = [[center, amplitude]]
    with pytest.raises(InputError):
        model_from_dict(doc)


def test_pattern_terms_equal_the_reference_bitwise(rng):
    """Random correction sequences through ``Network._add_pattern_terms``,
    the path of ``learning.apply_update`` and ``initialize``, and through
    ``Network._add_sorted`` on the same keys, leave the keys, centers and
    amplitude bits that the oracle merge ``add_terms`` leaves given the
    same terms.

    Each call adds one term per spike of a random pattern to a random class
    of a network of one to three; ticks come from a small range, so calls
    insert new keys and add to stored ones, and some amplitudes are -0.0
    or cancel a stored one.
    """
    seen = dict(inserted=0, repeated=0, cancel=0, negzero=0, classes=0)
    for _ in range(40):
        n, count = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        core, keyed, full = (network_of(n, [(0.0, [], [], [])] * count, sigma=1.0)
                             for _ in "abc")
        touched = set()
        for _ in range(int(rng.integers(1, 12))):
            j = int(rng.integers(0, count))
            pattern = random_pattern(rng, neuron_count=n, spike_interval=0.02, max_spikes=n)
            amps = rng.normal(size=pattern.spike_count)
            stored = dict(zip(core.keys.tolist(), core.amplitudes.tolist()))
            keys = (((j * n + pattern.neuron_ids) << 32) + pattern.ticks).tolist()
            for k, key in enumerate(keys):
                if key in stored and rng.random() < 0.2:
                    amps[k] = -stored[key]
                    seen["cancel"] += 1
                elif rng.random() < 0.1:
                    amps[k] = -0.0
                    seen["negzero"] += 1
            seen["repeated"] += sum(key in stored for key in keys)
            seen["inserted"] += sum(key not in stored for key in keys)
            touched.add(j)
            core._add_pattern_terms(j, pattern.neuron_ids, pattern.ticks, amps)
            keyed._add_sorted(np.array(keys, dtype=np.int64), amps)
            add_terms(full, j, pattern.neuron_ids, pattern.times, amps)
            want = [a.tobytes() for a in (full.keys, full.centers, full.amplitudes)]
            for net in (core, keyed):
                assert [a.tobytes() for a in (net.keys, net.centers, net.amplitudes)] == want
        seen["classes"] += len(touched) > 1
    assert all(seen.values()), seen


def test_add_sorted_equals_the_oracle_merge_bitwise(rng):
    """``Network._add_sorted(keys, amplitudes)`` stores a new key's center
    as the tick in its low 32 bits times TIME_QUANTUM.  Strictly ascending
    keys across classes and inputs, on ticks from a small range (so later
    calls add to stored keys) or from all of [0, 2**31), added in several
    calls, leave the keys, centers and amplitude bits the oracle merge
    ``add_terms`` leaves given each key's class, input and center."""
    seen = dict(repeated=0, wide=0)
    for _ in range(40):
        n, count = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        core, full = (network_of(n, [(0.0, [], [], [])] * count, sigma=1.0) for _ in "ab")
        for _ in range(int(rng.integers(1, 6))):
            size = int(rng.integers(0, 10))
            classes, ids = rng.integers(0, count, size), rng.integers(0, n, size)
            top = 2**31 if rng.random() < 0.3 else 40
            ticks = rng.integers(0, top, size)
            keys, first = np.unique(((classes * n + ids) << 32) + ticks, return_index=True)
            amps = rng.normal(size=keys.size)
            seen["repeated"] += int(np.isin(keys, core.keys).sum())
            seen["wide"] += int((ticks >= 2**30).sum())
            core._add_sorted(keys, amps)
            add_terms(full, classes[first], ids[first], ticks[first] * TIME_QUANTUM, amps)
            assert [a.tobytes() for a in (core.keys, core.centers, core.amplitudes)] == \
                [a.tobytes() for a in (full.keys, full.centers, full.amplitudes)]
    assert all(seen.values()), seen


def test_sample_is_sum_of_gaussians(rng):
    net = network_of(1, [(0.0, [], [], [])], sigma=0.8)
    for _ in range(6):
        add_terms(net, 0, [0], [float(rng.uniform(0, 3))], [float(rng.normal())])
    neuron = net.neurons[0]
    merged = terms_of(neuron, 0)
    for t in rng.uniform(-1, 4, size=20):
        brute = sum(a * math.exp(-0.5 * ((t - c) / 0.8) ** 2) for c, a in merged)
        assert sample_at(neuron, 0, float(t)) == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_sigma_must_be_positive():
    with pytest.raises(ConfigError):
        network_of(3, [None], sigma=0.0)


def test_huge_sigma_gives_constant_weight(rng):
    net = network_of(1, [(0.0, [], [], [])], sigma=1e6)
    for _ in range(5):
        add_terms(net, 0, [0], [float(rng.uniform(0, 3))], [float(rng.normal())])
    neuron = net.neurons[0]
    vals = np.array([sample_at(neuron, 0, t) for t in np.linspace(0, 3, 61)])
    scale = max(abs(vals).max(), 1e-30)
    assert np.ptp(vals) <= 1e-9 * scale


def test_vectorized_sampling_matches_scalar_loop(rng):
    for _ in range(30):
        neuron = random_neuron(rng)
        pattern = random_pattern(rng, neuron_count=neuron.input_count)
        fast = neuron.sample_weights(pattern.neuron_ids, pattern.times)
        slow = [scalar_weight(neuron, i, float(t))
                for i, t in zip(pattern.neuron_ids, pattern.times)]
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-15)


def test_network_sample_equals_per_pattern_sampling(rng):
    neuron = random_neuron(rng, max_terms=6)
    patterns = [random_pattern(rng, neuron_count=neuron.input_count) for _ in range(40)]
    columns = neuron.network.sample(spike_time_matrix(patterns, neuron.input_count).T)[0]
    for column, pattern in zip(columns.T, patterns):
        alone = neuron.sample_weights(pattern.neuron_ids, pattern.times)
        assert column[pattern.neuron_ids].tobytes() == alone.tobytes()


def test_sampling_empty_inputs():
    neuron = network_of(4, [(0.0, [], [], [])], sigma=1.0).neurons[0]
    assert neuron.sample_weights(np.zeros(0, dtype=np.int64), np.zeros(0)).size == 0
    out = neuron.sample_weights(np.array([1, 2]), np.array([0.5, 1.0]))
    assert np.array_equal(out, np.zeros(2))


def test_sample_weights_rejects_an_id_out_of_range_or_repeated():
    """An id of -1 would read input ``input_count - 1`` and a repeated id
    the later spike's weight for both spikes; both, and an id past the
    last input, raise InputError."""
    neuron = network_of(5, [(0.0, [3, 4], [2.0, 0.5], [0.7, 0.4])], sigma=0.5).neurons[0]
    for ids in ([-1], [5], [0, 5]):
        with pytest.raises(InputError, match=r"input neuron outside \[0, 5\)"):
            neuron.sample_weights(np.array(ids), np.full(len(ids), 1.0))
    with pytest.raises(InputError, match="repeated"):
        neuron.sample_weights(np.array([3, 3]), np.array([2.0, 0.5]))
    assert neuron.sample_weights(np.array([4, 3]), np.array([0.5, 2.0])).tolist() == [0.4, 0.7]


def blocked_net(rng):
    """Four classes over 128 inputs, class 1 never initialized, with enough
    terms that a predict chunk holds several ``sample_block``s."""
    net = network_of(128, [None if j == 1 else random_terms(rng, 128, max_terms=12)
                           for j in range(4)])
    assert predict_chunk(net) >= 2 * net.sample_block()
    return net


def spike_times_of(patterns, input_count):
    return np.ascontiguousarray(spike_time_matrix(patterns, input_count).T)


def test_blocked_sample_equals_per_column_and_per_term_sampling(rng):
    """``Network.sample`` of any column count, in blocks and with a tail,
    equals sampling each column alone and the per-term oracle bit for bit;
    silent inputs and the uninitialized class read float zeros."""
    net = blocked_net(rng)
    block, chunk = net.sample_block(), predict_chunk(net)
    patterns = [random_pattern(rng, neuron_count=128, max_spikes=12)
                for _ in range(2 * chunk + 5)]
    patterns[block] = SpikePattern(neuron_count=128, neuron_ids=np.zeros(0, dtype=np.int64),
                                   times=np.zeros(0))
    times = spike_times_of(patterns, 128)
    oracle = sampled_weights_per_term(net, patterns)
    columns = [net.sample(times[:, [p]]) for p in range(len(patterns))]
    for count in (0, 1, block - 1, block, block + 1, 2 * block + 1, len(patterns)):
        values = net.sample(times[:, :count])
        assert values.dtype == np.float64 and values.shape == (4, 128, count)
        assert values.tobytes() == np.ascontiguousarray(oracle[..., :count]).tobytes()
        assert values.tobytes() == np.concatenate(
            [np.zeros((4, 128, 0))] + columns[:count], axis=2).tobytes()
    assert not oracle[1].any() and np.isnan(times).any()


def sample_peak(net, times):
    """``net.sample(times)`` and the bytes it allocated at its peak beyond its
    output and the mask of the silent inputs, under ``tracemalloc``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        values = net.sample(times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return values, peak - start - values.nbytes - times.size


def sample_temporaries(net, block):
    """The bound on what ``Network.sample`` holds besides its output: per
    call, the terms' rows and their rank-major order, rows, centers and
    amplitudes, plus each (class, input) row's place (8 bytes each, with a
    term's rank and position while the order is built); per block, its
    (classes * inputs, block) tiled spike times, its (terms, block) gathered
    terms, one (occupied rows + 1, block) sum and the (classes * inputs,
    block) sums in row order."""
    rows = net.class_count * net.input_count
    occupied = np.unique(net.keys >> 32).size
    return 48 * net.keys.size + 8 * rows + 8 * block * (net.keys.size + occupied + 1 + rows)


def test_blocked_sample_peaks_at_one_blocks_temporaries(rng):
    """Sampling half a block, one block or 20 blocks of columns, with or
    without a one-column tail, allocates the output, a mask of the silent
    inputs and at most ``sample_temporaries``: nothing grows with the
    column count."""
    net = blocked_net(rng)
    block = net.sample_block()
    temporaries = sample_temporaries(net, block)
    for count in (block // 2, block, 20 * block, 20 * block + 1):
        patterns = [random_pattern(rng, neuron_count=128, max_spikes=12) for _ in range(count)]
        values, extra = sample_peak(net, spike_times_of(patterns, 128))
        assert extra <= temporaries
        # one (terms, columns) array of 20 blocks' columns would not fit
        assert count < 20 * block or 8 * net.keys.size * count > values.nbytes + temporaries


def test_a_deep_row_among_many_samples_in_memory_linear_in_terms_and_rows(rng):
    """One (class, input) row of 2,000 terms among 2**16 rows: the rank-major
    sum of a block adds 2,000 ranks, but no array of ranks x rows (1 GB of
    float64 here) is built, and the peak stays within
    ``sample_temporaries``, linear in terms + rows."""
    net = Network(1, 2**16, 0.5, SimulationConfig(), 3.0)
    ticks = np.sort(rng.choice(3001, 2000, replace=False)).astype(np.int64)
    net._add_sorted((12_345 << 32) + ticks, rng.normal(size=2000))
    net.initialized[0] = True
    block = net.sample_block()
    assert 1 < block < 8
    times = rng.uniform(0.0, 3.0, size=(2**16, 2 * block + 1))
    times[rng.random(times.shape) < 0.5] = np.nan
    values, extra = sample_peak(net, times)
    assert extra <= sample_temporaries(net, block) < 8 * 2000 * 2**16 // 100
    alone = [net.sample(times[:, [p]]) for p in range(times.shape[1])]
    assert values.tobytes() == np.concatenate(alone, axis=2).tobytes()


# --- the rank-major sum of a sample block ------------------------------------

def as_bits(values):
    return np.ascontiguousarray(values).view(np.int64)


def force_block(monkeypatch, net, width):
    """Make ``net.sample_block()`` ``width`` columns by resizing SAMPLE_CELLS."""
    monkeypatch.setattr(dynamics, "SAMPLE_CELLS",
                        width * max(net.keys.size, net.class_count * net.input_count))
    assert net.sample_block() == width


def deep_row_net(sigma=0.5):
    """Three classes over six inputs, class 1 never initialized.  Class 0's
    input 0 holds 45 terms, input 1 one and input 2 none; class 2's inputs
    hold 3, 0, 7, 1, 0 and 2."""
    rng = np.random.default_rng(7)
    def terms(depths):
        ids = np.repeat(np.arange(6), depths)
        centers = np.concatenate([np.sort(rng.choice(3001, d, replace=False)) for d in depths])
        return (0.5, ids, centers * TIME_QUANTUM, rng.normal(0.0, 0.6, ids.size))
    net = network_of(6, [terms([45, 1, 0, 4, 2, 5]), None, terms([3, 0, 7, 1, 0, 2])],
                     sigma=sigma)
    assert np.bincount(net.keys >> 32).max() == 45
    return net


@pytest.mark.parametrize("width", [2, 3, 17])
def test_rank_major_sum_equals_the_per_term_oracle_bitwise(monkeypatch, rng, width):
    """A row of 45 terms beside empty and one-term rows, an uninitialized
    class and silent inputs: sampled in blocks of ``width`` columns, with a
    shorter last block, and one column alone, every (class, input, pattern)
    weight has the bits of the per-term oracle's stored-order sum."""
    net = deep_row_net()
    force_block(monkeypatch, net, width)
    patterns = [random_pattern(rng, neuron_count=6, max_spikes=6) for _ in range(2 * width + 1)]
    patterns[0] = SpikePattern(neuron_count=6, neuron_ids=np.arange(6), times=np.full(6, 1.5))
    times = spike_times_of(patterns, 6)
    assert np.isnan(times).any()
    oracle = as_bits(sampled_weights_per_term(net, patterns))
    assert (as_bits(net.sample(times)) == oracle).all()
    assert (as_bits(net.sample(times[:, :1])) == oracle[..., :1]).all()
    assert not oracle[1].any()


@pytest.mark.parametrize("width", [1, 2, 17])
def test_a_bin_of_underflowed_negative_terms_reads_positive_zero(monkeypatch, width):
    """With sigma = 0.01 a term 1 ms from the spike is exp(-5000) = 0, so a
    negative amplitude makes it -0.0.  A bin of only such terms starts from
    0.0 and reads +0.0 in a one-column bincount and in the rank-major sum
    alike, as the oracle does."""
    net = network_of(2, [(0.5, [0, 0, 0, 1], [0.5, 1.0, 2.5, 0.5],
                          [-0.3, -0.7, -0.2, 0.4])], sigma=0.01)
    force_block(monkeypatch, net, width)
    pattern = SpikePattern(neuron_count=2, neuron_ids=[0, 1], times=[1.75, 0.5])
    assert np.signbit(dynamics.efficacy(np.full(3, 1.75), net.centers[:3],
                                        net.amplitudes[:3], net.sigma)).all()
    values = net.sample(spike_times_of([pattern] * width, 2))
    assert not np.signbit(values).any()
    assert values[0, 0].tolist() == [0.0] * width and (values[0, 1] == 0.4).all()
    assert (as_bits(values) == as_bits(sampled_weights_per_term(net, [pattern] * width))).all()


def test_rank_major_sum_sweep_of_random_layouts(monkeypatch):
    """Seeded random networks (one to four classes, some uninitialized, rows
    of up to 60 terms or none) and random patterns, sampled in blocks of 2,
    3 and 17 columns: every call equals the per-term oracle bit for bit."""
    rng = np.random.default_rng(30)
    for _ in range(12):
        inputs, classes = int(rng.integers(1, 10)), int(rng.integers(1, 5))
        net = network_of(inputs, [None if rng.random() < 0.25 else
                                  random_terms(rng, inputs, max_terms=int(rng.integers(1, 61)))
                                  for _ in range(classes)], sigma=float(rng.uniform(0.05, 2.0)))
        if not net.keys.size:
            continue
        patterns = [random_pattern(rng, neuron_count=inputs, max_spikes=inputs)
                    for _ in range(int(rng.integers(1, 40)))]
        times = spike_times_of(patterns, inputs)
        oracle = as_bits(sampled_weights_per_term(net, patterns))
        for width in (2, 3, 17):
            force_block(monkeypatch, net, width)
            assert (as_bits(net.sample(times)) == oracle).all()


# --- postsynaptic potential and firing ---------------------------------------

def sim():
    return SimulationConfig(tau=3.0, t_max=8.0, dt=0.01)


def brute_potential(neuron, pattern, t, tau):
    total = 0.0
    for i, tk in zip(pattern.neuron_ids, pattern.times):
        w = scalar_weight(neuron, i, float(tk))
        dt = t - float(tk)
        if dt > 0:
            total += w * (dt / tau) * math.exp(1.0 - dt / tau)
    return total


def test_potential_matches_brute_force(rng):
    s = sim()
    for _ in range(20):
        neuron = random_neuron(rng)
        pattern = random_pattern(rng, neuron_count=neuron.input_count)
        for t in rng.uniform(0, 8, size=5):
            assert potential(neuron, pattern, float(t), s) == pytest.approx(
                brute_potential(neuron, pattern, float(t), 3.0), rel=1e-12, abs=1e-12)


def test_potential_empty_pattern_is_zero(rng):
    neuron = random_neuron(rng)
    empty = SpikePattern(neuron_count=neuron.input_count,
                         neuron_ids=np.zeros(0, dtype=np.int64), times=np.zeros(0))
    assert potential(neuron, empty, 2.0, sim()) == 0.0
    assert fire_time(neuron, empty, sim()) is None


def test_potential_is_linear_in_spikes(rng):
    s = sim()
    for _ in range(10):
        neuron = random_neuron(rng)
        pattern = random_pattern(rng, neuron_count=neuron.input_count, max_spikes=6)
        if pattern.spike_count == 0:
            continue
        t = float(rng.uniform(0, 8))
        parts = 0.0
        for i, tk in zip(pattern.neuron_ids, pattern.times):
            sub = SpikePattern(neuron_count=neuron.input_count,
                               neuron_ids=[int(i)], times=[float(tk)])
            parts += potential(neuron, sub, t, s)
        whole = potential(neuron, pattern, t, s)
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)


def unit_drive_neuron(threshold):
    """One input, weight exactly 1 at its own spike time t=0."""
    return network_of(1, [(threshold, [0], [0.0], [1.0])], sigma=0.5).neurons[0]


def one_spike_pattern():
    return SpikePattern(neuron_count=1, neuron_ids=[0], times=[0.0])


def test_fire_time_frozen_half_threshold():
    # v(t) = eps(t, 3); independent scan of the same grid for the first
    # point with (t/3) e^(1 - t/3) >= 0.5.
    s = sim()
    expected = None
    for k in range(801):
        t = k * 0.01
        if t > 0 and (t / 3.0) * math.exp(1.0 - t / 3.0) >= 0.5:
            expected = round(t, 2)
            break
    assert expected == 0.70
    assert fire_time(unit_drive_neuron(0.5), one_spike_pattern(), s) == pytest.approx(0.70)


def test_fire_time_none_when_threshold_unreachable():
    # kernel peak is 1.0, so weight 1 can never reach 1.01
    assert fire_time(unit_drive_neuron(1.01), one_spike_pattern(), sim()) is None


def test_fire_time_exact_equality_counts_as_crossing():
    s = sim()
    theta = float(epsilon(2.0, 3.0))
    assert fire_time(unit_drive_neuron(theta), one_spike_pattern(), s) == pytest.approx(2.0)


def test_fire_time_zero_threshold_fires_immediately():
    assert fire_time(unit_drive_neuron(0.0), one_spike_pattern(), sim()) == 0.0


def test_fire_time_monotone_in_threshold(rng):
    s = sim()
    for _ in range(20):
        neuron = random_neuron(rng)
        pattern = random_pattern(rng, neuron_count=neuron.input_count)
        lo, hi = sorted(rng.uniform(0.05, 1.2, size=2))
        neuron.network.thresholds[0] = lo
        t_lo = fire_time(neuron, pattern, s)
        neuron.network.thresholds[0] = hi
        t_hi = fire_time(neuron, pattern, s)
        if t_hi is not None:
            assert t_lo is not None and t_lo <= t_hi


def test_response_matrix_shape_and_content(rng):
    """The rows of the pattern's ticks, over the columns asked for: the
    whole grid, or one race block, bit for bit as the tick oracle has them."""
    s = sim()
    net = network_of(6, [None], 0.5, s)
    times = grid(s)
    for _ in range(5):
        pattern = random_pattern(rng, neuron_count=6, max_spikes=5)
        m = response_matrix(pattern, net, 0, times.size)
        assert m.shape == (pattern.spike_count, times.size)
        assert m.tobytes() == direct_response(pattern.times, s).tobytes()
        assert response_matrix(pattern, net, 256, 512).tobytes() == m[:, 256:512].tobytes()
        if pattern.spike_count:
            k = pattern.spike_count - 1
            assert m[k, -1] == pytest.approx(float(epsilon(times[-1] - pattern.times[k], s.tau)))


@pytest.mark.parametrize("s", [
    SimulationConfig(), SimulationConfig(t_max=0.02), SimulationConfig(tau=0.3, t_max=0.5),
    SimulationConfig(dt=0.02)], ids=["default", "t_max-0.02", "tau-0.3-t_max-0.5", "dt-0.02"])
def test_responses_view_equals_the_tick_oracle_bitwise(s):
    """Row k of the view is the response of a spike on tick k, for every
    tick of [0, t_max], at every grid time, bit for bit."""
    ticks = np.arange(round(s.t_max / TIME_QUANTUM) + 1)
    view = responses(s)
    assert view.shape == (ticks.size, grid(s).size)
    assert view.tobytes() == direct_response(ticks * TIME_QUANTUM, s).tobytes()
    assert responses(s) is view  # kept for the next network on the grid


def test_responses_view_stays_within_1e_15_of_the_float_grid_form():
    """Computing ``grid - t`` in floats instead of on integer ticks moves
    some cells in their last bits, never by 1e-15."""
    s = SimulationConfig()
    times = np.arange(round(s.t_max / TIME_QUANTUM) + 1) * TIME_QUANTUM
    float_form = _epsilon_consuming(grid(s)[None, :] - times[:, None], s.tau)
    assert np.abs(responses(s) - float_form).max() < 1e-15


def test_responses_view_and_its_base_are_read_only():
    view = responses(SimulationConfig())
    base = view
    while base.base is not None:
        base = base.base
    assert isinstance(base, np.ndarray) and base.ndim == 1 and base is not view
    for array in (view, base):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_response_matrix_rejects_a_spike_after_t_max(rng):
    """A pattern with a spike after t_max, whose tick has no row in the
    responses, is rejected with an InputError naming t_max by ``predict``
    and ``train``, where ``SampledWeights`` meets the network, before any
    weight is sampled.  A spike at exactly t_max reads the last row."""
    s = sim()
    net = network_of(2, [random_terms(rng, 2), random_terms(rng, 2)], 0.5, s)
    late = SpikePattern(neuron_count=2, neuron_ids=[0, 1], times=[1.0, s.t_max + 0.5])
    at_end = SpikePattern(neuron_count=2, neuron_ids=[0], times=[s.t_max])
    net.sample = lambda spike_times: pytest.fail("sampled a pattern after t_max")
    with pytest.raises(InputError, match="t_max"):
        predict(net, [at_end, late])
    del net.sample
    with pytest.raises(InputError, match="t_max"):
        train([at_end, late], np.array([0, 1]), NetworkConfig(), class_count=2)
    assert at_end.ticks.tolist() == [round(s.t_max / TIME_QUANTUM)]
    assert response_matrix(at_end, net, 0, grid(s).size).tobytes() == \
        direct_response([s.t_max], s).tobytes()
    assert predict(net, [at_end]).shape == (1,)


def test_threads_predicting_on_a_cold_table_get_the_serial_labels(rng):
    """Threads that each build a network on an emptied ``responses`` cache,
    and so fill it at once, then predict one row at a time, give the labels
    of a serial run."""
    terms = [random_terms(rng, 12) for _ in range(3)]
    patterns = [random_pattern(rng, neuron_count=12, max_spikes=12) for _ in range(150)]
    responses.cache_clear()
    serial = predict(network_of(12, terms, 0.5, sim()), patterns).tolist()
    responses.cache_clear()
    orders = [rng.permutation(len(patterns)) for _ in range(4)]  # more threads than cores
    labels = [[None] * len(patterns) for _ in orders]
    nets = [None] * len(orders)

    def work(k):
        nets[k] = net = network_of(12, terms, 0.5, sim())
        for p in orders[k]:
            labels[k][p] = int(predict(net, [patterns[p]])[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(orders))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(got == serial for got in labels)
    times = np.unique(np.concatenate([p.times for p in patterns]))
    for net in nets:
        assert net.response_rows[np.rint(times / TIME_QUANTUM).astype(np.int64)].tobytes() == \
            direct_response(times, net.sim).tobytes()


@pytest.mark.parametrize("clone", [lambda net: pickle.loads(pickle.dumps(net)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_pickled_or_copied_network_rebuilds_its_race_plan(rng, clone):
    """A pickle holds a network's terms, not its strided ``response_rows``,
    which numpy would write out whole ((K + 1) * columns cells, 51 MB on the
    default grid): it stays within a few KB, and the copy rebuilds the plan
    from its ``sim``, sharing the original's rows, and predicts the
    original's labels."""
    net = network_of(12, [random_terms(rng, 12) for _ in range(3)], 0.5, SimulationConfig())
    assert len(pickle.dumps(net)) < 16_384
    twin = clone(net)
    assert twin.sim == net.sim and twin.blocks == net.blocks and twin.step == net.step
    assert twin.response_rows is net.response_rows is responses(net.sim)
    assert model_to_json_bytes(twin) == model_to_json_bytes(net)
    patterns = [random_pattern(rng, neuron_count=12, max_spikes=12) for _ in range(40)]
    assert predict(twin, patterns).tolist() == predict(net, patterns).tolist()


def test_simulation_grid_endpoints():
    g = grid(sim())
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(8.0)
    assert g.size == 801


@pytest.mark.parametrize("t_max, dt, columns", [
    (8.0, 0.01, 801), (8.006, 0.01, 801), (8.004, 0.01, 801), (8.0, 0.043, 187),
    (8.0, 10.0, 1), (0.004, 0.01, 1), (2.5, 0.02, 126), (0.3, 0.1, 4)])
def test_grid_ends_at_or_before_t_max(t_max, dt, columns):
    """The grid has one time per whole dt step within t_max, counted in
    ticks, so no neuron can fire after the interval ends (t_max = 8.006
    once searched up to 8.01 ms, and dt = 10 up to 10 ms); the grid, the
    responses, the race blocks and the kernel row all read that count.  A
    neuron crossing on the last column fires at most at t_max, counted in
    whole ticks, and at exactly t_max when that column is on its tick."""
    s = SimulationConfig(t_max=t_max, dt=dt)
    last, step = s.ticks()
    times = grid(s)
    assert times.size == s.columns() == columns
    assert (columns - 1) * step <= last < columns * step
    # 3 * 0.1 is 0.30000000000000004 in floats, on t_max's tick but past 0.3
    assert times[-1] <= t_max or (t_max, dt) == (0.3, 0.1)
    view = base = responses(s)
    while base.base is not None:
        base = base.base
    assert view.shape == (last + 1, columns)
    assert base.size == s.kernel_row() == (columns - 1) * step + last + 1
    assert race_blocks(s)[-1][1] == columns
    net = Network(1, 1, 1.0, s, spike_interval=t_max / 2)
    net.initialized[0], net.thresholds[0] = True, 0.5
    fired, _ = net.evaluate_pattern(
        np.ones((1, 1)), [0], lambda lo, hi: (np.arange(lo, hi) == columns - 1)[None, :] * 1.0)
    assert fired == {0: (columns - 1) * step * TIME_QUANTUM}
    assert fired[0] <= t_max
    if (columns - 1) * step == last:
        assert fired[0] == t_max
    if dt == 0.043:
        assert times[-1] == pytest.approx(7.998)


def test_simulation_config_validation():
    with pytest.raises(ConfigError):
        SimulationConfig(tau=0.0)
    with pytest.raises(ConfigError):
        SimulationConfig(dt=-0.1)


def test_grid_step_must_be_a_whole_number_of_ticks():
    """0.043 / 0.001 is 42.99999999999999, and is still 43 ticks; a step
    between ticks or below one tick would sample the potential off its grid."""
    for dt in (0.01, 0.02, 0.043):
        assert SimulationConfig(dt=dt).dt == dt
    for dt in (0.0015, 1e-4, 0.0005):
        with pytest.raises(ConfigError, match="dt must be a whole number"):
            SimulationConfig(dt=dt)


@pytest.mark.parametrize("t_max", [8.0006, 0.0006])
def test_grid_end_must_be_a_whole_number_of_ticks(t_max, rng):
    """A t_max between ticks rounds to the next tick, so its grid (8,002
    columns at 8.0006 with dt 0.001, the last at 8.001 ms) and its spike
    limit would reach past t_max; a checkpoint holding one is InputError."""
    with pytest.raises(ConfigError, match="t_max must be a whole number"):
        SimulationConfig(t_max=t_max, dt=0.001)
    with pytest.raises(ConfigError, match="t_max must be a whole number"):
        NetworkConfig(t_max=t_max, dt=0.001, spike_interval=t_max / 2,
                      desired_time=t_max / 4)
    doc = model_to_dict(make_network(rng))
    doc["simulation"]["t_max"] = t_max
    with pytest.raises(InputError, match="t_max must be a whole number"):
        model_from_dict(doc)


# --- network ------------------------------------------------------------------

def make_network(rng, classes=3, inputs=10, sigma=0.6, uninitialized=()):
    terms = [random_terms(rng, inputs) for _ in range(classes)]
    return network_of(inputs, [None if j in uninitialized else t for j, t in enumerate(terms)],
                      sigma, sim())


def test_network_validation():
    with pytest.raises(ConfigError):
        Network(0, 4, 1.0, sim(), spike_interval=3.0)
    with pytest.raises(ConfigError):
        Network(2, 0, 1.0, sim(), spike_interval=3.0)
    with pytest.raises(ConfigError):
        Network(2, 4, 1.0, SimulationConfig(t_max=3.0), spike_interval=3.0)
    net = Network(np.int64(2), np.int32(4), 1.0, sim(), spike_interval=3.0)
    assert type(net.class_count) is int and type(net.input_count) is int


@pytest.mark.parametrize("field", ["class_count", "input_count"])
@pytest.mark.parametrize("count", [4.0, 2.5, math.nan, True, np.float64(2.0), "2"],
                         ids=["float", "fraction", "nan", "bool", "np-float", "str"])
def test_a_network_count_that_is_not_an_integer_is_rejected(field, count):
    """Neither count builds a network unless it is an integer, so no float
    count reaches the update rule's key shifts or ``predict``, and
    ``train`` names a bad class count before it compares the labels."""
    counts = {"class_count": 2, "input_count": 4, field: count}
    with pytest.raises(ConfigError, match=f"{field} must be an integer >= 1"):
        Network(counts["class_count"], counts["input_count"], 1.0, sim(), spike_interval=3.0)
    if field == "class_count":
        pattern = SpikePattern(4, [0, 1], [0.5, 1.0])
        with pytest.raises(ConfigError, match="class_count must be an integer >= 1"):
            train([pattern, pattern], np.array([0, 1]), NetworkConfig(), class_count=count)


def test_network_rejects_counts_its_term_keys_cannot_hold():
    """A key holds class * input_count + input in 31 bits, and every sampled
    column costs 8 bytes per (class, input) cell, so the product of the
    counts must stay within MAX_CELLS, far below 2**31; the check comes
    before any array."""
    assert MAX_CELLS < 2**31
    for classes, inputs in ((2**62, 1), (1, 2**62), (2**16, 2**15), (2, MAX_CELLS // 2 + 1)):
        with pytest.raises(ConfigError, match=f"MAX_CELLS = {MAX_CELLS:,}"):
            Network(classes, inputs, 1.0, sim(), spike_interval=3.0)
    assert Network(1, MAX_CELLS, 1.0, sim(), spike_interval=3.0).keys.size == 0
    assert Network(2, MAX_CELLS // 2, 1.0, sim(), spike_interval=3.0).keys.size == 0


def test_evaluate_pattern_agrees_with_fire_time(rng):
    net = make_network(rng)
    for _ in range(15):
        pattern = random_pattern(rng, neuron_count=net.input_count)
        activity = evaluate_pattern(net, pattern)
        for j, neuron in enumerate(net.neurons):
            expected = fire_time(neuron, pattern, net.sim)
            if expected is None:
                assert math.isnan(activity.fire_times[j])
            else:
                assert activity.fire_times[j] == pytest.approx(expected)


def test_evaluate_pattern_uninitialized_slots(rng):
    net = make_network(rng, uninitialized=(1,))
    pattern = random_pattern(rng, neuron_count=net.input_count, max_spikes=5)
    activity = evaluate_pattern(net, pattern)
    assert math.isnan(activity.fire_times[1])
    assert activity.peaks[1] == -math.inf


def blocks_of(eps_matrix: np.ndarray, asked: list):
    """Responses for the kernel, the columns of ``eps_matrix`` block by block,
    each a gathered copy as the kernel's callers hand out; records each block."""
    rows = np.arange(len(eps_matrix))

    def responses(lo, hi):
        asked.append((lo, hi))
        return eps_matrix[rows, lo:hi]
    return responses


def test_evaluate_pattern_kernel_matches_crossings(rng):
    """In both stop modes, the activity kernel's winner, and its fire times
    (first index at or above the threshold, times dt) in the blocks it
    computes, equal the oracle's numpy ``crossings`` of the whole product
    bit for bit; it computes the ``race_blocks`` in time order and stops at
    ``race_end``: after the first block with a crossing (no label), or once
    the blocks reach the label's crossing plus the margin and one grid step."""
    # class 1, uninitialized between two live classes, has a weight row the
    # kernel must leave out of the race
    net = make_network(rng, uninitialized=(1,))
    live = np.flatnonzero(net.initialized).tolist()
    assert live == [0, 2]
    dt, margin, columns = net.sim.dt, 0.3, grid(net.sim).size
    fired_any, ends = [], set()
    for _ in range(60):
        pattern = random_pattern(rng, neuron_count=net.input_count, max_spikes=6)
        weights = sample_weights(net, pattern)
        weights[1] = 10.0  # would fire at once if it raced
        activity = evaluate_pattern(net, pattern)
        for label in [None, *live]:
            asked = []
            fired, winner = net.evaluate_pattern(
                weights, live, blocks_of(response_matrix(pattern, net, 0, columns), asked),
                label=label, margin=margin)
            end = race_end(net, activity.fire_times, label, margin)
            assert asked == [b for b in race_blocks(net.sim) if b[0] < end]
            assert list(fired.items()) == [
                (j, t) for j, t in enumerate(activity.fire_times.tolist())
                if not math.isnan(t) and round(t / dt) < end]
            assert winner == int(activity.winners())
            fired_any.append(bool(fired))
            ends.add(end)
    assert any(fired_any) and not all(fired_any)
    # races stopped after one block, after a later one, and ran every block
    assert len(ends) >= 3 and race_blocks(net.sim)[-1][1] in ends


def test_evaluate_pattern_kernel_breaks_ties_toward_the_lowest_live_class():
    """Live classes [0, 2], as the network's callers read them: a shared crossing index
    and equal silent peaks both go to class 0, class ids, not live
    positions, name the winner, class 1's weights and threshold never race,
    and with no live class the answer is class 0, with no product at all."""
    net = Network(3, 1, 1.0, SimulationConfig(t_max=0.02), spike_interval=0.01)
    net.initialized[:] = [True, False, True]
    eps_matrix = np.array([[0.0, 0.5, 1.0]])
    assert race_blocks(net.sim) == ((0, 3),)
    responses = blocks_of(eps_matrix, [])
    dt = net.sim.dt

    def race(weights, thresholds):
        net.thresholds[:] = thresholds
        return net.evaluate_pattern(np.array(weights)[:, None], [0, 2], responses)
    # class 1 would cross first and peak highest if it raced
    same = [1.0, 3.0, 1.0]
    assert race(same, [0.5, 0.0, 0.5]) == ({0: dt, 2: dt}, 0)
    assert race(same, [2.0, 0.0, 2.0]) == ({}, 0)
    assert race(same, [0.9, 0.0, 0.5]) == ({0: 2 * dt, 2: dt}, 2)
    # a threshold the resting potential already meets fires at index 0
    assert race(same, [0.9, 0.0, 0.0]) == ({0: 2 * dt, 2: 0.0}, 2)
    assert race([1.0, 3.0, 1.5], [2.0, 0.0, 2.0]) == ({}, 2)
    asked = []
    net.initialized[:] = False
    assert net.evaluate_pattern(np.zeros((3, 1)), [], blocks_of(eps_matrix, asked)) == ({}, 0)
    assert asked == []


def test_race_blocks_equal_the_full_product_bit_for_bit(rng):
    """Over random shapes, the product of every block the kernel computes, on
    a gathered copy of the block's response columns, equals the same columns
    of the whole (live, spikes) @ (spikes, grid) product bit for bit."""
    s = sim()
    assert grid(s).size == 801
    assert race_blocks(s) == ((0, 256), (256, 512), (512, 768), (768, 801))
    table = direct_response(np.arange(round(s.t_max / TIME_QUANTUM) + 1) * TIME_QUANTUM, s)
    for _ in range(150):
        live, spikes = int(rng.integers(1, 8)), int(rng.integers(1, 131))
        rows = rng.integers(0, round(3.0 / TIME_QUANTUM) + 1, size=spikes)
        weights = rng.normal(0.0, 0.6, size=(live, spikes))
        whole = weights @ table[rows]
        for lo, hi in race_blocks(s):
            assert (weights @ table[rows, lo:hi]).tobytes() == whole[:, lo:hi].tobytes()


def test_race_blocks_fold_a_one_column_tail(rng):
    """A grid one column past a whole number of blocks would leave a
    one-column product, which numpy hands to gemv rather than gemm: that
    column joins the block before it, and the folded block still equals
    the whole product bit for bit.  Every block holds at least two columns
    unless the grid has only one."""
    def grid_of(columns):
        s = SimulationConfig(t_max=(columns - 1) * 0.01, dt=0.01)
        assert grid(s).size == columns
        return s

    folded = {2 * RACE_BLOCK + 1: ((0, RACE_BLOCK), (RACE_BLOCK, 2 * RACE_BLOCK + 1)),
              RACE_BLOCK + 1: ((0, RACE_BLOCK + 1),)}
    for columns, blocks in folded.items():
        # plain RACE_BLOCK strides would end in a one-column block
        assert range(0, columns, RACE_BLOCK)[-1] == columns - 1
        assert race_blocks(grid_of(columns)) == blocks
    assert race_blocks(grid_of(RACE_BLOCK + 2)) == ((0, RACE_BLOCK), (RACE_BLOCK, RACE_BLOCK + 2))
    assert race_blocks(grid_of(RACE_BLOCK)) == ((0, RACE_BLOCK),)
    assert race_blocks(SimulationConfig(t_max=0.004)) == ((0, 1),)
    for columns in range(2, 4 * RACE_BLOCK + 3):
        blocks = race_blocks(grid_of(columns))
        assert blocks[0][0] == 0 and blocks[-1][1] == columns
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert min(hi - lo for lo, hi in blocks) >= 2
    s = grid_of(2 * RACE_BLOCK + 1)
    (lo, hi), = race_blocks(s)[-1:]
    assert hi - lo == RACE_BLOCK + 1
    table = direct_response(np.arange(301) * TIME_QUANTUM, s)
    tails_differ = []
    for _ in range(40):
        live, spikes = int(rng.integers(1, 8)), int(rng.integers(1, 131))
        rows = rng.integers(0, 301, size=spikes)
        weights = rng.normal(0.0, 0.6, size=(live, spikes))
        whole = weights @ table[rows]
        assert (weights @ table[rows, lo:hi]).tobytes() == whole[:, lo:hi].tobytes()
        tails_differ.append((weights @ table[rows, hi - 1:hi]).tobytes()
                            != whole[:, hi - 1:].tobytes())
    # the unfolded tail would not have done where its gemv sums differ from
    # gemm's, as they do under OpenBLAS's x86 kernels
    if not any(tails_differ):
        pytest.skip("this BLAS's one-column products matched the whole product in "
                    "every draw, so the fold cannot be shown to matter here")


# Run by test_blocked_kernel_matches_the_whole_product_under_two_blas_kernels in
# a child process: the blocked kernel against the oracle's whole product, in
# both stop modes, and every block's potentials against the whole product's
# bits, on random patterns; prints the BLAS core name and counts.
_KERNEL_CHILD = r"""
import json, math
import numpy as np
from bench_pairs import openblas_core
from conftest import network_of, random_pattern, random_terms
from oracles import evaluate_pattern, grid, race_end, sample_weights
from sefm.dynamics import SimulationConfig, race_blocks, response_matrix

rng = np.random.default_rng(20240817)
net = network_of(16, [None if j == 1 else random_terms(rng, 16) for j in range(4)],
                 0.6, SimulationConfig())
live = np.flatnonzero(net.initialized).tolist()
checked, disagree, differ, ends = 0, 0, 0, set()
for _ in range(200):
    pattern = random_pattern(rng, neuron_count=16, max_spikes=16)
    weights = sample_weights(net, pattern)
    eps_matrix = response_matrix(pattern, net, 0, grid(net.sim).size)
    activity = evaluate_pattern(net, pattern, eps_matrix=eps_matrix)
    blocked = [weights[live] @ eps_matrix[:, lo:hi].copy() for lo, hi in race_blocks(net.sim)]
    differ += np.hstack(blocked).tobytes() != (weights[live] @ eps_matrix).tobytes()
    for label in [None, *live]:
        fired, winner = net.evaluate_pattern(
            weights, live, lambda lo, hi: eps_matrix[:, lo:hi].copy(), label=label, margin=0.3)
        end = race_end(net, activity.fire_times, label, 0.3)
        expected = [(j, t) for j, t in enumerate(activity.fire_times.tolist())
                    if not math.isnan(t) and round(t / net.sim.dt) < end]
        disagree += list(fired.items()) != expected or winner != int(activity.winners())
        checked += 1
        ends.add(end)
print(json.dumps({"core": openblas_core(), "checked": checked, "disagree": disagree,
                  "differ": differ, "ends": sorted(ends)}))
"""


def test_blocked_kernel_matches_the_whole_product_under_two_blas_kernels():
    """Under the Haswell and the Prescott OpenBLAS kernels, each set with
    OPENBLAS_CORETYPE for its own child process only, the blocked kernel
    gives the winner and fire times of the whole product on 200 random
    patterns in both stop modes, and every block's potentials equal the
    whole product's columns bit for bit.  A BLAS that does not switch kernels this
    way cannot vary the kernel, and the test skips."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "tests"), str(root / "tools"),
                            os.environ.get("PYTHONPATH", "")])
    reports = {}
    for core in ("Haswell", "Prescott"):
        env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", _KERNEL_CHILD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports[core] = json.loads(proc.stdout.splitlines()[-1])
    names = {core: report["core"] for core, report in reports.items()}
    if None in names.values():
        pytest.skip("numpy's BLAS reports no OpenBLAS core name, so OPENBLAS_CORETYPE "
                    "cannot be shown to switch its kernels")
    if names["Haswell"] == names["Prescott"]:
        pytest.skip(f"OPENBLAS_CORETYPE does not switch this BLAS's kernels: both "
                    f"children ran {names['Haswell']}")
    for core, report in reports.items():
        assert report["checked"] == 200 * 4, core
        assert report["disagree"] == report["differ"] == 0, (core, report)
        # races stopped after the first block and ran to the grid's end
        assert report["ends"][0] == RACE_BLOCK and report["ends"][-1] == 801, (core, report)


def test_evaluate_pattern_given_weights_match_fresh(rng):
    net = make_network(rng, uninitialized=(0,))
    for _ in range(10):
        pattern = random_pattern(rng, neuron_count=net.input_count, max_spikes=6)
        plain = evaluate_pattern(net, pattern)
        given = evaluate_pattern(net, pattern, sample_weights(net, pattern),
                                 eps_matrix=response_matrix(pattern, net, 0,
                                                            grid(net.sim).size))
        assert np.array_equal(plain.peaks, given.peaks, equal_nan=True)
        assert np.array_equal(plain.fire_times, given.fire_times, equal_nan=True)


# --- serialization -------------------------------------------------------------

def test_model_round_trip_exact(rng, tmp_path):
    net = make_network(rng, uninitialized=(2,))
    encoder = fit_ranges(np.array([[0.0, 1.0], [2.0, 3.0]]), receptive_field_count=5)
    path = tmp_path / "model.json"
    save_model(path, net, encoder)
    loaded, enc2 = load_model(path)
    assert model_to_json_bytes(loaded, enc2) == model_to_json_bytes(net, encoder)
    assert enc2 == encoder
    assert loaded.neurons[2] is None
    for j in (0, 1):
        a, b = net.neurons[j], loaded.neurons[j]
        assert b.threshold == a.threshold
        assert all_terms(b) == all_terms(a)


def test_model_bytes_deterministic(rng):
    seed_state = rng.integers(1 << 32)
    r1 = np.random.default_rng(seed_state)
    r2 = np.random.default_rng(seed_state)
    b1 = model_to_json_bytes(make_network(r1))
    b2 = model_to_json_bytes(make_network(r2))
    assert b1 == b2


def test_model_format_version_checked(rng):
    doc = model_to_dict(make_network(rng))
    doc["format"] = "sefm-model/999"
    with pytest.raises(InputError):
        model_from_dict(doc)


def test_model_bytes_are_valid_ascii_json(rng):
    raw = model_to_json_bytes(make_network(rng))
    doc = json.loads(raw.decode("ascii"))
    assert doc["format"] == "sefm-model/1"
    assert doc["class_count"] == 3


# --- checkpoint validation -------------------------------------------------------

DATA = Path(__file__).parent / "data"

# Written by the dict-per-synapse implementation from blobs_dataset(rng(7),
# classes=3, per_class=10, features=2, spread=0.2), sigma 0.5, 6 epochs, seed 2;
# these are its predictions on those 30 rows.
V1_PREDICTIONS = [2, 1, 2, 1, 1, 1, 2, 2, 2, 2, 2, 0, 0, 1, 0,
                  0, 1, 1, 2, 2, 0, 1, 2, 2, 1, 1, 0, 0, 2, 0]


def test_v1_checkpoint_loads_predicts_and_reserializes_identically():
    from sefm.encoding import encode_dataset
    from sefm.training import predict
    from conftest import blobs_dataset
    raw = (DATA / "model-v1.json").read_bytes()
    net, encoder = load_model(DATA / "model-v1.json")
    assert model_to_json_bytes(net, encoder) == raw
    x, _ = blobs_dataset(np.random.default_rng(7), classes=3, per_class=10,
                         features=2, spread=0.2)
    assert predict(net, encode_dataset(x, encoder)).tolist() == V1_PREDICTIONS


def test_a_tiny_sigma_samples_and_predicts_without_a_warning():
    """With sigma 1e-300 a spike's scaled distance to any term off its own
    tick overflows when squared; that term's weight is exp(-inf) = 0 all
    the same, and no RuntimeWarning is raised."""
    _samples_and_predicts_without_a_warning(1e-300)


@pytest.mark.parametrize("sigma", [1e-310, 5e-324, 1e-139])
def test_a_subnormal_sigma_samples_and_predicts_without_a_warning(sigma):
    """A subnormal sigma, which Network accepts, overflows already in the
    divide by sigma, and warns no more than 1e-300 does; 1e-139, just above
    the floor below which ``efficacy`` ignores overflow, overflows nowhere."""
    _samples_and_predicts_without_a_warning(sigma)


def _samples_and_predicts_without_a_warning(sigma):
    """The model-v1 checkpoint under ``sigma`` samples and predicts with every
    warning an error, and a spike sees only a term on its own tick."""
    from sefm.encoding import encode_dataset
    from conftest import blobs_dataset
    doc = json.loads((DATA / "model-v1.json").read_text())
    doc["sigma"] = sigma
    net, encoder = model_from_dict(doc)
    x, _ = blobs_dataset(np.random.default_rng(7), classes=3, per_class=10,
                         features=2, spread=0.2)
    patterns = encode_dataset(x, encoder)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = net.sample(spike_time_matrix(patterns, net.input_count).T)
        assert len(predict(net, patterns)) == len(patterns)
    # a spike sees only a term on its own tick, at full amplitude
    stored = dict(zip(net.keys.tolist(), net.amplitudes.tolist()))
    hits = 0
    for p, pattern in enumerate(patterns):
        for i, tick in zip(pattern.neuron_ids.tolist(), pattern.ticks.tolist()):
            for j in range(net.class_count):
                want = stored.get(((j * net.input_count + i) << 32) + tick, 0.0)
                assert weights[j, i, p] == want
                hits += want != 0.0
    assert hits


def _oracle_merge(doc) -> Network:
    """The network of a checkpoint's settings and thresholds whose terms go
    in through the oracle merge, in one call."""
    s = doc["simulation"]
    net = Network(doc["class_count"], doc["input_count"], doc["sigma"],
                  SimulationConfig(s["tau"], s["t_max"], s["dt"]), doc["spike_interval"])
    terms = [(j, i, c, a) for j, neuron in enumerate(doc["neurons"]) if neuron is not None
             for i, synapse in enumerate(neuron["synapses"]) for c, a in synapse]
    add_terms(net, *(np.array(column) for column in zip(*terms)))
    return net


def test_checkpoints_load_to_the_arrays_of_the_oracle_merge(tmp_path):
    """The recorded checkpoint and a fresh iris ``sefm train`` checkpoint
    load, in one step of strictly ascending keys, to the keys, centers and
    amplitude bits that the general snap-and-sum merge gives their terms."""
    from sefm.cli import main
    assert main(["train", "--dataset", "iris", "--seed", "0",
                 "--output-dir", str(tmp_path)]) == 0
    for path in (DATA / "model-v1.json", tmp_path / "model.json"):
        doc = json.loads(path.read_text())
        net, _ = load_model(path)
        oracle = _oracle_merge(doc)
        assert net.keys.size > 250
        assert [a.tobytes() for a in (net.keys, net.centers, net.amplitudes)] == \
            [a.tobytes() for a in (oracle.keys, oracle.centers, oracle.amplitudes)]


def _first_terms(doc):
    neuron = doc["neurons"][0]
    return next(terms for terms in neuron["synapses"] if terms)


def _drop_key(doc, rng):
    holders = [doc, doc["simulation"], doc["encoder"], doc["neurons"][0]]
    holder = holders[int(rng.integers(len(holders)))]
    del holder[sorted(holder)[int(rng.integers(len(holder)))]]


def _extra_synapse(doc, rng):
    doc["neurons"][int(rng.integers(3))]["synapses"].append([])


def _missing_synapse(doc, rng):
    doc["neurons"][int(rng.integers(3))]["synapses"].pop()


def _extra_neuron(doc, rng):
    doc["neurons"].append(None)


def _missing_neuron(doc, rng):
    doc["neurons"].pop(int(rng.integers(3)))


def _relabeled_neuron(doc, rng):
    j = int(rng.integers(3))
    doc["neurons"][j]["class_label"] = (j + int(rng.integers(1, 3))) % 3


def _non_finite_value(doc, rng):
    bad = float(rng.choice([np.nan, np.inf, -np.inf]))
    terms = _first_terms(doc)
    target = int(rng.integers(3))
    if target == 0:
        doc["neurons"][0]["threshold"] = bad
    else:
        terms[int(rng.integers(len(terms)))][target - 1] = bad


def _float_class_label(doc, rng):
    j = int(rng.integers(3))
    doc["neurons"][j]["class_label"] = float(j)


def _center_outside_window(doc, rng):
    terms = _first_terms(doc)
    terms[int(rng.integers(len(terms)))][0] = float(rng.choice([-0.001, 3.001, 50.0]))


def _some_terms(doc, rng, at_least=1):
    """A random synapse's terms, of any neuron, holding ``at_least`` terms."""
    synapses = [terms for neuron in doc["neurons"] for terms in neuron["synapses"]
                if len(terms) >= at_least]
    return synapses[int(rng.integers(len(synapses)))]


def _off_grid_center(doc, rng):
    """A center 0.4 ticks off the grid, which the loader used to snap."""
    term = _some_terms(doc, rng)[0]
    term[0] += 0.0004 if term[0] + 0.0004 <= doc["spike_interval"] else -0.0004


def _duplicated_term(doc, rng):
    terms = _some_terms(doc, rng)
    k = int(rng.integers(len(terms)))
    terms.insert(k, list(terms[k]))


def _reversed_terms(doc, rng):
    _some_terms(doc, rng, at_least=2).reverse()


@pytest.mark.parametrize("mutate", [
    _drop_key, _extra_synapse, _missing_synapse, _extra_neuron, _missing_neuron,
    _relabeled_neuron, _float_class_label, _non_finite_value, _center_outside_window,
    _off_grid_center, _duplicated_term, _reversed_terms,
])
def test_load_model_rejects_mutated_checkpoint(mutate, rng, tmp_path):
    original = json.loads((DATA / "model-v1.json").read_text())
    for trial in range(5):
        doc = json.loads(json.dumps(original))
        mutate(doc, rng)
        path = tmp_path / f"model-{trial}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            load_model(path)


@pytest.mark.parametrize("changes", [
    {"class_count": 2**62},
    {"input_count": 2**62, "neurons": [None, None, None], "encoder": None},
], ids=["huge_class_count", "huge_input_count"])
def test_load_model_rejects_hostile_counts_before_allocating(changes, tmp_path):
    doc = json.loads((DATA / "model-v1.json").read_text())
    doc.update(changes)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_model(path)


@pytest.mark.parametrize("content", [
    b"", b'{"format": "sefm-model/1", "sigma"', b'{"format": "\xff"}', b"[" * 100_000,
    b'{"format": ' + b"1" * 5000 + b"}",
], ids=["empty", "truncated", "non_ascii_byte", "deeply_nested", "huge_integer"])
def test_load_model_rejects_a_file_that_is_not_ascii_json(content, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    with pytest.raises(InputError, match="as ASCII JSON"):
        load_model(path)


# model-v1.json has 2 features x 6 fields = 12 inputs over a 3 ms interval.
@pytest.mark.parametrize("changes", [
    {"encoder": {"receptive_field_count": 5}},
    {"encoder": {"receptive_field_count": 7}},
    {"encoder": {"receptive_field_count": 2, "overlap": -1.0}},
    {"encoder": {"overlap": 0.0}},
    # an infinite overlap makes every field infinitely narrow: every row would
    # encode to zero spikes and predict class 0
    {"encoder": {"overlap": math.inf}},
    {"encoder": {"response_cutoff": 1.0}},
    {"encoder": {"spike_interval": 2.5}},
    {"encoder": {"feature_ranges": [[0.5, 0.5], [0.0, 1.0]]}},
    # with no neuron and no encoder to disagree, only the count itself is left
    {"input_count": -1, "neurons": [None, None, None], "encoder": None},
    # a float count loads but cannot index arrays; a NaN setting passed
    # every "<= 0" check.  json writes NaN and Infinity and reads them back
    {"encoder": {"receptive_field_count": 6.0}},
    {"input_count": 12.0},
    {"class_count": 3.0},
    {"simulation": {"tau": math.nan}},
    {"simulation": {"tau": math.inf}},
    {"simulation": {"dt": math.nan}},
    {"simulation": {"dt": math.inf}},
    {"simulation": {"dt": 1e-4}},
    {"simulation": {"t_max": math.nan}},
    {"simulation": {"t_max": math.inf}},
    {"sigma": math.inf},
    {"sigma": math.inf, "neurons": [None, None, None]},
    {"spike_interval": math.nan, "encoder": None},
], ids=["fewer_fields", "more_fields", "two_fields_negative_overlap", "zero_overlap",
        "inf_overlap",
        "cutoff_one", "other_spike_interval", "empty_feature_range", "negative_inputs",
        "float_field_count", "float_input_count", "float_class_count", "nan_tau", "inf_tau",
        "nan_dt", "inf_dt", "off_tick_dt", "nan_t_max", "inf_t_max", "inf_sigma",
        "inf_sigma_no_neurons", "nan_spike_interval"])
def test_load_model_rejects_encoder_block_that_does_not_fit(changes, tmp_path):
    doc = json.loads((DATA / "model-v1.json").read_text())
    for key, value in changes.items():
        if isinstance(value, dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_model(path)


# Run by test_sizes_read_from_a_file_are_bounded_before_any_allocation in a
# child process whose address space is capped at argv[1] MiB, so that a size
# check that goes missing ends in a quick MemoryError: each checkpoint is
# loaded and one row predicted, and a config is handed to `sefm train`.
_LIMITS_CHILD = r"""
import contextlib, io, json, resource, sys, tempfile
from pathlib import Path

cap = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from sefm import cli
from sefm.dynamics import MAX_CELLS, load_model
from sefm.encoding import SpikePattern
from sefm.errors import InputError
from sefm.training import predict

LIVE = [{"class_label": 0, "threshold": 0.5, "synapses": [[[1.0, 0.8]]]}]


def checkpoint(classes, inputs, t_max=8.0, neurons=None):
    return {"format": "sefm-model/1", "sigma": 1.0, "spike_interval": 3.0,
            "simulation": {"tau": 3.0, "t_max": t_max, "dt": 0.01},
            "input_count": inputs, "class_count": classes,
            "neurons": neurons or [None] * classes, "encoder": None}


CASES = {"cells_over": (checkpoint(2**15, 2**15), 2**15),
         "cells_at": (checkpoint(1, MAX_CELLS), MAX_CELLS),
         "row_over": (checkpoint(1, 1, t_max=1e7, neurons=LIVE), 1),
         "row_at": (checkpoint(1, 1, t_max=2097.0, neurons=LIVE), 1)}
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, (doc, width) in CASES.items():
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(doc))
        out[name + "_bytes"] = path.stat().st_size
        try:
            net, _ = load_model(path)
            out[name] = predict(net, [SpikePattern(width, [0], [1.0])]).tolist()
        except (InputError, MemoryError) as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
    for name, fields in (("config", {"t_max": 1e7}),
                         ("fields", {"receptive_field_count": 2**20})):
        config = Path(tmp) / f"{name}.json"
        config.write_text(json.dumps(fields))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(["train", "--dataset", "iris", "--config", str(config),
                             "--output-dir", tmp])
        out[name] = [code, stderr.getvalue()]
print(json.dumps(out))
"""


def test_sizes_read_from_a_file_are_bounded_before_any_allocation():
    """A 196 KB checkpoint that declares 2**15 classes and 2**15 inputs,
    every neuron null, once loaded and asked for one row, took 8 GiB
    for one sampled column; one whose t_max is 1e7 ms would compute a
    kernel row of 2e10 values.  Both now raise InputError naming the limit
    they exceed, and a config with that t_max exits 2 naming it, all
    under a 1 GiB address space.  So does a config of 2**20 receptive
    fields, whose iris encoding once asked for 2.34 GiB: `sefm train`
    checks MAX_CELLS before it encodes.  A model at each limit loads and
    predicts within it."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _LIMITS_CHILD, "1024"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["cells_over_bytes"] < 200_000
    assert out["cells_over"].startswith("InputError") and \
        f"MAX_CELLS = {MAX_CELLS:,}" in out["cells_over"], out["cells_over"]
    assert out["row_over"].startswith("InputError") and \
        f"MAX_KERNEL_ROW = {MAX_KERNEL_ROW:,}" in out["row_over"], out["row_over"]
    assert out["cells_at"] == out["row_at"] == [0]
    code, stderr = out["config"]
    assert code == 2 and f"MAX_KERNEL_ROW = {MAX_KERNEL_ROW:,}" in stderr, stderr
    code, stderr = out["fields"]
    assert code == 2 and f"MAX_CELLS = {MAX_CELLS:,}" in stderr, stderr
    assert SimulationConfig(t_max=2097.0).kernel_row() <= MAX_KERNEL_ROW


@pytest.mark.parametrize("s", [SimulationConfig(), SimulationConfig(t_max=0.02),
                               SimulationConfig(tau=0.3, t_max=0.5), SimulationConfig(dt=0.02),
                               SimulationConfig(dt=10.0)],
                         ids=["default", "t_max-0.02", "tau-0.3-t_max-0.5", "dt-0.02", "dt-10"])
def test_kernel_row_is_the_length_of_the_responses_base(s):
    """``kernel_row`` counts exactly the values ``responses`` computes."""
    base = responses(s)
    while base.base is not None:
        base = base.base
    assert base.size == s.kernel_row()


def test_kernel_row_limit_is_checked_without_overflow():
    """A t_max or dt so large that its tick count overflows a float, or
    whose row is one value over the limit, is a ConfigError naming
    MAX_KERNEL_ROW; the largest t_max under it is not."""
    for kwargs in ({"t_max": 1e306}, {"dt": 1e306}, {"t_max": 1e7}):
        with pytest.raises(ConfigError, match="MAX_KERNEL_ROW"):
            SimulationConfig(**kwargs)
    # t_max = K ticks with dt = 1 tick gives a row of 2K + 1 values
    half = (MAX_KERNEL_ROW - 1) // 2
    assert SimulationConfig(t_max=half * TIME_QUANTUM, dt=TIME_QUANTUM).kernel_row() \
        == 2 * half + 1 <= MAX_KERNEL_ROW
    with pytest.raises(ConfigError, match="MAX_KERNEL_ROW"):
        SimulationConfig(t_max=(half + 1) * TIME_QUANTUM, dt=TIME_QUANTUM)
