"""Kernel, weight sampling, potentials, firing, model serialization."""

import json
import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import sefm.dynamics as dynamics
from sefm.dynamics import (
    Network,
    OutputNeuron,
    ResponseTable,
    SimulationConfig,
    _epsilon_consuming,
    epsilon,
    load_model,
    model_from_dict,
    model_to_dict,
    model_to_json_bytes,
    response_matrix,
    save_model,
)
from sefm.encoding import TIME_QUANTUM, SpikePattern, fit_ranges, spike_time_matrix
from sefm.errors import ConfigError, InputError

from conftest import all_terms, random_neuron, random_pattern, scalar_weight, terms_of
from oracles import add_terms as reference_add_terms
from oracles import evaluate_pattern, fire_time, potential, sample_weights


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
    neuron = OutputNeuron(0, 2, sigma=0.5)
    neuron.add_terms([1], [1.0], [0.5])
    # one width from center: amplitude * exp(-1/2)
    assert sample_at(neuron, 1, 1.5) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)
    assert sample_at(neuron, 1, 1.5) == pytest.approx(0.303265, abs=5e-7)
    assert sample_at(neuron, 1, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert sample_at(neuron, 0, 1.0) == 0.0


def test_empty_efficacy_samples_zero():
    neuron = OutputNeuron(0, 3, sigma=1.0)
    assert sample_at(neuron, 2, 1.7) == 0.0
    assert neuron.amplitudes.size == 0
    assert terms_of(neuron, 2) == []


def test_terms_merge_at_same_quantized_center():
    neuron = OutputNeuron(0, 2, sigma=1.0)
    neuron.add_terms([0], [0.25], [0.4])
    neuron.add_terms([0, 0], [0.25, 0.2504], [0.1, -0.2])  # 0.2504 snaps to 0.250
    assert neuron.amplitudes.size == 1
    assert terms_of(neuron, 0) == [(0.25, pytest.approx(0.3))]
    # merged in arrival order, exactly as sequential float additions
    assert neuron.amplitudes[0] == (0.4 + 0.1) + -0.2


def test_terms_sorted_by_input_then_center(rng):
    neuron = OutputNeuron(0, 5, sigma=1.0)
    for _ in range(6):
        k = int(rng.integers(1, 6))
        neuron.add_terms(rng.integers(0, 5, size=k), rng.integers(0, 3001, size=k) * 0.001,
                         rng.normal(size=k))
    keys = list(zip(neuron.inputs.tolist(), neuron.centers.tolist()))
    assert keys == sorted(set(keys))


def test_add_terms_rejects_unknown_input():
    neuron = OutputNeuron(0, 2, sigma=1.0)
    with pytest.raises(InputError):
        neuron.add_terms([2], [0.5], [1.0])


@pytest.mark.parametrize("center, amplitude", [(np.nan, 1.0), (5e6, 1.0), (0.5, np.inf)],
                         ids=["nan-center", "center-past-31-bits", "inf-amplitude"])
def test_add_terms_rejects_a_term_its_key_cannot_hold(center, amplitude):
    """A NaN center would be stored at about -9.2e15 ms, and a 5e6 ms center
    on input 0 (tick 5e9 >= 2**31) would sort after input 1's terms, so
    ``synapses()`` would file input 1's term under input 0."""
    neuron = OutputNeuron(0, 2, sigma=1.0)
    neuron.add_terms([1], [0.5], [0.25])
    with pytest.raises(InputError):
        neuron.add_terms([0], [center], [amplitude])
    assert neuron.synapses() == [[], [[0.5, 0.25]]]


def _term_bytes(neuron) -> tuple[bytes, bytes, bytes]:
    return neuron.inputs.tobytes(), neuron.centers.tobytes(), neuron.amplitudes.tobytes()


def test_add_terms_equals_the_sort_everything_reference_bitwise(rng):
    """Random call sequences leave the same inputs, centers and amplitude bits.

    Keys come from a small (input, tick) space, so calls repeat keys
    within themselves and hit stored ones; some terms cancel a stored
    amplitude or each other to 0, some amplitudes are -0.0, some calls
    are empty, and half the sequences open with a checkpoint-shaped load
    of sorted distinct keys.
    """
    seen = dict(repeat=0, present=0, cancel=0, negzero=0, empty=0, load=0)
    for _ in range(80):
        n = int(rng.integers(1, 5))
        fast, slow = OutputNeuron(0, n, sigma=1.0), OutputNeuron(0, n, sigma=1.0)
        calls = []
        if rng.random() < 0.5:
            keys = sorted(set(zip(rng.integers(0, n, 12).tolist(),
                                  rng.integers(0, 30, 12).tolist())))
            amps = rng.normal(size=len(keys))
            amps[rng.integers(0, len(keys))] = -0.0
            calls.append(([i for i, _ in keys], [t * TIME_QUANTUM for _, t in keys], amps))
            seen["load"] += 1
        for _ in range(int(rng.integers(3, 9))):
            k = int(rng.integers(0, 6))
            ids = rng.integers(0, n, k).tolist()
            ticks = rng.integers(0, 30, k).tolist()
            amps = rng.normal(size=k).tolist()
            if k and rng.random() < 0.3:  # cancels within the call
                ids.append(ids[0])
                ticks.append(ticks[0])
                amps.append(-amps[0])
            if fast.amplitudes.size and rng.random() < 0.3:  # cancels a stored term
                t = int(rng.integers(0, fast.amplitudes.size))
                ids.append(int(fast.inputs[t]))
                ticks.append(int(round(fast.centers[t] / TIME_QUANTUM)))
                amps.append(-float(fast.amplitudes[t]))
            if ids and rng.random() < 0.3:
                amps[int(rng.integers(0, len(amps)))] = -0.0
            calls.append((ids, [t * TIME_QUANTUM for t in ticks], amps))
            stored = set(zip(fast.inputs.tolist(),
                             np.rint(fast.centers / TIME_QUANTUM).astype(int).tolist()))
            keys = list(zip(ids, ticks))
            seen["repeat"] += len(set(keys)) < len(keys)
            seen["present"] += any(key in stored for key in keys)
            seen["empty"] += not keys
            for ids, centers, amps in calls:
                fast.add_terms(ids, centers, amps)
                reference_add_terms(slow, ids, centers, amps)
                assert _term_bytes(fast) == _term_bytes(slow)
                seen["negzero"] += any(math.copysign(1.0, a) < 0 and a == 0 for a in amps)
            seen["cancel"] += int((fast.amplitudes == 0.0).sum())
            calls = []
    assert all(seen.values()), seen


def test_sample_is_sum_of_gaussians(rng):
    neuron = OutputNeuron(0, 1, sigma=0.8)
    for _ in range(6):
        neuron.add_terms([0], [float(rng.uniform(0, 3))], [float(rng.normal())])
    merged = terms_of(neuron, 0)
    for t in rng.uniform(-1, 4, size=20):
        brute = sum(a * math.exp(-0.5 * ((t - c) / 0.8) ** 2) for c, a in merged)
        assert sample_at(neuron, 0, float(t)) == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_sigma_must_be_positive():
    with pytest.raises(ConfigError):
        OutputNeuron(0, 3, sigma=0.0)


def test_huge_sigma_gives_constant_weight(rng):
    neuron = OutputNeuron(0, 1, sigma=1e6)
    for _ in range(5):
        neuron.add_terms([0], [float(rng.uniform(0, 3))], [float(rng.normal())])
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


def test_sample_rows_equal_per_pattern_sampling(rng):
    neuron = random_neuron(rng, max_terms=6)
    patterns = [random_pattern(rng, neuron_count=neuron.input_count) for _ in range(40)]
    rows = neuron.sample_rows(spike_time_matrix(patterns, neuron.input_count))
    for row, pattern in zip(rows, patterns):
        alone = neuron.sample_weights(pattern.neuron_ids, pattern.times)
        assert row[pattern.neuron_ids].tobytes() == alone.tobytes()


def test_sampling_empty_inputs():
    neuron = OutputNeuron(0, 4, sigma=1.0)
    assert neuron.sample_weights(np.zeros(0, dtype=np.int64), np.zeros(0)).size == 0
    out = neuron.sample_weights(np.array([1, 2]), np.array([0.5, 1.0]))
    assert np.array_equal(out, np.zeros(2))


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
    neuron = OutputNeuron(0, 1, sigma=0.5, threshold=threshold)
    neuron.add_terms([0], [0.0], [1.0])
    return neuron


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
        neuron.threshold = lo
        t_lo = fire_time(neuron, pattern, s)
        neuron.threshold = hi
        t_hi = fire_time(neuron, pattern, s)
        if t_hi is not None:
            assert t_lo is not None and t_lo <= t_hi


def test_response_matrix_shape_and_content(rng):
    s = sim()
    pattern = random_pattern(rng, neuron_count=6, max_spikes=5)
    m = response_matrix(pattern, s)
    grid = s.grid()
    assert m.shape == (pattern.spike_count, grid.size)
    if pattern.spike_count:
        k = pattern.spike_count - 1
        assert m[k, -1] == pytest.approx(float(epsilon(grid[-1] - pattern.times[k], s.tau)))


def direct_response(times, s):
    """Oracle for the table: the kernel of every (spike, grid time) pair at once."""
    times = np.asarray(times, dtype=np.float64)
    return _epsilon_consuming(s.grid()[None, :] - times[:, None], s.tau)


def test_response_table_rows_equal_direct_kernel_across_fills_and_growth(rng):
    s = sim()
    last = round(s.t_max / TIME_QUANTUM)
    ticks = np.concatenate([[0, last], rng.integers(0, last + 1, size=700)])
    forward, backward = ResponseTable(s), ResponseTable(s)
    handed_out = {}
    for part in np.array_split(ticks, 9):  # uneven calls, repeats inside and across
        times = part * TIME_QUANTUM
        rows = forward.indices(times)
        assert forward.gather(rows).tobytes() == direct_response(times, s).tobytes()
        for tick, row in zip(part.tolist(), rows.tolist()):
            assert handed_out.setdefault(tick, row) == row
    for part in np.array_split(ticks[::-1], 4):
        backward.matrix(part * TIME_QUANTUM)
    seen = np.array(sorted(handed_out))
    assert forward.matrix(seen * TIME_QUANTUM).tobytes() == \
        backward.matrix(seen * TIME_QUANTUM).tobytes() == \
        direct_response(seen * TIME_QUANTUM, s).tobytes()
    # rows never move: every index handed out before the growth still reads its tick
    assert forward.indices(seen * TIME_QUANTUM).tolist() == [handed_out[t] for t in seen]
    assert forward.gather(np.arange(len(seen))).shape == (len(seen), s.grid().size)


def test_response_table_stores_each_tick_once_up_to_t_max():
    s = SimulationConfig(tau=0.3, t_max=0.5, dt=0.01)
    table = ResponseTable(s)
    every = np.arange(round(s.t_max / TIME_QUANTUM) + 1) * TIME_QUANTUM
    for part in (every[::3], every, every[::-1]):
        table.matrix(part)
    assert len(table._rows) == table._count == every.size
    assert table.matrix(every).tobytes() == direct_response(every, s).tobytes()
    with pytest.raises(InputError, match="t_max"):
        table.indices(np.array([0.2, s.t_max + TIME_QUANTUM]))
    assert table.matrix(np.zeros(0)).shape == (0, s.grid().size)


def test_response_matrix_rejects_a_spike_after_t_max():
    s = sim()
    late = SpikePattern(neuron_count=2, neuron_ids=[0, 1], times=[1.0, s.t_max + 0.5])
    with pytest.raises(InputError, match="t_max"):
        response_matrix(late, s)
    at_end = SpikePattern(neuron_count=1, neuron_ids=[0], times=[s.t_max])
    assert response_matrix(at_end, s).tobytes() == direct_response([s.t_max], s).tobytes()


def test_threads_predicting_on_a_cold_table_get_the_serial_labels(rng, monkeypatch):
    from sefm.training import predict
    net = Network(3, 12, 0.5, sim(), 3.0)
    for j in range(3):
        net.neurons[j] = random_neuron(rng, input_count=12, class_label=j)
    patterns = [random_pattern(rng, neuron_count=12, max_spikes=12) for _ in range(150)]
    monkeypatch.setattr(dynamics, "_TABLES", {})
    serial = predict(net, patterns).tolist()
    monkeypatch.setattr(dynamics, "_TABLES", {})
    orders = [rng.permutation(len(patterns)) for _ in range(4)]  # more threads than cores
    labels = [[None] * len(patterns) for _ in orders]

    def work(k):
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
    table = dynamics._TABLES[net.sim]
    times = np.unique(np.concatenate([p.times for p in patterns]))
    assert table._count == times.size
    assert table.matrix(times).tobytes() == direct_response(times, net.sim).tobytes()


def test_simulation_grid_endpoints():
    g = sim().grid()
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(8.0)
    assert g.size == 801


def test_simulation_config_validation():
    with pytest.raises(ConfigError):
        SimulationConfig(tau=0.0)
    with pytest.raises(ConfigError):
        SimulationConfig(dt=-0.1)


# --- network ------------------------------------------------------------------

def make_network(rng, classes=3, inputs=10, sigma=0.6):
    net = Network(classes, inputs, sigma, sim(), spike_interval=3.0)
    for j in range(classes):
        net.neurons[j] = random_neuron(rng, input_count=inputs, sigma=sigma,
                                       class_label=j)
    return net


def test_network_validation():
    with pytest.raises(ConfigError):
        Network(0, 4, 1.0, sim(), spike_interval=3.0)
    with pytest.raises(ConfigError):
        Network(2, 0, 1.0, sim(), spike_interval=3.0)
    with pytest.raises(ConfigError):
        Network(2, 4, 1.0, SimulationConfig(t_max=3.0), spike_interval=3.0)


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
    net = make_network(rng)
    net.neurons[1] = None
    pattern = random_pattern(rng, neuron_count=net.input_count, max_spikes=5)
    activity = evaluate_pattern(net, pattern)
    assert math.isnan(activity.fire_times[1])
    assert activity.peaks[1] == -math.inf


def test_evaluate_pattern_kernel_matches_crossings(rng):
    """Training's one-pattern kernel returns each live neuron's first index
    at or above its threshold and its peak; firing iff the peak reaches the
    threshold, at index times dt, gives ``crossings``' activity bit for bit."""
    net = make_network(rng)
    net.neurons[1] = None
    live = np.array([n is not None for n in net.neurons])
    thresholds = np.array([n.threshold for n in net.neurons if n is not None])
    fired_any = []
    for _ in range(20):
        pattern = random_pattern(rng, neuron_count=net.input_count, max_spikes=6)
        weights = sample_weights(net, pattern)[live]
        first, top = net.evaluate_pattern(weights, response_matrix(pattern, net.sim), thresholds)
        fired = top >= thresholds
        activity = evaluate_pattern(net, pattern)
        assert activity.peaks[live].tobytes() == top.tobytes()
        assert (activity.fire_times[live].tobytes()
                == np.where(fired, first * net.sim.dt, np.nan).tobytes())
        assert (first[~fired] == 0).all()
        fired_any.append(fired.any())
    assert any(fired_any) and not all(fired_any)


def test_evaluate_pattern_given_weights_match_fresh(rng):
    net = make_network(rng)
    net.neurons[0] = None
    for _ in range(10):
        pattern = random_pattern(rng, neuron_count=net.input_count, max_spikes=6)
        plain = evaluate_pattern(net, pattern)
        given = evaluate_pattern(net, pattern, sample_weights(net, pattern),
                                 eps_matrix=response_matrix(pattern, net.sim))
        assert np.array_equal(plain.peaks, given.peaks, equal_nan=True)
        assert np.array_equal(plain.fire_times, given.fire_times, equal_nan=True)


# --- serialization -------------------------------------------------------------

def test_model_round_trip_exact(rng, tmp_path):
    net = make_network(rng)
    net.neurons[2] = None
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


@pytest.mark.parametrize("mutate", [
    _drop_key, _extra_synapse, _missing_synapse, _extra_neuron, _missing_neuron,
    _relabeled_neuron, _float_class_label, _non_finite_value, _center_outside_window,
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


# model-v1.json has 2 features x 6 fields = 12 inputs over a 3 ms interval.
@pytest.mark.parametrize("changes", [
    {"encoder": {"receptive_field_count": 5}},
    {"encoder": {"receptive_field_count": 7}},
    {"encoder": {"receptive_field_count": 2, "overlap": -1.0}},
    {"encoder": {"overlap": 0.0}},
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
    {"simulation": {"t_max": math.nan}},
    {"simulation": {"t_max": math.inf}},
    {"sigma": math.inf},
    {"sigma": math.inf, "neurons": [None, None, None]},
    {"spike_interval": math.nan, "encoder": None},
], ids=["fewer_fields", "more_fields", "two_fields_negative_overlap", "zero_overlap",
        "cutoff_one", "other_spike_interval", "empty_feature_range", "negative_inputs",
        "float_field_count", "float_input_count", "float_class_count", "nan_tau", "inf_tau",
        "nan_dt", "inf_dt", "nan_t_max", "inf_t_max", "inf_sigma", "inf_sigma_no_neurons",
        "nan_spike_interval"])
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
