"""Update rule math: normalization, shares, deltas, apply, initialization."""

import math
from dataclasses import fields

import numpy as np
import pytest

from sefm.dynamics import SimulationConfig, epsilon
from sefm.encoding import TIME_QUANTUM, SpikePattern
from sefm.errors import InputError
from sefm.learning import (
    NoEligibleSpikes,
    SampledWeights,
    apply_update,
    compute_update,
    excess,
    initialize,
    momentary_deltas,
)

from conftest import all_terms, network_of, random_neuron, random_pattern, scalar_weight, terms_of
from oracles import add_terms, fire_time, modulation_factors, neurons, potential, update_step

SIM = SimulationConfig(tau=3.0, t_max=8.0, dt=0.01)


def pattern_of(ids, times, n=12):
    return SpikePattern(neuron_count=n, neuron_ids=ids, times=times)


def normalized_psp(times, t_hat):
    """Normalized responses u at t_hat of spikes at ``times``, one per input,
    as training computes them: ``compute_update(...).normalized``."""
    pattern = pattern_of(np.arange(len(times)), times)
    neuron = neurons(network_of(12, [(0.0, [], [], [])], sigma=0.5, sim=SIM))[0]
    return compute_update(neuron.network, neuron.class_label, pattern, t_hat).normalized


# --- normalized kernel responses -------------------------------------------

def test_normalized_psp_frozen_two_spike_example():
    # spikes at 0.5 and 1.0 ms, reference 2.0 ms, tau 3:
    # eps(1.5) = 0.5 e^0.5, eps(1.0) = (1/3) e^(2/3); u is their share.
    e1 = 0.5 * math.exp(0.5)
    e2 = (1.0 / 3.0) * math.exp(2.0 / 3.0)
    u = normalized_psp([0.5, 1.0], 2.0)
    assert u[0] == pytest.approx(e1 / (e1 + e2), rel=1e-14)
    assert u[1] == pytest.approx(e2 / (e1 + e2), rel=1e-14)
    assert u[0] == pytest.approx(0.559418, abs=5e-7)
    assert u[1] == pytest.approx(0.440582, abs=5e-7)


def test_normalized_psp_single_spike_is_one():
    u = normalized_psp([0.25], 2.0)
    assert u[0] == 1.0


def test_normalized_psp_equal_times_split_evenly():
    u = normalized_psp([0.75, 0.75], 2.0)
    assert np.allclose(u, [0.5, 0.5], rtol=0, atol=1e-15)


def test_normalized_psp_ineligible_spikes_get_zero():
    u = normalized_psp([0.5, 2.0, 2.5], 2.0)
    assert u[0] == 1.0
    assert u[1] == 0.0 and u[2] == 0.0


def test_normalized_psp_no_eligible_raises():
    with pytest.raises(NoEligibleSpikes):
        normalized_psp([2.0, 3.0], 2.0)
    with pytest.raises(NoEligibleSpikes):
        normalized_psp([], 2.0)


def test_normalized_psp_sums_to_one_fuzz(rng):
    for _ in range(300):
        n = int(rng.integers(1, 12))
        times = np.round(rng.uniform(0.0, 3.0, size=n), 3)  # on the spike-time grid
        t_hat = float(rng.uniform(0.0, 8.0))
        if not (times < t_hat).any():
            continue
        u = normalized_psp(times, t_hat)
        assert abs(u.sum() - 1.0) <= 1e-12
        assert (u >= 0).all()


# --- excess and shares -------------------------------------------------------

def test_excess_clamps_at_zero():
    u = np.array([0.3, 0.5, 0.2])
    w = np.array([0.5, 0.2, 0.2])
    assert np.array_equal(excess(u, w), [0.0, 0.3, 0.0])


def test_excess_strict_inequality_at_tie():
    assert excess(np.array([0.4]), np.array([0.4]))[0] == 0.0


def test_modulation_single_positive_excess_takes_all():
    z = np.array([0.0, 0.7, 0.0])
    eps_vals = np.array([0.5, 0.6, 0.7])
    u = np.array([0.2, 0.5, 0.3])
    m = modulation_factors(z, eps_vals, u)
    assert np.array_equal(m, [0.0, 1.0, 0.0])


def test_modulation_fallback_returns_u_copy():
    u = np.array([0.6, 0.4])
    m = modulation_factors(np.zeros(2), np.array([0.5, 0.5]), u)
    assert np.array_equal(m, u)
    m[0] = 99.0
    assert u[0] == 0.6  # fallback must not alias u


def test_modulation_sums_to_one_fuzz(rng):
    for _ in range(300):
        n = int(rng.integers(1, 10))
        u = rng.dirichlet(np.ones(n))
        w = rng.uniform(-0.5, 1.0, size=n)
        eps_vals = rng.uniform(0.01, 1.0, size=n)
        m = modulation_factors(excess(u, w), eps_vals, u)
        assert abs(m.sum() - 1.0) <= 1e-12
        assert (m >= 0).all()


# --- momentary deltas ----------------------------------------------------------

def test_deltas_zero_when_gap_zero():
    m = np.array([0.3, 0.7])
    eps_vals = np.array([0.4, 0.9])
    assert np.array_equal(momentary_deltas(m, 0.0, eps_vals), [0.0, 0.0])


def test_deltas_zero_share_stays_zero_even_with_zero_eps():
    # ineligible spike: share 0 and response 0; no 0/0 may leak through
    m = np.array([1.0, 0.0])
    eps_vals = np.array([0.8, 0.0])
    d = momentary_deltas(m, 0.4, eps_vals)
    assert d[1] == 0.0
    assert np.isfinite(d).all()


def test_deltas_induce_exactly_dv_fuzz(rng):
    for _ in range(500):
        n = int(rng.integers(1, 10))
        u = rng.dirichlet(np.ones(n))
        w = rng.uniform(-0.5, 1.0, size=n)
        eps_vals = rng.uniform(0.01, 1.0, size=n)
        dv = float(rng.normal(0, 0.8))
        m = modulation_factors(excess(u, w), eps_vals, u)
        d = momentary_deltas(m, dv, eps_vals)
        assert float(d @ eps_vals) == pytest.approx(dv, rel=1e-9, abs=1e-12)


def test_delta_sign_follows_gap(rng):
    for _ in range(200):
        n = int(rng.integers(1, 8))
        u = rng.dirichlet(np.ones(n))
        eps_vals = rng.uniform(0.01, 1.0, size=n)
        m = modulation_factors(excess(u, rng.uniform(0, 1, n)), eps_vals, u)
        up = momentary_deltas(m, 0.7, eps_vals)
        down = momentary_deltas(m, -0.7, eps_vals)
        assert (up >= 0).all()
        assert (down <= 0).all()


# --- compute_update -------------------------------------------------------------

def test_compute_update_identity_and_shapes(rng):
    for _ in range(100):
        neuron = random_neuron(rng)
        pattern = random_pattern(rng, neuron_count=neuron.input_count, max_spikes=6)
        eligible_before = 1.2
        if pattern.spike_count == 0 or not (pattern.times < eligible_before).any():
            continue
        step = compute_update(neuron.network, neuron.class_label, pattern, eligible_before)
        assert step.deltas.shape == pattern.times.shape
        assert float(step.deltas @ step.eps_vals) == pytest.approx(step.dv, rel=1e-9, abs=1e-12)
        assert abs(step.normalized.sum() - 1.0) <= 1e-12
        assert abs(step.shares.sum() - 1.0) <= 1e-12


def test_compute_update_accepts_cached_weights(rng):
    neuron = random_neuron(rng)
    pattern = pattern_of([0, 1, 2], [0.2, 0.8, 1.4], n=neuron.input_count)
    w = neuron.sample_weights(pattern.neuron_ids, pattern.times)
    a = compute_update(neuron.network, neuron.class_label, pattern, 2.0)
    b = compute_update(neuron.network, neuron.class_label, pattern, 2.0, weights=w)
    assert np.array_equal(a.deltas, b.deltas)
    assert a.dv == b.dv


def test_compute_update_raises_without_eligible_spikes(rng):
    neuron = random_neuron(rng)
    pattern = pattern_of([0, 1], [2.5, 2.9], n=neuron.input_count)
    with pytest.raises(NoEligibleSpikes):
        compute_update(neuron.network, neuron.class_label, pattern, 2.5)


def test_fallback_flag_set_when_weights_cover_responses():
    # all momentary weights far above u -> every excess clamps to zero
    neuron = neurons(network_of(3, [(0.4, [0, 1], [0.5, 1.0], [5.0, 5.0])], sigma=0.5))[0]
    pattern = pattern_of([0, 1], [0.5, 1.0], n=3)
    step = compute_update(neuron.network, neuron.class_label, pattern, 2.0)
    assert step.used_fallback
    assert np.array_equal(step.shares, step.normalized)
    assert float(step.deltas @ step.eps_vals) == pytest.approx(step.dv, rel=1e-9)


def _step_fields(step) -> dict:
    return {f.name: getattr(step, f.name) for f in fields(step)}


def test_update_step_equals_the_separate_formulas_bitwise(rng):
    """Every UpdateStep field of ``compute_update``, which shares its
    weighted excess, fallback sum and masked division, has the bits the
    separate formulas of the ``update_step`` oracle give, over random
    networks, patterns, reference times and momentary weights: sampled
    ones, ones above every normalized response (the fallback) and mixed
    signs.  Both raise NoEligibleSpikes for the same draws."""
    seen = dict(fallback=0, shared=0, ineligible=0)
    for _ in range(400):
        neuron = random_neuron(rng, sigma=float(rng.uniform(0.05, 2.0)))
        net, j = neuron.network, neuron.class_label
        pattern = random_pattern(rng, neuron_count=neuron.input_count, max_spikes=8)
        t_hat = float(rng.uniform(0.0, 3.0))
        weights = [neuron.sample_weights(pattern.neuron_ids, pattern.times),
                   np.full(pattern.spike_count, 5.0),
                   rng.normal(0.0, 0.5, pattern.spike_count)][int(rng.integers(0, 3))]
        try:
            expected = update_step(net, j, pattern, t_hat, weights)
        except NoEligibleSpikes:
            with pytest.raises(NoEligibleSpikes):
                compute_update(net, j, pattern, t_hat, weights=weights)
            seen["ineligible"] += 1
            continue
        got = _step_fields(compute_update(net, j, pattern, t_hat, weights=weights))
        assert got.keys() == expected.keys()
        for name, want in expected.items():
            if isinstance(want, np.ndarray):
                assert got[name].dtype == want.dtype and got[name].tobytes() == want.tobytes()
            else:
                assert type(got[name]) is type(want) and got[name] == want, name
        assert math.copysign(1.0, got["dv"]) == math.copysign(1.0, expected["dv"])
        seen["fallback" if got["used_fallback"] else "shared"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("spoil", ["nan-delta", "inf-delta", "input-past-the-network",
                                   "class-below", "class-past", "tick-past-31-bits"])
def test_apply_update_rejects_what_add_terms_rejects_and_changes_nothing(spoil):
    """``apply_update`` adds a pattern's terms on its own sorted keys, and
    still raises InputError for every term the oracle merge ``add_terms``
    rejects that a pattern does not rule out, before it changes the network
    or the sampled weights."""
    net = network_of(6, [(0.8, [0, 2], [0.5, 1.0], [0.3, 0.2]), None], sigma=0.5, sim=SIM)
    pattern = pattern_of([0, 2, 5], [0.5, 1.0, 1.2], n=6)
    sampled = SampledWeights([pattern], net)
    j = {"class-below": -1, "class-past": 2}.get(spoil, 0)
    if spoil == "input-past-the-network":
        pattern, sampled = pattern_of([0, 2, 6], [0.5, 1.0, 1.2], n=7), None
    if spoil == "tick-past-31-bits":  # 3e6 ms is tick 3e9 >= 2**31: no pattern holds it
        with pytest.raises(InputError, match="2\\*\\*31 ticks"):
            pattern_of([0, 2, 5], [0.5, 1.0, 3e6], n=6)
        return
    t_hat = float(pattern.times.max()) + 1.0
    step = compute_update(net, 0, pattern, t_hat, weights=np.zeros(3))
    if spoil.endswith("delta"):
        step.deltas[1] = np.nan if spoil == "nan-delta" else np.inf
    before = [a.tobytes() for a in (net.keys, net.centers, net.amplitudes, net.thresholds,
                                    net.initialized)]
    values = None if sampled is None else sampled.values.tobytes()
    with pytest.raises(InputError):
        add_terms(net, j, step.neuron_ids, step.ticks * TIME_QUANTUM, 0.1 * step.deltas)
    with pytest.raises(InputError):
        apply_update(net, j, step, 0.1, sampled)
    assert [a.tobytes() for a in (net.keys, net.centers, net.amplitudes, net.thresholds,
                                  net.initialized)] == before
    assert values is None or sampled.values.tobytes() == values


# --- apply_update ----------------------------------------------------------------

def test_apply_adds_scaled_gaussians_at_spike_centers(rng):
    neuron = random_neuron(rng, sigma=0.4)
    pattern = pattern_of([2, 5, 7], [0.25, 0.75, 1.25], n=neuron.input_count)
    before = [terms_of(neuron, i) for i in range(neuron.input_count)]
    step = compute_update(neuron.network, neuron.class_label, pattern, 2.0)
    added = apply_update(neuron.network, 0, step, learning_rate=0.1)
    assert added == int(np.count_nonzero(0.1 * step.deltas))
    grid = np.linspace(0.0, 3.0, 31)
    for k, (i, c) in enumerate(zip(pattern.neuron_ids, pattern.times)):
        base = before[i]
        for t in grid:
            old = sum(a * math.exp(-0.5 * ((t - cc) / 0.4) ** 2) for cc, a in base)
            gauss = math.exp(-0.5 * ((t - c) / 0.4) ** 2)
            expected = old + 0.1 * step.deltas[k] * gauss
            assert scalar_weight(neuron, i, float(t)) == pytest.approx(
                expected, rel=1e-12, abs=1e-12)


def test_apply_zero_step_leaves_neuron_untouched(rng):
    neuron = random_neuron(rng)
    pattern = pattern_of([0, 1], [0.5, 1.0], n=neuron.input_count)
    step = compute_update(neuron.network, neuron.class_label, pattern, 2.0)
    step.deltas[:] = 0.0
    terms0 = all_terms(neuron)
    threshold0 = neuron.threshold
    assert apply_update(neuron.network, 0, step, 0.1) == 0
    assert all_terms(neuron) == terms0
    assert neuron.threshold == threshold0


def test_apply_full_rate_closes_gap_when_spikes_are_far_apart():
    # distinct input neurons and a tiny sigma: each spike's weight change
    # equals its delta exactly, so v(t_hat) lands on the threshold.
    neuron = neurons(network_of(4, [(0.9, [0, 1, 2], [0.2, 0.9, 1.6], [0.2, 0.1, 0.3])],
                                sigma=0.005))[0]
    pattern = pattern_of([0, 1, 2], [0.2, 0.9, 1.6], n=4)
    t_hat = 2.0
    step = compute_update(neuron.network, neuron.class_label, pattern, t_hat)
    apply_update(neuron.network, 0, step, learning_rate=1.0)
    assert potential(neuron, pattern, t_hat, SIM) == pytest.approx(0.9, abs=1e-9)


def test_sampled_weights_follow_every_added_term(rng):
    patterns = [random_pattern(rng, neuron_count=12) for _ in range(20)]
    net = network_of(12, [None, None], sigma=0.4, sim=SIM)
    sampled = SampledWeights(patterns, net)
    initialize(net, 1, pattern_of([3, 7], [0.5, 1.25]), 2.0, sampled)
    neuron = neurons(net)[1]
    for pattern in patterns:
        try:
            step = compute_update(net, 1, pattern, 1.5)
        except NoEligibleSpikes:
            continue
        apply_update(net, 1, step, 0.3, sampled)
    assert neuron.amplitudes.size > 2
    assert not sampled.values[0].any()
    for p, pattern in enumerate(patterns):
        fresh = neuron.sample_weights(pattern.neuron_ids, pattern.times)
        assert np.allclose(sampled.values[1, pattern.neuron_ids, p], fresh,
                           rtol=0, atol=1e-12)
        silent = np.setdiff1d(np.arange(12), pattern.neuron_ids)
        assert not sampled.values[1, silent, p].any()


# --- initialization ----------------------------------------------------------------

def test_initialize_threshold_equals_response_weighted_sum():
    net = network_of(5, [None], sigma=0.3, sim=SIM)
    pattern = pattern_of([0, 3], [0.5, 1.0], n=5)
    initialize(net, 0, pattern, 2.0)
    neuron = neurons(net)[0]
    e1 = 0.5 * math.exp(0.5)
    e2 = (1.0 / 3.0) * math.exp(2.0 / 3.0)
    u1, u2 = e1 / (e1 + e2), e2 / (e1 + e2)
    assert neuron.threshold == pytest.approx(u1 * e1 + u2 * e2, rel=1e-14)
    assert terms_of(neuron, 0) == [(0.5, pytest.approx(u1, rel=1e-14))]
    assert terms_of(neuron, 3) == [(1.0, pytest.approx(u2, rel=1e-14))]


def test_initialize_single_spike():
    net = network_of(2, [None, None], sigma=0.5, sim=SIM)
    pattern = pattern_of([1], [0.4], n=2)
    initialize(net, 1, pattern, 2.0)
    neuron = neurons(net)[1]
    assert terms_of(neuron, 1) == [(0.4, 1.0)]
    assert neuron.threshold == pytest.approx(float(epsilon(1.6, 3.0)), rel=1e-14)


def test_initialize_gap_is_zero_at_desired_time(rng):
    # after initialization the potential at t_hat equals the threshold
    # exactly when each input neuron spiked at most once
    for _ in range(50):
        n = int(rng.integers(1, 10))
        ids = rng.permutation(12)[:n]
        times = np.round(rng.uniform(0.0, 1.9, size=n), 3)
        net = network_of(12, [None], sigma=float(rng.uniform(0.05, 2.0)), sim=SIM)
        pattern = pattern_of(ids, times, n=12)
        initialize(net, 0, pattern, 2.0)
        neuron = neurons(net)[0]
        v = potential(neuron, pattern, 2.0, SIM)
        assert neuron.threshold - v == pytest.approx(0.0, abs=1e-12)


def test_initialize_fires_at_desired_time(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        ids = rng.permutation(12)[:n]
        times = np.round(rng.uniform(0.0, 1.5, size=n), 3)
        net = network_of(12, [None], sigma=0.5, sim=SIM)
        pattern = pattern_of(ids, times, n=12)
        initialize(net, 0, pattern, 2.0)
        neuron = neurons(net)[0]
        t = fire_time(neuron, pattern, SIM)
        assert t is not None
        # v(2.0) = threshold, so the crossing happens by then (allow one
        # grid step for float noise at the exact-equality boundary)
        assert t <= 2.01 + 1e-9


def test_initialize_ignores_ineligible_and_skips_zero_terms():
    net = network_of(4, [None], sigma=0.5, sim=SIM)
    pattern = pattern_of([0, 2], [0.5, 2.5], n=4)
    initialize(net, 0, pattern, 2.0)
    neuron = neurons(net)[0]
    assert terms_of(neuron, 0) == [(0.5, 1.0)]
    assert terms_of(neuron, 2) == []


def test_initialize_without_eligible_spikes_raises():
    net = network_of(2, [None], sigma=0.5, sim=SIM)
    pattern = pattern_of([0], [2.0], n=2)
    with pytest.raises(NoEligibleSpikes):
        initialize(net, 0, pattern, 2.0)
    assert neurons(net) == [None] and net.keys.size == 0
