"""Scheduling, per-sample branching, epoch loop, convergence, inference."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sefm.config import NetworkConfig
from sefm.data import confusion_matrix
from sefm.dynamics import epsilon, model_to_json_bytes
from sefm.encoding import SpikePattern, encode_dataset, fit_ranges
from sefm.errors import ConfigError, InputError
from sefm import learning, training
from sefm.training import (
    Outcome,
    build_network,
    accuracy_score,
    epoch_order,
    margin_window,
    on_time_deadline,
    predict,
    ref_time_correct,
    PREDICT_CHUNK,
    ref_time_wrong,
    train,
)

from conftest import all_terms, blobs_dataset, random_neuron, random_pattern
from oracles import PatternMajorSampledWeights, evaluate_pattern, process_sample


CFG = NetworkConfig(sigma=0.5)


def pattern_of(ids, times, n=4):
    return SpikePattern(neuron_count=n, neuron_ids=ids, times=times)


def empty_pattern(n=4):
    return SpikePattern(neuron_count=n, neuron_ids=np.zeros(0, dtype=np.int64),
                        times=np.zeros(0))


def two_class_net(cfg=CFG):
    """Class 0 keyed to inputs {0,1}, class 1 to inputs {2,3}."""
    net = build_network(cfg, class_count=2, input_count=4)
    a = pattern_of([0, 1], [0.3, 0.6])
    b = pattern_of([2, 3], [0.3, 0.6])
    assert process_sample(net, a, 0, cfg).outcome is Outcome.INITIALIZED
    assert process_sample(net, b, 1, cfg).outcome is Outcome.INITIALIZED
    return net, a, b


# --- scheduling functions ---------------------------------------------------

def test_on_time_deadline_quarter_of_remaining_window():
    # 2.0 + 0.25 * (3.0 - 2.0)
    assert on_time_deadline(2.0, 0.25, 3.0) == pytest.approx(2.25)


def test_margin_window_fraction_of_remaining_window():
    assert margin_window(2.0, 0.3, 3.0) == pytest.approx(0.3)
    assert margin_window(1.0, 0.3, 3.0) == pytest.approx(0.6)


def test_ref_time_correct_steps_earlier():
    assert ref_time_correct(4.0, 0.05, 2.0) == pytest.approx(3.8)
    assert ref_time_correct(8.0, 0.05, 2.0) == pytest.approx(7.6)


def test_ref_time_correct_clamped_at_desired():
    assert ref_time_correct(2.05, 0.5, 2.0) == 2.0
    assert ref_time_correct(2.0, 0.05, 2.0) == 2.0


def test_ref_time_wrong_margin_past_anchor():
    assert ref_time_wrong(2.0, 0.3, 8.0) == pytest.approx(2.3)
    assert ref_time_wrong(2.375, 0.3, 8.0) == pytest.approx(2.675)


def test_ref_time_wrong_capped_at_t_max():
    assert ref_time_wrong(7.9, 0.3, 8.0) == 8.0


# --- per-sample branches ------------------------------------------------------

def test_label_out_of_range_rejected():
    _, a, b = two_class_net()
    for bad in (2, -1):
        with pytest.raises(ConfigError):
            train([a, b, a], np.array([0, 1, bad]), CFG, 2)


def test_empty_pattern_is_no_spikes_and_no_mutation():
    net, _, _ = two_class_net()
    before = model_to_json_bytes(net)
    res = process_sample(net, empty_pattern(), 0, CFG)
    assert res.outcome is Outcome.NO_SPIKES
    assert res.updated_classes == ()
    assert res.predicted is None
    assert model_to_json_bytes(net) == before


def test_initialization_fires_at_desired_time():
    net, a, _ = two_class_net()
    activity = evaluate_pattern(net, a)
    assert activity.fire_times[0] == pytest.approx(CFG.desired_time, abs=CFG.dt + 1e-9)


def test_initialization_with_no_eligible_spike_waits():
    cfg = CFG
    net = build_network(cfg, class_count=1, input_count=2)
    late_only = pattern_of([0], [2.5], n=2)
    res = process_sample(net, late_only, 0, cfg)
    assert res.outcome is Outcome.SKIPPED
    assert res.ineligible_classes == (0,)
    assert net.neurons[0] is None  # still waiting for a usable first pattern
    ok = process_sample(net, pattern_of([0], [0.5], n=2), 0, cfg)
    assert ok.outcome is Outcome.INITIALIZED
    assert net.neurons[0] is not None


def test_punctual_sample_with_safe_rivals_is_skipped():
    net, a, _ = two_class_net()
    before = model_to_json_bytes(net)
    res = process_sample(net, a, 0, CFG)
    # neuron 0 fires near 2.0 <= 2.25 deadline; neuron 1 has no weight on
    # inputs {0,1}, stays silent (counts as t_max = 8), margin is huge
    assert res.outcome is Outcome.SKIPPED
    assert res.predicted == 0
    assert res.updated_classes == ()
    assert model_to_json_bytes(net) == before


def test_on_time_branch_pushes_crowding_rival_only():
    net, a, _ = two_class_net()
    # give the rival strong weight on class 0's inputs so it fires early
    net.neurons[1].add_terms([0, 1], [0.3, 0.6], [2.0, 2.0])
    correct_terms = all_terms(net.neurons[0])
    correct_threshold = net.neurons[0].threshold
    rival_terms = all_terms(net.neurons[1])
    res = process_sample(net, a, 0, CFG)
    assert res.outcome is Outcome.ON_TIME
    assert res.updated_classes == (1,)
    # rival got pushed back, labeled class untouched
    assert all_terms(net.neurons[1]) != rival_terms
    assert all_terms(net.neurons[0]) == correct_terms
    assert net.neurons[0].threshold == correct_threshold


def test_late_branch_corrects_labeled_class():
    net, a, _ = two_class_net()
    # make class 0's neuron unreachable on pattern a -> silent -> late
    net.neurons[0].threshold = 50.0
    res = process_sample(net, a, 0, CFG)
    assert res.outcome is Outcome.LATE
    assert 0 in res.updated_classes
    # rival silent at t_max=8 vs anchor 7.6: gap 0.4 >= margin 0.3, untouched
    assert res.updated_classes == (0,)


def test_late_branch_also_pushes_crowding_rival():
    net, a, _ = two_class_net()
    net.neurons[0].threshold = 50.0          # silent -> actual 8.0, anchor 7.6
    net.neurons[1].add_terms([0, 1], [0.3, 0.6], [0.9, 0.9])
    t1 = evaluate_pattern(net, a).fire_times[1]
    assert not math.isnan(t1) and t1 - 7.6 < 0.3
    res = process_sample(net, a, 0, CFG)
    assert res.outcome is Outcome.LATE
    assert res.updated_classes == (0, 1)


def test_exactly_one_outcome_and_untouched_model_when_no_updates(rng):
    cfg = CFG
    net, a, b = two_class_net(cfg)
    for _ in range(200):
        n_spk = int(rng.integers(0, 5))
        ids = rng.permutation(4)[:n_spk]
        times = rng.integers(0, 3001, size=n_spk) * 0.001
        pattern = pattern_of(ids, times)
        label = int(rng.integers(0, 2))
        before = model_to_json_bytes(net)
        res = process_sample(net, pattern, label, cfg)
        assert isinstance(res.outcome, Outcome)
        if res.outcome in (Outcome.NO_SPIKES, Outcome.SKIPPED) or not res.updated_classes:
            assert model_to_json_bytes(net) == before
        else:
            assert model_to_json_bytes(net) != before


# --- epoch loop ----------------------------------------------------------------

def encoded_blobs(rng, classes=3, per_class=20):
    x, y = blobs_dataset(rng, classes=classes, per_class=per_class)
    enc = fit_ranges(x)
    return encode_dataset(x, enc), y


def test_train_validations(rng):
    patterns, labels = encoded_blobs(rng)
    with pytest.raises(InputError):
        train([], np.array([]), CFG, class_count=3)
    with pytest.raises(InputError):
        train(patterns, labels[:-1], CFG, class_count=3)
    with pytest.raises(ConfigError):
        train(patterns, labels, CFG, class_count=4)  # class 3 absent


def test_train_zero_epochs_touches_nothing(rng):
    patterns, labels = encoded_blobs(rng)
    result = train(patterns, labels, CFG.with_overrides(max_epochs=0), 3, seed=1)
    assert result.epochs_run == 0
    assert not result.converged
    assert all(n is None for n in result.network.neurons)


def test_train_converges_on_separable_blobs(rng):
    patterns, labels = encoded_blobs(rng)
    cfg = CFG.with_overrides(max_epochs=50)
    result = train(patterns, labels, cfg, 3, seed=3)
    assert result.converged
    assert result.epochs_run <= 50
    last = result.epoch_stats[-1]
    assert last.updates_correct + last.updates_wrong == 0
    preds = predict(result.network, patterns)
    confusion = confusion_matrix(labels, preds, 3)
    assert accuracy_score(preds, labels) >= 0.95
    assert confusion.sum() == len(labels)
    assert np.array_equal(confusion.sum(axis=1), np.bincount(labels, minlength=3))


def test_epoch_stat_counters_partition_samples(rng):
    patterns, labels = encoded_blobs(rng)
    result = train(patterns, labels, CFG.with_overrides(max_epochs=5), 3, seed=9)
    for st in result.epoch_stats:
        branches = st.initialized + st.on_time + st.late + st.skipped + st.no_spikes
        assert branches == len(patterns)
        assert st.evaluated == branches - st.initialized - st.no_spikes
        assert 0.0 <= st.train_accuracy <= 1.0
        d = st.to_dict()
        assert d["epoch"] == st.epoch and d["train_accuracy"] == st.train_accuracy


def test_train_is_deterministic_per_seed(rng):
    patterns, labels = encoded_blobs(rng)
    cfg = CFG.with_overrides(max_epochs=8)
    b1 = model_to_json_bytes(train(patterns, labels, cfg, 3, seed=5).network)
    b2 = model_to_json_bytes(train(patterns, labels, cfg, 3, seed=5).network)
    b3 = model_to_json_bytes(train(patterns, labels, cfg, 3, seed=6).network)
    assert b1 == b2
    assert b1 != b3


def test_train_matches_uncached_manual_loop(rng):
    patterns, labels = encoded_blobs(rng, classes=2, per_class=12)
    cfg = CFG.with_overrides(max_epochs=4)
    fast = train(patterns, labels, cfg, 2, seed=11)

    slow = build_network(cfg, 2, patterns[0].neuron_count)
    slow_stats = []
    for epoch in range(cfg.max_epochs):
        changed = 0
        outcomes = []
        for s in epoch_order(11, epoch, len(patterns)):
            res = process_sample(slow, patterns[s], int(labels[s]), cfg)
            outcomes.append(res.outcome)
            changed += len(res.updated_classes)
        slow_stats.append(({o: outcomes.count(o) for o in Outcome}, changed))
        if changed == 0:
            break
    assert [({Outcome.NO_SPIKES: st.no_spikes, Outcome.INITIALIZED: st.initialized,
              Outcome.SKIPPED: st.skipped, Outcome.ON_TIME: st.on_time,
              Outcome.LATE: st.late}, st.updates_correct + st.updates_wrong)
            for st in fast.epoch_stats] == slow_stats
    assert np.array_equal(predict(fast.network, patterns), predict(slow, patterns))
    assert ([n.amplitudes.size for n in fast.network.neurons]
            == [n.amplitudes.size for n in slow.neurons])


@pytest.mark.parametrize("sigma", [0.5, 1e6])
def test_every_presentation_matches_the_fresh_sampling_step(sigma, monkeypatch):
    """train's cached step and the oracle's fresh-sampling step give the same
    outcome, answer, updated and ineligible classes on every presentation.

    Random patterns over classes 0-2 give empty patterns and silent races.
    Class 3 starts only from its one spike just before the desired time;
    that input's late spike cannot start it, and makes its neuron fire so
    soon after the spike that the late correction has no eligible spike.
    Its initialization mid-epoch refreshes the cached live classes.
    """
    rng = np.random.default_rng(20240817)
    patterns = [random_pattern(rng, neuron_count=12) for _ in range(40)]
    labels = rng.integers(0, 3, size=40).tolist()
    late = pattern_of([0], [2.9], n=12)
    patterns += [pattern_of([0], [1.99], n=12), late, late]
    labels += [3, 3, 3]
    cfg = CFG.with_overrides(sigma=sigma, max_epochs=6)

    seen = []
    step = training.process_sample

    def recorded(state, s, label):
        seen.append((s, step(state, s, label)))
        return seen[-1][1]

    monkeypatch.setattr(training, "process_sample", recorded)
    fit = train(patterns, np.array(labels), cfg, 4, seed=0)

    net = build_network(cfg, 4, 12)
    expected, silent = [], 0
    for epoch in range(cfg.max_epochs):
        for s in epoch_order(0, epoch, len(patterns)):
            pattern, label = patterns[s], labels[s]
            if pattern.spike_count and net.neurons[label] is not None:
                silent += bool(np.isnan(evaluate_pattern(net, pattern).fire_times).all())
            expected.append((s, process_sample(net, pattern, label, cfg)))
        if not any(r.updated_classes for _, r in expected[-len(patterns):]):
            break
    assert seen == expected
    assert len(seen) == fit.epochs_run * len(patterns)
    assert np.array_equal(predict(fit.network, patterns), predict(net, patterns))
    results = [r for _, r in seen]
    first_answer = next(i for i, r in enumerate(results) if r.predicted is not None)
    assert any(r.outcome is Outcome.INITIALIZED for r in results[first_answer:])
    assert silent > 0
    assert any(r.ineligible_classes for r in results
               if r.outcome in (Outcome.ON_TIME, Outcome.LATE))


@pytest.mark.parametrize("sigma", [0.5, 1e6])
def test_incremental_weights_match_fresh_sampling_after_training(sigma, rng, monkeypatch):
    captured = []

    class Recorded(learning.SampledWeights):
        def __init__(self, *args):
            super().__init__(*args)
            captured.append(self)

    monkeypatch.setattr(learning, "SampledWeights", Recorded)
    patterns, labels = encoded_blobs(rng)
    fit = train(patterns, labels, CFG.with_overrides(sigma=sigma, max_epochs=30), 3, seed=4)
    assert fit.epoch_stats[0].updates_correct + fit.epoch_stats[0].updates_wrong > 0
    (sampled,) = captured
    for j, neuron in enumerate(fit.network.neurons):
        for p, pattern in enumerate(patterns):
            fresh = neuron.sample_weights(pattern.neuron_ids, pattern.times)
            assert np.allclose(sampled.values[j, pattern.neuron_ids, p], fresh,
                               rtol=0, atol=1e-9)


def test_sampled_weights_equal_a_pattern_major_replay_bitwise(rng, monkeypatch):
    """Every add of a training run, replayed on (classes, patterns, inputs) columns."""
    captured, adds = [], []

    class Recorded(learning.SampledWeights):
        def __init__(self, *args):
            super().__init__(*args)
            captured.append(self)

        def add(self, neuron, neuron_ids, centers, amplitudes):
            adds.append((neuron.class_label, neuron.sigma, neuron_ids.copy(),
                         centers.copy(), amplitudes.copy()))
            super().add(neuron, neuron_ids, centers, amplitudes)

    monkeypatch.setattr(learning, "SampledWeights", Recorded)
    x, y = blobs_dataset(rng)
    patterns = encode_dataset(x, fit_ranges(x))
    train(patterns, y, CFG.with_overrides(sigma=0.3, max_epochs=20), 3, seed=2)
    (sampled,) = captured
    replay = PatternMajorSampledWeights(patterns, 3)
    for args in adds:
        replay.add(*args)
    assert len(adds) > 100
    assert sampled.spike_times.tobytes() == replay.spike_times.T.tobytes()
    assert sampled.values.tobytes() == replay.values.transpose(0, 2, 1).tobytes()


def test_epoch_order_is_pure_seeded_permutation():
    a = epoch_order(7, 0, 30)
    assert sorted(a) == list(range(30))
    assert a == epoch_order(7, 0, 30)
    assert a != epoch_order(7, 1, 30)
    assert a != epoch_order(8, 0, 30)


# --- inference -------------------------------------------------------------------

def test_predict_earliest_firing_class_wins():
    net, a, b = two_class_net()
    assert predict(net, [a])[0] == 0
    assert predict(net, [b])[0] == 1
    out = predict(net, [a, b, a])
    assert list(out) == [0, 1, 0]


def test_predict_tie_breaks_to_lowest_class():
    cfg = CFG
    net = build_network(cfg, class_count=2, input_count=4)
    a = pattern_of([0, 1], [0.3, 0.6])
    process_sample(net, a, 0, cfg)
    process_sample(net, a, 1, cfg)  # identical initialization for class 1
    assert predict(net, [a])[0] == 0


def test_predict_silent_fallback_uses_peak():
    net, a, _ = two_class_net()
    net.neurons[0].threshold = 99.0
    net.neurons[1].threshold = 99.0
    # class 0 still has all the weight for inputs {0,1}
    assert predict(net, [a])[0] == 0


def test_predict_empty_pattern_defaults_to_first_class():
    net, _, _ = two_class_net()
    assert predict(net, [empty_pattern()])[0] == 0


def one_at_a_time(net, pattern):
    """Oracle for batched inference: label, fire times and peaks of one pattern.

    The potentials keep the kernel's (live, spikes) @ (spikes, grid)
    product, whose last bits a 1-d product as in the ``fire_time`` oracle
    does not reproduce; the first crossing, the peak and the silent fallback are
    scalar loops.
    """
    count = net.class_count
    live = [j for j, neuron in enumerate(net.neurons) if neuron is not None]
    weights = np.array([net.neurons[j].sample_weights(pattern.neuron_ids, pattern.times)
                        for j in live]).reshape(len(live), pattern.spike_count)
    grid = net.sim.grid()
    v = weights @ epsilon(grid[None, :] - pattern.times[:, None], net.sim.tau)
    fire, peaks = [math.nan] * count, [-math.inf] * count
    for j, row in zip(live, v.tolist()):
        peaks[j] = max(row)
        for k, value in enumerate(row):
            if value >= net.neurons[j].threshold:
                fire[j] = k * net.sim.dt
                break
    fired = [j for j in range(count) if not math.isnan(fire[j])]
    if fired:
        label = min(fired, key=lambda j: (fire[j], j))
    else:
        label = max(range(count), key=lambda j: (peaks[j], -j))
    return label, np.array(fire), np.array(peaks)


def test_batched_predict_matches_one_at_a_time(rng):
    net = build_network(CFG, class_count=4, input_count=12)
    for j in (0, 1, 3):  # class 2 stays uninitialized
        net.neurons[j] = random_neuron(rng, input_count=12, sigma=CFG.sigma, class_label=j)
    # longer than two chunks, not a multiple of one, an empty pattern mid-chunk
    patterns = [random_pattern(rng, neuron_count=12, max_spikes=10)
                for _ in range(2 * PREDICT_CHUNK + 5)]
    patterns[PREDICT_CHUNK + 3] = empty_pattern(12)
    captured = []
    crossings = net.crossings
    net.crossings = lambda v, live: captured.append(crossings(v, live)) or captured[-1]
    labels = predict(net, patterns)
    del net.crossings
    assert [len(a.fire_times) for a in captured] == [PREDICT_CHUNK, PREDICT_CHUNK, 5]
    fire = np.concatenate([a.fire_times for a in captured])
    peaks = np.concatenate([a.peaks for a in captured])
    silent = np.isnan(fire).all(axis=1)
    assert silent.any() and not silent.all()  # both the race and the fallback decide
    for p, pattern in enumerate(patterns):
        label, oracle_fire, oracle_peaks = one_at_a_time(net, pattern)
        assert labels[p] == label
        assert fire[p].tobytes() == oracle_fire.tobytes()
        assert peaks[p].tobytes() == oracle_peaks.tobytes()
        alone = evaluate_pattern(net, pattern)
        assert alone.fire_times.tobytes() == oracle_fire.tobytes()
        assert alone.peaks.tobytes() == oracle_peaks.tobytes()
    assert predict(net, []).shape == (0,)



def test_predict_with_every_neuron_live_matches_one_at_a_time(rng):
    net = build_network(CFG, class_count=3, input_count=12)
    for j in range(3):
        net.neurons[j] = random_neuron(rng, input_count=12, sigma=CFG.sigma, class_label=j)
    patterns = [random_pattern(rng, neuron_count=12, max_spikes=10)
                for _ in range(PREDICT_CHUNK + 7)]
    labels = predict(net, patterns)
    for p, pattern in enumerate(patterns):
        label, oracle_fire, oracle_peaks = one_at_a_time(net, pattern)
        assert labels[p] == label
        alone = evaluate_pattern(net, pattern)
        assert alone.fire_times.tobytes() == oracle_fire.tobytes()
        assert alone.peaks.tobytes() == oracle_peaks.tobytes()

def test_training_reproduces_the_recorded_fit():
    """data/train-v1.json holds the canonical model document, the epoch count
    and the predictions on all 60 rows of this fit, written while every
    pattern's response matrix was computed directly."""
    recorded = json.loads((Path(__file__).parent / "data" / "train-v1.json").read_text())
    x, y = blobs_dataset(np.random.default_rng(7), classes=3, per_class=20,
                         features=4, spread=0.25)
    encoder = fit_ranges(x[:45])
    fit = train(encode_dataset(x[:45], encoder), y[:45],
                NetworkConfig(sigma=0.5, max_epochs=15), 3, seed=11)
    assert fit.epochs_run == recorded["epochs_run"]
    assert model_to_json_bytes(fit.network, encoder) == json.dumps(
        recorded["model"], sort_keys=True, separators=(",", ":")).encode("ascii")
    assert predict(fit.network, encode_dataset(x, encoder)).tolist() == recorded["labels"]
