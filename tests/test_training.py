"""Scheduling, per-sample branching, epoch loop, convergence, inference."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sefm
from sefm.config import NetworkConfig
from sefm.data import confusion_matrix
from sefm.dynamics import (SimulationConfig, epsilon, load_model, model_to_json_bytes,
                           race_blocks, response_matrix, responses, save_model)
from sefm.encoding import TIME_QUANTUM, SpikePattern, encode_dataset, fit_ranges
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
    predict_chunk,
    ref_time_correct,
    ref_time_wrong,
    train,
)

from conftest import all_terms, blobs_dataset, network_of, random_pattern, random_terms
from oracles import (PatternMajorSampledWeights, add_terms, crossings, direct_response,
                     evaluate_pattern, grid, process_sample, race_end, sampled_weights_per_term)


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
    add_terms(net, 1, [0, 1], [0.3, 0.6], [2.0, 2.0])
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
    net.thresholds[0] = 50.0
    res = process_sample(net, a, 0, CFG)
    assert res.outcome is Outcome.LATE
    assert 0 in res.updated_classes
    # rival silent at t_max=8 vs anchor 7.6: gap 0.4 >= margin 0.3, untouched
    assert res.updated_classes == (0,)


def test_late_branch_also_pushes_crowding_rival():
    net, a, _ = two_class_net()
    net.thresholds[0] = 50.0          # silent -> actual 8.0, anchor 7.6
    add_terms(net, 1, [0, 1], [0.3, 0.6], [0.9, 0.9])
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


def repeated(patterns, count):
    """``count`` patterns, cycling through ``patterns``."""
    return (patterns * (count // len(patterns) + 1))[:count]


def test_train_validations(rng):
    patterns, labels = encoded_blobs(rng)
    with pytest.raises(InputError):
        train([], np.array([]), CFG, class_count=3)
    with pytest.raises(InputError):
        train(patterns, labels[:-1], CFG, class_count=3)
    with pytest.raises(ConfigError):
        train(patterns, labels, CFG, class_count=4)  # class 3 absent


@pytest.mark.parametrize("bad", [
    {"learning_rate": -0.1}, {"reference_rate": 1.5}, {"margin_rate": -1.0},
    {"deadline_rate": 7.0}, {"desired_time": 5.0}, {"max_epochs": -3}])
def test_train_cannot_be_handed_an_invalid_config(rng, bad):
    """A config checks itself when built, whichever way it is built, so none
    of these reaches ``sefm.train``: without the check, a negative learning
    rate trains to completion and max_epochs = -3 returns an untrained model."""
    patterns, labels = encoded_blobs(rng)
    builds = [lambda: NetworkConfig(**bad), lambda: replace(CFG, **bad),
              lambda: CFG.with_overrides(**bad),
              lambda: NetworkConfig.from_dict({**CFG.to_dict(), **bad})]
    for build in builds:
        with pytest.raises(ConfigError, match=next(iter(bad))):
            sefm.train(patterns, labels, build(), class_count=3)


def test_train_rejects_a_spike_after_t_max(rng):
    patterns, labels = encoded_blobs(rng)
    n = patterns[0].neuron_count
    late = SpikePattern(neuron_count=n, neuron_ids=[0, n - 1], times=[1.0, CFG.t_max + 0.5])
    with pytest.raises(InputError, match="t_max"):
        train(patterns[:-1] + [late], labels, CFG, class_count=3)


def test_training_table_holds_one_row_per_distinct_tick(rng, monkeypatch):
    """The table training reads, ``dynamics.responses``, holds one row per
    tick of [0, t_max]; each pattern carries its ticks, and their rows read
    the pattern's responses bit for bit.  Training gathers them through
    ``training.response_matrix``, one block of columns at a time, as
    ``predict`` does."""
    patterns, labels = encoded_blobs(rng)
    sim = CFG.simulation()
    assert responses(sim).shape[0] == round(sim.t_max / TIME_QUANTUM) + 1
    for pattern in patterns:
        assert pattern.ticks.tolist() == \
            np.rint(pattern.times / TIME_QUANTUM).astype(int).tolist()
        assert responses(sim)[pattern.ticks].tobytes() == \
            direct_response(pattern.times, sim).tobytes()
    gathered = []

    def recorded(pattern, net, lo, hi):
        gathered.append((pattern, (lo, hi)))
        return response_matrix(pattern, net, lo, hi)
    monkeypatch.setattr(training, "response_matrix", recorded)
    train(patterns, labels, CFG.with_overrides(max_epochs=1), class_count=3)
    assert gathered and {id(p) for p, _ in gathered} <= {id(p) for p in patterns}
    assert {block for _, block in gathered} <= set(race_blocks(sim))


def test_train_and_predict_reject_a_pattern_of_another_width(rng):
    """A pattern one input narrower or wider than the network raises
    InputError naming both counts, in training and in inference."""
    patterns, labels = encoded_blobs(rng)
    n = patterns[0].neuron_count
    net = train(patterns, labels, CFG.with_overrides(max_epochs=2), 3, seed=1).network
    for width in (n - 1, n + 1):
        odd = SpikePattern(neuron_count=width, neuron_ids=[0, width - 1], times=[0.5, 1.0])
        message = f"a pattern has {width} input neurons; the network has {n}$"
        with pytest.raises(InputError, match=message):
            train(patterns[:-1] + [odd], labels, CFG, class_count=3)
        with pytest.raises(InputError, match=message):  # in the second chunk
            predict(net, repeated(patterns, predict_chunk(net) + 1) + [odd])
        with pytest.raises(InputError, match=message):
            predict(build_network(CFG, class_count=3, input_count=n), [odd])


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
    Its initialization mid-epoch adds a class to the race.
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


def test_sampled_weights_of_a_trained_network_equal_per_pattern_sampling(rng):
    """SampledWeights(patterns, net) holds each live neuron's one-pattern
    ``sample_weights`` at every fired input bit for bit, and 0 at every
    silent input and under an uninitialized class."""
    patterns, labels = encoded_blobs(rng)
    trained = train(patterns, labels, CFG.with_overrides(max_epochs=10), 3, seed=3).network
    net = network_of(trained.input_count, [
        None if j == 1 else (n.threshold, n.inputs, n.centers, n.amplitudes)
        for j, n in enumerate(trained.neurons)], trained.sigma, trained.sim,
        trained.spike_interval)
    sampled = learning.SampledWeights(patterns, net)
    assert sampled.values.shape == (3, net.input_count, len(patterns))
    assert not sampled.values[1].any()
    for p, pattern in enumerate(patterns):
        silent = np.setdiff1d(np.arange(net.input_count), pattern.neuron_ids)
        for j in (0, 2):
            alone = net.neurons[j].sample_weights(pattern.neuron_ids, pattern.times)
            assert sampled.values[j, pattern.neuron_ids, p].tobytes() == alone.tobytes()
            assert not sampled.values[j, silent, p].any()
    assert any(pattern.spike_count < net.input_count for pattern in patterns)


def test_sampled_weights_equal_a_pattern_major_replay_bitwise(rng, monkeypatch):
    """Every add of a training run, replayed on (classes, patterns, inputs) columns."""
    captured, adds = [], []

    class Recorded(learning.SampledWeights):
        def __init__(self, *args):
            super().__init__(*args)
            captured.append(self)

        def add(self, class_label, neuron_ids, ticks, amplitudes):
            adds.append((class_label, self.sigma, neuron_ids.copy(),
                         ticks.copy(), amplitudes.copy()))
            super().add(class_label, neuron_ids, ticks, amplitudes)

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


def test_sampled_weights_equal_the_per_term_oracle_bitwise(rng):
    """Every (class, input, pattern) bin sums its terms in stored order from
    0.0, for one pattern and for a predict chunk: a bin with three or more
    terms shows any other order in the bits."""
    patterns, labels = encoded_blobs(rng)
    net = train(patterns, labels, CFG.with_overrides(max_epochs=10), 3, seed=3).network
    assert np.bincount(net.keys >> 32).max() >= 3
    for chunk in (patterns[:1], patterns[:predict_chunk(net)]):
        values = learning.SampledWeights(chunk, net).values
        assert values.tobytes() == sampled_weights_per_term(net, chunk).tobytes()


def test_sampling_without_terms_gives_float_zeros(rng):
    patterns, _ = encoded_blobs(rng)
    net = build_network(CFG, class_count=3, input_count=patterns[0].neuron_count)
    chunk = predict_chunk(net)
    values = learning.SampledWeights(repeated(patterns, chunk), net).values
    assert values.dtype == np.float64 and values.shape == (3, net.input_count, chunk)
    assert not values.any()


def test_a_class_never_initialized_reads_zero_saves_null_and_never_wins(rng):
    """Training that never presents class 1 leaves its neuron uninitialized
    between two trained ones: its weights are float zeros, its checkpoint
    entry is null, and no pattern predicts it."""
    patterns, labels = encoded_blobs(rng)
    net = build_network(CFG, class_count=3, input_count=patterns[0].neuron_count)
    state = training.TrainingState(net, patterns, CFG)
    for epoch in range(5):
        for s in epoch_order(0, epoch, len(patterns)):
            if labels[s] != 1:
                training.process_sample(state, s, int(labels[s]))
    assert net.initialized.tolist() == [True, False, True]
    assert net.neurons[1] is None and net.keys.size
    values = learning.SampledWeights(patterns, net).values
    assert values.dtype == np.float64 and not values[1].any()
    assert values.tobytes() == sampled_weights_per_term(net, patterns).tobytes()
    assert json.loads(model_to_json_bytes(net))["neurons"][1] is None
    assert 1 not in predict(net, patterns).tolist()


def test_term_keys_rise_strictly_after_training_and_after_loading(rng, tmp_path):
    """Each stored key is ((class * inputs + input) << 32) + tick of its
    term, strictly ascending, and a checkpoint reloads to the same keys."""
    patterns, labels = encoded_blobs(rng)
    trained = train(patterns, labels, CFG.with_overrides(max_epochs=10), 3, seed=3).network
    path = tmp_path / "model.json"
    save_model(path, trained)
    loaded, _ = load_model(path)
    for net in (trained, loaded):
        assert net.keys.size and (np.diff(net.keys) > 0).all()
        assert net.keys.tobytes() == np.concatenate([
            ((j * net.input_count + n.inputs) << 32)
            + np.rint(n.centers / TIME_QUANTUM).astype(np.int64)
            for j, n in enumerate(net.neurons)]).tobytes()
    assert loaded.keys.tobytes() == trained.keys.tobytes()


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
    net.thresholds[0] = 99.0
    net.thresholds[1] = 99.0
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
    v = weights @ direct_response(pattern.times, net.sim)
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


def test_a_network_holds_its_race_plan(rng, monkeypatch):
    """A network reads its race plan from its ``sim`` once, when it is built:
    ``response_rows``, ``blocks`` and the grid ``step`` are ``responses``,
    ``race_blocks`` and the tick step of that ``sim``.  Training
    presentations and a ``predict`` call then read the plan from the
    network: they call neither function and hash no SimulationConfig, and
    give the results, fire times, labels and model of a run that may."""
    # class 1 starts uninitialized, so the presentations initialize it too
    terms = [None if j == 1 else random_terms(rng, 12) for j in range(3)]
    nets = [network_of(12, terms, CFG.sigma, CFG.simulation(), CFG.spike_interval)
            for _ in range(2)]
    for net in nets:
        assert net.response_rows is responses(net.sim)
        assert net.blocks == race_blocks(net.sim)
        assert net.step == net.sim.ticks()[1] == 10
    patterns = [random_pattern(rng, neuron_count=12, max_spikes=10) for _ in range(60)]
    labels = rng.integers(0, 3, size=len(patterns)).tolist()

    def run(net):
        raced, kernel = [], net.evaluate_pattern

        def recorded(*args, **kwargs):
            raced.append(kernel(*args, **kwargs))
            return raced[-1]
        net.evaluate_pattern = recorded
        state = training.TrainingState(net, patterns, CFG)
        results = [training.process_sample(state, s, label) for s, label in enumerate(labels)]
        return results, predict(net, patterns).tolist(), raced, model_to_json_bytes(net)

    expected = run(nets[0])
    for name in ("responses", "race_blocks"):
        monkeypatch.setattr(f"sefm.dynamics.{name}",
                            lambda *args, name=name: pytest.fail(f"called {name}"))
    monkeypatch.setattr(SimulationConfig, "__hash__",
                        lambda self: pytest.fail("hashed a SimulationConfig"))
    got = run(nets[1])
    monkeypatch.undo()
    assert got == expected
    results, _, raced, _ = expected
    assert {r.outcome for r in results} >= {Outcome.INITIALIZED, Outcome.SKIPPED}
    assert any(fired for fired, _ in raced)


def test_batched_predict_matches_one_at_a_time(rng, monkeypatch):
    # class 2 stays uninitialized; 128 inputs keep a chunk to a few hundred patterns
    net = network_of(128, [None if j == 2 else random_terms(rng, 128) for j in range(4)],
                     CFG.sigma, CFG.simulation(), CFG.spike_interval)
    chunk = predict_chunk(net)
    # longer than two chunks, not a multiple of one, an empty pattern mid-chunk
    patterns = [random_pattern(rng, neuron_count=128, max_spikes=10)
                for _ in range(2 * chunk + 5)]
    patterns[chunk + 3] = empty_pattern(128)
    captured, chunks = [], []
    kernel = net.evaluate_pattern

    def recorded(weights, live, responses):
        assert live == np.flatnonzero(net.initialized).tolist() == [0, 1, 3]
        asked = []

        def logged(lo, hi):
            asked.append((lo, hi))
            return responses(lo, hi)
        whole = weights[net.initialized] @ np.hstack([responses(lo, hi)
                                                      for lo, hi in race_blocks(net.sim)])
        captured.append((whole, kernel(weights, live, logged), asked))
        return captured[-1][1]

    class Chunked(learning.SampledWeights):
        def __init__(self, chunk, net):
            chunks.append(len(chunk))
            super().__init__(chunk, net)

    monkeypatch.setattr(learning, "SampledWeights", Chunked)
    net.evaluate_pattern = recorded
    labels = predict(net, patterns)
    del net.evaluate_pattern
    assert chunks == [chunk, chunk, 5]
    assert len(captured) == len(patterns)
    activity = crossings(net, np.stack([v for v, _, _ in captured]),
                         np.array([n is not None for n in net.neurons]))
    fire, peaks = activity.fire_times, activity.peaks
    silent = np.isnan(fire).all(axis=1)
    assert silent.any() and not silent.all()  # both the race and the fallback decide
    ends = set()
    for p, pattern in enumerate(patterns):
        label, oracle_fire, oracle_peaks = one_at_a_time(net, pattern)
        _, (fired, winner), asked = captured[p]
        end = race_end(net, oracle_fire)
        assert asked == [b for b in race_blocks(net.sim) if b[0] < end]
        ends.add(end)
        assert labels[p] == winner == label
        assert list(fired.items()) == [(j, t) for j, t in enumerate(oracle_fire.tolist())
                                       if not math.isnan(t) and round(t / net.sim.dt) < end]
        assert fire[p].tobytes() == oracle_fire.tobytes()
        assert peaks[p].tobytes() == oracle_peaks.tobytes()
        alone = evaluate_pattern(net, pattern)
        assert alone.fire_times.tobytes() == oracle_fire.tobytes()
        assert alone.peaks.tobytes() == oracle_peaks.tobytes()
    # some races stopped before the grid's end, and silent ones ran it all
    assert len(ends) > 1 and race_blocks(net.sim)[-1][1] in ends
    assert predict(net, []).shape == (0,)



def test_predict_without_an_initialized_neuron_answers_class_zero(rng):
    net = build_network(CFG, class_count=3, input_count=12)
    patterns = [random_pattern(rng, neuron_count=12, max_spikes=10) for _ in range(5)]
    patterns.append(empty_pattern(12))
    assert predict(net, patterns).tolist() == [0] * 6


def test_predict_with_every_neuron_live_matches_one_at_a_time(rng):
    net = network_of(128, [random_terms(rng, 128) for _ in range(3)],
                     CFG.sigma, CFG.simulation(), CFG.spike_interval)
    patterns = [random_pattern(rng, neuron_count=128, max_spikes=10)
                for _ in range(predict_chunk(net) + 7)]
    labels = predict(net, patterns)
    for p, pattern in enumerate(patterns):
        label, oracle_fire, oracle_peaks = one_at_a_time(net, pattern)
        assert labels[p] == label
        alone = evaluate_pattern(net, pattern)
        assert alone.fire_times.tobytes() == oracle_fire.tobytes()
        assert alone.peaks.tobytes() == oracle_peaks.tobytes()


# Potentials that rise until tau from one spike at 0 ms: AMPLITUDES[j] * epsilon.
AMPLITUDES = (1.0, 1.2, 0.8)


def rising_race(cfg, crossings):
    """One input, one class per entry of ``crossings``, and a one-spike
    pattern.  Class j's only term sits on the spike, so its potential is
    ``AMPLITUDES[j] * epsilon`` and rises until tau; its threshold lies
    between the potential at grid indices k - 1 and k for k = crossings[j],
    or above its peak for None."""
    sim = cfg.simulation()
    classes = []
    for j, k in enumerate(crossings):
        v = AMPLITUDES[j] * epsilon(grid(sim), sim.tau)
        threshold = 1.01 * v.max() if k is None else (v[k - 1] + v[k]) / 2
        classes.append((threshold, [0], [0.0], [AMPLITUDES[j]]))
    return network_of(1, classes, cfg.sigma, sim, cfg.spike_interval), pattern_of([0], [0.0], n=1)


def presented_both_ways(cfg, crossings, label, pattern=None):
    """``training.process_sample`` on a ``rising_race`` network, checked against
    the oracle's full-grid step on an equal network: the same result and the
    same model bytes after it.  Returns the result and the blocks the kernel
    computed."""
    net, spike = rising_race(cfg, crossings)
    pattern = spike if pattern is None else pattern
    state = training.TrainingState(net, [pattern], cfg)
    asked, kernel = [], net.evaluate_pattern

    def recorded(weights, live, responses, *args, **kwargs):
        def logged(lo, hi):
            asked.append((lo, hi))
            return responses(lo, hi)
        return kernel(weights, live, logged, *args, **kwargs)

    net.evaluate_pattern = recorded
    got = training.process_sample(state, 0, label)
    del net.evaluate_pattern
    oracle_net, _ = rising_race(cfg, crossings)
    assert got == process_sample(oracle_net, pattern, label, cfg)
    assert model_to_json_bytes(net) == model_to_json_bytes(oracle_net)
    return got, asked


def test_training_race_stops_only_past_the_label_plus_the_margin():
    """The label's neuron fires on time at index 241, and the margin is 15
    grid steps.  A rival firing exactly the margin later fires at index 256,
    the first column of the second block, and is pushed: its fire time less
    the label's rounds just below the margin.  So the race may stop only
    a grid step past the margin, and computes the second block.  A rival a
    grid step inside the margin is pushed too, one a grid step past it is
    left alone, and all three match the full-grid oracle step.  A label
    firing at 200 settles the race within the first block, and a rival
    beyond the margin there is never computed."""
    cfg = CFG.with_overrides(desired_time=2.5)
    dt = cfg.simulation().dt
    margin = margin_window(cfg.desired_time, cfg.margin_rate, cfg.spike_interval)
    label_at, steps = 241, round(margin / dt)
    assert steps == 15 and label_at * dt <= on_time_deadline(
        cfg.desired_time, cfg.deadline_rate, cfg.spike_interval)
    blocks = race_blocks(cfg.simulation())
    assert blocks[0] == (0, label_at + steps)
    assert (label_at + steps) * dt - label_at * dt < margin

    for rival in (label_at + steps - 1, label_at + steps):
        pushed, asked = presented_both_ways(cfg, (label_at, rival), 0)
        assert pushed.outcome is Outcome.ON_TIME and pushed.updated_classes == (1,)
        assert pushed.predicted == 0 and asked == list(blocks[:2])

    past, asked = presented_both_ways(cfg, (label_at, label_at + steps + 1), 0)
    assert past.outcome is Outcome.SKIPPED and past.predicted == 0
    assert asked == list(blocks[:2])

    early, asked = presented_both_ways(cfg, (200, 300), 0)
    assert early.outcome is Outcome.SKIPPED and asked == list(blocks[:1])


def test_training_race_without_the_label_firing_runs_every_block():
    """A silent label, and a race where nobody fires, compute every block; the
    silent race answers by the highest peak, taken from the block maxima
    (class 1's, at tau, in the second block).  A zero-spike pattern never
    reaches the kernel.  Each matches the full-grid oracle step."""
    cfg = CFG.with_overrides(desired_time=2.5)
    blocks = list(race_blocks(cfg.simulation()))

    silent_label, asked = presented_both_ways(cfg, (None, 264), 0)
    assert silent_label.outcome is Outcome.LATE and silent_label.predicted == 1
    assert asked == blocks

    nobody, asked = presented_both_ways(cfg, (None, None, None), 0)
    assert nobody.outcome is Outcome.LATE and nobody.predicted == 1
    assert asked == blocks

    empty, asked = presented_both_ways(cfg, (250, 264), 0, pattern=empty_pattern(1))
    assert empty.outcome is Outcome.NO_SPIKES and asked == []


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
