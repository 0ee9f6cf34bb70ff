"""Reference implementations the tests check the package against.

The constant-weight classifier has the same architecture and correction
schedule as the main model, but each synapse carries a single number
instead of a function of time.  It is kept deliberately separate from
the main implementation, with simple arrays and explicit arithmetic, so
the two can be compared against each other: with a very wide Gaussian
the main model should degenerate to exactly this (criterion 8).

``potential`` and ``fire_time`` evaluate one neuron on one pattern with a
1-d ``w @ eps`` product.  They are a per-neuron oracle for the shared
activity kernel, ``Network.evaluate_pattern``, whose (neurons, spikes)
product may differ from them in the last bits.

``process_sample`` is the training step with every weight sampled afresh
from the network (``sample_weights``) and every activity computed by
``evaluate_pattern`` from fresh responses: the reference that
``training.train``'s cached step, which reads its weights, responses,
live classes and thresholds from one training state, must reproduce bit
for bit.  It works on any network, so the per-branch tests drive it on
hand-built ones.

``add_terms`` merges terms into a neuron by one ``unique`` + ``bincount``
over every stored and new term, and ``PatternMajorSampledWeights`` keeps
the training weights as (classes, patterns, inputs) with column updates.
Both are the straightforward forms of what ``OutputNeuron.add_terms`` and
``learning.SampledWeights`` do by binary search and contiguous rows, and
must agree with them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from sefm import learning
from sefm.config import NetworkConfig
from sefm.dynamics import (Network, OutputNeuron, PatternActivity, SimulationConfig, epsilon,
                           response_matrix)
from sefm.encoding import TIME_QUANTUM, SpikePattern, spike_time_matrix
from sefm.errors import InputError
from sefm.training import (Outcome, SampleResult, epoch_order, margin_window,
                           on_time_deadline, ref_time_correct, ref_time_wrong)


def potential(neuron: OutputNeuron, pattern: SpikePattern, t: float,
              sim: SimulationConfig) -> float:
    """Postsynaptic potential v(t) = sum over spikes of w(t_k) * eps(t - t_k)."""
    if pattern.spike_count == 0:
        return 0.0
    w = neuron.sample_weights(pattern.neuron_ids, pattern.times)
    return float(w @ epsilon(t - pattern.times, sim.tau))


def fire_time(neuron: OutputNeuron, pattern: SpikePattern,
              sim: SimulationConfig) -> Optional[float]:
    """Earliest grid time with v(t) >= threshold, or None if never crossed."""
    if pattern.spike_count == 0:
        return None
    w = neuron.sample_weights(pattern.neuron_ids, pattern.times)
    v = w @ response_matrix(pattern, sim)
    hit = v >= neuron.threshold
    if not hit.any():
        return None
    return float(np.argmax(hit) * sim.dt)


# -- the fresh-sampling training step ------------------------------------------

def sample_weights(net: Network, pattern: SpikePattern) -> np.ndarray:
    """(classes, spikes) momentary weights sampled afresh; zero rows for
    uninitialized neurons."""
    weights = net.sample_rows(spike_time_matrix([pattern], net.input_count))
    return weights[0][:, pattern.neuron_ids]


def evaluate_pattern(net: Network, pattern: SpikePattern,
                     weights: Optional[np.ndarray] = None,
                     eps_matrix: Optional[np.ndarray] = None) -> PatternActivity:
    """Fire times and peaks of every initialized neuron: the (live, spikes)
    weights times the (spikes, grid) responses, through ``Network.crossings``.
    ``weights`` and ``eps_matrix`` default to ``sample_weights`` and
    ``response_matrix``."""
    if weights is None:
        weights = sample_weights(net, pattern)
    if eps_matrix is None:
        eps_matrix = response_matrix(pattern, net.sim)
    live = np.array([n is not None for n in net.neurons])
    return net.crossings(weights[live] @ eps_matrix, live)


def process_sample(net: Network, pattern: SpikePattern, label: int,
                   cfg: NetworkConfig) -> SampleResult:
    """One presentation of ``pattern`` with label ``label``, mutating ``net``,
    with fresh weights and array arithmetic throughout."""
    if not 0 <= label < net.class_count:
        raise InputError(f"label {label} outside 0..{net.class_count - 1}")
    if pattern.spike_count == 0:
        return SampleResult(Outcome.NO_SPIKES)
    sim = net.sim
    if net.neurons[label] is None:
        neuron = OutputNeuron(label, net.input_count, net.sigma)
        try:
            learning.initialize(neuron, pattern, cfg.desired_time, sim)
        except learning.NoEligibleSpikes:
            return SampleResult(Outcome.SKIPPED, ineligible_classes=(label,))
        net.neurons[label] = neuron
        return SampleResult(Outcome.INITIALIZED, updated_classes=(label,))

    weights = sample_weights(net, pattern)
    activity = evaluate_pattern(net, pattern, weights)
    actual = np.where(np.isnan(activity.fire_times), sim.t_max, activity.fire_times)
    predicted = int(activity.winners())
    deadline = on_time_deadline(cfg.desired_time, cfg.deadline_rate, cfg.spike_interval)
    margin = margin_window(cfg.desired_time, cfg.margin_rate, cfg.spike_interval)
    punctual = actual[label] <= deadline
    anchor = (actual[label] if punctual
              else ref_time_correct(actual[label], cfg.reference_rate, cfg.desired_time))
    t_wrong = ref_time_wrong(anchor, margin, sim.t_max)
    targets = [(j, t_wrong) for j in range(net.class_count)
               if j != label and net.neurons[j] is not None and actual[j] - anchor < margin]
    if not punctual:
        targets.insert(0, (label, anchor))
    elif not targets:
        return SampleResult(Outcome.SKIPPED, predicted=predicted)
    updated, ineligible = [], []
    for j, t_ref in targets:
        neuron = net.neurons[j]
        try:
            step = learning.compute_update(neuron, pattern, t_ref, sim, weights=weights[j])
        except learning.NoEligibleSpikes:
            ineligible.append(j)
            continue
        if learning.apply_update(neuron, step, cfg.learning_rate):
            updated.append(j)
    return SampleResult(Outcome.ON_TIME if punctual else Outcome.LATE, tuple(updated),
                        tuple(ineligible), predicted=predicted)


# -- term merging and sampled training weights -----------------------------------

def add_terms(neuron: OutputNeuron, neuron_ids, centers, amplitudes) -> None:
    """``neuron.add_terms`` by sorting every stored and new key together.

    Each distinct (input, tick) key keeps its first term's input and
    center; its amplitude is ``0.0 + a1 + a2 ...`` over the stored and
    new amplitudes in that order.
    """
    ids = np.asarray(neuron_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= neuron.input_count):
        raise InputError(f"input neuron outside [0, {neuron.input_count})")
    inputs = np.concatenate([neuron.inputs, ids])
    ticks = np.rint(np.concatenate([neuron.centers, np.asarray(centers, dtype=np.float64)])
                    / TIME_QUANTUM).astype(np.int64)
    keys, first, slot = np.unique((inputs << 32) + ticks, return_index=True,
                                  return_inverse=True)
    neuron.inputs = inputs[first]
    neuron.centers = ticks[first] * TIME_QUANTUM
    neuron.amplitudes = np.bincount(slot, minlength=keys.size, weights=np.concatenate(
        [neuron.amplitudes, np.asarray(amplitudes, dtype=np.float64)]))


class PatternMajorSampledWeights:
    """``learning.SampledWeights`` laid out as (classes, patterns, inputs).

    ``add`` takes the class, the width and the terms one
    ``SampledWeights.add`` call received, and adds their Gaussians to the
    columns of their inputs.
    """

    def __init__(self, patterns: list[SpikePattern], class_count: int):
        self.spike_times = spike_time_matrix(patterns, patterns[0].neuron_count)
        self.values = np.zeros((class_count, *self.spike_times.shape))

    def add(self, class_label: int, sigma: float, neuron_ids: np.ndarray,
            centers: np.ndarray, amplitudes: np.ndarray) -> None:
        centers = np.rint(centers / TIME_QUANTUM) * TIME_QUANTUM
        d = self.spike_times[:, neuron_ids] - centers
        gauss = amplitudes * np.exp(-0.5 * (d / sigma) ** 2)
        gauss[np.isnan(gauss)] = 0.0
        self.values[class_label][:, neuron_ids] += gauss


# -- constant-weight classifier ------------------------------------------------

def _kernel(t: np.ndarray, tau: float) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = (t[pos] / tau) * np.exp(1.0 - t[pos] / tau)
    return out


@dataclass
class ConstantModel:
    class_count: int
    input_count: int
    weights: np.ndarray = field(init=False)
    thresholds: np.ndarray = field(init=False)
    initialized: np.ndarray = field(init=False)

    def __post_init__(self):
        self.weights = np.zeros((self.class_count, self.input_count))
        self.thresholds = np.zeros(self.class_count)
        self.initialized = np.zeros(self.class_count, dtype=bool)


def _fire_time(model: ConstantModel, j: int, pattern: SpikePattern,
               cfg: NetworkConfig) -> float | None:
    n = int(round(cfg.t_max / cfg.dt))
    grid = np.arange(n + 1, dtype=np.float64) * cfg.dt
    w = model.weights[j, pattern.neuron_ids]
    v = w @ _kernel(grid[None, :] - pattern.times[:, None], cfg.tau)
    hit = v >= model.thresholds[j]
    if not hit.any():
        return None
    return float(np.argmax(hit) * cfg.dt)


def _peak(model: ConstantModel, j: int, pattern: SpikePattern,
          cfg: NetworkConfig) -> float:
    n = int(round(cfg.t_max / cfg.dt))
    grid = np.arange(n + 1, dtype=np.float64) * cfg.dt
    w = model.weights[j, pattern.neuron_ids]
    v = w @ _kernel(grid[None, :] - pattern.times[:, None], cfg.tau)
    return float(v.max())


def _initialize(model: ConstantModel, label: int, pattern: SpikePattern,
                cfg: NetworkConfig) -> bool:
    eps = _kernel(cfg.desired_time - pattern.times, cfg.tau)
    total = eps.sum()
    if total <= 0.0:
        return False
    u = eps / total
    np.add.at(model.weights[label], pattern.neuron_ids, u)
    model.thresholds[label] = float(u @ eps)
    model.initialized[label] = True
    return True


def _update(model: ConstantModel, j: int, pattern: SpikePattern, t_ref: float,
            cfg: NetworkConfig) -> bool:
    """Move v_j(t_ref) onto the threshold; returns whether anything changed."""
    eps = _kernel(t_ref - pattern.times, cfg.tau)
    total = eps.sum()
    if total <= 0.0:
        return False
    u = eps / total
    w = model.weights[j, pattern.neuron_ids]
    dv = model.thresholds[j] - float(w @ eps)
    z = np.where(u > w, u - w, 0.0)
    weighted = z * eps
    share_total = weighted.sum()
    m = u if share_total <= 0.0 else weighted / share_total
    delta = np.zeros_like(m)
    nz = m != 0.0
    delta[nz] = m[nz] * dv / eps[nz]
    scaled = cfg.learning_rate * delta
    if not (scaled != 0.0).any():
        return False
    np.add.at(model.weights[j], pattern.neuron_ids, scaled)
    return True


def train_constant(patterns: list[SpikePattern], labels: np.ndarray,
                   cfg: NetworkConfig, class_count: int,
                   seed: int = 0) -> ConstantModel:
    if len(patterns) == 0:
        raise InputError("cannot train on an empty pattern list")
    model = ConstantModel(class_count, patterns[0].neuron_count)
    deadline = on_time_deadline(cfg.desired_time, cfg.deadline_rate, cfg.spike_interval)
    margin = margin_window(cfg.desired_time, cfg.margin_rate, cfg.spike_interval)
    for epoch in range(cfg.max_epochs):
        changed = 0
        for s in epoch_order(seed, epoch, len(patterns)):
            pattern, label = patterns[s], int(labels[s])
            if pattern.spike_count == 0:
                continue
            if not model.initialized[label]:
                if _initialize(model, label, pattern, cfg):
                    changed += 1
                continue
            actual = np.full(class_count, cfg.t_max)
            for j in range(class_count):
                if model.initialized[j]:
                    t = _fire_time(model, j, pattern, cfg)
                    if t is not None:
                        actual[j] = t
            rivals = [j for j in range(class_count)
                      if j != label and model.initialized[j]]
            if actual[label] <= deadline:
                t_wrong = ref_time_wrong(actual[label], margin, cfg.t_max)
                for j in rivals:
                    if actual[j] - actual[label] < margin:
                        changed += _update(model, j, pattern, t_wrong, cfg)
            else:
                t_corr = ref_time_correct(actual[label], cfg.reference_rate,
                                          cfg.desired_time)
                changed += _update(model, label, pattern, t_corr, cfg)
                t_wrong = ref_time_wrong(t_corr, margin, cfg.t_max)
                for j in rivals:
                    if actual[j] - t_corr < margin:
                        changed += _update(model, j, pattern, t_wrong, cfg)
        if changed == 0:
            break
    return model


def predict_constant(model: ConstantModel, patterns: list[SpikePattern],
                     cfg: NetworkConfig) -> np.ndarray:
    out = np.zeros(len(patterns), dtype=np.int64)
    for idx, pattern in enumerate(patterns):
        times = np.full(model.class_count, np.inf)
        peaks = np.full(model.class_count, -np.inf)
        for j in range(model.class_count):
            if not model.initialized[j]:
                continue
            if pattern.spike_count == 0:
                peaks[j] = 0.0
                continue
            t = _fire_time(model, j, pattern, cfg)
            if t is not None:
                times[j] = t
            peaks[j] = _peak(model, j, pattern, cfg)
        best = int(np.argmin(times))
        out[idx] = best if np.isfinite(times[best]) else int(np.argmax(peaks))
    return out
