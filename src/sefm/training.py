"""Training loop: when each neuron is corrected, and toward what time.

Per pattern, the correct class's neuron should fire first with a safety
margin over every other neuron.  A pattern whose correct neuron already
fires on time only triggers corrections of wrong neurons that crowd the
margin; a late (or silent) correct neuron is pulled earlier while the
crowding wrong neurons are pushed later.  Patterns violating nothing are
skipped, which is what makes training converge: an epoch with no change
ends it.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import NetworkConfig
from .dynamics import Network, OutputNeuron, ResponseTable, response_matrix
from .encoding import SpikePattern, spike_time_matrix
from .errors import ConfigError, InputError
from . import learning
from .rng import SplitMix64, derive_seed

log = logging.getLogger(__name__)

# Patterns per batched predict step.  The largest temporaries, each
# neuron's (chunk, terms) sampling arrays and the (chunk, classes, grid)
# potentials, stay near 1 MB for models of a few thousand terms.
PREDICT_CHUNK = 32


# -- scheduling ------------------------------------------------------------

def on_time_deadline(desired_time: float, deadline_rate: float,
                     spike_interval: float) -> float:
    """Latest firing time still treated as on schedule."""
    return desired_time + deadline_rate * (spike_interval - desired_time)


def margin_window(desired_time: float, margin_rate: float,
                  spike_interval: float) -> float:
    """Minimum lead the correct neuron must hold over every other neuron."""
    return margin_rate * (spike_interval - desired_time)


def ref_time_correct(actual_time: float, reference_rate: float,
                     desired_time: float) -> float:
    """Target for a late correct neuron: a step earlier, never before the goal."""
    return max(desired_time, (1.0 - reference_rate) * actual_time)


def ref_time_wrong(anchor_time: float, margin: float, t_max: float) -> float:
    """Target for a crowding wrong neuron: the margin past the anchor."""
    return min(anchor_time + margin, t_max)


# -- per-sample outcome ----------------------------------------------------

class Outcome(enum.Enum):
    """Which branch a training sample took. Exactly one per sample."""

    NO_SPIKES = "no_spikes"      # empty pattern, nothing to do
    INITIALIZED = "initialized"  # first pattern of its class
    SKIPPED = "skipped"          # no correction needed (or possible)
    ON_TIME = "on_time"          # correct neuron punctual, wrong ones pushed back
    LATE = "late"                # correct neuron pulled earlier, then wrong ones pushed


@dataclass
class SampleResult:
    outcome: Outcome
    updated_classes: tuple[int, ...] = ()
    # classes whose correction had no eligible spike and was dropped
    ineligible_classes: tuple[int, ...] = ()
    # what the network would have answered before any update; None when
    # the sample was never evaluated (initialization, empty pattern)
    predicted: int | None = None


class TrainingState:
    """The network, each pattern's rows in a ResponseTable of the fit's own,
    the SampledWeights, and the live class ids and their thresholds: these
    change only when ``learning.initialize`` adds a neuron, after which
    ``refresh`` re-reads them (``apply_update`` never moves a threshold)."""

    def __init__(self, net: Network, patterns: list[SpikePattern], cfg: NetworkConfig):
        self.net = net
        self.patterns = patterns
        self.cfg = cfg
        self.table = ResponseTable(net.sim)
        self.rows = np.split(self.table.indices(np.concatenate([p.times for p in patterns])),
                             np.cumsum([p.spike_count for p in patterns])[:-1])
        self.sampled = learning.SampledWeights(patterns, net.class_count)
        self.deadline = on_time_deadline(cfg.desired_time, cfg.deadline_rate, cfg.spike_interval)
        self.margin = margin_window(cfg.desired_time, cfg.margin_rate, cfg.spike_interval)
        self.refresh()

    def refresh(self) -> None:
        self.live = [j for j, n in enumerate(self.net.neurons) if n is not None]
        self.thresholds = np.array([self.net.neurons[j].threshold for j in self.live])


def process_sample(state: TrainingState, s: int, label: int) -> SampleResult:
    """Present training pattern ``s`` of class ``label`` once, mutating the network.

    ``Network.evaluate_pattern`` gives each live neuron's first index at or
    above its threshold and its peak; it fires iff the peak reaches the
    threshold, at index times dt.  The race (earliest, then lowest class;
    highest peak if all are silent) and the targets use Python floats.
    """
    pattern = state.patterns[s]
    if pattern.spike_count == 0:
        return SampleResult(Outcome.NO_SPIKES)
    net, cfg, sampled, sim = state.net, state.cfg, state.sampled, state.net.sim

    if net.neurons[label] is None:
        neuron = OutputNeuron(label, net.input_count, net.sigma)
        try:
            learning.initialize(neuron, pattern, cfg.desired_time, sim, sampled)
        except learning.NoEligibleSpikes:
            # nothing precedes the desired time; wait for a friendlier pattern
            return SampleResult(Outcome.SKIPPED, ineligible_classes=(label,))
        net.neurons[label] = neuron
        state.refresh()
        return SampleResult(Outcome.INITIALIZED, updated_classes=(label,))

    live = state.live
    weights = sampled.values[:, pattern.neuron_ids, s]
    first, top = net.evaluate_pattern(weights if len(live) == net.class_count else weights[live],
                                      state.table.gather(state.rows[s]), state.thresholds)
    peaks = top.tolist()
    dt, t_max = sim.dt, sim.t_max
    # fire time of each live neuron that fires, in class order
    fired = {j: k * dt for j, k, peak, threshold
             in zip(live, first.tolist(), peaks, state.thresholds.tolist())
             if peak >= threshold}
    predicted = (min(fired, key=fired.__getitem__) if fired
                 else live[peaks.index(max(peaks))])

    # the margin is held from the correct neuron's time, or from its
    # target when it fires late; rivals inside the margin are pushed past it
    actual = fired.get(label, t_max)
    punctual = actual <= state.deadline
    anchor = (actual if punctual
              else ref_time_correct(actual, cfg.reference_rate, cfg.desired_time))
    t_wrong = ref_time_wrong(anchor, state.margin, t_max)
    targets = [(j, t_wrong) for j in live
               if j != label and fired.get(j, t_max) - anchor < state.margin]
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
        if learning.apply_update(neuron, step, cfg.learning_rate, sampled):
            updated.append(j)
    return SampleResult(Outcome.ON_TIME if punctual else Outcome.LATE, tuple(updated),
                        tuple(ineligible), predicted=predicted)


# -- epoch loop --------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    # one count per Outcome, named by its value
    initialized: int = 0
    on_time: int = 0
    late: int = 0
    skipped: int = 0
    no_spikes: int = 0
    updates_correct: int = 0     # corrections applied to the labeled class
    updates_wrong: int = 0       # suppressions applied to rival classes
    ineligible_updates: int = 0
    evaluated: int = 0
    online_correct: int = 0

    def count(self, result: SampleResult, label: int) -> None:
        """Tally one sample: its branch, updates, dropped corrections and answer."""
        branch = result.outcome.value
        setattr(self, branch, getattr(self, branch) + 1)
        corrected = int(label in result.updated_classes)
        self.updates_correct += corrected
        self.updates_wrong += len(result.updated_classes) - corrected
        self.ineligible_updates += len(result.ineligible_classes)
        if result.predicted is not None:
            self.evaluated += 1
            self.online_correct += int(result.predicted == label)

    @property
    def train_accuracy(self) -> float:
        """Accuracy of the pre-update answer on the samples seen this epoch."""
        return self.online_correct / self.evaluated if self.evaluated else 0.0

    def to_dict(self) -> dict:
        doc = asdict(self)
        del doc["evaluated"], doc["online_correct"]
        return {**doc, "train_accuracy": self.train_accuracy}


@dataclass
class TrainResult:
    network: Network
    epochs_run: int
    converged: bool
    epoch_stats: list[EpochStats] = field(default_factory=list)


def epoch_order(seed: int, epoch: int, n: int) -> list[int]:
    """Presentation order for one epoch; a pure function of (seed, epoch)."""
    return SplitMix64(derive_seed(seed, epoch)).permutation(n)


def build_network(cfg: NetworkConfig, class_count: int, input_count: int) -> Network:
    return Network(class_count, input_count, cfg.sigma, cfg.simulation(),
                   cfg.spike_interval)


def train(patterns: list[SpikePattern], labels: np.ndarray, cfg: NetworkConfig,
          class_count: int, seed: int = 0) -> TrainResult:
    """Fit a network on encoded patterns.

    Runs up to cfg.max_epochs passes in a seed-derived shuffled order per
    epoch, stopping early after a pass that changes nothing.  Every
    ``process_sample`` reads one TrainingState, whose SampledWeights each
    added term updates in place, so no pattern is ever resampled.
    """
    if len(patterns) == 0:
        raise InputError("cannot train on an empty pattern list")
    if len(patterns) != len(labels):
        raise InputError("patterns and labels differ in length")
    present = np.unique(np.asarray(labels)).tolist()
    if present != list(range(class_count)):
        raise ConfigError(f"training labels {present} are not exactly 0..{class_count - 1}")
    state = TrainingState(build_network(cfg, class_count, patterns[0].neuron_count),
                          patterns, cfg)
    stats_log: list[EpochStats] = []
    converged = False
    warned_empty: set[int] = set()
    for epoch in range(cfg.max_epochs):
        stats = EpochStats(epoch=epoch)
        for s in epoch_order(seed, epoch, len(patterns)):
            label = int(labels[s])
            result = process_sample(state, s, label)
            stats.count(result, label)
            if result.outcome is Outcome.NO_SPIKES and s not in warned_empty:
                warned_empty.add(s)
                log.warning("sample %d encodes to zero spikes; it is skipped", s)
        stats_log.append(stats)
        converged = stats.updates_correct + stats.updates_wrong == 0
        if converged:
            break
    return TrainResult(network=state.net, epochs_run=len(stats_log), converged=converged,
                       epoch_stats=stats_log)


# -- inference ---------------------------------------------------------------

def predict(net: Network, patterns: list[SpikePattern]) -> np.ndarray:
    """Earliest-firing class per pattern; if every neuron is silent, highest peak.

    Ties break toward the lowest class index either way.  Patterns go
    through PREDICT_CHUNK at a time: one spike-time matrix and one
    ``Network.sample_rows`` for the chunk, each pattern's (live, spikes) @
    (spikes, grid) potentials, as training's ``Network.evaluate_pattern``
    forms them, then ``Network.crossings`` over the whole chunk, so labels,
    fire times and peaks equal one-at-a-time evaluation bit for bit.
    """
    live = np.array([n is not None for n in net.neurons])
    grid_size = net.sim.grid().size
    labels = np.zeros(len(patterns), dtype=np.int64)
    for start in range(0, len(patterns), PREDICT_CHUNK):
        chunk = patterns[start:start + PREDICT_CHUNK]
        weights = net.sample_rows(spike_time_matrix(chunk, net.input_count))[:, live]
        v = np.empty((*weights.shape[:2], grid_size))
        for r, pattern in enumerate(chunk):
            v[r] = weights[r][:, pattern.neuron_ids] @ response_matrix(pattern, net.sim)
        labels[start:start + len(chunk)] = net.crossings(v, live).winners()
    return labels


def accuracy_score(predictions: np.ndarray, labels: np.ndarray) -> float:
    if len(predictions) == 0:
        raise InputError("no predictions to score")
    return float(np.mean(np.asarray(predictions) == np.asarray(labels)))
