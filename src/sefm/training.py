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
from .dynamics import Network, response_matrix
from .encoding import SpikePattern
from .errors import ConfigError, InputError
from . import learning
from .rng import SplitMix64, derive_seed

log = logging.getLogger(__name__)

# Bytes of one batched predict step's (classes, inputs, patterns) weights.
PREDICT_BYTES = 2 << 20


def predict_chunk(net: Network) -> int:
    """Patterns per batched predict step: whole ``Network.sample_block``s, as
    many as keep the step's weights within PREDICT_BYTES, at least one."""
    block = net.sample_block()
    return block * max(1, PREDICT_BYTES // (8 * net.class_count * net.input_count * block))


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
    """The network, the patterns and their SampledWeights under the network."""

    def __init__(self, net: Network, patterns: list[SpikePattern], cfg: NetworkConfig):
        self.net = net
        self.patterns = patterns
        self.cfg = cfg
        self.sampled = learning.SampledWeights(patterns, net)
        self.deadline = on_time_deadline(cfg.desired_time, cfg.deadline_rate, cfg.spike_interval)
        self.margin = margin_window(cfg.desired_time, cfg.margin_rate, cfg.spike_interval)


def process_sample(state: TrainingState, s: int, label: int) -> SampleResult:
    """Present training pattern ``s`` of class ``label`` once, mutating the network.

    ``Network.evaluate_pattern`` races the initialized neurons on the
    pattern's cached weights and its ``response_matrix`` blocks, up to the
    label's fire time plus the margin; what is left here is the margin test
    and the correction targets, on Python floats.
    """
    pattern = state.patterns[s]
    if pattern.spike_count == 0:
        return SampleResult(Outcome.NO_SPIKES)
    net, cfg, sampled = state.net, state.cfg, state.sampled

    if not net.initialized[label]:
        try:
            learning.initialize(net, label, pattern, cfg.desired_time, sampled)
        except learning.NoEligibleSpikes:
            # nothing precedes the desired time; wait for a friendlier pattern
            return SampleResult(Outcome.SKIPPED, ineligible_classes=(label,))
        return SampleResult(Outcome.INITIALIZED, updated_classes=(label,))

    live, t_max = net.initialized.nonzero()[0].tolist(), net.sim.t_max
    weights = sampled.values[:, pattern.neuron_ids, s]
    # a rival firing ``margin`` or more after the label fails the margin
    # test below whatever its time, so the race stops short of it
    fired, predicted = net.evaluate_pattern(
        weights, live, lambda lo, hi: response_matrix(pattern, net, lo, hi), label=label,
        margin=state.margin)

    # the margin is held from the correct neuron's time, or from its
    # target when it fires late; rivals inside the margin are pushed past it
    actual = fired.get(label, t_max)
    punctual = actual <= state.deadline
    anchor = (actual if punctual
              else ref_time_correct(actual, cfg.reference_rate, cfg.desired_time))
    t_wrong = ref_time_wrong(anchor, state.margin, t_max)
    # a silent rival (t_max) is inside the margin exactly when t_max is
    crowded = t_max - anchor < state.margin
    targets = [(j, t_wrong) for j in live if j != label
               and (fired[j] - anchor < state.margin if j in fired else crowded)]
    if not punctual:
        targets.insert(0, (label, anchor))
    elif not targets:
        return SampleResult(Outcome.SKIPPED, predicted=predicted)

    updated, ineligible = [], []
    for j, t_ref in targets:
        try:
            step = learning.compute_update(net, j, pattern, t_ref, weights=weights[j])
        except learning.NoEligibleSpikes:
            ineligible.append(j)
            continue
        if learning.apply_update(net, j, step, cfg.learning_rate, sampled):
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
        self.__dict__[result.outcome.value] += 1
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
    net = build_network(cfg, class_count, patterns[0].neuron_count)  # checks the counts
    labels = np.asarray(labels)
    present = np.unique(labels).tolist()
    if present != list(range(net.class_count)):
        raise ConfigError(f"training labels {present} are not exactly 0..{net.class_count - 1}")
    labels = labels.astype(np.int64).tolist()  # Python ints, cast once per fit
    state = TrainingState(net, patterns, cfg)
    stats_log: list[EpochStats] = []
    converged = False
    warned_empty: set[int] = set()
    for epoch in range(cfg.max_epochs):
        stats = EpochStats(epoch=epoch)
        for s in epoch_order(seed, epoch, len(patterns)):
            label = labels[s]
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
    """Winning class per pattern, by ``Network.evaluate_pattern``: the
    earliest-firing class, else the highest peak, ties to the lowest class.

    Patterns go ``predict_chunk(net)`` at a time: one ``SampledWeights`` for
    the chunk, then one kernel call per pattern on its (classes, spikes)
    weights and the ``response_matrix`` of each block of grid columns the
    race reaches, both read as ``process_sample`` reads them, so each label
    equals one-at-a-time evaluation bit for bit.
    """
    labels = np.zeros(len(patterns), dtype=np.int64)
    size = predict_chunk(net)
    live = net.initialized.nonzero()[0].tolist()  # the network is fixed during the call
    for start in range(0, len(patterns), size):
        chunk = patterns[start:start + size]
        values = learning.SampledWeights(chunk, net).values
        for r, pattern in enumerate(chunk):
            labels[start + r] = net.evaluate_pattern(
                values[:, pattern.neuron_ids, r], live,
                lambda lo, hi: response_matrix(pattern, net, lo, hi))[1]
    return labels


def accuracy_score(predictions: np.ndarray, labels: np.ndarray) -> float:
    if len(predictions) == 0:
        raise InputError("no predictions to score")
    return float(np.mean(np.asarray(predictions) == np.asarray(labels)))
