"""Reference implementations the tests check the package against.

The constant-weight classifier has the same architecture and correction
schedule as the main model, but each synapse carries a single number
instead of a function of time.  It is kept deliberately separate from
the main implementation, with simple arrays and explicit arithmetic, so
the two can be compared against each other: with a very wide Gaussian
the main model should degenerate to exactly this (criterion 8).

``direct_response`` is the kernel response of every (spike, grid time)
pair at once, each computed on its integer tick difference ``g * R - k``
(spike tick k, grid column g, a grid step of R ticks), so it reads nothing
of the package's ``dynamics.responses`` view, which must equal it bit for
bit.

``potential`` and ``fire_time`` evaluate one neuron on one pattern with a
1-d ``w @ eps`` product.  They are a per-neuron oracle for the shared
activity kernel, ``Network.evaluate_pattern``, whose (neurons, spikes)
product may differ from them in the last bits.

``crossings`` and ``PatternActivity`` are that kernel's race in numpy
form: NaN fire times and -inf peaks for the neurons that do not fire or
do not exist, an argmin over times and an argmax over peaks, over any
number of leading pattern axes.  ``evaluate_pattern`` runs them on the
whole (live, spikes) @ (spikes, grid) product, which the kernel computes
in column blocks up to the block that decides its race (``race_end``);
the kernel's winner, and its fire times up to there, must equal theirs
bit for bit.

``process_sample`` is the training step with every weight sampled afresh
from the network (``sample_weights``) and every activity computed by
``evaluate_pattern`` from ``direct_response``: the reference that
``training.train``'s cached step, which reads its weights, responses,
live classes and thresholds from one training state, must reproduce bit
for bit.  It works on any network, so the per-branch tests drive it on
hand-built ones.

``modulation_factors`` and ``update_step`` are the update rule with every
quantity computed by its own formula, as the package computed it before
``learning.compute_update`` shared its products: each ``UpdateStep``
field must equal theirs bit for bit.

``add_terms`` is the general merge of any terms into a ``Network``: it
snaps their centers to the grid and sums repeated keys, by one ``unique``
+ ``bincount`` over every stored and new term.  It builds the tests'
hand-made networks, and the package's one entry point for terms,
``Network._add_sorted`` (strictly ascending keys, found by binary search),
must leave the arrays it leaves bit for bit, for training's corrections
and for a checkpoint load alike.  ``PatternMajorSampledWeights`` keeps
the training weights as (classes, patterns, inputs) with column updates,
over the pattern-major ``spike_time_matrix``: the straightforward form of
what ``learning.SampledWeights`` does over contiguous rows, which must
agree with it bit for bit.  ``sampled_weights_per_term`` samples one
term at a time and adds each bin's terms in stored order from 0.0: the
order ``Network.sample`` must keep.

``encode_rows`` is the per-row form of ``encoding.encode_dataset``: one
broadcast of responses, then one validating ``SpikePattern`` per row from
``flatnonzero`` of its fired mask.  The batch encoder, which checks and
snaps every fired time in one pass and slices each pattern from one flat
pair, must give the same ids, times and neuron count bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from sefm import learning
from sefm.config import NetworkConfig
from sefm.dynamics import (Network, OutputNeuron, SimulationConfig, efficacy, epsilon,
                           race_blocks)
from sefm.encoding import TIME_QUANTUM, EncoderConfig, SpikePattern
from sefm.errors import InputError
from sefm.training import (Outcome, SampleResult, epoch_order, margin_window,
                           on_time_deadline, ref_time_correct, ref_time_wrong)


def grid(sim: SimulationConfig) -> np.ndarray:
    """Search grid {0, dt, 2dt, ...} of ``sim.columns()`` times up to t_max."""
    return np.arange(sim.columns(), dtype=np.float64) * sim.dt


def direct_response(times, sim: SimulationConfig) -> np.ndarray:
    """(spikes, grid) responses ``epsilon((g * R - k) * TIME_QUANTUM)`` of
    spikes on ticks k at grid columns g, in one broadcast."""
    ticks = np.rint(np.asarray(times, dtype=np.float64) / TIME_QUANTUM).astype(np.int64)
    cells = np.arange(sim.columns()) * round(sim.dt / TIME_QUANTUM) - ticks[:, None]
    return epsilon(cells * TIME_QUANTUM, sim.tau)


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
    v = w @ direct_response(pattern.times, sim)
    hit = v >= neuron.threshold
    if not hit.any():
        return None
    return float(np.argmax(hit) * sim.dt)


# -- the fresh-sampling training step ------------------------------------------

def sample_weights(net: Network, pattern: SpikePattern) -> np.ndarray:
    """(classes, spikes) momentary weights sampled afresh, one neuron at a
    time; zero rows for uninitialized neurons."""
    weights = np.zeros((net.class_count, pattern.spike_count))
    for j, neuron in enumerate(net.neurons):
        if neuron is not None:
            weights[j] = neuron.sample_weights(pattern.neuron_ids, pattern.times)
    return weights


@dataclass
class PatternActivity:
    """Per-class firing summary of one pattern, or of a batch along a first axis:
    NaN fire times for silent (or uninitialized) neurons, -inf peaks for
    uninitialized ones so the silent-fallback argmax never picks them."""

    fire_times: np.ndarray
    peaks: np.ndarray

    def winners(self) -> np.ndarray:
        """Earliest-firing class, else the highest peak; ties go to the lowest class."""
        times = np.where(np.isnan(self.fire_times), np.inf, self.fire_times)
        return np.where(np.isfinite(times.min(axis=-1)), times.argmin(axis=-1),
                        self.peaks.argmax(axis=-1))


def crossings(net: Network, v: np.ndarray, live: np.ndarray) -> PatternActivity:
    """Activity from potentials ``v`` of shape (..., live neurons, grid),
    ``live`` masking the initialized neurons: a neuron fires at its first
    index at or above its threshold times dt iff its peak reaches the
    threshold.  Leading axes, if any, index patterns."""
    thresholds = np.array([n.threshold for n in net.neurons if n is not None])
    first = (v >= thresholds[:, None]).argmax(axis=-1)
    top = v.max(axis=-1)
    fire_times = np.full(top.shape[:-1] + live.shape, np.nan)
    peaks = np.full(fire_times.shape, -np.inf)
    fire_times[..., live] = np.where(top >= thresholds, first * net.sim.dt, np.nan)
    peaks[..., live] = top
    return PatternActivity(fire_times=fire_times, peaks=peaks)


def race_end(net: Network, fire_times: np.ndarray, label: Optional[int] = None,
             margin: float = 0.0) -> int:
    """The grid column after the last one the blocked activity kernel computes,
    from the full-grid ``fire_times`` of ``crossings`` (NaN for a silent
    class): the end of the first of ``race_blocks`` that holds the earliest
    crossing or, given a ``label``, that reaches the label's crossing index
    plus ``margin / dt`` plus one; the grid's end when that never happens."""
    index = np.rint(fire_times / net.sim.dt)
    if label is None:
        due = np.nanmin(index) + 1 if not np.isnan(index).all() else math.inf
    else:
        due = index[label] + margin / net.sim.dt + 1 if not math.isnan(index[label]) else math.inf
    blocks = race_blocks(net.sim)
    return next((hi for _, hi in blocks if hi >= due), blocks[-1][1])


def evaluate_pattern(net: Network, pattern: SpikePattern,
                     weights: Optional[np.ndarray] = None,
                     eps_matrix: Optional[np.ndarray] = None) -> PatternActivity:
    """Fire times and peaks of every initialized neuron: the (live, spikes)
    weights times the (spikes, grid) responses, through ``crossings``.
    ``weights`` and ``eps_matrix`` default to ``sample_weights`` and
    ``direct_response``."""
    if weights is None:
        weights = sample_weights(net, pattern)
    if eps_matrix is None:
        eps_matrix = direct_response(pattern.times, net.sim)
    live = np.array([n is not None for n in net.neurons])
    return crossings(net, weights[live] @ eps_matrix, live)


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
        try:
            learning.initialize(net, label, pattern, cfg.desired_time)
        except learning.NoEligibleSpikes:
            return SampleResult(Outcome.SKIPPED, ineligible_classes=(label,))
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
        try:
            step = learning.compute_update(net, j, pattern, t_ref, weights=weights[j])
        except learning.NoEligibleSpikes:
            ineligible.append(j)
            continue
        if learning.apply_update(net, j, step, cfg.learning_rate):
            updated.append(j)
    return SampleResult(Outcome.ON_TIME if punctual else Outcome.LATE, tuple(updated),
                        tuple(ineligible), predicted=predicted)


# -- the update rule, one formula per quantity -------------------------------------

def modulation_factors(z: np.ndarray, eps_vals: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Response-weighted share of the update each spike receives; sums to 1.

    When every excess is zero (all momentary weights already at or above
    their normalized responses) the shares fall back to a copy of u.
    """
    weighted = z * eps_vals
    total = weighted.sum()
    if total <= 0.0:
        return u.copy()
    return weighted / total


def update_step(net: Network, class_label: int, pattern: SpikePattern, t_hat: float,
                weights: np.ndarray) -> dict:
    """Every field of ``learning.compute_update``'s UpdateStep, each by its
    own formula: the responses through ``epsilon``, the fallback test apart
    from ``modulation_factors``, and the deltas assigned through a mask."""
    eps_vals = epsilon(t_hat - pattern.times, net.sim.tau)
    total = eps_vals.sum()
    if total <= 0.0:
        raise learning.NoEligibleSpikes(f"no spike precedes reference time {t_hat}")
    u = eps_vals / total
    dv = float(net.thresholds[class_label]) - float(weights @ eps_vals)
    z = np.where(u > weights, u - weights, 0.0)
    m = modulation_factors(z, eps_vals, u)
    deltas = np.zeros_like(m)
    mask = m != 0.0
    deltas[mask] = m[mask] * dv / eps_vals[mask]
    return {"neuron_ids": pattern.neuron_ids, "ticks": pattern.ticks,
            "eps_vals": eps_vals, "normalized": u, "shares": m, "deltas": deltas, "dv": dv,
            "used_fallback": float((z * eps_vals).sum()) <= 0.0}


# -- term merging and sampled training weights -----------------------------------

def add_terms(net: Network, class_label, neuron_ids, centers, amplitudes) -> None:
    """Add one Gaussian term per (input neuron, center, amplitude) triple to
    class ``class_label`` of ``net`` (or, given one class per term, to each
    term's class), by sorting every stored and new key together.

    A center snaps to the time grid, and each distinct key's center is its
    tick times TIME_QUANTUM; its amplitude is ``0.0 + a1 + a2 ...`` over the
    stored and new amplitudes in that order.  A class or input out of
    range, a non-finite amplitude, or a center outside [0, 2**31) ticks
    raises InputError and changes nothing.
    """
    classes = np.asarray(class_label, dtype=np.int64)
    if classes.size and (classes.min() < 0 or classes.max() >= net.class_count):
        raise InputError(f"class outside [0, {net.class_count})")
    ids = np.asarray(neuron_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= net.input_count):
        raise InputError(f"input neuron outside [0, {net.input_count})")
    ticks = np.rint(np.asarray(centers, dtype=np.float64) / TIME_QUANTUM)
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    if not (((ticks >= 0) & (ticks < 2**31)).all() and np.isfinite(amplitudes).all()):
        raise InputError("a term needs a finite amplitude and a center in [0, 2**31) ticks")
    if not ids.size:  # (a bincount of nothing counts in int64)
        return
    keys, slot = np.unique(np.concatenate(
        [net.keys, ((classes * net.input_count + ids) << 32) + ticks.astype(np.int64)]),
        return_inverse=True)
    net.keys, net.centers = keys, (keys & (2**32 - 1)) * TIME_QUANTUM
    net.amplitudes = np.bincount(slot, minlength=keys.size,
                                 weights=np.concatenate([net.amplitudes, amplitudes]))


def sampled_weights_per_term(net: Network, patterns: list[SpikePattern]) -> np.ndarray:
    """``learning.SampledWeights(patterns, net).values`` one term at a time.

    Each term's Gaussian is ``efficacy`` of that term alone, and each
    (class, input, pattern) sum starts from 0.0 and adds the input's
    terms in stored order, so any other summation order shows in the bits.
    """
    values = np.zeros((net.class_count, net.input_count, len(patterns)))
    for j, neuron in enumerate(net.neurons):
        if neuron is None:
            continue
        terms = [[] for _ in range(net.input_count)]
        for i, c, a in zip(neuron.inputs.tolist(), neuron.centers.tolist(),
                           neuron.amplitudes.tolist()):
            terms[i].append((c, a))
        for p, pattern in enumerate(patterns):
            for i, t in zip(pattern.neuron_ids.tolist(), pattern.times.tolist()):
                total = 0.0
                for c, a in terms[i]:
                    total += float(efficacy(np.array([t]), c, a, net.sigma)[0])
                values[j, i, p] = total
    return values


def spike_time_matrix(patterns: list[SpikePattern], neuron_count: int) -> np.ndarray:
    """(patterns, neuron_count) spike times, NaN where an input stays silent."""
    out = np.full((len(patterns), neuron_count), np.nan)
    for p, pattern in enumerate(patterns):
        out[p, pattern.neuron_ids] = pattern.times
    return out


class PatternMajorSampledWeights:
    """``learning.SampledWeights`` laid out as (classes, patterns, inputs).

    ``add`` takes the class, the width and the terms one
    ``SampledWeights.add`` call received (ids, ticks and amplitudes), and
    adds their Gaussians to the columns of their inputs.
    """

    def __init__(self, patterns: list[SpikePattern], class_count: int):
        self.spike_times = spike_time_matrix(patterns, patterns[0].neuron_count)
        self.values = np.zeros((class_count, *self.spike_times.shape))

    def add(self, class_label: int, sigma: float, neuron_ids: np.ndarray,
            ticks: np.ndarray, amplitudes: np.ndarray) -> None:
        d = self.spike_times[:, neuron_ids] - ticks.astype(np.float64) * TIME_QUANTUM
        gauss = amplitudes * np.exp(-0.5 * (d / sigma) ** 2)
        gauss[np.isnan(gauss)] = 0.0
        self.values[class_label][:, neuron_ids] += gauss


# -- per-row encoding -----------------------------------------------------------

def encode_rows(features_matrix, cfg: EncoderConfig) -> list[SpikePattern]:
    """Encode each row through the validating ``SpikePattern`` constructor."""
    x = np.asarray(features_matrix, dtype=np.float64)
    centers, widths = cfg.field_geometry
    with np.errstate(over="ignore"):
        d = (x[:, :, None] - centers) / widths[:, None]
        resp = np.exp(-0.5 * d * d).reshape(len(x), cfg.neuron_count)
    fired = resp >= cfg.response_cutoff
    times = cfg.spike_interval * (1.0 - resp)
    return [SpikePattern(neuron_count=cfg.neuron_count, neuron_ids=np.flatnonzero(f),
                         times=t[f]) for f, t in zip(fired, times)]


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
