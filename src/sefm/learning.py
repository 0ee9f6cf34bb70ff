"""Per-spike weight update rule for the output neurons.

Every update targets one neuron at one reference time t_hat.  The gap
between threshold and potential at t_hat is distributed over the
presynaptic spikes that precede t_hat, favoring spikes whose kernel
response exceeds their current momentary weight.  Applying an update
adds, per spike, one Gaussian term centered at that spike's time; the
potential at t_hat moves exactly onto the threshold.

Initialization works on the first pattern a neuron sees: the momentary
weights are set to the normalized kernel responses at the desired firing
time and the threshold is set to the potential this produces, so the
neuron starts out firing precisely on schedule for that pattern.

Both work on a class of the network.  Training and ``predict`` read
momentary weights from a SampledWeights array.  Passed to ``initialize``
and ``apply_update``, it also receives, sampled, every term they add, so
it always equals fresh sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Network, OutputNeuron, _epsilon_consuming, efficacy
from .encoding import TIME_QUANTUM, SpikePattern
from .errors import InputError, SefmError


class NoEligibleSpikes(SefmError):
    """No presynaptic spike lies strictly before the reference time."""


class SampledWeights:
    """Momentary weight of every spike of the patterns under every class's neuron.

    ``values[c, i, p]`` is neuron c's weight of input i sampled at
    ``spike_times[i, p]``, the time pattern p's input i fires; it is 0 for
    a silent input (NaN time) or an uninitialized neuron.  Both arrays are
    input-major, so a term added through ``add`` changes only the
    contiguous row ``values[c, i]``.  Every class is sampled in one pass
    (``Network.sample``).  A pattern of another width than the network's
    input count, or with a spike after its ``t_max``, raises InputError
    before anything is allocated.
    """

    def __init__(self, patterns: list[SpikePattern], net: Network):
        last = net.sim.ticks()[0]
        for pattern in patterns:
            if pattern.neuron_count != net.input_count:
                raise InputError(f"a pattern has {pattern.neuron_count} input neurons; "
                                 f"the network has {net.input_count}")
            if pattern.ticks.max(initial=0) > last:
                raise InputError(f"a spike time exceeds t_max = {net.sim.t_max} ms")
        self.sigma = net.sigma
        self.spike_times = np.full((net.input_count, len(patterns)), np.nan)
        for p, pattern in enumerate(patterns):
            self.spike_times[pattern.neuron_ids, p] = pattern.ticks
        self.spike_times *= TIME_QUANTUM  # the bits of each pattern's times
        self.values = net.sample(self.spike_times)

    def add(self, class_label: int, neuron_ids: np.ndarray, ticks: np.ndarray,
            amplitudes: np.ndarray) -> None:
        """Add the Gaussians of terms just added to class ``class_label``'s
        neuron (distinct inputs, centered on the SpikePattern ``ticks``)."""
        gauss = efficacy(self.spike_times[neuron_ids], (ticks * TIME_QUANTUM)[:, None],
                         amplitudes[:, None], self.sigma)
        np.copyto(gauss, 0.0, where=np.isnan(gauss))
        self.values[class_label, neuron_ids] += gauss


def _normalized(eps: np.ndarray, t_hat: float) -> np.ndarray:
    """Kernel responses at t_hat normalized to sum 1.

    Spikes at or after t_hat respond zero (they cannot influence the
    potential at t_hat).  Raises NoEligibleSpikes when nothing remains.
    """
    total = eps.sum()
    if total <= 0.0:
        raise NoEligibleSpikes(f"no spike precedes reference time {t_hat}")
    return eps / total


def excess(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Positive part of (normalized response - momentary weight), per spike."""
    return np.where(u > w, u - w, 0.0)


def momentary_deltas(m: np.ndarray, dv: float, eps_vals: np.ndarray) -> np.ndarray:
    """Per-spike momentary weight change; zero wherever the share is zero.

    Dividing each share by its kernel response makes the induced
    potential change at the reference time come out to exactly dv:
    sum(delta * eps) = dv * sum(m) = dv.
    """
    return np.divide(m * dv, eps_vals, out=np.zeros_like(m), where=m != 0.0)


@dataclass
class UpdateStep:
    """One computed (not yet applied) update for a single neuron, on the
    spikes of one pattern: its ids and ticks."""

    neuron_ids: np.ndarray
    ticks: np.ndarray
    eps_vals: np.ndarray
    normalized: np.ndarray
    shares: np.ndarray
    deltas: np.ndarray
    dv: float
    used_fallback: bool


def compute_update(net: Network, class_label: int, pattern: SpikePattern, t_hat: float,
                   weights: np.ndarray | None = None) -> UpdateStep:
    """Per-spike deltas that move class ``class_label``'s v(t_hat) onto its
    threshold, under the network's tau.

    Each spike's share of the update is its response-weighted excess
    ``z * eps`` over their sum; when every excess is zero (all momentary
    weights already at or above their normalized responses) the shares
    fall back to the normalized responses themselves.  ``weights`` may
    pass in the pattern's momentary weights (as
    ``OutputNeuron.sample_weights`` returns them); else they are sampled here.
    """
    times = pattern.times
    eps_vals = _epsilon_consuming(t_hat - times, net.sim.tau)
    u = _normalized(eps_vals, t_hat)
    if weights is None:
        weights = OutputNeuron(net, class_label).sample_weights(pattern.neuron_ids, times)
    v = float(weights @ eps_vals)
    dv = float(net.thresholds[class_label]) - v  # potential gap the update must close at t_hat
    weighted = excess(u, weights) * eps_vals
    total = weighted.sum()
    used_fallback = bool(total <= 0.0)
    m = u.copy() if used_fallback else weighted / total
    return UpdateStep(neuron_ids=pattern.neuron_ids, ticks=pattern.ticks,
                      eps_vals=eps_vals, normalized=u, shares=m,
                      deltas=momentary_deltas(m, dv, eps_vals), dv=dv,
                      used_fallback=used_fallback)


def _add_terms(net: Network, class_label: int, sampled: SampledWeights | None,
               neuron_ids: np.ndarray, ticks: np.ndarray, amplitudes: np.ndarray) -> None:
    """Add one term per spike of a pattern (its ids and ticks) to the
    network, then to ``sampled``."""
    net._add_pattern_terms(class_label, neuron_ids, ticks, amplitudes)
    if sampled is not None:
        sampled.add(class_label, neuron_ids, ticks, amplitudes)


def apply_update(net: Network, class_label: int, step: UpdateStep, learning_rate: float,
                 sampled: SampledWeights | None = None) -> int:
    """Add the scaled Gaussian terms to class ``class_label``'s neuron;
    returns terms added.

    Zero deltas are skipped outright: they would add terms that change
    nothing while bloating the model.  A step whose deltas are all zero
    leaves the network untouched.
    """
    scaled = learning_rate * step.deltas
    keep = scaled != 0.0
    if not keep.any():
        return 0
    ids = step.neuron_ids[keep]
    _add_terms(net, class_label, sampled, ids, step.ticks[keep], scaled[keep])
    return ids.size


def initialize(net: Network, class_label: int, pattern: SpikePattern, t_hat: float,
               sampled: SampledWeights | None = None) -> None:
    """First-pattern setup of class ``class_label``'s neuron: weights from
    normalized responses under the network's tau, threshold to match.

    The full normalized response (not scaled by the learning rate) lands
    on each spike; the threshold becomes the resulting potential at
    t_hat, so this pattern fires exactly at t_hat.  The class is then
    initialized.
    """
    eps_vals = _epsilon_consuming(t_hat - pattern.times, net.sim.tau)
    u = _normalized(eps_vals, t_hat)
    keep = u != 0.0
    _add_terms(net, class_label, sampled, pattern.neuron_ids[keep], pattern.ticks[keep],
               u[keep])
    net.thresholds[class_label] = float(u @ eps_vals)
    net.initialized[class_label] = True
