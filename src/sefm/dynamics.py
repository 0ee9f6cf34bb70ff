"""Time-varying synaptic weights, postsynaptic potentials, firing times.

A synapse's weight is a function of time: a sum of Gaussians of shared
width sigma, each centered at a presynaptic spike time that once carried
a weight update.  Sampling is exact evaluation of that sum.  An output
neuron is a firing threshold plus the parallel (input, center,
amplitude) arrays of all its terms; it fires at the first grid time
where its potential reaches the threshold (time-to-first-spike, at most
one spike per pattern).
"""

from __future__ import annotations

import json
import operator
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .encoding import TIME_QUANTUM, EncoderConfig, SpikePattern
from .errors import ConfigError, InputError

MODEL_FORMAT = "sefm-model/1"


@dataclass(frozen=True)
class SimulationConfig:
    """Postsynaptic simulation settings.

    tau is the spike-response time constant (ms), t_max the end of the
    postsynaptic interval (ms), dt the threshold-search grid step (ms).
    """

    tau: float = 3.0
    t_max: float = 8.0
    dt: float = 0.01

    def __post_init__(self):
        for name in ("tau", "t_max", "dt"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails too
                raise ConfigError(f"{name} must be positive and finite")

    def grid(self) -> np.ndarray:
        """Search grid {0, dt, 2dt, ..., t_max}."""
        n = int(round(self.t_max / self.dt))
        return np.arange(n + 1, dtype=np.float64) * self.dt


def epsilon(t, tau: float):
    """Spike response kernel (t/tau) * exp(1 - t/tau) for t > 0, else 0.

    Unit peak exactly at t = tau.  The gate is strict: a contribution at
    its own spike instant (t = 0) is zero.  Accepts scalars or arrays.
    """
    if not 0 < tau < np.inf:  # NaN fails too
        raise InputError("tau must be positive and finite")
    out = _epsilon_consuming(np.array(t, dtype=np.float64, ndmin=1), tau)
    if np.ndim(t) == 0:
        return float(out[0])
    return out


def _epsilon_consuming(t: np.ndarray, tau: float) -> np.ndarray:
    """``epsilon`` of a float64 array that it overwrites with t / tau.

    Two full-size buffers and no masked gather or scatter: the response
    is computed everywhere and the t <= 0 (and NaN) entries are zeroed.
    """
    scaled = np.divide(t, tau, out=t)
    out = 1.0 - scaled
    # exp overflows only where t is far below 0, which the gate zeroes
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out *= scaled
    np.copyto(out, 0.0, where=~(scaled > 0))
    return out


class OutputNeuron:
    """One class's output neuron: a threshold plus sorted Gaussian term arrays.

    Term k adds ``amplitudes[k] * exp(-(t - centers[k])^2 / (2 sigma^2))``
    to the weight of input neuron ``inputs[k]``.  The three arrays are
    parallel and sorted by (input, center); centers lie on the encoding
    time grid, so repeated updates at one presynaptic spike time merge
    into one amplitude instead of growing the arrays every epoch.
    Amplitudes may be positive or negative.
    """

    __slots__ = ("class_label", "input_count", "sigma", "threshold",
                 "inputs", "centers", "amplitudes")

    def __init__(self, class_label: int, input_count: int, sigma: float, threshold: float = 0.0):
        if not sigma > 0:
            raise ConfigError("sigma must be positive")
        self.class_label = int(class_label)
        self.input_count = int(input_count)
        self.sigma = float(sigma)
        self.threshold = float(threshold)
        self.inputs = np.zeros(0, dtype=np.int64)
        self.centers = np.zeros(0)
        self.amplitudes = np.zeros(0)

    def synapses(self) -> list[list[list[float]]]:
        """Per input neuron, its [center, amplitude] pairs sorted by center."""
        pairs = [[c, a] for c, a in zip(self.centers.tolist(), self.amplitudes.tolist())]
        bounds = np.searchsorted(self.inputs, np.arange(self.input_count + 1)).tolist()
        return [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def add_terms(self, neuron_ids: Sequence[int], centers: Sequence[float],
                  amplitudes: Sequence[float]) -> None:
        """Add one Gaussian term per (input neuron, center, amplitude) triple.

        A center is snapped to the time grid; a term whose (input, center)
        key is already present adds its amplitude to the stored one, in
        arrival order.  A new key is inserted once, its amplitude summed
        as ``0.0 + a1 + a2 ...`` in arrival order, so no stored amplitude
        is ever -0.0 and adding to one is adding to ``0.0 + stored``.
        Stored terms are found by binary search and left where they are.
        A non-finite term, or a center of 2**31 or more ticks, raises InputError.
        """
        ids = np.asarray(neuron_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.input_count):
            raise InputError(f"input neuron outside [0, {self.input_count})")
        ticks = np.rint(np.asarray(centers, dtype=np.float64) / TIME_QUANTUM)
        amplitudes = np.asarray(amplitudes, dtype=np.float64)
        if not ((abs(ticks) < 2**31).all() and np.isfinite(amplitudes).all()):
            raise InputError("a term needs a finite amplitude and a center within 2**31 ticks")
        ticks = ticks.astype(np.int64)
        # one int64 key per term, ordered like (input, tick) for |tick| < 2**31
        keys = (ids << 32) + ticks
        stored = (self.inputs << 32) + np.rint(self.centers / TIME_QUANTUM).astype(np.int64)
        if stored.size:
            at = np.searchsorted(stored, keys)
            found = stored[np.minimum(at, stored.size - 1)] == keys
            np.add.at(self.amplitudes, at[found], amplitudes[found])
            new = ~found
            ids, ticks, amplitudes, keys = ids[new], ticks[new], amplitudes[new], keys[new]
        if not keys.size:
            return
        # a stable sort keeps arrival order within a key and is linear on
        # the already sorted keys of a checkpoint
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        head = np.ones(keys.size, dtype=bool)
        head[1:] = keys[1:] != keys[:-1]
        first = order[head]  # the first arrival of each new key
        columns = (ids[first], ticks[first] * TIME_QUANTUM,
                   np.bincount(np.cumsum(head) - 1, weights=amplitudes[order]))
        if stored.size:
            # new key k lands after the k new keys before it
            dest = np.searchsorted(stored, keys[head]) + np.arange(first.size)
            kept = np.ones(stored.size + first.size, dtype=bool)
            kept[dest] = False
            columns = [_merged(old, kept, dest, new) for old, new in
                       zip((self.inputs, self.centers, self.amplitudes), columns)]
        self.inputs, self.centers, self.amplitudes = columns

    def sample_weights(self, neuron_ids: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Momentary weight of each (input neuron, time) spike.

        Input ids must be distinct, as in a SpikePattern.
        """
        ids = np.asarray(neuron_ids, dtype=np.int64)
        spike_times = np.full((1, self.input_count), np.nan)
        spike_times[0, ids] = times
        return self.sample_rows(spike_times)[0, ids]

    def sample_rows(self, spike_times: np.ndarray) -> np.ndarray:
        """Momentary weights for a (patterns, inputs) spike-time matrix.

        One gather puts each term next to its input's spike time (NaN for
        a silent input), one bincount offset by row sums the terms per
        (pattern, input) bin in term order, so every row equals
        ``sample_weights`` of its pattern bit for bit.  Silent inputs
        read NaN, or 0 when they have no term.
        """
        rows = spike_times.shape[0]
        vals = efficacy(np.take(spike_times, self.inputs, axis=1), self.centers,
                        self.amplitudes, self.sigma)
        bins = np.arange(0, rows * self.input_count, self.input_count)[:, None] + self.inputs
        return np.bincount(bins.ravel(), weights=vals.ravel(),
                           minlength=rows * self.input_count).reshape(rows, self.input_count)


def efficacy(t: np.ndarray, centers, amplitudes, sigma: float) -> np.ndarray:
    """Weight terms ``amplitudes * exp(-(t - centers)^2 / (2 sigma^2))``, written
    over the float64 array ``t``; no other code computes a term."""
    t -= centers
    t /= sigma
    np.square(t, out=t)
    t *= -0.5
    np.exp(t, out=t)
    t *= amplitudes
    return t


def _merged(old: np.ndarray, kept: np.ndarray, dest: np.ndarray,
            new: np.ndarray) -> np.ndarray:
    """``old`` at the ``kept`` positions and ``new`` at ``dest``, in one array."""
    out = np.empty(kept.size, dtype=old.dtype)
    out[kept] = old
    out[dest] = new
    return out


class ResponseTable:
    """Kernel responses over ``sim.grid()``, one row per spike-time tick seen.

    A spike at t responds ``epsilon(grid - t)`` across the grid, an
    elementwise function of t alone, and spike times sit on the
    TIME_QUANTUM ticks of [0, t_max].  Each tick's row is computed the
    first time a spike lands on it and only gathered after that; the
    arithmetic is that of computing ``grid[None, :] - times[:, None]``
    directly, so a gathered matrix equals the direct one bit for bit.
    Rows are only appended: growing copies the earlier rows to the same
    indices, so an index, once handed out, reads the same row for the
    life of the table.  At most ``round(t_max / TIME_QUANTUM) + 1`` rows
    exist.  Filling holds a lock; reading does not.
    """

    def __init__(self, sim: SimulationConfig):
        self.sim = sim
        self._grid = sim.grid()
        self._last_tick = int(round(sim.t_max / TIME_QUANTUM))
        self._index = np.full(self._last_tick + 1, -1, dtype=np.int64)
        self._rows = np.empty((0, self._grid.size))
        self._count = 0
        self._lock = threading.Lock()

    def indices(self, times: np.ndarray) -> np.ndarray:
        """Row index of each spike time (ms, on the tick grid, at least 0)."""
        ticks = np.rint(np.asarray(times, dtype=np.float64) / TIME_QUANTUM)
        if ticks.size and ticks.max() > self._last_tick:
            raise InputError(f"a spike time exceeds t_max = {self.sim.t_max} ms")
        ticks = ticks.astype(np.int64)
        rows = self._index[ticks]
        if rows.size and rows.min() < 0:
            with self._lock:
                self._fill(ticks)
            rows = self._index[ticks]
        return rows

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), grid) responses of rows that ``indices`` returned."""
        return self._rows[rows]

    def matrix(self, times: np.ndarray) -> np.ndarray:
        """(spikes, grid) responses of the given spike times."""
        return self.gather(self.indices(times))

    def _fill(self, ticks: np.ndarray) -> None:
        new = np.unique(ticks[self._index[ticks] < 0])
        if not new.size:
            return
        end = self._count + new.size
        if end > len(self._rows):
            grown = np.empty((min(max(end, 2 * len(self._rows)), self._last_tick + 1),
                              self._grid.size))
            grown[:self._count] = self._rows[:self._count]
            self._rows = grown
        self._rows[self._count:end] = _epsilon_consuming(
            self._grid[None, :] - (new * TIME_QUANTUM)[:, None], self.sim.tau)
        # publish the indices last: a reader that sees them sees the rows
        self._index[new] = np.arange(self._count, end)
        self._count = end


# One table per simulation setting, shared by every inference call in the
# process: a row depends on nothing but the frozen SimulationConfig.
_TABLES: dict[SimulationConfig, ResponseTable] = {}
_TABLES_LOCK = threading.Lock()


def _shared_table(sim: SimulationConfig) -> ResponseTable:
    table = _TABLES.get(sim)
    if table is None:
        with _TABLES_LOCK:
            table = _TABLES.setdefault(sim, ResponseTable(sim))
    return table


def response_matrix(pattern: SpikePattern, sim: SimulationConfig) -> np.ndarray:
    """Kernel response of each spike at each grid time: (spikes, grid).

    Rows come from the process's ResponseTable for ``sim``; a spike
    after ``sim.t_max`` raises InputError.
    """
    return _shared_table(sim).matrix(pattern.times)


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


class Network:
    """Ordered bank of output neurons, one per class label 0..p-1."""

    def __init__(self, class_count: int, input_count: int, sigma: float,
                 sim: SimulationConfig, spike_interval: float):
        if class_count < 1:
            raise ConfigError("class_count must be >= 1")
        if input_count < 1:
            raise ConfigError("input_count must be >= 1")
        if not 0 < sigma < np.inf:
            raise ConfigError("sigma must be positive and finite")
        if not 0 < spike_interval < sim.t_max:
            raise ConfigError("the presynaptic interval must lie in (0, t_max)")
        self.class_count = class_count
        self.input_count = input_count
        self.sigma = float(sigma)
        self.sim = sim
        self.spike_interval = float(spike_interval)
        self.neurons: list[Optional[OutputNeuron]] = [None] * class_count

    def sample_rows(self, spike_times: np.ndarray) -> np.ndarray:
        """(patterns, classes, inputs) weights of (patterns, inputs) spike
        times; zero rows for uninitialized neurons."""
        weights = np.zeros((spike_times.shape[0], self.class_count, self.input_count))
        for j, neuron in enumerate(self.neurons):
            if neuron is not None:
                weights[:, j] = neuron.sample_rows(spike_times)
        return weights

    def evaluate_pattern(self, weights: np.ndarray, eps_matrix: np.ndarray,
                         thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``first_crossings`` of one pattern's (live, spikes) weights times its
        (spikes, grid) responses: training's kernel.  ``predict`` forms the
        same product per pattern and passes a chunk to ``crossings``."""
        return first_crossings(weights @ eps_matrix, thresholds)

    def crossings(self, v: np.ndarray, live: np.ndarray) -> PatternActivity:
        """Activity from potentials ``v`` of shape (..., live neurons, grid),
        ``live`` masking the initialized neurons: a neuron fires at its
        ``first_crossings`` index times dt iff its peak reaches its threshold.
        Leading axes, if any, index patterns."""
        thresholds = np.array([n.threshold for n in self.neurons if n is not None])
        first, top = first_crossings(v, thresholds)
        crossed = np.where(top >= thresholds, first * self.sim.dt, np.nan)
        if live.all():
            return PatternActivity(fire_times=crossed, peaks=top)
        fire_times = np.full(top.shape[:-1] + live.shape, np.nan)
        peaks = np.full(fire_times.shape, -np.inf)
        fire_times[..., live] = crossed
        peaks[..., live] = top
        return PatternActivity(fire_times=fire_times, peaks=peaks)


def first_crossings(v: np.ndarray, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First grid index at or above the neuron's threshold (0 if none; a row
    reaches it iff its peak does) and peak of each (..., neurons, grid) row."""
    return (v >= thresholds[:, None]).argmax(axis=-1), v.max(axis=-1)


# ---------------------------------------------------------------------------
# Serialization: flat, versioned JSON with exact float round-trip.
# ---------------------------------------------------------------------------

def model_to_dict(net: Network, encoder: Optional[EncoderConfig] = None) -> dict:
    neurons = []
    for neuron in net.neurons:
        if neuron is None:
            neurons.append(None)
            continue
        neurons.append({
            "class_label": neuron.class_label,
            "threshold": neuron.threshold,
            "synapses": neuron.synapses(),
        })
    doc = {
        "format": MODEL_FORMAT,
        "sigma": net.sigma,
        "spike_interval": net.spike_interval,
        "simulation": {"tau": net.sim.tau, "t_max": net.sim.t_max, "dt": net.sim.dt},
        "input_count": net.input_count,
        "class_count": net.class_count,
        "neurons": neurons,
        "encoder": None if encoder is None else {
            "receptive_field_count": encoder.receptive_field_count,
            "overlap": encoder.overlap,
            "spike_interval": encoder.spike_interval,
            "response_cutoff": encoder.response_cutoff,
            "feature_ranges": [list(r) for r in encoder.feature_ranges],
        },
    }
    return doc


def model_from_dict(doc: dict) -> tuple[Network, Optional[EncoderConfig]]:
    """Rebuild a network from its checkpoint, rejecting any inconsistency.

    A missing key, a count that is not an integer, a neuron or synapse
    count that disagrees with the declared shape, a neuron stored under
    another position, a non-finite setting, threshold, center or
    amplitude, a center outside the spike window, and an encoder that is
    invalid or does not feed the network's inputs over its spike interval
    all raise InputError.
    """
    try:
        if doc.get("format") != MODEL_FORMAT:
            raise InputError(f"unsupported model format: {doc.get('format')!r}")
        s = doc["simulation"]
        sim = SimulationConfig(tau=s["tau"], t_max=s["t_max"], dt=s["dt"])
        net = Network(operator.index(doc["class_count"]), operator.index(doc["input_count"]),
                      doc["sigma"], sim, doc["spike_interval"])
        if len(doc["neurons"]) != net.class_count:
            raise InputError(f"model has {len(doc['neurons'])} neurons for "
                             f"{net.class_count} classes")
        for j, entry in enumerate(doc["neurons"]):
            if entry is not None:
                net.neurons[j] = _neuron_from_dict(j, entry, net)
        enc = None
        e = doc["encoder"]
        if e is not None:
            enc = EncoderConfig(
                receptive_field_count=operator.index(e["receptive_field_count"]),
                overlap=e["overlap"],
                spike_interval=e["spike_interval"],
                response_cutoff=e["response_cutoff"],
                feature_ranges=tuple((float(lo), float(hi)) for lo, hi in e["feature_ranges"]),
            )
            if enc.neuron_count != net.input_count or enc.spike_interval != net.spike_interval:
                raise InputError(f"encoder feeds {enc.neuron_count} inputs over "
                                 f"{enc.spike_interval} ms; the network has "
                                 f"{net.input_count} over {net.spike_interval} ms")
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise InputError(f"malformed model checkpoint: {type(exc).__name__} {exc}") from exc
    return net, enc


def _neuron_from_dict(j: int, entry: dict, net: Network) -> OutputNeuron:
    if operator.index(entry["class_label"]) != j:
        raise InputError(f"neuron {j} is labeled {entry['class_label']!r}")
    synapses = entry["synapses"]
    if len(synapses) != net.input_count:
        raise InputError(f"neuron {j} has {len(synapses)} synapses for "
                         f"{net.input_count} inputs")
    threshold = float(entry["threshold"])
    pairs = [pair for terms in synapses for pair in terms]
    flat = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    if len(flat) != len(pairs):
        raise InputError(f"neuron {j} has a term that is not a (center, amplitude) pair")
    if not (np.isfinite(threshold) and np.isfinite(flat).all()):
        raise InputError(f"neuron {j} has a non-finite threshold, center or amplitude")
    centers, amplitudes = flat[:, 0], flat[:, 1]
    if np.any((centers < 0.0) | (centers > net.spike_interval)):
        raise InputError(f"neuron {j} has a center outside [0, {net.spike_interval}]")
    neuron = OutputNeuron(j, net.input_count, net.sigma, threshold=threshold)
    neuron.add_terms(np.repeat(np.arange(net.input_count), [len(t) for t in synapses]),
                     centers, amplitudes)
    return neuron


def model_to_json_bytes(net: Network, encoder: Optional[EncoderConfig] = None) -> bytes:
    """Canonical byte encoding; identical models produce identical bytes."""
    return json.dumps(model_to_dict(net, encoder), sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def save_model(path, net: Network, encoder: Optional[EncoderConfig] = None) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_json_bytes(net, encoder))


def load_model(path) -> tuple[Network, Optional[EncoderConfig]]:
    with open(path, "r", encoding="ascii") as fh:
        return model_from_dict(json.load(fh))
