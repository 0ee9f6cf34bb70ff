"""Time-varying synaptic weights, postsynaptic potentials, firing times.

A synapse's weight is a function of time: a sum of Gaussians of shared
width sigma, each centered at a presynaptic spike time that once carried
a weight update.  Sampling is exact evaluation of that sum.  A network
is one firing threshold per class plus the parallel (class, input,
center, amplitude) arrays of all its terms; a class's output neuron
fires at the first grid time where its potential reaches the threshold
(time-to-first-spike, at most one spike per pattern).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .encoding import TIME_QUANTUM, EncoderConfig, SpikePattern, _is_count, _is_real
from .errors import ConfigError, InputError

MODEL_FORMAT = "sefm-model/1"

# The size limits of a model, checked where SimulationConfig and Network are
# built, before anything is allocated for them: a ConfigError from a config,
# an InputError from a checkpoint.  Every sampled weight column holds
# class_count * input_count float64 cells (8 MiB at MAX_CELLS), and
# ``responses`` computes one kernel row of ``SimulationConfig.kernel_row()``
# float64 values (32 MiB at MAX_KERNEL_ROW; 16,001 on the default grid).
MAX_CELLS = 2**20
MAX_KERNEL_ROW = 2**22


@dataclass(frozen=True)
class SimulationConfig:
    """Postsynaptic simulation settings.

    tau is the spike-response time constant (ms), t_max the end of the
    postsynaptic interval (ms) and dt the threshold-search grid step (ms),
    both whole numbers of TIME_QUANTUM ticks.  Every bad field is named in one
    ConfigError, and so is a kernel row longer than MAX_KERNEL_ROW.
    """

    tau: float = 3.0
    t_max: float = 8.0
    dt: float = 0.01

    def __post_init__(self):
        bad = [f"{name} must be positive and finite" for name in ("tau", "t_max", "dt")
               if not (_is_real(value := getattr(self, name)) and 0 < value < np.inf)]
        # whole up to rounding (0.043 / 0.001 is 42.99999999999999); a time
        # under half a tick rounds to 0, which no positive time is close to
        bad += [f"{name} must be a whole number of {TIME_QUANTUM} ms ticks"
                for name in ("t_max", "dt") if _is_real(value := getattr(self, name))
                and 0 < (ticks := value / TIME_QUANTUM) < np.inf
                and not math.isclose(ticks, round(ticks), rel_tol=1e-9)]
        # compared as floats first, so that no tick count overflows
        if not bad and (max(self.t_max, self.dt) / TIME_QUANTUM > MAX_KERNEL_ROW
                        or self.kernel_row() > MAX_KERNEL_ROW):
            bad.append(f"t_max and dt need a kernel row of at most MAX_KERNEL_ROW = "
                       f"{MAX_KERNEL_ROW:,} values")
        if bad:
            raise ConfigError("; ".join(bad))

    def ticks(self) -> tuple[int, int]:
        """t_max and dt in whole TIME_QUANTUM ticks: (K, R)."""
        return round(self.t_max / TIME_QUANTUM), round(self.dt / TIME_QUANTUM)

    def columns(self) -> int:
        """Times on the search grid, counted in whole ticks so that none
        lies after t_max: K // R + 1."""
        last, step = self.ticks()
        return last // step + 1

    def kernel_row(self) -> int:
        """Values in the kernel row of ``responses``: (columns - 1) * R + K + 1."""
        last, step = self.ticks()
        return (self.columns() - 1) * step + last + 1


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
    """Read-only view of one class's output neuron in a Network.

    Its threshold and terms are the class's entries in the network's
    arrays: term k adds ``amplitudes[k] * exp(-(t - centers[k])^2 / (2 sigma^2))``
    to the weight of input neuron ``inputs[k]``, and the terms are sorted
    by (input, center).  The view stores nothing of its own, so it always
    shows the network as it is now.
    """

    __slots__ = ("network", "class_label")

    def __init__(self, network: Network, class_label: int):
        self.network = network
        self.class_label = class_label

    @property
    def input_count(self) -> int:
        return self.network.input_count

    @property
    def sigma(self) -> float:
        return self.network.sigma

    @property
    def threshold(self) -> float:
        return float(self.network.thresholds[self.class_label])

    def _terms(self, column: np.ndarray) -> np.ndarray:
        net, j = self.network, self.class_label
        out = column[slice(*np.searchsorted(net.keys, [(j * net.input_count) << 32,
                                                       ((j + 1) * net.input_count) << 32]))]
        out.flags.writeable = False
        return out

    @property
    def inputs(self) -> np.ndarray:
        return (self._terms(self.network.keys) >> 32) - self.class_label * self.input_count

    @property
    def centers(self) -> np.ndarray:
        return self._terms(self.network.centers)

    @property
    def amplitudes(self) -> np.ndarray:
        return self._terms(self.network.amplitudes)

    def synapses(self) -> list[list[list[float]]]:
        """Per input neuron, its [center, amplitude] pairs sorted by center."""
        pairs = [[c, a] for c, a in zip(self.centers.tolist(), self.amplitudes.tolist())]
        bounds = np.searchsorted(self.inputs, np.arange(self.input_count + 1)).tolist()
        return [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def sample_weights(self, neuron_ids: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Momentary weight of each (input neuron, time) spike.

        An id outside [0, input_count) or a repeated id raises InputError:
        the ids must be distinct inputs, as in a SpikePattern.
        """
        ids = np.asarray(neuron_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.input_count):
            raise InputError(f"input neuron outside [0, {self.input_count})")
        if np.unique(ids).size != ids.size:
            raise InputError("an input neuron is repeated")
        spike_times = np.full((self.input_count, 1), np.nan)
        spike_times[ids, 0] = times
        return self.network.sample(spike_times)[self.class_label, ids, 0]


# The sigma below which a term's ((t - c) / sigma)^2 can overflow.  A spike
# time t and a center c lie on non-negative int32 ticks (``encoding._snap``),
# so |t - c| is under 2.2e6 ms; the square overflows only above 1.34e154
# (the root of the largest float64), so only a sigma under 2.2e6 / 1.34e154,
# about 1.6e-148, can reach it, and the divide only one under 1.2e-302.
_OVERFLOW_SIGMA = 1e-140
# Entered in place of np.errstate at or above that floor; it holds no state,
# so one instance serves every call.
_NO_GUARD = contextlib.nullcontext()


def efficacy(t: np.ndarray, centers, amplitudes, sigma: float) -> np.ndarray:
    """Weight terms ``amplitudes * exp(-(t - centers)^2 / (2 sigma^2))``, written
    over the float64 array ``t``; no other code computes a term."""
    t -= centers
    # an overflow gives inf, and exp(-inf) gives 0
    with np.errstate(over="ignore") if sigma < _OVERFLOW_SIGMA else _NO_GUARD:
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


@functools.lru_cache(maxsize=1)
def responses(sim: SimulationConfig) -> np.ndarray:
    """Kernel response of a spike on each tick 0..K of [0, t_max] at each
    grid time: a read-only (K + 1, columns) view whose row k, column g reads
    ``epsilon((g * R - k) * TIME_QUANTUM)``, for a grid step of R ticks.

    A response depends only on the tick difference ``g * R - k``, so every
    row is a window of one kernel row ``a[m] = epsilon((m - K) *
    TIME_QUANTUM)``, read one tick back per row and R ticks on per column:
    16,001 values (128 KB) on the default grid.  A ``Network`` holds it as
    its ``response_rows``; the cache keeps the last setting's view, so the
    next network on that grid, as each ``load_model`` builds, shares it
    instead of paying for the row again, and at most one row outlives the
    networks that read it.
    """
    last, step = sim.ticks()
    row = _epsilon_consuming((np.arange(sim.kernel_row()) - last) * TIME_QUANTUM, sim.tau)
    row.flags.writeable = False
    return as_strided(row[last:], shape=(last + 1, sim.columns()),
                      strides=(-row.itemsize, step * row.itemsize), writeable=False)


def response_matrix(pattern: SpikePattern, net: Network, lo: int,
                    hi: int) -> np.ndarray:
    """Kernel response of each spike at grid columns lo..hi-1: (spikes,
    hi - lo), the rows of the pattern's ticks in the network's
    ``response_rows``, which training and ``predict`` both read this way.
    ``learning.SampledWeights`` has rejected any spike after ``t_max``.
    """
    return net.response_rows[pattern.ticks, lo:hi]


# Cells of each temporary of a ``Network.sample`` block (its tiled spike
# times, its gathered terms, their per-row sums): 2.6 MB of float64, 32
# columns of a ten-thousand-term model.  A block of two or more columns sums
# its terms rank by rank, a one-column block in one bincount by the terms'
# rows.
SAMPLE_CELLS = 32 * 10_240


class _RankMajor:
    """The terms of one ``Network.sample`` call in rank-major order.

    A term's rank is its place within its (class, input) row.  Rank-major
    order holds rank 0 of every occupied row, then rank 1, and so on, the
    rows deepest first (a stable sort), so the rows that hold rank k are
    the first ``held[k]`` of that row order.  ``order`` lists the stored
    terms in rank-major order; ``place`` gives each of the ``bins`` rows
    its place in the row order, an empty row the place after the last
    occupied one.  Built from each term's rank, each row's place and one
    offset per rank, in O(terms + bins) memory: nothing of ranks x bins.
    """

    __slots__ = ("order", "held", "place")

    def __init__(self, rows: np.ndarray, bins: int):
        firsts = np.flatnonzero(np.diff(rows, prepend=-1))  # each occupied row's first term
        depth = np.diff(firsts, append=rows.size)
        seat = np.empty_like(firsts)  # each occupied row's place, deepest first
        seat[np.argsort(-depth, kind="stable")] = np.arange(firsts.size)
        self.place = np.full(bins, firsts.size)
        self.place[rows[firsts]] = seat
        held = firsts.size - np.cumsum(np.bincount(depth))[:-1]  # rows deeper than k
        position = np.arange(rows.size) - np.repeat(firsts, depth)  # each term's rank
        position = (np.cumsum(held) - held)[position]  # its rank's first position
        position += np.repeat(seat, depth)
        self.order = np.empty_like(position)
        self.order[position] = np.arange(rows.size)
        self.held = held.tolist()

    def sum(self, terms: np.ndarray) -> np.ndarray:
        """The (bins, columns) row sums of (terms, columns) values in
        rank-major order.  Each row starts from 0.0 and adds its terms one
        rank at a time, so in stored order, as a bincount does."""
        acc = np.zeros((self.held[0] + 1, terms.shape[1]))  # the last row stays 0.0
        at = 0
        for k in self.held:
            acc[:k] += terms[at:at + k]
            at += k
        return acc.take(self.place, axis=0)


# Grid columns per block of the activity kernel's potential.  A race is
# decided at its first crossing, and most patterns cross before column 256
# of the default 801-point grid, so most races compute one block.
RACE_BLOCK = 256


def race_blocks(sim: SimulationConfig) -> tuple[tuple[int, int], ...]:
    """The (lo, hi) column blocks, in time order, in which the activity
    kernel computes a potential over the grid: RACE_BLOCK columns
    each, the last one shorter.  A one-column tail joins the block before
    it: numpy hands a one-column product to gemv, whose sums need not
    equal those of the full product, while every block of two or more
    columns goes to gemm and equals the full product's columns bit for bit.
    A ``Network`` computes them once, as its ``blocks``.
    """
    columns = sim.columns()
    starts = list(range(0, columns, RACE_BLOCK))
    if len(starts) > 1 and columns - starts[-1] == 1:
        starts.pop()
    return tuple(zip(starts, starts[1:] + [columns]))


class Network:
    """The whole model as one set of arrays: one output neuron per class label
    0..p-1.

    ``thresholds`` holds each class's firing threshold and ``initialized``
    marks the classes whose neuron has started; an uninitialized class has
    no terms and never takes part in a race.  The Gaussian terms of every
    class live in parallel ``keys``, ``centers`` and ``amplitudes`` arrays
    sorted by (class, input, center), with
    ``keys = ((class * input_count + input) << 32) + tick`` for a center
    on tick ``tick`` of the time grid.  ``neurons`` gives a read-only
    OutputNeuron view of each initialized class.

    ``sim`` is fixed when the network is built, and so is the race plan
    read from it: ``response_rows`` (``responses(sim)``), the race
    ``blocks`` and the grid ``step`` in ticks.  A pickle or copy leaves the
    plan out and rebuilds it from ``sim``: numpy would write the strided
    ``response_rows`` out whole, (K + 1) * columns cells (51 MB on the
    default grid) for its 16,001 values.
    """

    _PLAN = ("response_rows", "blocks", "step")

    def __init__(self, class_count: int, input_count: int, sigma: float,
                 sim: SimulationConfig, spike_interval: float):
        for name, count in (("class_count", class_count), ("input_count", input_count)):
            if not (_is_count(count) and count >= 1):
                raise ConfigError(f"{name} must be an integer >= 1")
        # MAX_CELLS also keeps a term key's class * input_count + input in 31 bits
        if class_count * input_count > MAX_CELLS:
            raise ConfigError(f"class_count * input_count must stay within "
                              f"MAX_CELLS = {MAX_CELLS:,}")
        self._check_settings(sigma, spike_interval, sim.t_max)
        self.class_count = int(class_count)
        self.input_count = int(input_count)
        self.sigma = float(sigma)
        self.sim = sim
        self._plan()
        self.spike_interval = float(spike_interval)
        self.thresholds = np.zeros(class_count)
        self.initialized = np.zeros(class_count, dtype=bool)
        self.keys = np.zeros(0, dtype=np.int64)
        self.centers = np.zeros(0)
        self.amplitudes = np.zeros(0)

    @staticmethod
    def _check_settings(sigma: float, spike_interval: float, t_max: float) -> None:
        """Raise one ConfigError naming each bad setting; NetworkConfig asks too."""
        bad = []
        if not (_is_real(sigma) and 0 < sigma < np.inf):
            bad.append("sigma must be positive and finite")
        if not (_is_real(spike_interval) and _is_real(t_max) and 0 < spike_interval < t_max):
            bad.append("spike_interval must lie in (0, t_max)")
        if bad:
            raise ConfigError("; ".join(bad))

    def _plan(self) -> None:
        self.response_rows = responses(self.sim)
        self.blocks = race_blocks(self.sim)
        self.step = self.sim.ticks()[1]

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in self._PLAN}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._plan()

    @property
    def neurons(self) -> list[Optional[OutputNeuron]]:
        """A view of each class's neuron, None for an uninitialized class."""
        return [OutputNeuron(self, j) if live else None
                for j, live in enumerate(self.initialized.tolist())]

    def _add_pattern_terms(self, class_label: int, ids: np.ndarray, ticks: np.ndarray,
                           amplitudes: np.ndarray) -> None:
        """Add one term per spike of a SpikePattern to class ``class_label``:
        the pattern's ascending, distinct int64 ``ids``, their int32 ``ticks``
        and one amplitude each.

        What a pattern does not already imply raises InputError before
        anything changes: a class or an input out of range, a non-finite
        amplitude.
        """
        if not 0 <= class_label < self.class_count:
            raise InputError(f"class outside [0, {self.class_count})")
        if ids.size and (ids[0] < 0 or ids[-1] >= self.input_count):
            raise InputError(f"input neuron outside [0, {self.input_count})")
        if not np.isfinite(amplitudes).all():
            raise InputError("a term needs a finite amplitude")
        # int64 ids widen the ticks, whose 31 bits ``_snap`` has checked
        self._add_sorted(((class_label * self.input_count + ids) << 32) + ticks, amplitudes)

    def _add_sorted(self, keys: np.ndarray, amplitudes: np.ndarray) -> None:
        """Add one term per strictly ascending key, the only way terms enter
        a network: a stored key adds its amplitude in place, and a new one
        is stored as ``0.0 + a`` (so never as -0.0) at center ``tick *
        TIME_QUANTUM``, the tick read from the key's low 32 bits.  Stored
        keys are found by binary search and keep their order."""
        at = np.searchsorted(self.keys, keys)
        found = np.zeros(keys.size, dtype=bool)
        if self.keys.size:
            found = self.keys[np.minimum(at, self.keys.size - 1)] == keys
            self.amplitudes[at[found]] += amplitudes[found]
        if found.all():
            return
        new = ~found
        keys = keys[new]
        columns = (keys, (keys & 0xFFFFFFFF) * TIME_QUANTUM, 0.0 + amplitudes[new])
        if self.keys.size:
            dest = at[new] + np.arange(columns[0].size)  # after the new keys before it
            kept = np.ones(self.keys.size + dest.size, dtype=bool)
            kept[dest] = False
            columns = [_merged(old, kept, dest, column) for old, column in
                       zip((self.keys, self.centers, self.amplitudes), columns)]
        self.keys, self.centers, self.amplitudes = columns

    def sample_block(self) -> int:
        """Columns per block of ``sample``: as many as keep each block's
        (terms, columns) and (classes * inputs, columns) temporaries within
        SAMPLE_CELLS cells, at least one."""
        return max(1, SAMPLE_CELLS // max(self.keys.size, self.class_count * self.input_count))

    def sample(self, spike_times: np.ndarray) -> np.ndarray:
        """Momentary weights (classes, inputs, patterns) of an (inputs,
        patterns) spike-time matrix, NaN for a silent input.

        The columns go ``sample_block`` at a time, each block in one pass
        over every class's terms: one gather puts each term next to its
        input's spike times, ``efficacy`` evaluates it, and each (class,
        input, pattern) bin sums its terms in stored order from 0.0.  A
        call of one-column blocks sums each by one bincount over the terms'
        rows; a wider call gathers its terms in ``_RankMajor`` order and
        adds one rank at a time.  One numpy add per rank costs less than a
        bincount's (terms, columns) index while no row holds more than a
        few hundred terms; a row holds at most one term per distinct
        training spike tick of its input.  A call of one block returns
        that block's sums.  Silent inputs and uninitialized classes read 0.
        """
        shape = (self.class_count, self.input_count)
        cols = spike_times.shape[1]
        if not (self.keys.size and cols):  # (a bincount of nothing counts in int64)
            return np.zeros(shape + (cols,))
        rows = self.keys >> 32  # each term's (class, input) row
        width = min(cols, self.sample_block())
        if width > 1:
            ranked = _RankMajor(rows, math.prod(shape))
            gather, centers, amplitudes = (a[ranked.order] for a in
                                           (rows, self.centers, self.amplitudes))
            total = ranked.sum
        else:  # each block is one column, summed by one bincount in stored order
            gather, centers, amplitudes = rows, self.centers, self.amplitudes
            total = lambda terms: np.bincount(rows, minlength=math.prod(shape),
                                              weights=terms.ravel())
        out = np.empty(shape + (cols,)) if cols > width else None
        for lo in range(0, cols, width):
            n = min(width, cols - lo)
            # the block's gathered terms live only inside this one expression
            sums = total(efficacy(
                np.tile(spike_times[:, lo:lo + n], (self.class_count, 1)).take(gather, axis=0),
                centers[:, None], amplitudes[:, None], self.sigma))
            if out is None:  # one block is the whole output
                out = sums.reshape(shape + (n,))
            else:
                out[..., lo:lo + n] = sums.reshape(shape + (n,))
                del sums  # freed before the next block's gather
        np.copyto(out, 0.0, where=np.isnan(spike_times))
        return out

    def evaluate_pattern(self, weights: np.ndarray, live: list[int],
                         responses: Callable[[int, int], np.ndarray],
                         label: Optional[int] = None,
                         margin: float = 0.0) -> tuple[dict[int, float], int]:
        """The activity kernel of training and ``predict``: one pattern's fire
        times and winning class.

        ``weights`` are the pattern's (classes, spikes) weights, of which
        the ``live`` classes race, each against its threshold: the
        initialized ones, ascending, which the caller reads from the
        network; ``responses(lo, hi)`` are the (spikes, hi - lo) responses at grid
        columns lo..hi-1.  A neuron fires at the first grid index where its
        potential reaches its threshold, times dt (in whole ticks, so never
        after t_max).  The earliest firing class wins, ties going to the
        lowest; if none fires, the highest peak does, and with no live
        class, class 0.

        The potential is computed in the network's race ``blocks``, in
        time order, and the race stops once its answer is fixed: after the
        first block in which any class fires, or, given a ``label``, once
        that class has fired and the blocks reach its fire time plus
        ``margin`` and one grid step, so that every class firing less than
        ``margin`` after it is known.  A race in which nothing fires runs
        every block.  Returns the fire time, in class order, of each class
        that fires in the blocks computed, and the winner.
        """
        if not live:
            return {}, 0
        thresholds = self.thresholds
        if len(live) < self.class_count:  # no copy when every class is live
            weights, thresholds = weights[live], thresholds[live]
        bars, column = thresholds.tolist(), thresholds[:, None]
        first: list[Optional[int]] = [None] * len(live)
        fired = False  # whether any entry of ``first`` is set
        # the label's position, and the columns past its crossing that hold
        # every rival the margin test could push
        held = None if label is None else live.index(label)
        reach = 0 if label is None else math.ceil(margin / self.sim.dt) + 1
        peaks = None
        for lo, hi in self.blocks:
            v = weights @ responses(lo, hi)
            # argmax gives index 0 when nothing crosses, so check the potential there
            for i, k in enumerate((v >= column).argmax(axis=1).tolist()):
                if first[i] is None and v[i, k] >= bars[i]:
                    first[i] = lo + k
                    fired = True
            if fired:
                if held is None or (first[held] is not None and hi >= first[held] + reach):
                    break
            else:  # the peaks decide only a race in which nothing fires
                top = v.max(axis=1)
                peaks = top if peaks is None else np.maximum(peaks, top)
        if fired:
            times = {j: k * self.step * TIME_QUANTUM for j, k in zip(live, first) if k is not None}
            return times, min(times, key=times.__getitem__)
        peaks = peaks.tolist()
        return {}, live[peaks.index(max(peaks))]


# ---------------------------------------------------------------------------
# Serialization: flat, versioned JSON with exact float round-trip.
# ---------------------------------------------------------------------------

def model_to_dict(net: Network, encoder: Optional[EncoderConfig] = None) -> dict:
    neurons = [None if neuron is None else {
        "class_label": neuron.class_label,
        "threshold": neuron.threshold,
        "synapses": neuron.synapses(),
    } for neuron in net.neurons]
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
    all raise InputError.  So does any term not in the form
    ``model_to_dict`` writes: each center a whole number of TIME_QUANTUM
    ticks, and each synapse's centers strictly ascending.  The terms are
    then stored as they stand, in one step; none is snapped, sorted or
    merged.
    """
    try:
        if doc.get("format") != MODEL_FORMAT:
            raise InputError(f"unsupported model format: {doc.get('format')!r}")
        class_count = operator.index(doc["class_count"])
        # compared before anything is allocated for the declared count
        if len(doc["neurons"]) != class_count:
            raise InputError(f"model has {len(doc['neurons'])} neurons for "
                             f"{class_count} classes")
        s = doc["simulation"]
        sim = SimulationConfig(tau=s["tau"], t_max=s["t_max"], dt=s["dt"])
        net = Network(class_count, operator.index(doc["input_count"]),
                      doc["sigma"], sim, doc["spike_interval"])
        terms = [_neuron_from_dict(j, entry, net)
                 for j, entry in enumerate(doc["neurons"]) if entry is not None]
        if terms:
            classes, ids, flat = (np.concatenate(column) for column in zip(*terms))
            ticks = np.rint(flat[:, 0] / TIME_QUANTUM).astype(np.int64)
            keys = ((classes * net.input_count + ids) << 32) + ticks
            # the form the writer emits, stored as it stands
            if not ((ticks * TIME_QUANTUM == flat[:, 0]).all() and (np.diff(keys) > 0).all()):
                raise InputError(f"a center lies off the {TIME_QUANTUM} ms grid, or a "
                                 f"synapse's centers do not strictly ascend")
            net._add_sorted(keys, flat[:, 1])
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


def _neuron_from_dict(j: int, entry: dict, net: Network) -> tuple:
    """Validate neuron ``j``'s entry and set its threshold; returns its class,
    input and (center, amplitude) per term."""
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
    centers = flat[:, 0]
    if np.any((centers < 0.0) | (centers > net.spike_interval)):
        raise InputError(f"neuron {j} has a center outside [0, {net.spike_interval}]")
    net.thresholds[j] = threshold
    net.initialized[j] = True
    return (np.full(len(flat), j), np.repeat(np.arange(net.input_count),
                                             [len(t) for t in synapses]), flat)


def model_to_json_bytes(net: Network, encoder: Optional[EncoderConfig] = None) -> bytes:
    """Canonical byte encoding; identical models produce identical bytes."""
    return json.dumps(model_to_dict(net, encoder), sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def save_model(path, net: Network, encoder: Optional[EncoderConfig] = None) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_json_bytes(net, encoder))


def load_model(path) -> tuple[Network, Optional[EncoderConfig]]:
    """Read a checkpoint; a file that cannot be read as ASCII JSON raises
    InputError, as does any inconsistency ``model_from_dict`` rejects."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"model checkpoint cannot be read as ASCII JSON: "
                         f"{type(exc).__name__} {exc}") from exc
    return model_from_dict(doc)
