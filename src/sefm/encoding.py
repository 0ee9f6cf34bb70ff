"""Gaussian receptive-field population encoding of real-valued features.

Each feature is covered by M overlapping Gaussian fields.  A field's
response in [0, 1] is mapped linearly to a firing latency: response 1
fires at 0 ms, weaker responses fire later, and responses below a cutoff
stay silent.  Every (feature, field) pair is one input neuron, so an
F-feature problem becomes F*M input neurons each firing at most once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, InputError

# Firing times are snapped to this grid (ms) so encoded patterns are
# bit-identical across platforms and weight-term centers can be merged
# by exact key.
TIME_QUANTUM = 0.001


def _is_count(value) -> bool:
    """Whether ``value`` is an integer other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number other than a bool that a float64
    holds (10**400 overflows it): what every rule on a real setting asks
    first, so that it never compares a string or divides a huge int."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _is_range(pair) -> bool:
    """Whether ``pair`` is a (lo, hi) pair of real numbers, finite, lo < hi."""
    try:
        lo, hi = pair
    except (TypeError, ValueError):
        return False
    return _is_real(lo) and _is_real(hi) and -np.inf < lo < hi < np.inf


@dataclass(frozen=True)
class EncoderConfig:
    """Fitted settings of the population encoder.

    Attributes
    ----------
    receptive_field_count : int
        Fields per feature (M), an integer >= 3: center/width formulas
        divide by M - 2.
    overlap : float
        Overlap constant gamma controlling field width; positive and finite.
    spike_interval : float
        Presynaptic spike window T in ms, positive and finite; all spikes
        land in [0, T].
    response_cutoff : float
        Responses below this value, in [0, 1), emit no spike.
    feature_ranges : tuple[tuple[float, float], ...]
        Per-feature (min, max) taken from training data, each giving its
        fields finite centers and positive, finite widths.
    """

    receptive_field_count: int
    overlap: float
    spike_interval: float
    response_cutoff: float
    feature_ranges: tuple[tuple[float, float], ...]

    def __post_init__(self):
        bad = []  # every bad field, named in one ConfigError; NaN fails each check
        if not (_is_count(self.receptive_field_count) and self.receptive_field_count >= 3):
            bad.append("receptive_field_count must be an integer >= 3 "
                       "(width formula divides by M-2)")
        bad += [f"{name} must be positive and finite" for name in ("overlap", "spike_interval")
                if not (_is_real(value := getattr(self, name)) and 0 < value < np.inf)]
        if not (_is_real(self.response_cutoff) and 0.0 <= self.response_cutoff < 1.0):
            bad.append("response_cutoff must lie in [0, 1)")
        ranges = [f for f, pair in enumerate(self.feature_ranges) if not _is_range(pair)]
        if not (bad or ranges) and _is_real(self.receptive_field_count):
            # nor may a field overflow or have width 0; fields 1 and M bound the
            # rest, so nothing M long is built before a network checks M's size
            with np.errstate(over="ignore", invalid="ignore"):
                centers, widths = self._fields(np.array([1.0, self.receptive_field_count]))
            held = np.isfinite(centers).all(axis=1) & (0 < widths) & (widths < np.inf)
            ranges = np.flatnonzero(~held).tolist()
        if ranges:
            bad.append(f"feature_ranges {ranges} must be (lo, hi) pairs, finite with lo < hi, "
                       "whose field centers and widths are finite, widths above 0")
        if bad:
            raise ConfigError("; ".join(bad))

    @property
    def feature_count(self) -> int:
        return len(self.feature_ranges)

    @property
    def neuron_count(self) -> int:
        return self.feature_count * self.receptive_field_count

    @cached_property
    def field_geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """(features, fields) centers mu_h and (features,) widths s of every
        field, computed once per config and shared by every caller.

        For fields h = 1..M over a feature's range [lo, hi]:

            mu_h = lo + (2h - 3)/2 * (hi - lo)/(M - 2)
            s    = (1/gamma) * (hi - lo)/(M - 2)

        The outermost centers fall slightly outside [lo, hi] so the boundary
        values are still covered by a strong response.
        """
        return self._fields(np.arange(1, self.receptive_field_count + 1, dtype=np.float64))

    def _fields(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (features, len(h)) centers of fields ``h``, and the widths."""
        lo, hi = np.array(self.feature_ranges, dtype=np.float64).reshape(-1, 2).T
        span = (hi - lo) / (self.receptive_field_count - 2)
        return lo[:, None] + (2.0 * h - 3.0) / 2.0 * span[:, None], span / self.overlap


def _snap(ts: np.ndarray) -> np.ndarray:
    """The read-only int32 tick of each float64 spike time on the
    TIME_QUANTUM grid; ``ts`` is overwritten.

    A NaN, infinite or negative time raises InputError, and so does one
    whose tick is 2**31 or more: a term key holds a tick in 31 bits.
    """
    # rint(x) < 2**31 exactly when x < 2**31 - 0.5 (a half rounds to even)
    if ts.size and not (ts.min() >= 0.0 and float(ts.max()) / TIME_QUANTUM < 2**31 - 0.5):
        raise InputError("spike times must be finite and non-negative, and below 2**31 ticks")
    ts /= TIME_QUANTUM
    ticks = np.rint(ts, out=ts).astype(np.int32)
    ticks.setflags(write=False)
    return ticks


@dataclass(frozen=True, init=False)
class SpikePattern:
    """Presynaptic spikes of one encoded sample.

    ``neuron_ids[k]`` fires on tick ``ticks[k]`` of the TIME_QUANTUM grid,
    ids ascending; ``times`` derives each spike's time in ms from its tick.
    Each input neuron fires at most once (the encoder never emits a second
    spike).  The constructor sorts by id, validates and snaps its times; a
    time ``_snap`` rejects raises InputError.
    """

    neuron_count: int
    neuron_ids: np.ndarray
    ticks: np.ndarray

    def __init__(self, neuron_count: int, neuron_ids, times):
        if not (_is_count(neuron_count) and neuron_count >= 0):
            raise InputError("neuron_count must be a non-negative integer")
        ids = np.asarray(neuron_ids, dtype=np.int64)
        ts = np.asarray(times, dtype=np.float64)
        if ids.shape != ts.shape or ids.ndim != 1:
            raise InputError("neuron_ids and times must be 1-d arrays of equal length")
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        if ids.size and (ids[0] < 0 or ids[-1] >= neuron_count):
            raise InputError("neuron id outside [0, neuron_count)")
        if np.any(ids[1:] == ids[:-1]):
            raise InputError("a neuron id repeats; each input neuron fires at most once")
        ids.setflags(write=False)
        object.__setattr__(self, "neuron_count", int(neuron_count))
        object.__setattr__(self, "neuron_ids", ids)
        object.__setattr__(self, "ticks", _snap(ts[order]))  # ts[order] is a copy

    @classmethod
    def _trusted(cls, neuron_count: int, ids: np.ndarray, ticks: np.ndarray) -> SpikePattern:
        """A pattern from read-only ids that are ascending, distinct and in
        range, and their read-only ticks from ``_snap``; nothing is checked
        again."""
        pattern = object.__new__(cls)
        object.__setattr__(pattern, "neuron_count", neuron_count)
        object.__setattr__(pattern, "neuron_ids", ids)
        object.__setattr__(pattern, "ticks", ticks)
        return pattern

    @property
    def times(self) -> np.ndarray:
        """The time of each spike in ms, ``ticks * TIME_QUANTUM``: a new array
        on every read."""
        return self.ticks * TIME_QUANTUM

    @property
    def spike_count(self) -> int:
        return int(self.ticks.size)


def fit_ranges(
    dataset,
    receptive_field_count: int = 6,
    overlap: float = 0.7,
    spike_interval: float = 3.0,
    response_cutoff: float = 0.1,
) -> EncoderConfig:
    """Learn per-feature (min, max) from training data and build a config.

    A constant feature gets its range widened to (v - 0.5, v + 0.5) so the
    field widths stay positive; every sample then maps identically, which
    is the best a constant feature can do.
    """
    x = np.asarray(dataset, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ConfigError("fit_ranges needs a non-empty 2-d dataset")
    ranges = []
    for f in range(x.shape[1]):
        col = x[:, f]
        col = col[~np.isnan(col)]
        if col.size == 0:
            raise ConfigError(f"feature {f} has no finite values")
        lo, hi = float(col.min()), float(col.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        ranges.append((lo, hi))
    return EncoderConfig(receptive_field_count, overlap, spike_interval, response_cutoff,
                         tuple(ranges))


def encode(features, cfg: EncoderConfig) -> SpikePattern:
    """Encode one feature vector into a spike pattern.

    Input neuron f*M + (h-1) carries field h of feature f and fires at
    t = T * (1 - response), snapped to the time grid, whenever the
    response reaches the cutoff.  Stronger stimulus means earlier spike;
    sub-cutoff fields stay silent, so a neuron emits 0 or 1 spikes.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.shape != (cfg.feature_count,):
        raise InputError(
            f"expected {cfg.feature_count} features, got shape {x.shape}"
        )
    return encode_dataset(x[None, :], cfg)[0]


def encode_dataset(features_matrix, cfg: EncoderConfig) -> list[SpikePattern]:
    """Encode every row of a (rows, features) matrix, as ``encode`` does one.

    All (row, feature, field) responses come from one broadcast, and the
    fired times of all rows are checked and snapped in one pass.  A NaN
    feature leaves its fields silent, and an infinite one responds 0.  Each
    pattern's ids and ticks are read-only slices of one flat pair shared by
    the batch.
    """
    x = np.asarray(features_matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.feature_count:
        raise InputError(
            f"expected rows of {cfg.feature_count} features, got shape {x.shape}"
        )
    n = cfg.neuron_count
    centers, widths = cfg.field_geometry
    with np.errstate(over="ignore"):  # a huge feature is infinitely far: response 0
        d = (x[:, :, None] - centers) / widths[:, None]
        resp = np.exp(-0.5 * d * d).reshape(len(x), n)
    fired = resp >= cfg.response_cutoff
    times = resp[fired]  # T (1 - r) in place: no second (spikes,) temporary
    np.subtract(1.0, times, out=times)
    times *= cfg.spike_interval
    ticks = _snap(times)
    ids = np.flatnonzero(fired)
    ids %= n  # ascending within a row
    ids.setflags(write=False)
    ends = fired.sum(axis=1).cumsum().tolist()
    return [SpikePattern._trusted(n, ids[a:b], ticks[a:b])
            for a, b in zip([0, *ends], ends)]

