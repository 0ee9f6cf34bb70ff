"""Population encoding: field geometry, latency mapping, pattern invariants."""

import math
import re
import warnings

import numpy as np
import pytest

from sefm.encoding import (
    TIME_QUANTUM,
    EncoderConfig,
    SpikePattern,
    encode,
    encode_dataset,
    fit_ranges,
)
from sefm.errors import ConfigError, InputError

from conftest import loop_encode
from oracles import encode_rows


def assert_ticks_of_its_times(pattern: SpikePattern) -> None:
    """``pattern.ticks`` is read-only int32, and ``pattern.times`` is each
    tick times TIME_QUANTUM, bit for bit, whose rounded ticks are the ticks."""
    assert not pattern.ticks.flags.writeable
    assert pattern.ticks.dtype == np.int32
    times = pattern.times
    assert times.dtype == np.float64
    assert times.tobytes() == (pattern.ticks.astype(np.float64) * TIME_QUANTUM).tobytes()
    assert np.rint(times / TIME_QUANTUM).astype(np.int32).tobytes() == pattern.ticks.tobytes()


def unit_config(m=6, overlap=0.7, cutoff=0.1):
    return EncoderConfig(
        receptive_field_count=m,
        overlap=overlap,
        spike_interval=3.0,
        response_cutoff=cutoff,
        feature_ranges=((0.0, 1.0),),
    )


def time_of(pattern, neuron):
    """Spike time of one input neuron; it must have fired."""
    (k,) = np.flatnonzero(pattern.neuron_ids == neuron)
    return float(pattern.times[k])


def fields_of(cfg, feature):
    """Centers and shared width of one feature's fields."""
    centers, widths = cfg.field_geometry
    return centers[feature], float(widths[feature])


# --- field geometry -------------------------------------------------------

def test_centers_and_width_closed_form():
    # M = 6 fields over [0, 1]: span (hi-lo)/(M-2) = 0.25, so
    # mu_h = (2h-3)/2 * 0.25 and s = 0.25 / 0.7.
    centers, width = fields_of(unit_config(), 0)
    expected = [(2 * h - 3) / 2 * 0.25 for h in range(1, 7)]
    assert np.allclose(centers, expected, rtol=0, atol=1e-15)
    assert centers[0] == pytest.approx(-0.125, abs=1e-15)
    assert width == pytest.approx(0.25 / 0.7, abs=1e-15)


def test_outermost_centers_straddle_range():
    centers, _ = fields_of(unit_config(), 0)
    assert centers[0] < 0.0 < centers[-1]
    assert centers[-1] > 1.0


# A field's response r shows in its spike time t = T(1 - r), on the grid.

def test_response_at_center_is_one_and_decays():
    cfg = unit_config()
    centers, width = fields_of(cfg, 0)
    at_center, one_width = encode_dataset(np.array([[centers[2]], [centers[2] + width]]), cfg)
    assert time_of(at_center, 2) == 0.0
    assert time_of(one_width, 2) == pytest.approx(3.0 * (1.0 - math.exp(-0.5)),
                                                  abs=TIME_QUANTUM)


def test_response_example_first_field_at_zero():
    # d = (0 - (-0.125)) / (0.25/0.7) = 0.35, response exp(-0.5 * 0.35^2),
    # so field 1 fires at 3 (1 - 0.94059) = 0.17824 ms, snapped to 0.178.
    expected = math.exp(-0.06125)
    assert expected == pytest.approx(0.9405880634, abs=1e-9)
    (pattern,) = encode_dataset(np.array([[0.0]]), unit_config())
    assert time_of(pattern, 0) == 178 * TIME_QUANTUM


# --- range fitting --------------------------------------------------------

def test_fit_ranges_min_max_per_feature():
    data = np.array([[0.0, 5.0], [2.0, 3.0], [1.0, 9.0]])
    cfg = fit_ranges(data)
    assert cfg.feature_ranges == ((0.0, 2.0), (3.0, 9.0))
    assert cfg.neuron_count == 12


def test_fit_ranges_widens_constant_feature():
    cfg = fit_ranges(np.array([[2.0], [2.0], [2.0]]))
    assert cfg.feature_ranges == ((1.5, 2.5),)


def test_fit_ranges_skips_nan_values():
    cfg = fit_ranges(np.array([[np.nan], [1.0], [4.0]]))
    assert cfg.feature_ranges == ((1.0, 4.0),)


def test_fit_ranges_validation():
    with pytest.raises(ConfigError):
        fit_ranges(np.zeros((0, 3)))
    with pytest.raises(ConfigError):
        fit_ranges(np.ones((3, 2)), receptive_field_count=2)
    with pytest.raises(ConfigError):
        fit_ranges(np.array([[np.nan], [np.nan]]))
    with pytest.raises(ConfigError):
        fit_ranges(np.ones((3, 2)), response_cutoff=1.0)


def test_fit_ranges_names_a_feature_whose_fields_overflow():
    """Feature 1's range, -1e308 to 1e308, has a width no float holds."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=re.escape("feature_ranges [1]")):
            fit_ranges(np.array([[0.0, -1e308], [1.0, 1e308]]))


def test_encoder_config_validates_its_fields():
    # the checks guard fitted and checkpoint-loaded encoders alike
    for bad in ({"m": 2}, {"overlap": 0.0}, {"overlap": np.inf}, {"overlap": np.nan},
                {"cutoff": 1.0}, {"cutoff": -0.1}):
        with pytest.raises(ConfigError):
            unit_config(**bad)
    for interval, ranges in ((0.0, ((0.0, 1.0),)), (np.inf, ((0.0, 1.0),)),
                             (np.nan, ((0.0, 1.0),)), (3.0, ((1.0, 1.0),)),
                             (3.0, ((2.0, 1.0),)), (3.0, ((0.0, np.inf),))):
        with pytest.raises(ConfigError):
            EncoderConfig(6, 0.7, interval, 0.1, ranges)


def test_encoder_config_names_every_bad_field_in_one_error():
    with pytest.raises(ConfigError) as err:
        EncoderConfig(2, -1.0, math.nan, 1.5, ())
    for name in ("receptive_field_count", "overlap", "spike_interval", "response_cutoff"):
        assert name in str(err.value)


# --- latency mapping ------------------------------------------------------

def test_encode_latency_is_interval_times_one_minus_response():
    cfg = unit_config()
    pattern = encode([0.0], cfg)
    # At x = 0 fields 1..4 respond at or above the 0.1 cutoff, 5..6 stay
    # silent; each spike time is T(1 - r) snapped to the 0.001 ms grid.
    assert list(pattern.neuron_ids) == [0, 1, 2, 3]
    centers, width = fields_of(cfg, 0)
    for nid, t in zip(pattern.neuron_ids, pattern.times):
        r = math.exp(-0.5 * ((0.0 - centers[nid]) / width) ** 2)
        expected = float(np.rint(3.0 * (1.0 - r) / TIME_QUANTUM)) * TIME_QUANTUM
        assert t == expected


def test_encode_value_at_center_fires_at_zero():
    cfg = unit_config()
    centers, _ = fields_of(cfg, 0)
    pattern = encode([float(centers[2])], cfg)
    assert time_of(pattern, 2) == 0.0


def test_encode_closer_to_center_fires_earlier():
    cfg = unit_config()
    centers, _ = fields_of(cfg, 0)
    near = time_of(encode([float(centers[2] + 0.01)], cfg), 2)
    far = time_of(encode([float(centers[2] + 0.20)], cfg), 2)
    assert near < far


def test_encode_neuron_ids_offset_per_feature():
    cfg = fit_ranges(np.array([[0.0, 0.0], [1.0, 1.0]]))
    centers, _ = fields_of(cfg, 1)
    pattern = encode([0.5, float(centers[3])], cfg)
    # field 4 of feature 1 is neuron 1*6 + 3 = 9 and fires at t = 0
    assert time_of(pattern, 9) == 0.0
    assert all(0 <= i < 12 for i in pattern.neuron_ids)


def test_encode_times_bounded_and_quantized():
    cfg = fit_ranges(np.array([[0.0, -3.0], [1.0, 7.0], [0.4, 2.2]]))
    rng = np.random.default_rng(11)
    for _ in range(50):
        row = rng.uniform([-0.3, -4.0], [1.3, 8.0])
        pattern = encode(row, cfg)
        assert np.all(pattern.times >= 0.0)
        assert np.all(pattern.times <= 3.0)
        steps = pattern.times / TIME_QUANTUM
        assert np.allclose(steps, np.rint(steps), atol=1e-9)
        # population encoding fires each input neuron at most once
        assert len(set(pattern.neuron_ids.tolist())) == pattern.spike_count


def test_encode_cutoff_silences_weak_fields():
    strict = unit_config(cutoff=0.95)
    pattern = encode([0.0], strict)
    assert pattern.spike_count == 0
    lax = unit_config(cutoff=0.0)
    assert encode([0.0], lax).spike_count == 6


@pytest.mark.parametrize("count", [4.0, 4.5, math.nan, True, np.float64(6.0), "6"],
                         ids=["float", "fraction", "nan", "bool", "np-float", "str"])
def test_a_field_count_that_is_not_an_integer_is_rejected(count):
    x = np.array([[0.0, 1.0], [1.0, 3.0]])
    with pytest.raises(ConfigError, match="receptive_field_count must be an integer"):
        fit_ranges(x, receptive_field_count=count)
    with pytest.raises(ConfigError, match="receptive_field_count must be an integer"):
        EncoderConfig(count, 0.7, 3.0, 0.1, ((0.0, 1.0),))
    assert fit_ranges(x, receptive_field_count=np.int64(4)).neuron_count == 8


def test_encode_rejects_wrong_feature_count():
    with pytest.raises(InputError):
        encode([0.1, 0.2], unit_config())


def test_encode_dataset_matches_rowwise_encode():
    rng = np.random.default_rng(17)
    for m, cutoff in ((3, 0.0), (6, 0.1), (9, 0.5)):
        fitted = rng.uniform(-2.0, 5.0, size=(40, 5))
        fitted[:, 4] = 1.0  # a constant feature gets a widened range
        cfg = fit_ranges(fitted, receptive_field_count=m, response_cutoff=cutoff)
        rows = rng.uniform(-6.0, 9.0, size=(60, 5))  # partly outside the fitted ranges
        rows[rng.random(rows.shape) < 0.1] = np.nan
        rows[7] = np.nan
        batch = encode_dataset(rows, cfg)
        assert len(batch) == len(rows)
        assert batch[7].spike_count == 0
        for row, pattern in zip(rows, batch):
            oracle = loop_encode(row, cfg)
            for got in (pattern, encode(row, cfg)):
                assert np.array_equal(got.neuron_ids, oracle.neuron_ids)
                assert got.times.tobytes() == oracle.times.tobytes()
                assert_ticks_of_its_times(got)


# cells that sit outside any field, or carry no value at all
SPECIAL_CELLS = (np.nan, np.inf, -np.inf, 1e308, -1e308)


def test_encode_dataset_matches_the_per_row_oracle():
    rng = np.random.default_rng(29)
    for case in range(240):
        features = int(rng.integers(1, 6))
        fit = rng.uniform(-4.0, 4.0, size=(8, features))
        if features > 1 and case % 3 == 0:
            fit[:, -1] = fit[0, -1]  # a constant feature gets a widened range
        cfg = fit_ranges(fit, receptive_field_count=int(rng.integers(3, 8)),
                         overlap=float(rng.uniform(0.3, 2.0)),
                         spike_interval=float(rng.choice([0.5, 3.0, 40.0])),
                         response_cutoff=float(rng.choice([0.0, 0.1, 0.5, 0.99])))
        rows = 0 if case % 10 == 0 else int(rng.integers(1, 25))
        x = rng.uniform(-8.0, 8.0, size=(rows, features))
        special = rng.random(x.shape) < 0.15
        x[special] = rng.choice(SPECIAL_CELLS, size=int(special.sum()))
        if rows > 2:
            x[1] = np.nan
            x[2] = rng.choice(SPECIAL_CELLS[1:])  # no field responds above 0
        got, want = encode_dataset(x, cfg), encode_rows(x, cfg)
        assert len(got) == len(want) == rows
        for g, w in zip(got, want):
            assert g.neuron_count == w.neuron_count == cfg.neuron_count
            assert g.neuron_ids.dtype == w.neuron_ids.dtype
            assert g.neuron_ids.tobytes() == w.neuron_ids.tobytes()
            assert g.times.dtype == w.times.dtype
            assert g.times.tobytes() == w.times.tobytes()
            assert not g.neuron_ids.flags.writeable and not g.ticks.flags.writeable
            assert g.ticks.tobytes() == w.ticks.tobytes()
            assert_ticks_of_its_times(g)
            assert_ticks_of_its_times(w)
        if rows > 2:
            assert got[1].spike_count == 0
            # cutoff 0 admits a zero response, which fires at the end of the window
            far = got[2].times.tolist()
            assert far == ([cfg.spike_interval] * cfg.neuron_count
                           if cfg.response_cutoff == 0.0 else [])


def test_encode_dataset_is_silent_on_huge_and_non_finite_features():
    cfg = fit_ranges(np.array([[0.0, -1.0], [1.0, 1.0]]))
    rows = np.array([[1e308, 1e308], [-1e308, -1e308], [np.inf, -np.inf], [np.nan, np.nan]])
    huge_interval = EncoderConfig(6, 0.7, 1e308, 0.1, ((0.0, 1.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [p.spike_count for p in encode_dataset(rows, cfg)] == [0, 0, 0, 0]
        # spike times past the tick range are still an input error
        with pytest.raises(InputError, match="finite and non-negative"):
            encode_dataset(np.array([[0.0]]), huge_interval)


def test_encode_dataset_never_revalidates_a_pattern(monkeypatch):
    # per-row validation cost about a third of a batch classify on iris;
    # the batch pass checks every time once, so no pattern runs __init__
    calls = []
    validate = SpikePattern.__init__

    def counted(self, *args, **kwargs):
        calls.append(self)
        validate(self, *args, **kwargs)

    monkeypatch.setattr(SpikePattern, "__init__", counted)
    SpikePattern(neuron_count=1, neuron_ids=[0], times=[0.5])
    assert len(calls) == 1  # the counter sees the public constructor
    calls.clear()
    cfg = fit_ranges(np.array([[0.0, -3.0, 5.0], [1.0, 7.0, 6.0]]))
    rows = np.random.default_rng(5).uniform([-0.5, -5.0, 4.0], [1.5, 9.0, 7.0], size=(500, 3))
    assert len(encode_dataset(rows, cfg)) == 500
    encode(rows[0], cfg)
    assert calls == []


def test_encode_dataset_shapes():
    cfg = fit_ranges(np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert encode_dataset(np.zeros((0, 2)), cfg) == []
    with pytest.raises(InputError):
        encode_dataset(np.array([0.2, 1.1]), cfg)
    with pytest.raises(InputError):
        encode_dataset(np.zeros((3, 3)), cfg)


def test_encode_is_deterministic():
    cfg = fit_ranges(np.array([[0.0], [1.0]]))
    a = encode([0.37], cfg)
    b = encode([0.37], cfg)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.neuron_ids, b.neuron_ids)


# --- spike pattern container ----------------------------------------------

def test_pattern_sorts_by_neuron_then_time():
    p = SpikePattern(neuron_count=5, neuron_ids=[3, 1, 4], times=[0.5, 2.0, 0.25])
    assert list(p.neuron_ids) == [1, 3, 4]
    assert list(p.times) == [2.0, 0.5, 0.25]


def test_pattern_arrays_read_only():
    p = SpikePattern(neuron_count=2, neuron_ids=[0], times=[1.0])
    for array in (p.neuron_ids, p.ticks):
        with pytest.raises(ValueError):
            array[0] = 0
    # the times are derived afresh on each read, so writing one changes nothing
    p.times[0] = 5.0
    assert p.times.tolist() == [1.0] and p.ticks.tolist() == [1000]
    with pytest.raises(AttributeError):
        p.times = np.array([5.0])
    # the ticks are derived from the times, never passed in
    with pytest.raises(TypeError):
        SpikePattern(neuron_count=2, neuron_ids=[0], times=[1.0], ticks=[1000])


def _stored_arrays(pattern: SpikePattern) -> dict:
    return {name: v for name, v in vars(pattern).items() if isinstance(v, np.ndarray)}


def test_a_pattern_stores_one_int32_tick_per_spike():
    """A pattern stores its ids and read-only int32 ticks and no float
    array; its times are derived from the ticks, bit for bit, on each read,
    whether it came from the public constructor or a batch."""
    cfg = fit_ranges(np.array([[0.0, -3.0], [1.0, 7.0]]))
    rows = np.random.default_rng(13).uniform([-0.2, -4.0], [1.2, 8.0], size=(50, 2))
    built = SpikePattern(neuron_count=4, neuron_ids=[3, 0], times=[0.7, 2.3])
    for pattern in [built, *encode_dataset(rows, cfg)]:
        arrays = _stored_arrays(pattern)
        assert sorted(arrays) == ["neuron_ids", "ticks"]
        assert arrays["neuron_ids"].dtype == np.int64 and arrays["ticks"].dtype == np.int32
        assert_ticks_of_its_times(pattern)
        times = pattern.times
        assert times is not pattern.times
        times += 1.0
        assert_ticks_of_its_times(pattern)
    assert built.ticks.tolist() == [2300, 700]


def test_an_encoded_batch_holds_twelve_bytes_per_spike():
    """The patterns of one batch hold an int64 id and an int32 tick per
    spike, and nothing else per spike."""
    cfg = fit_ranges(np.array([[0.0, -3.0, 5.0], [1.0, 7.0, 6.0]]), response_cutoff=0.0)
    rows = np.random.default_rng(19).uniform([-0.5, -5.0, 4.0], [1.5, 9.0, 7.0], size=(300, 3))
    batch = encode_dataset(rows, cfg)
    spikes = sum(p.spike_count for p in batch)
    assert spikes == 300 * cfg.neuron_count
    held = sum(a.nbytes for p in batch for a in _stored_arrays(p).values())
    assert held == 12 * spikes


@pytest.mark.parametrize("count", [-1, 4.0, 2.5, math.nan, True, np.float64(3.0), "3"],
                         ids=["negative", "float", "fraction", "nan", "bool", "np-float",
                              "str"])
def test_a_pattern_count_that_is_not_a_non_negative_integer_is_rejected(count):
    with pytest.raises(InputError, match="neuron_count must be a non-negative integer"):
        SpikePattern(count, [], [])


def test_a_pattern_count_may_be_a_numpy_integer():
    p = SpikePattern(np.int32(3), [2], [0.5])
    assert type(p.neuron_count) is int and p.neuron_count == 3


def test_pattern_rejects_bad_ids_and_shapes():
    with pytest.raises(InputError):
        SpikePattern(neuron_count=2, neuron_ids=[2], times=[0.1])
    with pytest.raises(InputError):
        SpikePattern(neuron_count=2, neuron_ids=[0, 1], times=[0.1])


def test_pattern_rejects_repeated_neuron():
    with pytest.raises(InputError):
        SpikePattern(neuron_count=4, neuron_ids=[2, 0, 2], times=[1.0, 0.5, 2.0])
    with pytest.raises(InputError):
        SpikePattern(neuron_count=4, neuron_ids=[1, 1], times=[1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.001, -1e-9, 1e306])
def test_pattern_rejects_non_finite_and_negative_times(bad):
    with pytest.raises(InputError, match="finite and non-negative"):
        SpikePattern(neuron_count=3, neuron_ids=[0, 2], times=[1.0, bad])


def test_pattern_snaps_times_to_the_grid():
    # each literal is one ulp off its grid point n * TIME_QUANTUM
    literals = [1.4, 0.7, 2.3]
    assert all(t != round(t / TIME_QUANTUM) * TIME_QUANTUM for t in literals)
    p = SpikePattern(neuron_count=3, neuron_ids=[0, 1, 2], times=literals)
    assert p.times.tolist() == [1400 * TIME_QUANTUM, 700 * TIME_QUANTUM, 2300 * TIME_QUANTUM]
    assert p.ticks.tolist() == [1400, 700, 2300]
    assert_ticks_of_its_times(p)
    assert SpikePattern(neuron_count=1, neuron_ids=[0], times=[0.0004]).times.tolist() == [0.0]
    empty = SpikePattern(neuron_count=1, neuron_ids=[], times=[])
    assert empty.ticks.shape == (0,) and empty.times.shape == (0,)
    assert_ticks_of_its_times(empty)


def test_a_time_whose_tick_an_int32_cannot_hold_is_rejected():
    """A time whose tick is 2**31 or more raises InputError: an int32 tick
    could not hold it, nor could the 31-bit tick field of a term key.  Near
    the bound, a time either raises or keeps its exact, positive rounded
    tick.  An EncoderConfig with a spike interval of 1e300 ms is legal, and
    its late spikes are rejected when a batch is encoded."""
    for bad in (1e300, 2.0**31 * TIME_QUANTUM, 2.0**64 * TIME_QUANTUM):
        with pytest.raises(InputError, match="2\\*\\*31 ticks"):
            SpikePattern(1, [0], [bad])
    # the largest allowed time keeps a positive, exact tick
    top = SpikePattern(1, [0], [(2.0**31 - 1) * TIME_QUANTUM])
    assert top.ticks.tolist() == [2**31 - 1]
    half = (2.0**31 - 0.5) * TIME_QUANTUM
    for t in (np.nextafter(half, 0.0), half, np.nextafter(half, np.inf)):
        tick = np.rint(t / TIME_QUANTUM)
        if tick < 2**31:
            assert SpikePattern(1, [0], [t]).ticks.tolist() == [int(tick)]
        else:
            with pytest.raises(InputError, match="2\\*\\*31 ticks"):
                SpikePattern(1, [0], [t])
    huge = EncoderConfig(6, 0.7, 1e300, 0.1, ((0.0, 1.0),))
    with pytest.raises(InputError, match="2\\*\\*31 ticks"):
        encode_dataset(np.array([[0.0], [0.5]]), huge)
    with pytest.raises(InputError, match="2\\*\\*31 ticks"):
        encode([0.5], huge)


def test_encoder_output_is_unchanged_by_snapping():
    cfg = fit_ranges(np.array([[0.0, -3.0], [1.0, 7.0]]))
    rows = np.random.default_rng(11).uniform([-0.2, -4.0], [1.2, 8.0], size=(300, 2))
    for pattern in encode_dataset(rows, cfg):
        again = SpikePattern(neuron_count=pattern.neuron_count,
                             neuron_ids=pattern.neuron_ids, times=pattern.times)
        assert again.times.tobytes() == pattern.times.tobytes()
        ticks = np.rint(pattern.times / TIME_QUANTUM)
        assert (ticks * TIME_QUANTUM).tobytes() == pattern.times.tobytes()


def test_encode_never_repeats_a_neuron():
    cfg = fit_ranges(np.array([[0.0, -3.0, 5.0], [1.0, 7.0, 5.0]]), response_cutoff=0.0)
    rng = np.random.default_rng(3)
    for row in rng.uniform([-0.5, -5.0, 4.0], [1.5, 9.0, 6.0], size=(200, 3)):
        ids = encode(row, cfg).neuron_ids
        assert np.array_equal(ids, np.unique(ids))


def test_quantize_time():
    # SpikePattern rounds each time to the nearest TIME_QUANTUM tick
    p = SpikePattern(neuron_count=3, neuron_ids=[0, 1, 2], times=[0.0004, 0.0016, 1.2341])
    assert p.times.tolist() == [0.0, 2 * TIME_QUANTUM, 1234 * TIME_QUANTUM]
