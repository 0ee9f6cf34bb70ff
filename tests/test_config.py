"""NetworkConfig validation, serialization, overrides."""

import inspect
import math
import re
import warnings
from dataclasses import fields, replace

import pytest

from sefm.config import NetworkConfig
from sefm.dynamics import Network, SimulationConfig
from sefm.encoding import EncoderConfig, fit_ranges
from sefm.errors import ConfigError
from sefm.training import build_network


def test_defaults_are_valid():
    cfg = NetworkConfig()
    assert cfg.sigma == 1.0
    assert cfg.spike_interval == 3.0
    assert cfg.t_max == 8.0
    assert cfg.desired_time == 2.0
    assert cfg.learning_rate == 0.1
    assert cfg.margin_rate == 0.3
    assert cfg.deadline_rate == 0.25
    assert cfg.receptive_field_count == 6
    assert cfg.overlap == 0.7


def test_validate_names_every_bad_field():
    """Faults in the simulation, the encoder, the network and training's own
    fields all land in one ConfigError."""
    with pytest.raises(ConfigError) as err:
        NetworkConfig(sigma=-1.0, margin_rate=2.0, receptive_field_count=1, tau=0.0,
                      overlap=-1.0, max_epochs=True)
    for name in ("sigma", "margin_rate", "receptive_field_count", "tau", "overlap",
                 "max_epochs"):
        assert name in str(err.value)


@pytest.mark.parametrize("bad", [
    {"sigma": 0.0},
    {"learning_rate": -0.1},
    {"reference_rate": 0.0},
    {"reference_rate": 1.0},
    {"deadline_rate": 1.5},
    {"desired_time": 0.0},
    {"desired_time": 3.0},          # must be < spike_interval
    {"t_max": 2.5},                 # must exceed spike_interval
    {"response_cutoff": 1.0},
    {"response_cutoff": -0.2},
    {"max_epochs": -1},
    {"overlap": 0.0},
    # non-finite values: NaN fails every comparison, so each check must be
    # written to reject it; inf is out of range for every float setting
    {"sigma": float("nan")},
    {"sigma": float("inf")},
    {"learning_rate": float("nan")},
    {"tau": float("nan")},
    {"tau": float("inf")},
    {"dt": float("nan")},
    {"t_max": float("nan")},
    {"t_max": float("inf")},
    {"spike_interval": float("nan")},
    {"overlap": float("nan")},
    {"overlap": float("inf")},
    {"reference_rate": float("nan")},
    {"margin_rate": float("nan")},
    {"deadline_rate": float("nan")},
    {"desired_time": float("nan")},
    {"response_cutoff": float("nan")},
])
def test_validate_rejects_out_of_range(bad):
    with pytest.raises(ConfigError):
        NetworkConfig(**bad)


def test_counts_must_be_integers_however_the_config_is_built():
    """A fractional count once built a config that ``sefm.train`` then
    died on with a bare TypeError; now the one ConfigError names each bad
    count, while ``from_dict`` still turns a whole-valued number into an
    int and rejects a fractional one."""
    with pytest.raises(ConfigError) as err:
        NetworkConfig(max_epochs=2.5, receptive_field_count=4.5)
    assert "max_epochs must be an integer" in str(err.value)
    assert "receptive_field_count must be an integer" in str(err.value)
    for bad in ({"max_epochs": 2.5}, {"receptive_field_count": 4.5}, {"max_epochs": 3.0},
                {"max_epochs": True}, {"receptive_field_count": True}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            NetworkConfig(**bad)
        with pytest.raises(ConfigError, match=next(iter(bad))):
            replace(NetworkConfig(), **bad)
    with pytest.raises(ConfigError, match="max_epochs must be an integer"):
        NetworkConfig.from_dict({"max_epochs": 2.5})
    cfg = NetworkConfig.from_dict({"max_epochs": 3.0, "receptive_field_count": 4})
    assert (cfg.max_epochs, cfg.receptive_field_count) == (3, 4)
    assert isinstance(cfg.max_epochs, int)


@pytest.mark.parametrize("owner, bad", [
    ("encoder", {"receptive_field_count": 2}),
    ("encoder", {"receptive_field_count": True}),
    ("encoder", {"overlap": 0.0}),
    ("encoder", {"response_cutoff": 1.0}),
    ("encoder", {"spike_interval": float("inf")}),
    ("network", {"sigma": float("nan")}),
    ("network", {"spike_interval": 9.0}),   # ends after t_max = 8
], ids=["count", "bool-count", "overlap", "cutoff", "interval", "sigma", "window"])
def test_a_bad_field_is_reported_in_its_owners_words(owner, bad):
    """Each encoder and network rule is stated once, by the object that
    uses the setting, and a config reports the owner's own message for the
    same bad value, which names the field."""
    s = {**NetworkConfig().to_dict(), **bad}
    build = {
        "encoder": lambda: EncoderConfig(s["receptive_field_count"], s["overlap"],
                                         s["spike_interval"], s["response_cutoff"],
                                         ((0.0, 1.0),)),
        "network": lambda: Network(2, 4, s["sigma"],
                                   SimulationConfig(s["tau"], s["t_max"], s["dt"]),
                                   s["spike_interval"]),
    }[owner]
    with pytest.raises(ConfigError) as owned:
        build()
    assert next(iter(bad)) in str(owned.value)
    with pytest.raises(ConfigError) as err:
        NetworkConfig(**bad)
    assert str(owned.value) in str(err.value)


@pytest.mark.parametrize("build, field", [
    (lambda: NetworkConfig(sigma="a"), "sigma"),
    (lambda: NetworkConfig(overlap=None), "overlap"),
    (lambda: NetworkConfig(learning_rate="x"), "learning_rate"),
    (lambda: NetworkConfig(margin_rate=True), "margin_rate"),
    (lambda: SimulationConfig(tau="3"), "tau"),
    (lambda: SimulationConfig(dt=[0.01]), "dt"),
    (lambda: EncoderConfig(6, 0.7, 3.0, 0.1, ((0.0,),)), "feature_ranges"),
    (lambda: EncoderConfig(6, 0.7, 3.0, "0.1", ((0.0, 1.0),)), "response_cutoff"),
    (lambda: Network(3, 4, "1", SimulationConfig(), 3.0), "sigma"),
], ids=["config-sigma", "config-overlap", "config-rate", "config-bool-rate", "sim-tau",
        "sim-dt", "range-not-a-pair", "cutoff", "network-sigma"])
def test_a_setting_that_is_not_a_number_is_named_in_a_config_error(build, field):
    """A string, None, a list or a bool where a real setting belongs fails
    the owner's rule and is named in its one ConfigError, instead of
    escaping as the TypeError or ValueError of a comparison or an unpacking."""
    with pytest.raises(ConfigError, match=field):
        build()


@pytest.mark.parametrize("field", [f.name for f in fields(NetworkConfig) if f.type == "float"]
                         + ["feature_ranges"])
def test_a_real_setting_no_float64_holds_is_named_in_a_config_error(field):
    """10**400 passes every exact range test of an int, but ``float()``
    overflows on it, as the encoder, ``Network`` and the kernel row would
    later: each real field of a config, and an encoder's feature range,
    names it in its one ConfigError instead."""
    for huge in (10**400, -10**400):
        with pytest.raises(ConfigError, match=field):
            if field == "feature_ranges":
                EncoderConfig(6, 0.7, 3.0, 0.1, (tuple(sorted((0.0, huge))),))
            else:
                NetworkConfig(**{field: huge})


@pytest.mark.parametrize("ranges, overlap", [
    (((-1e308, 1e308),), 0.7),
    # a finite width, but the outer center lies 9/8 of it past lo at M = 6
    (((0.0, 1.0), (0.0, 1.7e308)), 0.7),
    (((0.0, 1.0),), 5e-324),
    (((0.0, 5e-324),), 0.7),
], ids=["width-overflows", "outer-center-overflows", "field-width-overflows", "zero-field-width"])
def test_a_range_whose_field_geometry_overflows_is_named_in_a_config_error(ranges, overlap):
    """A range of finite bounds can still give fields no float holds, which
    once silenced the feature with two RuntimeWarnings; it is named, with no
    warning.  The widest range at M = 6 whose fields fit still builds."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=re.escape(f"feature_ranges [{len(ranges) - 1}]")):
            EncoderConfig(6, overlap, 3.0, 0.1, ranges)
        assert EncoderConfig(6, 0.7, 3.0, 0.1, ((0.0, 1.5e308),)).field_geometry[1][0] < math.inf


@pytest.mark.parametrize("m", [2**40, 10**400], ids=["2**40", "10**400"])
def test_a_huge_field_count_is_left_to_the_networks_size_bound(m):
    """The range check reads only each range's outer two fields, so a field
    count far past MAX_CELLS, or one no float64 holds, builds its encoder
    and its NetworkConfig without an M-long array or an OverflowError; the
    network built from them rejects it."""
    assert EncoderConfig(m, 0.7, 3.0, 0.1, ((0.0, 1.0),)).receptive_field_count == m
    cfg = NetworkConfig(receptive_field_count=m)
    with pytest.raises(ConfigError, match="MAX_CELLS"):
        build_network(cfg, 2, 4 * cfg.receptive_field_count)


@pytest.mark.parametrize("bad, sound", [
    ({"spike_interval": "3"}, "desired_time"),
    ({"spike_interval": float("nan")}, "desired_time"),
    ({"t_max": 10**400}, "spike_interval"),
    ({"t_max": "8"}, "spike_interval"),
], ids=["str-interval", "nan-interval", "huge-t-max", "str-t-max"])
def test_a_rule_against_a_bad_field_does_not_blame_a_sound_one(bad, sound):
    """A rule that bounds one field by another is skipped once the other has
    failed its own rule, so the message names only what is at fault; a
    ``desired_time`` that is bad in itself is still named."""
    with pytest.raises(ConfigError) as err:
        NetworkConfig(**bad)
    assert next(iter(bad)) in str(err.value) and sound not in str(err.value)
    for desired in (-1.0, math.inf, "2"):
        with pytest.raises(ConfigError, match="desired_time"):
            NetworkConfig(**bad, desired_time=desired)


def test_a_config_checks_its_network_fields_without_building_a_network(monkeypatch):
    """A network computes its kernel row when built, so a config asks
    Network's rules without building one."""
    def plan(self):
        raise AssertionError("a config built a network")

    monkeypatch.setattr(Network, "_plan", plan)
    assert NetworkConfig(sigma=0.5).sigma == 0.5
    with pytest.raises(ConfigError, match="sigma must be positive and finite"):
        NetworkConfig(sigma=-1.0)


def test_fit_ranges_defaults_are_the_config_defaults():
    """``fit_ranges`` and ``NetworkConfig`` default the encoder's four
    settings alike (6, 0.7, 3.0, 0.1)."""
    params = inspect.signature(fit_ranges).parameters
    defaults = {name: p.default for name, p in params.items()
                if p.default is not inspect.Parameter.empty}
    assert len(defaults) == 4
    assert defaults == {name: getattr(NetworkConfig(), name) for name in defaults}


def test_replace_checks_the_new_config():
    with pytest.raises(ConfigError, match="learning_rate"):
        replace(NetworkConfig(), learning_rate=-0.1)


def test_dict_round_trip():
    cfg = NetworkConfig(sigma=0.4, reference_rate=0.2, max_epochs=17)
    doc = cfg.to_dict()
    assert doc["sigma"] == 0.4
    assert NetworkConfig.from_dict(doc) == cfg


def test_from_dict_partial_and_coercion():
    cfg = NetworkConfig.from_dict({"sigma": 1, "max_epochs": 9.0})
    assert cfg.sigma == 1.0 and isinstance(cfg.sigma, float)
    assert cfg.max_epochs == 9
    assert isinstance(cfg.max_epochs, int)
    assert cfg.tau == 3.0  # untouched default


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        NetworkConfig.from_dict({"sigma": 1.0, "bandwidth": 2.0})
    assert "bandwidth" in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("sigma", "abc"),
    ("tau", None),
    ("dt", [0.01]),
    ("max_epochs", 2.7),
    ("max_epochs", "2.5"),
    ("receptive_field_count", float("inf")),
    ("max_epochs", True),
    ("sigma", "0.5"),
    pytest.param("sigma", 10 ** 400, id="sigma-huge-int"),
])
def test_from_dict_rejects_values_that_do_not_convert(key, value):
    with pytest.raises(ConfigError) as err:
        NetworkConfig.from_dict({key: value})
    assert key in str(err.value)


def test_from_dict_accepts_a_huge_finite_sigma():
    assert NetworkConfig.from_dict({"sigma": 1e6}).sigma == 1e6


def test_from_dict_validates():
    with pytest.raises(ConfigError):
        NetworkConfig.from_dict({"sigma": -3.0})


def test_with_overrides_returns_new_validated_config():
    base = NetworkConfig()
    tuned = base.with_overrides(sigma=0.5, reference_rate=0.1)
    assert tuned.sigma == 0.5
    assert base.sigma == 1.0
    with pytest.raises(ConfigError):
        base.with_overrides(sigma=-2.0)


def test_simulation_mapping():
    sim = NetworkConfig(tau=2.0, t_max=6.0, dt=0.02).simulation()
    assert (sim.tau, sim.t_max, sim.dt) == (2.0, 6.0, 0.02)
