"""Pipeline configuration: one flat record covering encoder, dynamics,
learning and scheduling knobs, checked when built, naming every bad field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .dynamics import Network, SimulationConfig
from .encoding import EncoderConfig, _is_count, _is_real
from .errors import ConfigError


@dataclass(frozen=True)
class NetworkConfig:
    """Everything needed to build and train a classifier, minus the data.

    Defaults are the benchmark settings; sigma and reference_rate are the
    two problem-dependent knobs and usually come from a per-dataset
    config or a grid search.
    """

    sigma: float = 1.0              # width of every weight Gaussian (ms)
    reference_rate: float = 0.05    # pulls the correct neuron's target earlier
    spike_interval: float = 3.0     # presynaptic window T (ms)
    t_max: float = 8.0              # end of postsynaptic interval (ms)
    tau: float = 3.0                # kernel time constant (ms)
    dt: float = 0.01                # threshold-search grid step (ms)
    desired_time: float = 2.0       # target first-spike time for a fresh class
    learning_rate: float = 0.1
    margin_rate: float = 0.3        # wrong-neuron margin, fraction of (spike_interval - desired)
    deadline_rate: float = 0.25     # on-time deadline, fraction of (spike_interval - desired)
    receptive_field_count: int = 6
    overlap: float = 0.7
    response_cutoff: float = 0.1
    max_epochs: int = 100

    def __post_init__(self):
        """Raise one ConfigError naming every bad field: the encoder's, the
        network's and the simulation's by their owners' rules, the fields only
        training reads here.  Each check is written so that NaN fails it."""
        bad = []
        for owner in (self.simulation,
                      lambda: EncoderConfig(self.receptive_field_count, self.overlap,
                                            self.spike_interval, self.response_cutoff, ()),
                      lambda: Network._check_settings(self.sigma, self.spike_interval, self.t_max)):
            try:
                owner()
            except ConfigError as exc:
                bad.append(str(exc))
        if not (_is_real(self.learning_rate) and 0 < self.learning_rate < math.inf):
            bad.append("learning_rate must be positive and finite")
        for name in ("reference_rate", "margin_rate", "deadline_rate"):
            if not (_is_real(rate := getattr(self, name)) and 0.0 < rate < 1.0):
                bad.append(f"{name} must lie in (0, 1)")
        if not (_is_real(self.desired_time) and _is_real(self.spike_interval)
                and 0.0 < self.desired_time < self.spike_interval):
            bad.append("desired_time must lie in (0, spike_interval)")
        if not (_is_count(self.max_epochs) and self.max_epochs >= 0):
            bad.append("max_epochs must be an integer >= 0")
        if bad:
            raise ConfigError("; ".join(bad))

    def simulation(self) -> SimulationConfig:
        return SimulationConfig(tau=self.tau, t_max=self.t_max, dt=self.dt)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkConfig":
        """Build from a JSON-style dict; unknown keys and values that are not
        numbers are errors.  A whole-valued count becomes an int; any other
        is left for ``__post_init__`` to reject."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        # the counts, by annotation: a string under ``from __future__ import annotations``
        ints = {f.name for f in fields(cls) if f.type == "int"}
        kwargs = {}
        for key, value in doc.items():
            try:
                if isinstance(value, (bool, str)):
                    raise TypeError("not a JSON number")
                number = float(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"config key {key!r}: bad value {value!r}") from exc
            kwargs[key] = int(number) if key in ints and number.is_integer() else number
        return cls(**kwargs)

    def with_overrides(self, **kwargs) -> "NetworkConfig":
        return replace(self, **kwargs)
