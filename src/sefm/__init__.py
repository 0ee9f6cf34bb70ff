"""Spiking classifier with time-varying synaptic weights.

Real-valued features become spike times through overlapping Gaussian
receptive fields; one output neuron per class accumulates kernel
responses weighted by synaptic weights that are themselves functions of
time, and the earliest neuron to reach its threshold names the class.
"""

from .config import NetworkConfig
from .dynamics import Network, OutputNeuron, SimulationConfig, epsilon, load_model, save_model
from .encoding import EncoderConfig, SpikePattern, encode, encode_dataset, fit_ranges
from .errors import ConfigError, DataError, InputError, SefmError
from .learning import NoEligibleSpikes
from .training import TrainResult, predict, train

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "EncoderConfig", "InputError", "Network",
    "NetworkConfig", "NoEligibleSpikes", "OutputNeuron", "SefmError",
    "SimulationConfig", "SpikePattern", "TrainResult", "encode", "encode_dataset",
    "epsilon", "fit_ranges", "load_model", "save_model", "predict", "train",
    "__version__",
]
