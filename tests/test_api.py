"""The public API is pinned, so any growth or shrinkage is deliberate."""

import sefm

PUBLIC_API = [
    "ConfigError", "DataError", "EncoderConfig", "InputError", "Network",
    "NetworkConfig", "NoEligibleSpikes", "OutputNeuron", "SefmError",
    "SimulationConfig", "SpikePattern", "TrainResult", "encode", "encode_dataset",
    "epsilon", "fire_time", "fit_ranges", "load_model", "potential",
    "save_model", "predict", "train", "__version__",
]


def test_public_api_is_pinned():
    assert sorted(sefm.__all__) == sorted(PUBLIC_API)
    assert len(sefm.__all__) == len(set(sefm.__all__))


def test_every_public_name_resolves():
    for name in sefm.__all__:
        assert getattr(sefm, name) is not None
