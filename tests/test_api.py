"""The public API is pinned, so any growth or shrinkage is deliberate."""

import ast
from pathlib import Path

import sefm

PUBLIC_API = [
    "ConfigError", "DataError", "EncoderConfig", "InputError", "Network",
    "NetworkConfig", "NoEligibleSpikes", "OutputNeuron", "SefmError",
    "SimulationConfig", "SpikePattern", "TrainResult", "encode", "encode_dataset",
    "epsilon", "fit_ranges", "load_model", "save_model", "predict", "train",
    "__version__",
]


def test_public_api_is_pinned():
    assert sorted(sefm.__all__) == sorted(PUBLIC_API)
    assert len(sefm.__all__) == len(set(sefm.__all__))


def test_every_public_name_resolves():
    for name in sefm.__all__:
        assert getattr(sefm, name) is not None


def test_package_ships_no_test_only_function():
    """Every top-level function and method is referenced by name somewhere
    in the package, or is a dunder, public API or an entry point; anything
    only the tests reach belongs under tests/.  ``cli.main`` is the console
    script's entry point."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(sefm.__file__).parent.glob("*.py"))}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = fn.name
                if (name in referenced or name in sefm.__all__
                        or (name.startswith("__") and name.endswith("__"))
                        or f"{module}.{name}" == "cli.main"):
                    continue
                owner = f"{module}.{node.name}" if node is not fn else module
                unused.append(f"{owner}.{name}")
    assert not unused, "only tests reach: " + ", ".join(unused)
