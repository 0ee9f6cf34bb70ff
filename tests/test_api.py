"""The public API is pinned, so any growth or shrinkage is deliberate."""

import ast
import importlib
import importlib.util
import sys
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


def test_a_model_has_no_per_class_view():
    """A network is its arrays: it lists no per-class views, and
    ``OutputNeuron`` only samples a class's weights.  The view the tests
    inspect a class through lives in ``tests/oracles.py``."""
    assert not hasattr(sefm.Network, "neurons")
    public = {name for name in dir(sefm.OutputNeuron) if not name.startswith("_")}
    assert public == {"network", "class_label", "sample_weights"}


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


def test_every_import_is_read_in_its_module():
    """Each name a module of the package imports is read in that module, so
    a refactor leaves no dead import behind, and no name that perfbench
    hooks (such as ``sefm.training.response_matrix``) survives only as one.
    ``from __future__`` imports and the names ``__init__`` re-exports in
    ``__all__`` are exempt."""
    unused = []
    for path in sorted(Path(sefm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and not (path.stem == "__init__" and name in sefm.__all__):
                    unused.append(f"{path.stem}.{name}")
    assert not unused, "imported and never read: " + ", ".join(unused)


def test_only_is_count_tests_for_an_integral():
    """``encoding._is_count`` is the package's one test for an integer count,
    and it turns a bool away; a second ``isinstance(v, numbers.Integral)``
    lets a bool through, as ``NetworkConfig``'s once let ``max_epochs=True``."""
    def integral_tests(node):
        return [call for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
                and any(getattr(n, "attr", getattr(n, "id", None)) == "Integral"
                        for arg in call.args[1:] for n in ast.walk(arg))]
    shared, stray = [], []
    for path in sorted(Path(sefm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owned = {id(call) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                 and f"{path.stem}.{fn.name}" == "encoding._is_count"
                 for call in integral_tests(fn)}
        for call in integral_tests(tree):
            (shared if id(call) in owned else stray).append(f"{path.stem}:{call.lineno}")
    assert shared and not stray, "an Integral test outside _is_count: " + ", ".join(stray)


def test_the_checkpoint_code_names_no_config_field():
    """A checkpoint's ``simulation`` and ``encoder`` blocks are their
    dataclasses' fields, stated once by the dataclasses: neither
    ``model_to_dict`` nor ``model_from_dict``, nor a function of
    ``dynamics`` that either calls, holds a string naming a field of
    ``SimulationConfig`` or ``EncoderConfig``.  (The network's own
    ``spike_interval`` at the top level comes from ``_NETWORK_SETTINGS``,
    which the writer and the reader share.)"""
    from dataclasses import fields

    from sefm import dynamics

    names = {f.name for cls in (dynamics.SimulationConfig, sefm.EncoderConfig)
             for f in fields(cls)}
    defs = {fn.name: fn for fn in ast.parse(Path(dynamics.__file__).read_text()).body
            if isinstance(fn, ast.FunctionDef)}
    checked = {"model_to_dict", "model_from_dict"}
    checked |= {node.func.id for name in checked for node in ast.walk(defs[name])
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in defs}
    named = sorted(f"{name}: {node.value!r}" for name in checked for node in ast.walk(defs[name])
                   if isinstance(node, ast.Constant) and node.value in names)
    assert not named, "config fields named by hand: " + ", ".join(named)


def test_perfbench_hook_targets_resolve(monkeypatch):
    """Every module attribute perfbench/spans.py wraps still exists, so a
    traced benchmark run times every layer instead of counting hooks absent."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    # its frozen dataclass resolves annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    absent = []
    for hook in spans.HOOKS:
        owner = importlib.import_module(hook.module)
        for part in hook.attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            absent.append(f"{hook.module}.{hook.attr}")
    assert spans.HOOKS and absent == []


def test_every_defaulted_parameter_has_a_caller_that_passes_it():
    """A parameter with a default that no call in the package or in
    perfbench/ passes is a knob without a caller: make it a constant.
    Public API functions and classes and ``cli.main`` are exempt.  A call
    matches a def by name (``__init__`` by its class name); it passes a
    parameter by keyword, by position, or through ``*args``/``**kwargs``."""
    root = Path(__file__).resolve().parents[1]
    package = Path(sefm.__file__).parent
    calls = [node for path in [*package.glob("*.py"), *(root / "perfbench").rglob("*.py")]
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    passed: dict[str, set] = {}  # callee name -> keywords, positions, or "*"
    for call in calls:
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        got = passed.setdefault(name, set())
        got.update(k.arg or "*" for k in call.keywords)
        got.update(range(len(call.args)))
        if any(isinstance(a, ast.Starred) for a in call.args):
            got.add("*")
    idle = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body}
        for fn in ast.walk(tree):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or {fn.name, owner.get(fn)} & set(sefm.__all__)
                    or f"{path.stem}.{fn.name}" == "cli.main"):
                continue
            callee = owner[fn] if fn.name == "__init__" else fn.name
            got = passed.get(callee, set())
            positional = fn.args.posonlyargs + fn.args.args
            offset = 1 if fn in owner else 0  # self or cls is never passed
            defaulted = [(a.arg, i - offset) for i, a in enumerate(positional)
                         if i >= len(positional) - len(fn.args.defaults)]
            defaulted += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                                        fn.args.kw_defaults) if d is not None]
            idle += [f"{path.stem}.{fn.name}({arg})" for arg, pos in defaulted
                     if "*" not in got and arg not in got and pos not in got]
    assert not idle, "defaulted parameters no caller passes: " + ", ".join(idle)


def test_every_verb_reads_every_flag_it_accepts():
    """Each subparser option's dest is read in ``main``, in the verb's
    ``fn``, or in a ``cli`` def they call: as ``args.<dest>``, or as
    ``getattr(args, key)`` in the loop over ``_OVERRIDES``.  A flag that
    nothing reads is accepted and silently ignored."""
    import argparse

    from sefm import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}

    def reads(fn: ast.FunctionDef) -> set:
        got = {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "args"}
        for loop in ast.walk(fn):
            if (isinstance(loop, ast.For) and ast.unparse(loop.iter) == "_OVERRIDES"
                    and f"getattr(args, {ast.unparse(loop.target)}" in ast.unparse(loop)):
                got |= set(cli._OVERRIDES)
        return got

    def reached(names: list) -> set:
        seen, todo = set(), list(names)
        while todo:
            name = todo.pop()
            if name in seen or name not in defs:
                continue
            seen.add(name)
            todo += [node.func.id for node in ast.walk(defs[name])
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        return seen

    verbs = next(a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    unread = []
    for verb, parser in verbs.items():
        read = set().union(*(reads(defs[n])
                             for n in reached(["main", parser.get_default("fn").__name__])))
        unread += [f"{verb}: {a.dest}" for a in parser._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest not in read]
    assert not unread, "flags no code reads: " + ", ".join(unread)
