"""Command line front end.

Verbs: train (one split, saves a model), benchmark (repeated splits,
saves a report), sigma-sweep (accuracy vs. Gaussian width, CSV),
grid-search (pick sigma and reference rate on validation data), and
prepare-data (fetch/verify datasets).

Exit codes: 0 success, 2 bad configuration or usage, 3 data problems,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import benchmark as bench
from . import data as datamod
from .config import NetworkConfig
from .dynamics import save_model
from .errors import ConfigError, DataError, SefmError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

# flags that override config-file values when given, with their types
_OVERRIDES = {"sigma": float, "reference_rate": float, "learning_rate": float,
              "max_epochs": int, "receptive_field_count": int, "response_cutoff": float}


def _resolve_config(args) -> NetworkConfig:
    """Defaults <- dataset registry <- --config file <- explicit flags."""
    doc: dict = {}
    spec = datamod.DATASETS.get(args.dataset)
    if spec is not None:
        doc["sigma"] = spec.sigma
        doc["reference_rate"] = spec.reference_rate
    if args.config:
        path = Path(args.config)
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config {path} cannot be read as UTF-8 JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        doc.update(loaded)
    for key in _OVERRIDES:
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    return NetworkConfig.from_dict(doc)


def _load_dataset(args) -> datamod.TabularDataset:
    """The --csv or --dataset source; a flag only the other one reads is an error."""
    if args.csv:
        if args.data_dir is not None:
            raise ConfigError("--data-dir applies to --dataset, not --csv")
        column = -1 if args.label_column is None else args.label_column
        return datamod.load_csv(args.csv, label_column=column)
    if not args.dataset:
        raise ConfigError("either --dataset or --csv is required")
    if args.label_column is not None:
        raise ConfigError("--label-column applies to --csv, not --dataset")
    return datamod.load_dataset(args.dataset, directory=args.data_dir)


def _train_size(args, dataset) -> int:
    """--train-size as given, else the --dataset's registry value, else half the rows."""
    if args.train_size is not None:
        return args.train_size
    spec = datamod.DATASETS.get(args.dataset)
    if spec is not None:
        return spec.train_size
    return max(1, int(round(0.5 * dataset.sample_count)))


def _write_json(path, doc) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_path(args, explicit, default_name):
    """Explicit flag wins; else a default filename under --output-dir."""
    if explicit:
        return explicit
    if args.output_dir:
        return str(Path(args.output_dir) / default_name)
    return None


# -- verbs -------------------------------------------------------------------

def _cmd_train(args, cfg, dataset, train_size) -> int:
    train_idx, test_idx = datamod.stratified_split(dataset.labels, train_size, args.seed)
    outcome = bench.run_split(dataset, train_idx, test_idx, cfg, seed=args.seed)
    res = outcome.result
    model_out = _out_path(args, args.model_out, "model.json")
    if model_out:
        Path(model_out).parent.mkdir(parents=True, exist_ok=True)
        save_model(model_out, outcome.network, outcome.encoder)
    report_out = _out_path(args, args.report_out, "report.json")
    if report_out:
        _write_json(report_out, bench.report("train", dataset.name, args.seed, cfg,
                                             result=res.to_dict()))
    print(f"{dataset.name}: train {100 * res.train_accuracy:.1f}%  "
          f"test {100 * res.test_accuracy:.1f}%  "
          f"epochs {res.epochs_run}{' (converged)' if res.converged else ''}")
    return EXIT_OK


def _cmd_benchmark(args, cfg, dataset, train_size) -> int:
    result = bench.benchmark(dataset, cfg, train_size=train_size,
                             run_count=args.runs, seed=args.seed, jobs=args.jobs)
    report_out = _out_path(args, args.report_out, "report.json")
    if report_out:
        _write_json(report_out, result.to_dict())
    train_mean, train_sd = result.train_stats
    test_mean, test_sd = result.test_stats
    print(f"{dataset.name} [{result.architecture}] over {args.runs} runs: "
          f"train {bench.format_mean_sd(train_mean, train_sd)}  "
          f"test {bench.format_mean_sd(test_mean, test_sd)}")
    return EXIT_OK


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}") from exc
    if not values:
        raise ConfigError(f"empty {what} list")
    return values


def _cmd_sigma_sweep(args, cfg, dataset, train_size) -> int:
    rows = bench.sigma_sweep(dataset, cfg, _parse_floats(args.sigmas, "sigma"),
                             train_size=train_size, run_count=args.runs,
                             seed=args.seed, jobs=args.jobs)
    csv_out = _out_path(args, args.csv_out, "sweep.csv")
    if csv_out:
        Path(csv_out).parent.mkdir(parents=True, exist_ok=True)
        with open(csv_out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].to_dict()))
            writer.writeheader()
            for row in rows:
                writer.writerow(row.to_dict())
    for row in rows:
        print(f"sigma {row.sigma:g}: test {bench.format_mean_sd(row.test_mean, row.test_sd)}  "
              f"train {bench.format_mean_sd(row.train_mean, row.train_sd)}")
    return EXIT_OK


def _cmd_grid_search(args, cfg, dataset, train_size) -> int:
    result = bench.grid_search(dataset, cfg,
                               _parse_floats(args.sigmas, "sigma"),
                               _parse_floats(args.reference_rates, "reference rate"),
                               train_size=train_size, run_count=args.runs,
                               seed=args.seed, jobs=args.jobs)
    best = result.best
    report_out = _out_path(args, args.report_out, "report.json")
    if report_out:
        tuned = cfg.with_overrides(sigma=best.sigma, reference_rate=best.reference_rate)
        _write_json(report_out, bench.report("grid-search", dataset.name, args.seed, tuned,
                                             **result.to_dict()))
    print(f"best: sigma {best.sigma:g}, reference_rate {best.reference_rate:g} "
          f"(val {bench.format_mean_sd(best.val_mean, best.val_sd)})")
    return EXIT_OK


def _cmd_prepare_data(args) -> int:
    names = args.names or sorted(datamod.DATASETS)
    for name in names:
        record = datamod.prepare_dataset(name, directory=args.data_dir)
        print(f"{name}: {record['status']} ({record['where']})")
    return EXIT_OK


# -- wiring --------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *, jobs: bool = False,
                swept: tuple[str, ...] = ()) -> None:
    """Flags every verb but prepare-data takes; a verb that sweeps a setting
    has no flag for it, and only the protocol verbs run worker processes."""
    source = p.add_mutually_exclusive_group()
    source.add_argument("--dataset", help="registered dataset name")
    source.add_argument("--csv", help="train on an arbitrary CSV instead")
    p.add_argument("--label-column", type=int, default=None,
                   help="label column index for --csv (default: last)")
    p.add_argument("--data-dir", default=None,
                   help="where --dataset's files live (default: $SEFM_DATA_DIR or ./data)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=0)
    if jobs:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for independent runs/cells")
    p.add_argument("--train-size", type=int, default=None,
                   help="training samples per split (default: registry value)")
    p.add_argument("--output-dir", default=None,
                   help="directory for default-named artifacts")
    p.add_argument("--timing-out", default=None, help="write wall time JSON here")
    for key, kind in _OVERRIDES.items():
        if key not in swept:
            p.add_argument("--" + key.replace("_", "-"), type=kind, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sefm",
        description="Spiking classifier with time-varying synaptic weights")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, summary: str) -> argparse.ArgumentParser:
        # no prefix matching: a sweep verb's --sigmas must not take --sigma
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    p = verb("train", "train on one split and save the model")
    _add_common(p)
    p.add_argument("--model-out", default=None, help="write the model JSON here")
    p.add_argument("--report-out", default=None)
    p.set_defaults(fn=_cmd_train)

    p = verb("benchmark", "repeated random splits, aggregate accuracy")
    _add_common(p, jobs=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--report-out", default=None)
    p.set_defaults(fn=_cmd_benchmark)

    p = verb("sigma-sweep", "benchmark across Gaussian widths")
    _add_common(p, jobs=True, swept=("sigma",))
    p.add_argument("--sigmas", required=True, help="comma-separated widths")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--csv-out", default=None)
    p.set_defaults(fn=_cmd_sigma_sweep)

    p = verb("grid-search", "tune sigma and reference rate")
    _add_common(p, jobs=True, swept=("sigma", "reference_rate"))
    p.add_argument("--sigmas", required=True)
    p.add_argument("--reference-rates", required=True)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--report-out", default=None)
    p.set_defaults(fn=_cmd_grid_search)

    p = verb("prepare-data", "download/verify datasets")
    p.add_argument("names", nargs="*", help="dataset names (default: all)")
    p.add_argument("--data-dir", default=None)
    p.set_defaults(fn=_cmd_prepare_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "prepare-data":
            return _cmd_prepare_data(args)
        cfg = _resolve_config(args)
        dataset = _load_dataset(args)
        started = time.perf_counter()
        code = args.fn(args, cfg, dataset, _train_size(args, dataset))
        timing_out = _out_path(args, args.timing_out, "timing.json")
        if timing_out:
            _write_json(timing_out, {"wall_seconds": time.perf_counter() - started})
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SefmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
