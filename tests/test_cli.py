"""Command line verbs: exit codes, config precedence, artifacts."""

import csv
import importlib.metadata
import json
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

import sefm
from sefm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from sefm.dynamics import load_model

from conftest import blobs_dataset


@pytest.fixture(scope="module")
def blobs_csv(tmp_path_factory):
    rng = np.random.default_rng(321)
    x, y = blobs_dataset(rng, classes=3, per_class=20)
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    with open(path, "w") as fh:
        for row, label in zip(x, y):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",{label}\n")
    return str(path)


def base_args(blobs_csv, *extra):
    return ["--csv", blobs_csv, "--train-size", "30", "--sigma", "0.5",
            "--max-epochs", "10", "--seed", "3", *extra]


def test_train_writes_model_report_timing(blobs_csv, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", *base_args(blobs_csv), "--output-dir", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "train" in printed and "test" in printed

    net, encoder = load_model(out / "model.json")
    assert net.class_count == 3
    assert encoder is not None and encoder.neuron_count == 24

    report = json.loads((out / "report.json").read_text())
    assert report["format"] == "sefm-report/1"
    assert report["kind"] == "train"
    assert report["config"]["sigma"] == 0.5
    assert report["result"]["train_size"] == 30
    assert "wall" not in json.dumps(report)  # timing lives in the sidecar

    timing = json.loads((out / "timing.json").read_text())
    assert timing["wall_seconds"] > 0


@pytest.mark.parametrize("argv", [
    ["train"],
    ["benchmark", "--runs", "1"],
    ["sigma-sweep", "--sigmas", "0.5", "--runs", "1"],
    ["grid-search", "--sigmas", "0.5", "--reference-rates", "0.1", "--runs", "1"],
], ids=["train", "benchmark", "sigma-sweep", "grid-search"])
def test_every_verb_writes_its_wall_time(blobs_csv, tmp_path, argv):
    """timing.json holds the wall time of the whole verb, for every verb
    that takes --timing-out."""
    out = tmp_path / "out"
    code = main([*argv, "--csv", blobs_csv, "--train-size", "30", "--max-epochs", "2",
                 "--output-dir", str(out)])
    assert code == EXIT_OK
    assert json.loads((out / "timing.json").read_text())["wall_seconds"] > 0


def test_train_explicit_out_paths_beat_output_dir(blobs_csv, tmp_path):
    out = tmp_path / "d"
    model = tmp_path / "elsewhere" / "m.json"
    code = main(["train", *base_args(blobs_csv), "--output-dir", str(out),
                 "--model-out", str(model)])
    assert code == EXIT_OK
    assert model.exists()
    assert not (out / "model.json").exists()
    assert (out / "report.json").exists()


def test_train_repeat_is_byte_identical(blobs_csv, tmp_path):
    for d in ("a", "b"):
        assert main(["train", *base_args(blobs_csv),
                     "--output-dir", str(tmp_path / d)]) == EXIT_OK
    for name in ("model.json", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_config_file_and_flag_precedence(blobs_csv, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sigma": 0.7, "max_epochs": 4}))
    out = tmp_path / "out"
    code = main(["train", "--csv", blobs_csv, "--train-size", "30", "--seed", "1",
                 "--config", str(cfg_path), "--sigma", "0.9",
                 "--output-dir", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["sigma"] == 0.9      # flag beats config file
    assert report["config"]["max_epochs"] == 4   # config file beats default


def test_registry_defaults_feed_config(tmp_path):
    out = tmp_path / "iris"
    code = main(["train", "--dataset", "iris", "--max-epochs", "3",
                 "--seed", "1", "--output-dir", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    from sefm.data import DATASETS
    assert report["config"]["sigma"] == DATASETS["iris"].sigma
    assert report["result"]["train_size"] == 75  # registry train size


def test_bad_config_value_exits_2(blobs_csv):
    assert main(["train", *base_args(blobs_csv), "--learning-rate", "-1"]) == EXIT_CONFIG


@pytest.mark.parametrize("flags, doc", [
    (["--learning-rate", "nan"], None),
    (["--sigma", "inf"], None),
    ([], {"tau": float("nan")}),
    ([], {"dt": float("nan")}),
    ([], {"t_max": float("inf")}),
    ([], {"sigma": "abc"}),
    ([], {"max_epochs": 2.7}),
    ([], {"max_epochs": True}),
    ([], {"sigma": "0.5"}),
    ([], {"sigma": 10 ** 400}),
    ([], {"dt": 0.0015}),
], ids=["learning-rate-nan", "sigma-inf", "tau-nan", "dt-nan", "t-max-inf",
        "sigma-text", "fractional-epochs", "bool-epochs", "numeric-text-sigma",
        "huge-int-sigma", "dt-off-tick"])
def test_non_finite_or_malformed_setting_exits_2_and_writes_nothing(blobs_csv, tmp_path,
                                                                     capsys, flags, doc):
    out = tmp_path / "out"
    name = flags[0][2:].replace("-", "_") if doc is None else next(iter(doc))
    if doc is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))  # json writes NaN and Infinity
        flags = ["--config", str(config)]
    code = main(["train", "--csv", blobs_csv, "--train-size", "30", "--seed", "3",
                 *flags, "--output-dir", str(out)])
    assert code == EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_infinite_csv_cell_exits_3_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("1.0,2.0,0\n1.5,inf,0\n2.0,2.5,0\n"
                    "5.0,6.0,1\n5.5,6.5,1\n6.0,7.0,1\n")
    out = tmp_path / "out"
    code = main(["train", "--csv", str(path), "--train-size", "4", "--seed", "1",
                 "--output-dir", str(out)])
    assert code == EXIT_DATA
    assert "row 2 column 1" in capsys.readouterr().err
    assert not out.exists()


def test_a_column_whose_fields_overflow_exits_2_with_one_line_and_no_warning(tmp_path, capsys):
    """A column of -1e308 and 1e308 holds finite cells, but its range's
    width overflows a float: `sefm train` names the feature and exits 2,
    where it once warned twice, trained on and dropped that feature."""
    path = tmp_path / "huge.csv"
    path.write_text("".join(f"{(-1) ** r * 1e308},{0.1 * r},{r % 2}\n" for r in range(20)))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--csv", str(path), "--train-size", "18", "--seed", "1",
                     "--output-dir", str(out)])
    assert code == EXIT_CONFIG and not caught
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "feature_ranges [0]" in err, err
    assert not out.exists()


def test_unknown_config_key_exits_2(blobs_csv, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sgima": 1.0}))
    assert main(["train", "--csv", blobs_csv, "--config", str(bad)]) == EXIT_CONFIG


def test_malformed_config_file_exits_2(blobs_csv, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    assert main(["train", "--csv", blobs_csv, "--config", str(bad)]) == EXIT_CONFIG


@pytest.mark.parametrize("content", [b'{"sigma": 0.5, "\xff": 1}', b"[" * 100_000,
                                     b'{"sigma": ' + b"1" * 5000 + b"}"],
                         ids=["non_utf8_byte", "deeply_nested", "huge_integer"])
def test_config_file_that_is_not_utf8_json_exits_2(content, blobs_csv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["train", "--csv", blobs_csv, "--config", str(bad)]) == EXIT_CONFIG
    assert "as UTF-8 JSON" in capsys.readouterr().err


def test_csv_that_is_not_utf8_exits_3_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1.0,2.0,0\n1.5,2.5,0\n5.0,6.0,1\xff\n5.5,6.5,1\n")
    out = tmp_path / "out"
    code = main(["train", "--csv", str(path), "--train-size", "2", "--seed", "1",
                 "--output-dir", str(out)])
    assert code == EXIT_DATA
    assert "not UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_missing_source_exits_2():
    assert main(["train", "--seed", "1"]) == EXIT_CONFIG


def test_unknown_dataset_exits_3():
    assert main(["train", "--dataset", "mnist"]) == EXIT_DATA


def test_unprepared_dataset_exits_3(tmp_path):
    assert main(["train", "--dataset", "liver", "--data-dir", str(tmp_path)]) == EXIT_DATA


def test_missing_csv_file_exits_3(tmp_path):
    assert main(["train", "--csv", str(tmp_path / "ghost.csv")]) == EXIT_DATA


def test_argparse_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["sigma-sweep"])  # --sigmas is required
    assert err.value.code == 2


def test_benchmark_report(blobs_csv, tmp_path, capsys):
    report_path = tmp_path / "bench.json"
    code = main(["benchmark", *base_args(blobs_csv), "--runs", "2",
                 "--report-out", str(report_path)])
    assert code == EXIT_OK
    assert "over 2 runs" in capsys.readouterr().out
    doc = json.loads(report_path.read_text())
    assert doc["kind"] == "benchmark"
    assert doc["run_count"] == 2
    assert len(doc["runs"]) == 2
    assert "display" in doc["test_accuracy_percent"]


def test_benchmark_repeat_is_byte_identical(blobs_csv, tmp_path):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        assert main(["benchmark", *base_args(blobs_csv), "--runs", "2",
                     "--report-out", str(p)]) == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sigma_sweep_csv(blobs_csv, tmp_path, capsys):
    sweep_path = tmp_path / "sweep.csv"
    code = main(["sigma-sweep", "--csv", blobs_csv, "--train-size", "30",
                 "--max-epochs", "8", "--seed", "2", "--runs", "1",
                 "--sigmas", "0.5,1000000", "--csv-out", str(sweep_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.count("sigma") == 2
    with open(sweep_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["sigma"]) for r in rows] == [0.5, 1e6]
    assert all(0.0 <= float(r["test_mean"]) <= 100.0 for r in rows)


def test_sigma_sweep_bad_list_exits_2(blobs_csv):
    assert main(["sigma-sweep", "--csv", blobs_csv, "--sigmas", "a,b"]) == EXIT_CONFIG


def test_grid_search_report(blobs_csv, tmp_path, capsys):
    report_path = tmp_path / "grid.json"
    code = main(["grid-search", "--csv", blobs_csv, "--train-size", "30",
                 "--max-epochs", "8", "--seed", "2", "--runs", "1",
                 "--sigmas", "0.5,1.0", "--reference-rates", "0.05",
                 "--report-out", str(report_path)])
    assert code == EXIT_OK
    assert "best: sigma" in capsys.readouterr().out
    doc = json.loads(report_path.read_text())
    assert doc["kind"] == "grid-search"
    assert len(doc["cells"]) == 2
    assert doc["best"]["sigma"] in (0.5, 1.0)


@pytest.mark.parametrize("argv", [
    ["benchmark", "--runs", "0"],
    ["benchmark", "--runs", "-2"],
    ["sigma-sweep", "--sigmas", "0.5", "--runs", "0"],
    ["grid-search", "--sigmas", "0.5", "--reference-rates", "0.1", "--runs", "0"],
], ids=["benchmark", "benchmark-negative", "sigma-sweep", "grid-search"])
def test_runs_below_one_exits_2_and_writes_nothing(blobs_csv, tmp_path, argv):
    out = tmp_path / "out"
    code = main([*argv, "--csv", blobs_csv, "--train-size", "30", "--output-dir", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train"],
    ["benchmark", "--runs", "2"],
    ["sigma-sweep", "--sigmas", "0.5", "--runs", "2"],
    ["grid-search", "--sigmas", "0.5", "--reference-rates", "0.1", "--runs", "2"],
], ids=["train", "benchmark", "sigma-sweep", "grid-search"])
def test_train_size_zero_exits_3_and_writes_nothing(tmp_path, capsys, argv):
    """An explicit --train-size 0 reaches stratified_split instead of
    falling back to the registry's size."""
    out = tmp_path / "out"
    code = main([*argv, "--dataset", "iris", "--train-size", "0", "--max-epochs", "1",
                 "--output-dir", str(out)])
    assert code == EXIT_DATA
    assert "train_size 0 must lie in 1..149" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["benchmark"],
    ["sigma-sweep", "--sigmas", "0.5"],
    ["grid-search", "--sigmas", "0.5", "--reference-rates", "0.1"],
], ids=["benchmark", "sigma-sweep", "grid-search"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2_and_writes_nothing(blobs_csv, tmp_path, argv, jobs):
    out = tmp_path / "out"
    code = main([*argv, "--runs", "1", "--jobs", jobs, "--csv", blobs_csv,
                 "--train-size", "30", "--max-epochs", "1", "--output-dir", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--jobs", "2"],
    ["train", "--jobs", "-3"],
    ["grid-search", "--sigmas", "0.5", "--reference-rates", "0.1", "--reference-rate", "0.7"],
    ["grid-search", "--sigmas", "0.5", "--reference-rates", "0.1", "--sigma", "0.7"],
    ["train", "--csv", "b.csv"],
], ids=["train-jobs", "train-negative-jobs", "grid-reference-rate", "grid-sigma",
        "train-csv-and-dataset"])
def test_flag_the_verb_would_ignore_is_a_usage_error(tmp_path, argv):
    """train runs one split in-process, and grid-search trains every cell at
    its own sigma and reference rate, so these flags would have no effect.
    --csv beside --dataset would train the CSV under the registered
    dataset's tuned settings."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([*argv, "--dataset", "iris", "--max-epochs", "1", "--output-dir", str(out)])
    assert err.value.code == 2
    assert not out.exists()


IRIS_CSV = str(Path(sefm.__file__).parent / "iris.csv")


@pytest.mark.parametrize("argv", [
    ["--dataset", "iris", "--label-column", "2"],
    ["--csv", IRIS_CSV, "--data-dir", "/nonexistent"],
], ids=["dataset-label-column", "csv-data-dir"])
def test_flag_the_chosen_source_never_reads_exits_2(tmp_path, argv):
    """--label-column is read only for --csv, --data-dir only for --dataset."""
    out = tmp_path / "out"
    assert main(["train", *argv, "--max-epochs", "1", "--output-dir", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_data_dir_from_the_environment_is_no_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("SEFM_DATA_DIR", str(tmp_path / "nonexistent"))
    for source in (["--csv", IRIS_CSV], ["--dataset", "iris"]):
        assert main(["train", *source, "--max-epochs", "1"]) == EXIT_OK


def test_csv_named_like_a_registered_dataset_splits_by_its_own_rows(tmp_path):
    """The registry's split size belongs to --dataset; a CSV keeps half its rows."""
    liver = tmp_path / "liver.csv"
    shutil.copy(IRIS_CSV, liver)
    out = tmp_path / "out"
    assert main(["train", "--csv", str(liver), "--max-epochs", "1",
                 "--output-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["train_size"] == 75


def test_grid_search_config_block_names_the_best_trained_cell(blobs_csv, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"sigma": 7.0, "reference_rate": 0.7, "max_epochs": 8}))
    report_path = tmp_path / "grid.json"
    code = main(["grid-search", "--csv", blobs_csv, "--train-size", "30", "--seed", "2",
                 "--runs", "1", "--config", str(config), "--sigmas", "0.5,1.0",
                 "--reference-rates", "0.05,0.2", "--report-out", str(report_path)])
    assert code == EXIT_OK
    doc = json.loads(report_path.read_text())
    recorded = (doc["config"]["sigma"], doc["config"]["reference_rate"])
    assert recorded == (doc["best"]["sigma"], doc["best"]["reference_rate"])
    assert recorded in [(c["sigma"], c["reference_rate"]) for c in doc["cells"]]
    assert doc["config"]["max_epochs"] == 8


def test_prepare_data_bundled(capsys):
    assert main(["prepare-data", "iris", "wine"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "iris: bundled" in out
    assert "wine: bundled" in out


def test_prepare_data_unknown_exits_3():
    assert main(["prepare-data", "imagenet"]) == EXIT_DATA


def _installed() -> bool:
    try:
        importlib.metadata.distribution("sefm")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not _installed(), reason="sefm is not pip-installed")
def test_console_entry_point_installed():
    exe = shutil.which("sefm")
    assert exe, "console script should be on PATH after installation"
    proc = subprocess.run([exe, "prepare-data", "iris"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "bundled" in proc.stdout
