"""Datasets: loading, splits, imputation, and the benchmark registry.

Iris ships inside the package as ``iris.csv``, so it loads offline with
numpy alone.  The file is UCI iris as scipy installs it
(``scipy/io/arff/tests/data/iris.arff``) with the two UCI errata corrected
as in Bezdek et al. 1999, "Will the real Iris data please stand up?":
row 35 has petal width 0.2 and row 38 is (4.9, 3.6, 1.4, 0.1).  It keeps
scikit-learn's feature and label names and equals ``load_iris()``.  Wine
loads through scikit-learn, an optional dependency.  The other two sets
(breast-cancer, liver) are fetched once by ``prepare-data`` into a local
data directory (SEFM_DATA_DIR or ./data) and checksummed on first download
so later runs can verify the bytes.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import urllib.request
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DataError
from .rng import SplitMix64

DEFAULT_MISSING = ("", "?", "NA", "NaN", "nan")


@dataclass
class TabularDataset:
    """Numeric feature matrix plus integer labels 0..class_count-1.

    features may contain NaN for missing entries; impute_median fills
    them per split so the test fold never leaks into the medians.
    """

    name: str
    features: np.ndarray
    labels: np.ndarray
    label_names: list[str]
    feature_names: list[str] = field(default_factory=list)
    dropped_rows: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        if len(self.features) != len(self.labels):
            raise DataError("features and labels differ in length")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= len(self.label_names)):
            raise DataError("labels out of range of label_names")
        if not self.feature_names:
            self.feature_names = [f"f{i}" for i in range(self.features.shape[1])]

    @property
    def sample_count(self) -> int:
        return len(self.labels)

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    @property
    def class_count(self) -> int:
        return len(self.label_names)


def _parse_cell(token: str) -> float:
    """Missing or unparseable cells become NaN."""
    token = token.strip()
    if token in DEFAULT_MISSING:
        return math.nan
    try:
        return float(token)
    except ValueError:
        return math.nan


def load_csv(path, *, label_column: int = -1,
             feature_columns: Optional[Sequence[int]] = None,
             label_map: Optional[dict[str, int]] = None,
             label_names: Optional[list[str]] = None,
             drop_missing_rows: bool = False,
             name: Optional[str] = None) -> TabularDataset:
    """Read a comma-separated numeric table with one label column.

    A header row is detected by trying to parse the first row's feature
    cells.  Cells in DEFAULT_MISSING or not numbers read as NaN; an
    infinite cell is a DataError.  Unmapped labels are assigned by sorted
    order (numeric if all labels parse as numbers) so the encoding is
    reproducible.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    if not rows:
        raise DataError(f"{path} contains no data rows")

    width = len(rows[0])
    if not -width <= label_column < width:
        raise DataError(f"{path}: label column {label_column} outside the "
                        f"{width}-column table")
    lcol = label_column % width
    fcols = list(feature_columns) if feature_columns is not None \
        else [i for i in range(width) if i != lcol]
    if any(not 0 <= i < width for i in fcols):
        raise DataError(f"{path}: feature column outside the {width}-column table")

    header: Optional[list[str]] = None
    first = rows[0]
    for i in fcols:
        cell = first[i].strip()
        if cell not in DEFAULT_MISSING:
            try:
                float(cell)
            except ValueError:
                header = first
                break
    body = rows[1:] if header is not None else rows

    feats = np.empty((len(body), len(fcols)))
    raw_labels: list[str] = []
    for r, row in enumerate(body):
        if len(row) != width:
            raise DataError(f"{path} row {r + 1}: expected {width} cells, got {len(row)}")
        for c, i in enumerate(fcols):
            feats[r, c] = _parse_cell(row[i])
            if math.isinf(feats[r, c]):
                raise DataError(f"{path} row {r + 1} column {i}: {row[i].strip()!r} "
                                "is not a finite number")
        raw_labels.append(row[lcol].strip())

    if label_map is None:
        distinct = sorted(set(raw_labels))
        try:
            distinct.sort(key=float)
        except ValueError:
            pass
        label_map = {tok: j for j, tok in enumerate(distinct)}
        label_names = distinct
    elif label_names is None:
        label_names = [tok for tok, _ in sorted(label_map.items(), key=lambda kv: kv[1])]
    try:
        labels = np.array([label_map[tok] for tok in raw_labels], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"unmapped label value {exc.args[0]!r} in {path}") from exc

    dropped = 0
    if drop_missing_rows:
        keep = ~np.isnan(feats).any(axis=1)
        dropped = int((~keep).sum())
        feats, labels = feats[keep], labels[keep]

    names = [header[i].strip() for i in fcols] if header is not None else []
    return TabularDataset(name=name or path.stem, features=feats, labels=labels,
                          label_names=list(label_names), feature_names=names,
                          dropped_rows=dropped)


# -- splitting and imputation ------------------------------------------------

def stratified_split(labels: np.ndarray, train_size: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Class-proportional train/test split (largest-remainder quotas, so any
    class is off its exact proportion by at most one sample)."""
    labels = np.asarray(labels)
    n = len(labels)
    if not 0 < train_size < n:
        raise DataError(f"train_size {train_size} must lie in 1..{n - 1}")
    classes, counts = np.unique(labels, return_counts=True)
    exact = counts * (train_size / n)
    quota = np.floor(exact).astype(np.int64)
    remainder = exact - quota
    short = train_size - int(quota.sum())
    for idx in np.argsort(-remainder, kind="stable")[:short]:
        quota[idx] += 1
    starved = [int(c) for c, q, cnt in zip(classes, quota, counts)
               if q == 0 or q == cnt]
    if starved:
        raise DataError(f"train_size {train_size} leaves class(es) {starved} "
                        "empty on one side of the split")
    budget = dict(zip(classes.tolist(), quota.tolist()))
    train, test = [], []
    for idx in SplitMix64(seed).permutation(n):
        lab = int(labels[idx])
        if budget[lab] > 0:
            budget[lab] -= 1
            train.append(idx)
        else:
            test.append(idx)
    return np.array(sorted(train), dtype=np.int64), np.array(sorted(test), dtype=np.int64)


def impute_median(train: np.ndarray, test: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill NaNs in both matrices with the training-fold column medians."""
    train = np.array(train, dtype=np.float64)
    test = np.array(test, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        medians = np.nanmedian(train, axis=0)
    medians = np.where(np.isnan(medians), 0.0, medians)
    for mat in (train, test):
        holes = np.isnan(mat)
        if holes.any():
            mat[holes] = np.broadcast_to(medians, mat.shape)[holes]
    return train, test, medians


def confusion_matrix(labels: np.ndarray, predictions: np.ndarray,
                     class_count: int) -> np.ndarray:
    """Counts indexed [true, predicted]."""
    out = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(out, (np.asarray(labels), np.asarray(predictions)), 1)
    return out


# -- benchmark registry --------------------------------------------------------

@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry: where a benchmark set comes from and how it is run."""

    name: str
    source: str                  # "package:<file>", "sklearn:<loader>" or a download URL
    class_count: int
    feature_count: int
    train_size: int
    test_size: int
    architecture: str            # "<input neurons>-<output neurons>"
    sigma: float                 # tuned width of the weight Gaussians
    reference_rate: float        # tuned pull-earlier step for late neurons
    label_column: int = -1
    feature_columns: Optional[tuple[int, ...]] = None
    label_map: Optional[tuple[tuple[str, int], ...]] = None
    label_names: Optional[tuple[str, ...]] = None
    drop_missing_rows: bool = False


DATASETS: dict[str, DatasetSpec] = {
    "iris": DatasetSpec(
        name="iris", source="package:iris.csv",
        class_count=3, feature_count=4, train_size=75, test_size=75,
        architecture="24-3", sigma=1.0, reference_rate=0.1,
    ),
    "wine": DatasetSpec(
        name="wine", source="sklearn:load_wine",
        class_count=3, feature_count=13, train_size=60, test_size=118,
        architecture="78-3", sigma=1.5, reference_rate=0.15,
    ),
    "breast-cancer": DatasetSpec(
        name="breast-cancer",
        source=("https://archive.ics.uci.edu/ml/machine-learning-databases/"
                "breast-cancer-wisconsin/breast-cancer-wisconsin.data"),
        class_count=2, feature_count=9, train_size=350, test_size=333,
        architecture="54-2", sigma=1.0, reference_rate=0.05,
        label_column=10, feature_columns=tuple(range(1, 10)),
        label_map=(("2", 0), ("4", 1)), label_names=("benign", "malignant"),
        drop_missing_rows=True,
    ),
    "liver": DatasetSpec(
        name="liver",
        source=("https://archive.ics.uci.edu/ml/machine-learning-databases/"
                "liver-disorders/bupa.data"),
        class_count=2, feature_count=6, train_size=170, test_size=175,
        architecture="36-2", sigma=1.0, reference_rate=0.05,
        label_column=6, feature_columns=tuple(range(6)),
        label_map=(("1", 0), ("2", 1)), label_names=("selector-1", "selector-2"),
    ),
}


def _registered(name: str) -> DatasetSpec:
    """The registry's entry for ``name``; an unknown name raises DataError."""
    if name not in DATASETS:
        raise DataError(f"unknown dataset {name!r} (have: {', '.join(sorted(DATASETS))})")
    return DATASETS[name]


def data_dir(override=None) -> Path:
    if override is not None:
        return Path(override)
    return Path(os.environ.get("SEFM_DATA_DIR", "data"))


def _cache_path(spec: DatasetSpec, directory: Path) -> Path:
    return directory / f"{spec.name}.csv"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def prepare_dataset(name: str, directory=None) -> dict:
    """Make a benchmark dataset locally available; returns a status record
    whose ``where`` says where the data is read from.

    Sets shipped in the package or with scikit-learn need no files.
    Downloads record a sha256 next to the file on first fetch and verify
    against it on every later call.
    """
    spec = _registered(name)
    if spec.source.startswith("package:"):
        return {"dataset": name, "status": "bundled", "path": None, "sha256": None,
                "where": "ships in the package"}
    if spec.source.startswith("sklearn:"):
        return {"dataset": name, "status": "bundled", "path": None, "sha256": None,
                "where": "via scikit-learn"}
    directory = data_dir(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = _cache_path(spec, directory)
    checksum_path = path.with_suffix(".sha256")
    if not path.exists():
        tmp = path.with_suffix(".part")
        try:
            with urllib.request.urlopen(spec.source, timeout=60.0) as resp, \
                    open(tmp, "wb") as out:
                out.write(resp.read())
        except OSError as exc:
            if tmp.exists():
                tmp.unlink()
            raise DataError(f"download of {name} from {spec.source} failed: {exc}") from exc
        tmp.replace(path)
    digest = _sha256(path)
    if checksum_path.exists():
        expected = checksum_path.read_text().split()[0]
        if digest != expected:
            raise DataError(f"{path} checksum mismatch: {digest} != recorded {expected}")
        status = "verified"
    else:
        checksum_path.write_text(f"{digest}  {path.name}\n")
        status = "downloaded"
    return {"dataset": name, "status": status, "path": str(path), "sha256": digest,
            "where": str(path)}


def _load_sklearn(loader_name: str, name: str) -> TabularDataset:
    try:
        from sklearn import datasets as skdata
    except ImportError as exc:
        raise DataError("scikit-learn is required for this dataset") from exc
    bunch = getattr(skdata, loader_name)()
    return TabularDataset(name=name, features=bunch.data, labels=bunch.target,
                          label_names=[str(t) for t in bunch.target_names],
                          feature_names=[str(f) for f in bunch.feature_names])


def _csv_path(spec: DatasetSpec, directory) -> Path:
    if spec.source.startswith("package:"):
        return Path(__file__).with_name(spec.source.split(":", 1)[1])
    path = _cache_path(spec, data_dir(directory))
    if not path.exists():
        raise DataError(
            f"dataset {spec.name!r} not present at {path}; run `sefm prepare-data "
            f"{spec.name}` on a machine with network access")
    return path


def load_dataset(name: str, directory=None) -> TabularDataset:
    """Load a registered benchmark dataset (prepare-data must have run for
    the downloadable ones)."""
    spec = _registered(name)
    if spec.source.startswith("sklearn:"):
        ds = _load_sklearn(spec.source.split(":", 1)[1], name)
    else:
        ds = load_csv(_csv_path(spec, directory), name=name, label_column=spec.label_column,
                      feature_columns=spec.feature_columns,
                      label_map=dict(spec.label_map) if spec.label_map else None,
                      label_names=list(spec.label_names) if spec.label_names else None,
                      drop_missing_rows=spec.drop_missing_rows)
    if ds.feature_count != spec.feature_count:
        raise DataError(f"{name}: expected {spec.feature_count} features, "
                        f"got {ds.feature_count}")
    if ds.class_count != spec.class_count:
        raise DataError(f"{name}: expected {spec.class_count} classes, "
                        f"got {ds.class_count}")
    return ds
