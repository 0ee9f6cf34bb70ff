"""CSV loading, stratified splits, imputation, dataset registry."""

import json
from pathlib import Path

import numpy as np
import pytest

from sefm.data import (
    DATASETS,
    TabularDataset,
    confusion_matrix,
    impute_median,
    load_csv,
    load_dataset,
    prepare_dataset,
    stratified_split,
)
from sefm.errors import DataError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- container ---------------------------------------------------------------

def test_dataset_validation_and_counters():
    ds = TabularDataset(name="t", features=[[1.0, np.nan], [2.0, 3.0]],
                        labels=[0, 1], label_names=["a", "b"])
    assert ds.sample_count == 2
    assert ds.feature_count == 2
    assert ds.class_count == 2
    assert np.isnan(ds.features).sum() == 1
    assert ds.feature_names == ["f0", "f1"]
    with pytest.raises(DataError):
        TabularDataset(name="t", features=[[1.0]], labels=[0, 1], label_names=["a", "b"])
    with pytest.raises(DataError):
        TabularDataset(name="t", features=[[1.0]], labels=[5], label_names=["a"])


# --- csv loading ----------------------------------------------------------------

def test_load_csv_with_header(tmp_path):
    path = write(tmp_path, "width,height,kind\n1.0,2.0,cat\n3.0,4.0,dog\n")
    ds = load_csv(path)
    assert ds.feature_names == ["width", "height"]
    assert ds.label_names == ["cat", "dog"]
    assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    assert list(ds.labels) == [0, 1]


def test_load_csv_without_header(tmp_path):
    path = write(tmp_path, "1.0,2.0,x\n3.0,4.0,y\n")
    ds = load_csv(path)
    assert ds.sample_count == 2
    assert ds.feature_names == ["f0", "f1"]


def test_load_csv_numeric_labels_sort_numerically(tmp_path):
    path = write(tmp_path, "1.0,10\n1.5,2\n2.0,4\n")
    ds = load_csv(path)
    # "2" < "4" < "10" numerically even though "10" sorts first as text
    assert ds.label_names == ["2", "4", "10"]
    assert list(ds.labels) == [2, 0, 1]


def test_load_csv_text_labels_sort_lexically(tmp_path):
    ds = load_csv(write(tmp_path, "1.0,beta\n2.0,alpha\n"))
    assert ds.label_names == ["alpha", "beta"]


def test_load_csv_missing_and_junk_become_nan(tmp_path):
    path = write(tmp_path, "1.0,?,a\n,2.0,a\nthree,3.0,b\n")
    ds = load_csv(path)
    assert np.isnan(ds.features).sum() == 3
    assert np.isnan(ds.features[0, 1])
    assert np.isnan(ds.features[1, 0])
    assert np.isnan(ds.features[2, 0])


@pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e999"])
def test_load_csv_infinite_cell_is_error(tmp_path, token):
    path = write(tmp_path, f"x,y,label\n1.0,2.0,a\n3.0,{token},b\n")
    with pytest.raises(DataError) as err:
        load_csv(path)
    assert str(path) in str(err.value)
    assert "row 2 column 1" in str(err.value)


def test_load_csv_drop_missing_rows(tmp_path):
    path = write(tmp_path, "1.0,?,a\n2.0,2.5,a\n3.0,3.5,b\n")
    ds = load_csv(path, drop_missing_rows=True)
    assert ds.sample_count == 2
    assert ds.dropped_rows == 1
    assert not np.isnan(ds.features).any()


def test_load_csv_explicit_label_map_and_columns(tmp_path):
    path = write(tmp_path, "id1,5.0,6.0,4\nid2,7.0,8.0,2\n")
    ds = load_csv(path, label_column=3, feature_columns=(1, 2),
                  label_map={"2": 0, "4": 1})
    assert np.array_equal(ds.features, [[5.0, 6.0], [7.0, 8.0]])
    assert list(ds.labels) == [1, 0]
    assert ds.label_names == ["2", "4"]


def test_load_csv_unmapped_label_is_error(tmp_path):
    path = write(tmp_path, "1.0,9\n")
    with pytest.raises(DataError):
        load_csv(path, label_map={"2": 0})


def test_load_csv_ragged_row_is_error(tmp_path):
    path = write(tmp_path, "1.0,2.0,a\n3.0,b\n")
    with pytest.raises(DataError):
        load_csv(path)


def test_load_csv_columns_out_of_range_are_errors(tmp_path):
    path = write(tmp_path, "1.0,2.0,a\n")
    with pytest.raises(DataError):
        load_csv(path, label_column=7)
    with pytest.raises(DataError):
        load_csv(path, feature_columns=(0, 9))


def test_load_csv_missing_or_empty_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "absent.csv")
    with pytest.raises(DataError):
        load_csv(write(tmp_path, "\n\n"))


def test_load_csv_skips_blank_lines(tmp_path):
    ds = load_csv(write(tmp_path, "1.0,a\n\n2.0,b\n\n"))
    assert ds.sample_count == 2


# --- splits -------------------------------------------------------------------

def test_stratified_split_sizes_and_disjointness():
    labels = np.array([0] * 50 + [1] * 30 + [2] * 20)
    train, test = stratified_split(labels, 60, seed=4)
    assert len(train) == 60 and len(test) == 40
    assert set(train).isdisjoint(test)
    assert sorted(np.concatenate([train, test])) == list(range(100))
    # proportional within one sample: 30/18/12
    counts = np.bincount(labels[train])
    assert abs(counts[0] - 30) <= 1
    assert abs(counts[1] - 18) <= 1
    assert abs(counts[2] - 12) <= 1


def test_stratified_split_deterministic_and_sorted():
    labels = np.array([0, 1] * 25)
    a_train, a_test = stratified_split(labels, 20, seed=9)
    b_train, b_test = stratified_split(labels, 20, seed=9)
    c_train, _ = stratified_split(labels, 20, seed=10)
    assert np.array_equal(a_train, b_train)
    assert np.array_equal(a_test, b_test)
    assert not np.array_equal(a_train, c_train)
    assert np.array_equal(a_train, np.sort(a_train))


def test_stratified_split_rejects_bad_sizes():
    labels = np.array([0, 1] * 10)
    with pytest.raises(DataError):
        stratified_split(labels, 0, seed=1)
    with pytest.raises(DataError):
        stratified_split(labels, 20, seed=1)


def test_stratified_split_rejects_starved_class():
    labels = np.array([0] * 40 + [1] * 2)
    # a 3-sample training side floors class 1's quota to zero
    with pytest.raises(DataError):
        stratified_split(labels, 3, seed=2)
    # keeping every sample of class 1 on the training side is also refused
    with pytest.raises(DataError):
        stratified_split(labels, 41, seed=2)


# --- imputation ------------------------------------------------------------------

def test_impute_median_uses_train_medians_for_both_sides():
    train = np.array([[1.0, np.nan], [3.0, 4.0], [5.0, 8.0]])
    test = np.array([[np.nan, np.nan]])
    tr, te, med = impute_median(train, test)
    assert np.array_equal(med, [3.0, 6.0])
    assert tr[0, 1] == 6.0
    assert np.array_equal(te[0], [3.0, 6.0])
    assert np.isnan(train[0, 1])  # inputs are not mutated


def test_impute_median_all_nan_column_falls_back_to_zero():
    train = np.array([[np.nan], [np.nan]])
    tr, te, med = impute_median(train, np.array([[np.nan]]))
    assert med[0] == 0.0
    assert tr[0, 0] == 0.0 and te[0, 0] == 0.0


# --- confusion -------------------------------------------------------------------

def test_confusion_matrix_counts():
    m = confusion_matrix(np.array([0, 0, 1, 2]), np.array([0, 1, 1, 0]), 3)
    assert m.tolist() == [[1, 1, 0], [0, 1, 0], [1, 0, 0]]
    assert m.sum() == 4


# --- registry ---------------------------------------------------------------------

def test_registry_entries_consistent():
    assert set(DATASETS) == {"iris", "wine", "breast-cancer", "liver"}
    for spec in DATASETS.values():
        inputs, outputs = spec.architecture.split("-")
        assert int(inputs) == spec.feature_count * 6
        assert int(outputs) == spec.class_count
        assert spec.train_size + spec.test_size > 0
        assert spec.sigma > 0


def test_tuned_config_files_equal_registry():
    """The CLI takes sigma and reference_rate from DATASETS; configs/<name>.json
    hold the same values for --config users and the benchmark harness."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    files = {path.stem: json.loads(path.read_text()) for path in configs.glob("*.json")}
    assert sorted(files) == sorted(DATASETS)
    for name, doc in files.items():
        spec = DATASETS[name]
        assert doc == {"sigma": spec.sigma, "reference_rate": spec.reference_rate}, name


def test_registry_table_sizes():
    assert (DATASETS["iris"].train_size, DATASETS["iris"].test_size) == (75, 75)
    assert (DATASETS["wine"].train_size, DATASETS["wine"].test_size) == (60, 118)
    assert (DATASETS["breast-cancer"].train_size,
            DATASETS["breast-cancer"].test_size) == (350, 333)
    assert (DATASETS["liver"].train_size, DATASETS["liver"].test_size) == (170, 175)


def test_load_bundled_iris_and_wine():
    iris = load_dataset("iris")
    assert iris.features.shape == (150, 4)
    assert iris.class_count == 3
    assert np.bincount(iris.labels).tolist() == [50, 50, 50]
    pytest.importorskip("sklearn")  # wine ships only with scikit-learn
    wine = load_dataset("wine")
    assert wine.features.shape == (178, 13)
    assert wine.class_count == 3


def test_bundled_iris_is_scipy_arff_with_two_errata_fixed():
    arff = pytest.importorskip("scipy.io.arff")
    raw, meta = arff.loadarff(Path(arff.__file__).parent / "tests" / "data" / "iris.arff")
    names = meta.names()
    uci = np.column_stack([raw[n].astype(np.float64) for n in names[:-1]])
    iris = load_dataset("iris")
    changed = np.flatnonzero((iris.features != uci).any(axis=1))
    assert changed.tolist() == [34, 37]  # UCI rows 35 and 38 (Bezdek et al. 1999)
    assert iris.features[34].tolist() == [4.9, 3.1, 1.5, 0.2]
    assert iris.features[37].tolist() == [4.9, 3.6, 1.4, 0.1]
    classes = [c.decode() for c in raw[names[-1]]]
    assert [f"Iris-{iris.label_names[k]}" for k in iris.labels] == classes


def test_bundled_iris_equals_scikit_learn():
    datasets = pytest.importorskip("sklearn.datasets")
    bunch = datasets.load_iris()
    iris = load_dataset("iris")
    assert np.array_equal(iris.features, bunch.data)
    assert np.array_equal(iris.labels, bunch.target)
    assert iris.label_names == [str(t) for t in bunch.target_names]
    assert iris.feature_names == [str(f) for f in bunch.feature_names]


def test_unknown_dataset_rejected():
    with pytest.raises(DataError):
        load_dataset("mnist")
    with pytest.raises(DataError):
        prepare_dataset("mnist")


def test_prepare_bundled_needs_no_files():
    status = prepare_dataset("iris")
    assert status["status"] == "bundled"
    assert status["path"] is None


BREAST_ROWS = (
    "1000025,5,1,1,1,2,1,3,1,1,2\n"
    "1002945,5,4,4,5,7,10,3,2,1,2\n"
    "1015425,3,1,1,1,2,2,3,1,1,2\n"
    "1016277,6,8,8,1,3,4,3,7,1,4\n"
    "1017023,4,1,1,3,2,1,3,1,1,2\n"
    "1017122,8,10,10,8,7,10,9,7,1,4\n"
    "1018099,1,1,1,1,2,10,3,1,1,2\n"
    "1018561,2,1,2,1,2,1,3,1,1,2\n"
    "1033078,2,1,1,1,2,1,1,1,5,2\n"
    "1035283,1,1,1,1,1,?,3,1,1,4\n"
)


def test_prepare_checksums_existing_file(tmp_path):
    (tmp_path / "breast-cancer.csv").write_text(BREAST_ROWS)
    first = prepare_dataset("breast-cancer", directory=tmp_path)
    assert first["status"] == "downloaded"  # checksum newly recorded
    assert (tmp_path / "breast-cancer.sha256").exists()
    second = prepare_dataset("breast-cancer", directory=tmp_path)
    assert second["status"] == "verified"
    assert second["sha256"] == first["sha256"]


def test_prepare_detects_corruption(tmp_path):
    (tmp_path / "breast-cancer.csv").write_text(BREAST_ROWS)
    prepare_dataset("breast-cancer", directory=tmp_path)
    (tmp_path / "breast-cancer.csv").write_text(BREAST_ROWS + "9999,1,1,1,1,1,1,1,1,1,2\n")
    with pytest.raises(DataError) as err:
        prepare_dataset("breast-cancer", directory=tmp_path)
    assert "checksum" in str(err.value)


def test_load_dataset_applies_registry_parsing(tmp_path):
    (tmp_path / "breast-cancer.csv").write_text(BREAST_ROWS)
    ds = load_dataset("breast-cancer", directory=tmp_path)
    # the id column is excluded, labels 2/4 map to benign/malignant, and
    # the row with a missing cell is dropped
    assert ds.feature_count == 9
    assert ds.label_names == ["benign", "malignant"]
    assert ds.sample_count == 9
    assert ds.dropped_rows == 1
    assert ds.labels.min() == 0 and ds.labels.max() == 1


def test_load_dataset_missing_file_names_the_fix(tmp_path):
    with pytest.raises(DataError) as err:
        load_dataset("liver", directory=tmp_path)
    assert "prepare-data" in str(err.value)
