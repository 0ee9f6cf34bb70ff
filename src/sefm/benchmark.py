"""Benchmark orchestration: repeated random splits, sweeps, grid search.

Each run draws its own stratified split and its own presentation
shuffles from seeds derived off one root seed, so a whole benchmark is
reproducible from (config, seed) alone.  Sweeps reuse the same run seeds
across parameter values, which pairs the comparisons sample-for-sample.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import training
from .config import NetworkConfig
from .data import TabularDataset, confusion_matrix, impute_median, stratified_split
from .dynamics import Network
from .encoding import EncoderConfig, encode_dataset, fit_ranges
from .errors import ConfigError, DataError
from .rng import derive_seed

REPORT_FORMAT = "sefm-report/1"
VAL_FRACTION = 0.25  # share of each run's training side grid search validates on


def summarize(values) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for a single value)."""
    arr = np.asarray(values, dtype=np.float64)
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


def format_mean_sd(mean: float, sd: float) -> str:
    return f"{mean:.1f}({sd:.1f})"


def report(kind: str, dataset: str, seed: int, cfg: NetworkConfig, **body) -> dict:
    """A report document: what produced it, then the verb's own fields."""
    return {"format": REPORT_FORMAT, "kind": kind, "dataset": dataset, "seed": seed,
            "config": cfg.to_dict(), **body}


@dataclass
class RunResult:
    run: int
    seed: int
    train_accuracy: float
    test_accuracy: float
    epochs_run: int
    converged: bool
    confusion: np.ndarray
    train_size: int
    test_size: int
    epoch_stats: list[dict]

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["confusion"] = self.confusion.tolist()
        doc["epochs"] = doc.pop("epoch_stats")
        return doc


@dataclass
class SplitOutcome:
    result: RunResult
    network: Network | None  # None where a benchmark did not keep it
    encoder: EncoderConfig


def run_split(dataset: TabularDataset, train_idx: np.ndarray, test_idx: np.ndarray,
              cfg: NetworkConfig, seed: int, run: int = 0) -> SplitOutcome:
    """Impute, fit the encoder, encode, train and score one split.

    Everything derived from the data (medians, feature ranges) comes
    from the training side only.
    """
    train_x, test_x, _ = impute_median(dataset.features[train_idx],
                                       dataset.features[test_idx])
    train_y = dataset.labels[train_idx]
    test_y = dataset.labels[test_idx]
    encoder = fit_ranges(train_x,
                         receptive_field_count=cfg.receptive_field_count,
                         overlap=cfg.overlap,
                         spike_interval=cfg.spike_interval,
                         response_cutoff=cfg.response_cutoff)
    # the split's network checks its size (MAX_CELLS) before encoding allocates for it
    training.build_network(cfg, dataset.class_count, encoder.neuron_count)
    train_patts = encode_dataset(train_x, encoder)
    test_patts = encode_dataset(test_x, encoder)
    fit = training.train(train_patts, train_y, cfg, dataset.class_count, seed=seed)
    train_acc = training.accuracy_score(training.predict(fit.network, train_patts), train_y)
    test_pred = training.predict(fit.network, test_patts)
    test_acc = training.accuracy_score(test_pred, test_y)
    result = RunResult(run=run, seed=seed,
                       train_accuracy=train_acc, test_accuracy=test_acc,
                       epochs_run=fit.epochs_run, converged=fit.converged,
                       confusion=confusion_matrix(test_y, test_pred, dataset.class_count),
                       train_size=len(train_idx), test_size=len(test_idx),
                       epoch_stats=[s.to_dict() for s in fit.epoch_stats])
    return SplitOutcome(result=result, network=fit.network, encoder=encoder)


@dataclass
class BenchmarkResult:
    dataset: str
    architecture: str
    config: NetworkConfig
    seed: int
    runs: list[RunResult]
    last_outcome: SplitOutcome | None = None

    @property
    def train_stats(self) -> tuple[float, float]:
        return summarize([100.0 * r.train_accuracy for r in self.runs])

    @property
    def test_stats(self) -> tuple[float, float]:
        return summarize([100.0 * r.test_accuracy for r in self.runs])

    def to_dict(self) -> dict:
        percents = {f"{side}_accuracy_percent": {"mean": mean, "sd": sd,
                                                 "display": format_mean_sd(mean, sd)}
                    for side, (mean, sd) in (("train", self.train_stats),
                                             ("test", self.test_stats))}
        return report("benchmark", self.dataset, self.seed, self.config,
                      architecture=self.architecture, run_count=len(self.runs),
                      runs=[r.to_dict() for r in self.runs], **percents)


def _map(fn, units: list, jobs: int) -> list:
    """fn over units in order, fanned out over ``jobs`` processes when jobs > 1."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return [fn(u) for u in units]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, units))


def _plan(dataset: TabularDataset, train_size: int, run_count: int, seed: int) -> list:
    """(train_idx, test_idx, training seed, validation seed) for each run.

    Run k's seed is derive_seed(seed, k); its indices 0, 1 and 2 seed the
    split, the training shuffles and grid search's validation split.
    """
    if run_count < 1:
        raise ConfigError(f"run_count must be >= 1, got {run_count}")
    plan = []
    for run_seed in (derive_seed(seed, run) for run in range(run_count)):
        train_idx, test_idx = stratified_split(dataset.labels, train_size,
                                               derive_seed(run_seed, 0))
        plan.append((train_idx, test_idx, derive_seed(run_seed, 1), derive_seed(run_seed, 2)))
    return plan


def _run_unit(args) -> SplitOutcome:
    dataset, cfg, train_idx, test_idx, train_seed, run, keep_network = args
    outcome = run_split(dataset, train_idx, test_idx, cfg, seed=train_seed, run=run)
    if not keep_network:
        outcome.network = None  # neither held nor pickled back from a worker
    return outcome


def benchmark(dataset: TabularDataset, cfg: NetworkConfig, *, train_size: int,
              run_count: int = 10, seed: int = 0, jobs: int = 1,
              keep_last: bool = False) -> BenchmarkResult:
    """run_count independent stratified splits trained and scored.

    Runs share nothing, so jobs > 1 fans them out over processes; the
    results (and their order) are the same either way.
    """
    plan = _plan(dataset, train_size, run_count, seed)
    units = [(dataset, cfg, train_idx, test_idx, train_seed, run,
              keep_last and run == run_count - 1)
             for run, (train_idx, test_idx, train_seed, _) in enumerate(plan)]
    outcomes = _map(_run_unit, units, jobs)
    runs = [o.result for o in outcomes]
    arch = f"{outcomes[-1].encoder.neuron_count}-{dataset.class_count}"
    return BenchmarkResult(dataset=dataset.name, architecture=arch,
                           config=cfg, seed=seed, runs=runs,
                           last_outcome=outcomes[-1] if keep_last else None)


# -- sigma sweep ---------------------------------------------------------------

@dataclass
class SweepRow:
    sigma: float
    test_mean: float
    test_sd: float
    train_mean: float
    train_sd: float
    epochs_mean: float

    def to_dict(self) -> dict:
        return asdict(self)


def sigma_sweep(dataset: TabularDataset, cfg: NetworkConfig, sigmas, *,
                train_size: int, run_count: int = 5, seed: int = 0,
                jobs: int = 1) -> list[SweepRow]:
    """Benchmark the same splits under each Gaussian width in turn."""
    rows = []
    for sigma in sigmas:
        res = benchmark(dataset, cfg.with_overrides(sigma=float(sigma)),
                        train_size=train_size, run_count=run_count, seed=seed,
                        jobs=jobs)
        test_mean, test_sd = res.test_stats
        train_mean, train_sd = res.train_stats
        rows.append(SweepRow(sigma=float(sigma), test_mean=test_mean, test_sd=test_sd,
                             train_mean=train_mean, train_sd=train_sd,
                             epochs_mean=float(np.mean([r.epochs_run for r in res.runs]))))
    return rows


# -- grid search -----------------------------------------------------------------

@dataclass
class GridCell:
    sigma: float
    reference_rate: float
    val_mean: float
    val_sd: float


@dataclass
class GridSearchResult:
    cells: list[GridCell]
    best: GridCell

    def to_dict(self) -> dict:
        return asdict(self)


def grid_search(dataset: TabularDataset, cfg: NetworkConfig, sigmas, reference_rates,
                *, train_size: int, run_count: int = 3, seed: int = 0,
                jobs: int = 1) -> GridSearchResult:
    """Pick (sigma, reference_rate) by validation accuracy.

    Each run validates on VAL_FRACTION of its training side; the test
    side of every split stays untouched.  Ties prefer the smaller sigma,
    then the smaller reference_rate.
    """
    plan = _plan(dataset, train_size, run_count, seed)
    if not sigmas or not reference_rates:
        raise DataError("grid axes must be non-empty")
    folds = []
    for train_idx, _, train_seed, val_seed in plan:
        val_size = max(1, int(round(VAL_FRACTION * len(train_idx))))
        fit_rel, val_rel = stratified_split(dataset.labels[train_idx],
                                            len(train_idx) - val_size, val_seed)
        folds.append((train_idx[fit_rel], train_idx[val_rel], train_seed))
    grid = [(float(s), float(r)) for s in sigmas for r in reference_rates]
    units = [(dataset, cfg.with_overrides(sigma=sigma, reference_rate=rate), *fold, run, False)
             for sigma, rate in grid for run, fold in enumerate(folds)]
    scores = [100.0 * o.result.test_accuracy for o in _map(_run_unit, units, jobs)]
    cells = []
    for c, (sigma, rate) in enumerate(grid):
        mean, sd = summarize(scores[c * run_count:(c + 1) * run_count])
        cells.append(GridCell(sigma=sigma, reference_rate=rate,
                              val_mean=mean, val_sd=sd))
    best = max(cells, key=lambda c: (c.val_mean, -c.sigma, -c.reference_rate))
    return GridSearchResult(cells=cells, best=best)
