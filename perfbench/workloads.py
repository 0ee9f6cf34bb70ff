"""The three benchmark workloads and the output checks run on all their results.

A run measures two phases.  The protocol phase (iris-protocol and
blobs-wide) calls ``sefm.benchmark.benchmark`` in whole passes for half
the time budget, at least once.  The inference phase then repeats short
cycles -- batch encode + predict, a group of one-row calls, a group of
checkpoint round trips -- with the last split's model until the budget is
spent.  predict-bulk fits its model during set-up and spends the whole
budget in inference cycles.  Short cycles spread every inference sample
over many seconds, so a burst of load from other tenants of the host
moves the medians little.

Timings are process CPU seconds scaled to reference speed by ``meter``.
All sefm names are looked up through their modules at call time, so the
traced run sees every call the untraced run makes.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from meter import Meter, ticking, timed_calls

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    architecture: str
    acc_floor: float             # minimum test accuracy (percent) a correct model reaches
    batch_calls: int             # batch classify calls per inference cycle
    online_rows: int             # one-row classify calls per cycle (>= 100, so that its
                                 # p90 has ten samples beyond it), walking over the rows
    roundtrips: int              # checkpoint save + load round trips per cycle
    seeded: bool = True          # the held-out rows come from --seed
    # protocol workloads: one sefm.benchmark.benchmark call per pass
    run_count: int = 0
    train_size: int = 0
    # generated blobs
    classes: int = 0
    features: int = 0
    per_class: int = 0
    heldout_per_class: int = 0
    spread: float = 0.3
    max_epochs: int = 100


WORKLOADS = {
    "iris-protocol": Workload(
        name="iris-protocol",
        why="README protocol on iris: tiny patterns, every split hits the epoch cap, "
            "so per-sample Python overhead and weight resampling dominate",
        architecture="24-3", acc_floor=94.0, seeded=False,
        batch_calls=2, online_rows=100, roundtrips=4,
        run_count=10, train_size=75),
    "blobs-wide": Workload(
        name="blobs-wide",
        why="wide 96-input patterns with many terms per synapse, so numeric work per "
            "call and the working set dominate training",
        architecture="96-5", acc_floor=80.0, seeded=False,
        batch_calls=1, online_rows=100, roundtrips=2,
        run_count=1, train_size=200,
        classes=5, features=16, per_class=80, max_epochs=30),
    "predict-bulk": Workload(
        name="predict-bulk",
        why="a fixed model classifies held-out rows in bulk and one at a time and is "
            "checkpointed, so training is bypassed and inference dominates",
        architecture="96-4", acc_floor=80.0,
        batch_calls=1, online_rows=300, roundtrips=10,
        classes=4, features=16, per_class=30, heldout_per_class=750, max_epochs=20),
}

CHECK_ROWS = 200  # rows a reloaded checkpoint must classify like the original
# Blob centers and training rows come from fixed streams: the training work
# moves by +-10% with the draw of 200 rows, more than any useful bound.  Only
# predict-bulk's held-out rows come from --seed.
CENTERS_SEED = 20240817
FIXED_SEED = 1


# -- inputs ----------------------------------------------------------------------

def load_iris(m) -> object:
    """Iris as shipped with scipy (no errata fixes), checked for shape and balance."""
    import scipy.io.arff
    path = Path(scipy.io.arff.__file__).parent / "tests" / "data" / "iris.arff"
    if not path.is_file():
        raise FileNotFoundError(f"iris ARFF not found at {path}")
    raw, meta = scipy.io.arff.loadarff(path)
    names = meta.names()
    classes = list(meta[names[-1]][1])
    x = np.column_stack([raw[n].astype(np.float64) for n in names[:-1]])
    y = np.array([classes.index(v.decode()) for v in raw[names[-1]]], dtype=np.int64)
    if x.shape != (150, 4) or np.bincount(y).tolist() != [50, 50, 50]:
        raise ValueError(f"unexpected iris shape {x.shape} or class counts {np.bincount(y)}")
    return m.data.TabularDataset(name="iris", features=x, labels=y, label_names=classes)


def blobs(rng, centers: np.ndarray, per_class: int, spread: float):
    """Gaussian blobs around the given centers, rows shuffled (tests/conftest.py recipe)."""
    classes, features = centers.shape
    x = np.vstack([centers[c] + rng.normal(0.0, spread, size=(per_class, features))
                   for c in range(classes)])
    y = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    order = rng.permutation(len(y))
    return x[order], y[order]


def setup(m, w: Workload, seed: int, root: Path, meter: Meter) -> SimpleNamespace:
    """Everything the measured phases need: dataset and config, or the fitted
    reference model with the ``meter`` reading and sample presentations of its fit."""
    if w.name == "iris-protocol":
        cfg = m.config.NetworkConfig.from_dict(
            json.loads((root / "configs" / "iris.json").read_text()))
        return SimpleNamespace(dataset=load_iris(m), cfg=cfg)
    centers = np.random.default_rng(CENTERS_SEED).uniform(0.0, 1.0,
                                                           size=(w.classes, w.features))
    cfg = m.config.NetworkConfig(max_epochs=w.max_epochs)
    x, y = blobs(np.random.default_rng(FIXED_SEED), centers, w.per_class, w.spread)
    if w.heldout_per_class == 0:
        dataset = m.data.TabularDataset(name=w.name, features=x, labels=y,
                                        label_names=[str(c) for c in range(w.classes)])
        return SimpleNamespace(dataset=dataset, cfg=cfg)
    hx, hy = blobs(np.random.default_rng(seed), centers, w.heldout_per_class, w.spread)
    encoder = m.encoding.fit_ranges(x, receptive_field_count=cfg.receptive_field_count,
                                    overlap=cfg.overlap, spike_interval=cfg.spike_interval,
                                    response_cutoff=cfg.response_cutoff)
    patterns = m.encoding.encode_dataset(x, encoder)
    fit_reading: list = []
    with ticking(m.training, "epoch_order", meter), meter.unit(fit_reading):
        fit = m.training.train(patterns, y, cfg, w.classes, seed=0)
    return SimpleNamespace(
        model=SimpleNamespace(network=fit.network, encoder=encoder, x=hx, y=hy,
                              expected_correct=None),
        fit_reading=fit_reading[0], presentations=fit.epochs_run * len(y))


# -- measurement ---------------------------------------------------------------

@dataclass
class Tally:
    """What one measured phase records, and the outcome of its checks.

    Timings are ``meter`` readings; ``meter.scaled`` turns them into CPU
    seconds at reference speed.
    """

    meter: Meter = field(default_factory=Meter)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    protocols: list = field(default_factory=list)   # per pass: (split readings, train
                                                    # readings, presentations per split)
    cycles: list = field(default_factory=list)
    classify: list = field(default_factory=list)    # per batch call: (reading, rows)
    online: list = field(default_factory=list)      # per cycle: one reading per row
    roundtrips: list = field(default_factory=list)
    test_acc: list = field(default_factory=list)
    model_terms: int = 0
    digests: set = field(default_factory=set)
    batch_digest: str = ""
    next_row: int = 0

    def check(self, ok: bool, units: int, message: str) -> None:
        if not ok:
            self.failed += units
            self.problems.append(message)


def canonical_digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def protocol_pass(m, w: Workload, state, tally: Tally) -> SimpleNamespace:
    """One sefm.benchmark.benchmark call, checked; returns the last split's model."""
    meter = tally.meter
    with timed_calls(m.benchmark, "run_split", meter, []) as splits, \
            timed_calls(m.training, "train", meter, []) as trains:
        bench = m.benchmark.benchmark(state.dataset, state.cfg, train_size=w.train_size,
                                      run_count=w.run_count, seed=0, jobs=1, keep_last=True)
    tally.protocols.append((splits, trains, [r.epochs_run * r.train_size for r in bench.runs]))
    tally.attempted += w.run_count
    report = bench.to_dict()
    tally.digests.add(canonical_digest(report))
    acc = report["test_accuracy_percent"]["mean"]
    tally.test_acc.append(acc)
    tally.check(bench.architecture == w.architecture, w.run_count,
                f"architecture {bench.architecture} != {w.architecture}")
    tally.check(acc >= w.acc_floor, w.run_count,
                f"test accuracy {acc:.2f} below {w.acc_floor}")
    last = bench.runs[-1]
    return SimpleNamespace(
        network=bench.last_outcome.network, encoder=bench.last_outcome.encoder,
        x=state.dataset.features, y=state.dataset.labels,
        # the two sides of the last split together are the whole dataset
        expected_correct=round(last.train_accuracy * last.train_size
                               + last.test_accuracy * last.test_size))


def inference_cycle(m, w: Workload, model, tally: Tally, scratch: Path) -> None:
    """Batch calls, one-row calls and checkpoint round trips on one model, checked."""
    meter = tally.meter
    x, y = model.x, model.y
    cycle_reading: list = []
    with meter.unit(cycle_reading):
        for _ in range(w.batch_calls):
            reading: list = []
            with meter.unit(reading):
                preds = m.training.predict(model.network,
                                           m.encoding.encode_dataset(x, model.encoder))
            tally.classify.append((reading[0], len(x)))
            digest = hashlib.sha256(np.asarray(preds, dtype=np.int64).tobytes()).hexdigest()
            tally.batch_digest = tally.batch_digest or digest
            tally.check(digest == tally.batch_digest, 1,
                        "batch predictions changed between calls")

        rows = (tally.next_row + np.arange(w.online_rows)) % len(x)
        tally.next_row = int(rows[-1]) + 1
        online = np.empty(len(rows), dtype=np.int64)
        latencies: list = []
        for i, row in enumerate(rows):
            with meter.unit(latencies):
                pattern = m.encoding.encode(x[row], model.encoder)
                online[i] = m.training.predict(model.network, [pattern])[0]
        tally.online.append(latencies)

        path = scratch / f"model-{w.name}.json"
        for _ in range(w.roundtrips):
            with meter.unit(tally.roundtrips):
                m.dynamics.save_model(path, model.network, model.encoder)
                loaded, loaded_encoder = m.dynamics.load_model(path)
    tally.cycles.append(cycle_reading[0])
    tally.attempted += w.batch_calls + len(rows) + w.roundtrips

    correct = int(np.sum(preds == y))
    if model.expected_correct is None:
        acc = 100.0 * correct / len(y)
        tally.test_acc.append(acc)
        tally.digests.add(tally.batch_digest)
        tally.check(acc >= w.acc_floor, w.batch_calls,
                    f"held-out accuracy {acc:.2f} below {w.acc_floor}")
    else:
        tally.check(correct == model.expected_correct, w.batch_calls,
                    f"batch predictions score {correct}, the report {model.expected_correct}")
    mismatched = int(np.sum(online != preds[rows]))
    tally.check(mismatched == 0, mismatched, f"{mismatched} one-row predictions differ from batch")
    saved = path.read_bytes()
    again = scratch / f"model-{w.name}-again.json"
    m.dynamics.save_model(again, loaded, loaded_encoder)
    tally.check(again.read_bytes() == saved, w.roundtrips,
                "reloaded checkpoint re-serializes to different bytes")
    reloaded = m.training.predict(
        loaded, m.encoding.encode_dataset(x[:CHECK_ROWS], loaded_encoder))
    tally.check(np.array_equal(reloaded, preds[:CHECK_ROWS]), w.roundtrips,
                "reloaded checkpoint predicts differently")
    doc = json.loads(saved)
    arch = f"{doc['input_count']}-{doc['class_count']}"
    tally.check(arch == w.architecture, w.roundtrips,
                f"checkpoint architecture {arch} != {w.architecture}")
    tally.model_terms = sum(len(syn) for neuron in doc["neurons"] if neuron
                            for syn in neuron["synapses"])


def measure(m, w: Workload, state, budget: float, scratch: Path,
            meter: Meter | None = None) -> Tally:
    """Protocol passes for half of ``budget`` seconds, then inference cycles until
    the next one would overrun it; at least one of each, so ``budget=0`` gives
    exactly one of each."""
    tally = Tally() if meter is None else Tally(meter=meter)
    started = clock()
    try:
        with ticking(m.training, "epoch_order", tally.meter):
            if w.run_count:
                while True:
                    t0 = clock()
                    model = protocol_pass(m, w, state, tally)
                    if clock() - started + (clock() - t0) > budget / 2:
                        break
            else:
                model = state.model
        while True:
            t0 = clock()
            inference_cycle(m, w, model, tally, scratch)
            if clock() - started + (clock() - t0) > budget:
                break
    except Exception:
        traceback.print_exc()
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append("the workload raised")
    return tally
