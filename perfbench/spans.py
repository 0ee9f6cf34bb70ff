"""Span tracing of the sefm layers from outside the package.

Each hook reassigns one module (or class) attribute to a wrapper that
records a span -- name, start, end, parent -- around the original call.
A name is patched where its caller looks it up: ``sefm.benchmark`` binds
``encode_dataset`` and ``stratified_split`` through ``from ... import``,
so those bindings are wrapped in ``sefm.benchmark`` as well as in their
home modules.  A hook whose target no longer exists is reported as
absent instead of failing the run.

Spans live in flat arrays while the traced code runs and are written out
once at the end.  A span's self time is its duration minus the durations
of its direct children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

LAYERS = ("data", "encoding", "dynamics", "learning", "training", "rng", "benchmark")


# -- counters run after the wrapped call returns ----------------------------

def _count_sample(counts, args, result):
    counts[f"training.outcome.{result.outcome.value}"] += 1
    if result.predicted is not None:
        counts["training.evaluated"] += 1


def _count_train(counts, args, result):
    counts["training.epochs_run"] += result.epochs_run


def _count_predict(counts, args, result):
    counts["training.predict.patterns"] += len(result)


def _count_sample_weights(counts, args, result):
    neuron, ids = args[0], np.asarray(args[1], dtype=np.int64)
    counts["dynamics.sample_weights.spikes"] += len(ids)
    offsets = getattr(neuron, "_offsets", None)  # per-synapse term offsets, if flattened
    if offsets is not None and len(ids):
        counts["dynamics.sample_weights.terms_evaluated"] += int(
            (offsets[ids + 1] - offsets[ids]).sum())


def _count_response(counts, args, result):
    counts["dynamics.response_matrix.cells"] += int(np.size(result))


def _count_save(counts, args, result):
    counts["dynamics.checkpoint.bytes"] += Path(args[0]).stat().st_size


def _count_update(counts, args, result):
    counts["learning.compute_update.fallback"] += int(bool(result.used_fallback))


def _count_apply(counts, args, result):
    counts["learning.apply_update.terms_added"] += int(result)
    counts["learning.apply_update.useful"] += int(result > 0)


def _count_encode_dataset(counts, args, result):
    counts["encoding.encode_dataset.patterns"] += len(result)
    counts["encoding.encode_dataset.spikes"] += sum(p.spike_count for p in result)


@dataclass(frozen=True)
class Hook:
    module: str          # module that holds the binding
    attr: str            # attribute path inside it, e.g. "OutputNeuron.sample_weights"
    span: str            # "<layer>.<name>"
    count: Optional[Callable] = None


HOOKS = (
    Hook("sefm.benchmark", "benchmark", "benchmark.benchmark"),
    Hook("sefm.benchmark", "run_split", "benchmark.run_split"),
    Hook("sefm.benchmark", "stratified_split", "data.stratified_split"),
    Hook("sefm.benchmark", "impute_median", "data.impute_median"),
    Hook("sefm.benchmark", "confusion_matrix", "data.confusion_matrix"),
    Hook("sefm.benchmark", "fit_ranges", "encoding.fit_ranges"),
    Hook("sefm.benchmark", "encode_dataset", "encoding.encode_dataset", _count_encode_dataset),
    Hook("sefm.encoding", "encode_dataset", "encoding.encode_dataset", _count_encode_dataset),
    Hook("sefm.encoding", "encode", "encoding.encode"),
    Hook("sefm.training", "train", "training.train", _count_train),
    Hook("sefm.training", "process_sample", "training.process_sample", _count_sample),
    Hook("sefm.training", "predict", "training.predict", _count_predict),
    Hook("sefm.training", "epoch_order", "rng.epoch_order"),
    Hook("sefm.training", "response_matrix", "dynamics.response_matrix", _count_response),
    Hook("sefm.dynamics", "response_matrix", "dynamics.response_matrix", _count_response),
    Hook("sefm.dynamics", "OutputNeuron.sample_weights", "dynamics.sample_weights",
         _count_sample_weights),
    Hook("sefm.dynamics", "Network.evaluate_pattern", "dynamics.evaluate_pattern"),
    Hook("sefm.dynamics", "save_model", "dynamics.save_model", _count_save),
    Hook("sefm.dynamics", "load_model", "dynamics.load_model"),
    Hook("sefm.learning", "initialize", "learning.initialize"),
    Hook("sefm.learning", "compute_update", "learning.compute_update", _count_update),
    Hook("sefm.learning", "apply_update", "learning.apply_update", _count_apply),
)


class Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """In-memory span recorder; ``install`` patches hooks, ``remove`` undoes them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counts()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, span: str, count=None):
        name_id = self._name_id(span)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        raised_key = f"{span}.raised"

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[raised_key] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                try:
                    count(counts, args, result)
                except (AttributeError, TypeError):  # the counted API has changed
                    counts[f"{span}.uncounted"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=HOOKS) -> None:
        for hook in hooks:
            owner = sys.modules.get(hook.module)
            *path, attr = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{hook.module}.{hook.attr}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, hook.span, hook.count))

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), counts=np.array(json.dumps(self.counts)),
                 **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    parent = np.asarray(parent)
    duration = np.asarray(duration, dtype=np.float64)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=len(duration))
    return duration - children


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything the tracer recorded."""
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    own = self_times(a["parent"], duration)
    c = tracer.counts

    def spans(name):
        if name not in tracer._name_ids:
            return np.zeros(0, dtype=bool)
        return a["name"] == tracer._name_ids[name]

    def calls(name):
        return float(spans(name).sum())

    def total(name):
        return float(duration[spans(name)].sum())

    def own_total(name):
        return float(own[spans(name)].sum())

    def pct_us(name, q):
        d = duration[spans(name)]
        return float(np.percentile(d, q)) * 1e6 if d.size else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in LAYERS:
        in_layer = np.zeros(len(own), dtype=bool)
        for name, idx in tracer._name_ids.items():
            if name.split(".", 1)[0] == layer:
                in_layer |= a["name"] == idx
        m[f"{layer}.self_s"] = float(own[in_layer].sum())

    ps = "training.process_sample"
    m[f"{ps}.calls"] = calls(ps)
    m[f"{ps}.self_s"] = own_total(ps)
    m[f"{ps}.us_p50"] = pct_us(ps, 50)
    m[f"{ps}.us_p90"] = pct_us(ps, 90)
    m["training.resample_per_sample"] = ratio(calls("dynamics.sample_weights"), calls(ps))
    for outcome in ("initialized", "skipped", "on_time", "late", "no_spikes"):
        m[f"training.outcome.{outcome}"] = c[f"training.outcome.{outcome}"]
    m["training.skip_ratio"] = ratio(c["training.outcome.skipped"], c["training.evaluated"])
    m["training.epochs_run"] = c["training.epochs_run"]
    m["training.predict.calls"] = calls("training.predict")
    m["training.predict.s"] = total("training.predict")
    m["training.predict.patterns"] = c["training.predict.patterns"]

    sw = "dynamics.sample_weights"
    m[f"{sw}.calls"] = calls(sw)
    m[f"{sw}.s"] = total(sw)
    m[f"{sw}.spikes"] = c[f"{sw}.spikes"]
    m[f"{sw}.terms_evaluated"] = c[f"{sw}.terms_evaluated"]
    m["dynamics.evaluate_pattern.calls"] = calls("dynamics.evaluate_pattern")
    m["dynamics.evaluate_pattern.self_s"] = own_total("dynamics.evaluate_pattern")
    rm = "dynamics.response_matrix"
    m[f"{rm}.calls"] = calls(rm)
    m[f"{rm}.s"] = total(rm)
    m[f"{rm}.cells"] = c[f"{rm}.cells"]
    m["dynamics.checkpoint.save_s"] = total("dynamics.save_model")
    m["dynamics.checkpoint.load_s"] = total("dynamics.load_model")
    m["dynamics.checkpoint.bytes"] = ratio(c["dynamics.checkpoint.bytes"],
                                           calls("dynamics.save_model"))

    cu, au = "learning.compute_update", "learning.apply_update"
    m[f"{cu}.calls"] = calls(cu)
    m[f"{cu}.s"] = total(cu)
    m[f"{cu}.fallback"] = c[f"{cu}.fallback"]
    m[f"{cu}.ineligible"] = c[f"{cu}.raised"]
    m[f"{au}.calls"] = calls(au)
    m[f"{au}.s"] = total(au)
    m[f"{au}.terms_added"] = c[f"{au}.terms_added"]
    m["learning.useful_ratio"] = ratio(c[f"{au}.useful"], calls(cu))

    ed = "encoding.encode_dataset"
    m[f"{ed}.calls"] = calls(ed)
    m[f"{ed}.s"] = total(ed)
    m[f"{ed}.patterns"] = c[f"{ed}.patterns"]
    m[f"{ed}.spikes_per_pattern"] = ratio(c[f"{ed}.spikes"], c[f"{ed}.patterns"])

    m["rng.epoch_order.calls"] = calls("rng.epoch_order")
    m["rng.epoch_order.s"] = total("rng.epoch_order")
    m["data.stratified_split.s"] = total("data.stratified_split")
    m["data.impute_median.s"] = total("data.impute_median")
    m["benchmark.run_split.calls"] = calls("benchmark.run_split")
    d = duration[spans("benchmark.run_split")]
    m["benchmark.run_split.s_p50"] = float(np.median(d)) if d.size else 0.0
    m["trace.hooks_absent"] = float(len(tracer.absent))
    return m
