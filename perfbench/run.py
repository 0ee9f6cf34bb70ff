"""sefm benchmark runner.

    python3 perfbench/run.py --workload iris-protocol --seed 1 --seconds 35 --trace 0

Run from a checkout of the repository: sefm is imported from ``src/``
of the checkout this file sits in, never from an installed copy.  The
run sets up ``SETUP_REPS`` times (fresh import of sefm, inputs, and on
predict-bulk the reference fit), then measures for ``--seconds`` seconds
as ``workloads.measure`` describes.  Every end-to-end metric is the
median of its samples.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the untraced phases get half the budget, then one
protocol pass and one inference cycle run with every layer hook
installed; the last line carries the per-layer metrics and the tracing
overhead between the two.  Spans, a details record and the report
digests of earlier runs live in ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # one thread: CPU time == busy time
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from spans import LAYERS, Tracer, layer_metrics  # noqa: E402
from meter import Meter  # noqa: E402
from workloads import WORKLOADS, Tally, measure, setup  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
MODULES = ("benchmark", "config", "data", "dynamics", "encoding", "learning", "training")

END_TO_END_UNITS = {
    "setup_s": "s",
    "protocol_cpu_s": "s",
    "train_presentations_per_cpu_s": "1/s",
    "classify_rows_per_cpu_s": "1/s",
    "online_classify_cpu_us_p50": "us",
    "online_classify_cpu_us_p90": "us",
    "checkpoint_roundtrip_cpu_ms": "ms",
    "test_acc_mean": "%",
    "model_terms": "count",
    "peak_rss_mb": "MB",
}


def import_sefm(root: Path) -> SimpleNamespace:
    """Fresh import of the checkout's sefm package (drops any earlier import)."""
    for name in [n for n in sys.modules if n == "sefm" or n.startswith("sefm.")]:
        del sys.modules[name]
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("sefm")
    if Path(pkg.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"sefm imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{n: importlib.import_module(f"sefm.{n}") for n in MODULES})


def source_digest(root: Path) -> str:
    """Hash of the code and configs a run depends on; keys the cross-run digest store."""
    h = hashlib.sha256()
    files = sorted([*(root / "src").rglob("*.py"), *(root / "configs").glob("*.json"),
                    *Path(__file__).parent.glob("*.py")])
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine_facts(root: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit(root)}


def check_digests(w, seed: int, digests: set, code: str) -> list[str]:
    """The same code on the same inputs must produce one report digest, within
    this run and across the runs recorded in the checkout."""
    problems = [f"one run produced several report digests: {sorted(digests)}"] \
        if len(digests) > 1 else []
    store = OUT / "digests.json"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    key = f"{w.name}:{seed if w.seeded else '-'}:{code}"
    for digest in sorted(digests):
        if known.setdefault(key, digest) != digest:
            problems.append(f"report digest {digest} differs from an earlier run's {known[key]}")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return problems


def end_to_end_samples(w, tally: Tally, setups: list, setup_meter: Meter,
                       setup_readings: list) -> dict[str, list]:
    """The samples of each end-to-end metric; a run reports their median.
    Timings are CPU time at reference speed (see meter.py)."""
    meter = tally.meter
    if w.run_count:
        protocol_cpu, rates = [], []
        for splits, trains, presentations in tally.protocols:
            protocol_cpu.append(sum(meter.scaled(splits)))
            rates.append(sum(presentations) / sum(meter.scaled(trains)))
    else:  # predict-bulk fits its model during set-up
        protocol_cpu = setup_meter.scaled([s.fit_reading for s in setups])
        rates = [s.presentations / t for s, t in zip(setups, protocol_cpu)]
    classify = meter.scaled([reading for reading, _ in tally.classify])
    online = [meter.scaled(cycle) for cycle in tally.online]
    return {
        "setup_s": setup_meter.scaled(setup_readings),
        "protocol_cpu_s": protocol_cpu,
        "train_presentations_per_cpu_s": rates,
        "classify_rows_per_cpu_s": [rows / t for (_, rows), t in zip(tally.classify, classify)],
        "online_classify_cpu_us_p50": [np.percentile(c, 50) * 1e6 for c in online],
        "online_classify_cpu_us_p90": [np.percentile(c, 90) * 1e6 for c in online],
        "checkpoint_roundtrip_cpu_ms": [t * 1e3 for t in meter.scaled(tally.roundtrips)],
        "test_acc_mean": tally.test_acc,
        "model_terms": [tally.model_terms],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s", ".s_p50")):
        return "s"
    if name.endswith(("us_p50", "us_p90")):
        return "us"
    if name.endswith(("_ratio", "_per_sample", "_share", "spikes_per_pattern")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def traced_metrics(m, w, state, seconds: float, seed: int) -> tuple[dict, list, list]:
    """Untraced phases for half the budget, then one traced protocol pass (if the
    workload has one) and one traced inference cycle."""
    untraced = measure(m, w, state, seconds / 2, OUT)
    # one reference sample, taken before any span opens, scales the traced phase
    quiet = Meter(every=float("inf"))
    quiet.sample()
    tracer = Tracer()
    tracer.install()
    started = time.perf_counter()
    try:
        traced = measure(m, w, state, 0.0, OUT, quiet)
    finally:
        traced_wall = time.perf_counter() - started
        tracer.remove()
    tracer.write(OUT / f"spans-{w.name}-seed{seed}.npz")
    metrics = layer_metrics(tracer)
    # spans use the wall clock; the overhead compares CPU time, which time the
    # host steals from the virtual machine does not inflate
    def unit_cpu(tally, pick):
        passes = [sum(tally.meter.scaled(splits)) for splits, _, _ in tally.protocols]
        return (pick(passes) if passes else 0.0) + pick(tally.meter.scaled(tally.cycles))

    traced_cpu = unit_cpu(traced, sum)
    untraced_cpu = unit_cpu(untraced, lambda xs: float(np.median(xs)))
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.cpu_s"] = traced_cpu
    metrics["trace.untraced_cpu_s"] = untraced_cpu
    metrics["trace.overhead_share"] = traced_cpu / untraced_cpu - 1.0
    metrics["trace.unattributed_s"] = traced_wall - sum(metrics[f"{l}.self_s"] for l in LAYERS)
    return metrics, [untraced, traced], tracer.absent


def run_workload(w, seed: int, seconds: float, trace: int) -> dict:
    """Set up (once for a traced run), then measure; returns what main reports."""
    setup_meter, setup_readings, setups = Meter(), [], []
    for _ in range(3):
        setup_meter.sample()
    for _ in range(1 if trace else SETUP_REPS):
        with setup_meter.unit(setup_readings):
            m = import_sefm(ROOT)
            setups.append(setup(m, w, seed, ROOT, setup_meter))
        setup_meter.sample()

    started = time.perf_counter()
    if trace:
        metrics, tallies, absent = traced_metrics(m, w, setups[-1], seconds, seed)
    else:
        tallies, absent = [measure(m, w, setups[-1], seconds, OUT)], []
    wall_s = time.perf_counter() - started
    complete = all(t.cycles for t in tallies)
    if complete and not trace:
        metrics = end_to_end_samples(w, tallies[0], setups, setup_meter, setup_readings)
    return {
        "complete": complete,
        "metrics": metrics if complete else {},
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "problems": [msg for t in tallies for msg in t.problems],
        "digests": sorted(set().union(*(t.digests for t in tallies))),
        "details": {
            "setup_reps_s": setup_meter.scaled(setup_readings), "measured_wall_s": wall_s,
            "slowness": [setup_meter.slowness()] + [t.meter.slowness() for t in tallies],
            "protocol_raw_cpu_s": [sum(end - start for start, end in splits)
                                   for t in tallies for splits, _, _ in t.protocols],
            "cycles": sum(len(t.cycles) for t in tallies),
            "online_samples": sum(len(c) for t in tallies for c in t.online),
            "roundtrip_samples": sum(len(t.roundtrips) for t in tallies),
            "hooks_absent": absent,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    try:
        import_sefm(ROOT)
    except ImportError as exc:
        print(f"cannot import sefm from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result = run_workload(w, args.seed, args.seconds, args.trace)
    if not result["complete"]:
        print("the workload did not complete; no metrics to report", file=sys.stderr)
        return 1
    if args.trace:
        metrics = result["metrics"]
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {name: float(np.median(result["metrics"][name])) for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    problems = result["problems"]
    attempted, failed = result["attempted"], result["failed"]
    digests = set(result["digests"])
    digest_problems = check_digests(w, args.seed, digests, source_digest(ROOT))
    if digest_problems:
        problems += digest_problems
        failed = attempted
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    details = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(ROOT), "source_sha256": source_digest(ROOT),
        **result["details"],
        "failed_share": failed / attempted, "problems": problems, "digests": sorted(digests),
    }
    (OUT / f"details-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
