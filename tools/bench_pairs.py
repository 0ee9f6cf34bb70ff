"""Run perfbench on a parent commit and on the working tree in alternating pairs.

    python3 tools/bench_pairs.py PARENT PAIRS [--out FILE]

The parent's committed files are exported with ``git archive`` into a fresh
temporary directory, and so are the working tree's tracked and untracked,
not ignored files: they are written into a tree object through a temporary
index, so the repository's own index and worktree list stay untouched and
the measured source is named by its tree id.  Both copies are byte-compiled
before the first run, so no run pays for compiling.

Pair i (from 1) runs ``perfbench/run.py --workload W --seed i --seconds S``
in both copies for every workload in BENCHMARK.json, S being its
``run_seconds``, the parent first on odd pairs and the change first on even
ones.  Per workload and end-to-end metric it prints, and writes to ``--out``
as JSON, the parent's and the change's median and quartiles, the change's
median move, in how many pairs the change was better (by the metric's
``better`` in BENCHMARK.json) and a verdict against the metric's ``bound``
(see ``verdict``), and whether the change ``improved`` it (see
``improved``); per pair, whether the report digests were equal and how
many units failed.  It ends with one line naming every improved
(workload, metric), ``improved`` in the JSON, and one naming every
(workload, metric) whose verdict is not ``ok`` and every workload whose
report digests differed in any pair or that had a failed unit; ``flagged``
in the JSON lists the same.  The JSON
also names both sides (the change by HEAD, its tree id, whether that tree
differs from HEAD's, and the tree id of its ``src/``, which equals
``git rev-parse COMMIT:src`` for any commit holding the same source), the
``wc -l src/sefm/*.py`` total of both sides, and the machine: nproc, CPU
model, Python, numpy and OpenBLAS versions and the OpenBLAS core type in use.

After the pairs it runs the tier-1 suite once in each copy, ``python -m
pytest -q -p no:cacheprovider --continue-on-collection-errors`` with
``PYTHONPATH=src``, and prints and writes (``tier1`` in the JSON) each
side's wall seconds and its passed, failed and skipped counts.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, **kwargs)


def export(tree: str, dest: Path) -> None:
    """Write the files of ``tree`` (a commit or tree id) into ``dest``."""
    dest.mkdir(parents=True)
    archive = git("archive", "--format=tar", tree, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def rev(name: str) -> str:
    return git("rev-parse", "--verify", name, capture_output=True, text=True).stdout.strip()


def working_tree(tmp: Path) -> dict:
    """Write the working tree's tracked and untracked, not ignored files into
    a tree object through a temporary index; returns its names."""
    env = {**os.environ, "GIT_INDEX_FILE": str(tmp / "index")}
    git("add", "--all", env=env)
    tree = git("write-tree", env=env, capture_output=True, text=True).stdout.strip()
    return {"head": rev("HEAD"), "tree": tree, "dirty": tree != rev("HEAD^{tree}"),
            "src_tree": rev(f"{tree}:src")}


def src_lines(checkout: Path) -> int:
    """The ``wc -l src/sefm/*.py`` total of an exported tree."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "sefm").glob("*.py"))


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its details and result lines."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"details": details["details"], "result": result}


TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def summary_counts(summary: str) -> dict:
    """The passed, failed and skipped counts of pytest's closing summary
    line, such as ``4 failed, 465 passed, 3 skipped in 34.03s``; 0 for an
    outcome it does not name."""
    counts = {word: int(n) for n, word in
              re.findall(r"(\d+) (passed|failed|skipped)\b", summary)}
    return {word: counts.get(word, 0) for word in ("passed", "failed", "skipped")}


def tier1(checkout: Path) -> dict:
    """One tier-1 run in an exported tree: its wall seconds and counts."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": "src"})
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"seconds": seconds, **summary_counts(lines[-1] if lines else "")}


def tier1_line(runs: dict) -> str:
    return "tier-1: " + "; ".join(
        f"{side} {r['passed']} passed, {r['failed']} failed, {r['skipped']} skipped "
        f"in {r['seconds']:.1f} s" for side, r in runs.items())


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def openblas_core() -> str | None:
    """The OpenBLAS core type numpy's bundled BLAS picked, if it can say."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_coretype": openblas_core(),
            "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE")}


def verdict(direction: str, bound: float, parent: list[float], change: list[float]) -> str:
    """``regressed`` if the change's median is worse than the parent's by more
    than ``bound`` (relative; any worsening of a zero median); else
    ``unresolved`` if the parent's quartile spread, (q3 - q1) over its
    median, exceeds ``bound`` and not every change run beats every parent
    run; else ``ok``."""
    sign = 1 if direction == "higher" else -1
    before, after = quartiles(parent), quartiles(change)
    loss = sign * (before["median"] - after["median"])
    if loss > bound * abs(before["median"]):
        return "regressed"
    spread = before["q3"] - before["q1"]
    if spread > bound * abs(before["median"]) and \
            not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved"
    return "ok"


def improved(direction: str, wins: int, parent: list[float], change: list[float]) -> bool:
    """Whether the change improved a metric: it was better in at least nine
    pairs in ten, and its median moved the better way by more than the
    parent's quartile spread (q3 - q1)."""
    sign = 1 if direction == "higher" else -1
    before, after = quartiles(parent), quartiles(change)
    return (10 * wins >= 9 * len(parent)
            and sign * (after["median"] - before["median"]) > before["q3"] - before["q1"])


def summarize(workload: str, pairs: list[dict], declared: dict) -> dict:
    metrics = {}
    for name, (direction, bound) in declared.items():
        parent = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        before, after = quartiles(parent), quartiles(change)
        metrics[name] = {
            "better": direction, "bound": bound, "parent": before, "change": after,
            "wins": wins, "pairs": len(pairs),
            "median_move": after["median"] / before["median"] - 1 if before["median"] else None,
            "verdict": verdict(direction, bound, parent, change),
            "improved": improved(direction, wins, parent, change),
        }
    return {
        "workload": workload, "metrics": metrics,
        "pairs": [{"seed": p["seed"], "order": p["order"],
                   "digests_equal": p["parent"]["details"]["digests"]
                   == p["change"]["details"]["digests"],
                   "failed": {side: p[side]["result"]["failed"] for side in ("parent", "change")}}
                  for p in pairs],
    }


def print_summary(summary: dict) -> None:
    pairs = summary["pairs"]
    equal = sum(p["digests_equal"] for p in pairs)
    failed = sum(p["failed"]["parent"] + p["failed"]["change"] for p in pairs)
    print(f"\n{summary['workload']}: digests equal in {equal} of {len(pairs)} pairs, "
          f"{failed} failed units")
    for name, m in summary["metrics"].items():
        b, a = m["parent"], m["change"]
        move = "" if m["median_move"] is None else f"{100 * m['median_move']:+.1f}%"
        print(f"  {name:32s} {b['median']:12.4g} [{b['q1']:.4g}, {b['q3']:.4g}] -> "
              f"{a['median']:12.4g} [{a['q1']:.4g}, {a['q3']:.4g}] {move:>8s} "
              f"wins {m['wins']}/{m['pairs']} {m['verdict']}")


def flagged(workloads: list[dict]) -> list[list[str]]:
    """Every [workload, metric, verdict] whose verdict is not ``ok``, then
    [workload, "digests", "differed"] for a workload whose report digests
    differed in any pair and [workload, "units", "failed"] for one with a
    failed unit."""
    out = []
    for w in workloads:
        out += [[w["workload"], name, m["verdict"]]
                for name, m in w["metrics"].items() if m["verdict"] != "ok"]
        if not all(p["digests_equal"] for p in w["pairs"]):
            out.append([w["workload"], "digests", "differed"])
        if any(p["failed"]["parent"] or p["failed"]["change"] for p in w["pairs"]):
            out.append([w["workload"], "units", "failed"])
    return out


def gains(workloads: list[dict]) -> list[list[str]]:
    """Every [workload, metric] the change improved."""
    return [[w["workload"], name] for w in workloads
            for name, m in w["metrics"].items() if m["improved"]]


def gains_line(improved: list[list[str]]) -> str:
    return "improved: " + (", ".join(f"{w} {name}" for w, name in improved) or "none")


def closing_line(flags: list[list[str]]) -> str:
    return "flagged: " + (", ".join(f"{w} {name} ({v})" for w, name, v in flags) or "none")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="commit to compare against")
    parser.add_argument("pairs", type=int, help="pairs of runs per workload")
    parser.add_argument("--out", type=Path, default=None, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("pairs must be at least 1")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}
    doc = {"seconds": declared["run_seconds"], "machine": machine(), "workloads": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        doc["parent"] = rev(f"{args.parent}^{{commit}}")
        doc["change"] = working_tree(Path(tmp))
        export(doc["parent"], copies["parent"])
        export(doc["change"]["tree"], copies["change"])
        doc["src_lines"] = {side: src_lines(copy) for side, copy in copies.items()}
        print(f"src/sefm lines: {doc['src_lines']['parent']} -> {doc['src_lines']['change']}",
              file=sys.stderr, flush=True)
        for copy in copies.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=copy, check=True)
        for workload in (w["name"] for w in declared["workloads"]):
            pairs = []
            for seed in range(1, args.pairs + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {"seed": seed, "order": list(order)}
                for side in order:
                    pair[side] = run(copies[side], workload, seed, doc["seconds"])
                    print(f"{workload} seed {seed} {side} done", file=sys.stderr, flush=True)
                pairs.append(pair)
            doc["machine"].setdefault("cpu_model", pairs[0]["parent"]["details"]["machine"]["cpu_model"])
            summary = summarize(workload, pairs, bounds)
            print_summary(summary)
            doc["workloads"].append(summary)
            doc["improved"] = gains(doc["workloads"])
            doc["flagged"] = flagged(doc["workloads"])
            if args.out:  # keep what is done if a later workload fails
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
        doc["tier1"] = {side: tier1(copy) for side, copy in copies.items()}
        if args.out:
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n" + tier1_line(doc["tier1"]))
    print(gains_line(doc["improved"]))
    print(closing_line(doc["flagged"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
