"""The verdict tools/bench_pairs.py gives each metric against its bound, and
the gains it states."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def bench_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(parent: dict, change: dict) -> list[dict]:
    """Pair i of runs whose metric ``name`` read ``parent[name][i]`` and
    ``change[name][i]``, with equal digests and no failed unit."""
    def side(values, i):
        return {"details": {"digests": ["d"]}, "result": {
            "failed": 0, "metrics": {name: {"value": v[i]} for name, v in values.items()}}}
    count = len(next(iter(parent.values())))
    return [{"seed": i + 1, "order": ["parent", "change"],
             "parent": side(parent, i), "change": side(change, i)} for i in range(count)]


@pytest.mark.parametrize("better, parent, change, expected", [
    # a median worse by more than the bound, either way round
    ("lower", [10, 10, 10, 10], [13, 13, 13, 13], "regressed"),
    ("higher", [10, 10, 10, 10], [7, 7, 7, 7], "regressed"),
    # worse, but within the bound, on a tight parent
    ("lower", [10, 10, 10, 10], [12, 12, 12, 12], "ok"),
    ("higher", [10, 10, 10, 10], [8, 8, 8, 8], "ok"),
    # better by any amount
    ("lower", [10, 10, 10, 10], [5, 5, 5, 5], "ok"),
    # the parent spreads wider than the bound (q1 7.75, q3 12.25 around 10)
    ("lower", [4, 9, 11, 16], [10, 10, 10, 10], "unresolved"),
    ("higher", [4, 9, 11, 16], [10, 10, 10, 10], "unresolved"),
    # ... unless every change run beats every parent run
    ("lower", [4, 9, 11, 16], [3, 3, 3, 3], "ok"),
    ("higher", [4, 9, 11, 16], [17, 17, 18, 19], "ok"),
    ("higher", [4, 9, 11, 16], [16, 17, 18, 19], "unresolved"),
    # a worse median over a wide parent is a regression first
    ("lower", [4, 9, 11, 16], [14, 14, 14, 14], "regressed"),
    # a zero median: any worsening is a regression, no change is not
    ("lower", [0, 0, 0, 0], [1, 1, 1, 1], "regressed"),
    ("lower", [0, 0, 0, 0], [0, 0, 0, 0], "ok"),
])
def test_verdict_against_the_bound(bench_pairs, better, parent, change, expected):
    assert bench_pairs.verdict(better, 0.25, parent, change) == expected


def test_summary_and_flagged_name_every_metric_past_its_bound(bench_pairs, capsys):
    declared = {"rows_per_s": ("higher", 0.25), "rss_mb": ("lower", 0.1),
                "cpu_us": ("lower", 0.25)}
    pairs = pairs_of({"rows_per_s": [100, 101, 99, 100], "rss_mb": [50, 50, 50, 50],
                      "cpu_us": [10, 20, 30, 40]},
                     {"rows_per_s": [70, 71, 69, 70], "rss_mb": [54, 54, 54, 54],
                      "cpu_us": [25, 25, 25, 25]})
    summary = bench_pairs.summarize("predict-bulk", pairs, declared)
    verdicts = {name: m["verdict"] for name, m in summary["metrics"].items()}
    assert verdicts == {"rows_per_s": "regressed", "rss_mb": "ok", "cpu_us": "unresolved"}
    assert summary["metrics"]["rss_mb"]["bound"] == 0.1
    assert bench_pairs.flagged([summary]) == [["predict-bulk", "rows_per_s", "regressed"],
                                              ["predict-bulk", "cpu_us", "unresolved"]]
    bench_pairs.print_summary(summary)
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[2:]}
    assert lines["rows_per_s"].endswith("regressed") and lines["rss_mb"].endswith("ok")


def test_flagged_and_the_closing_line_name_changed_digests_and_failed_units(bench_pairs):
    """A workload whose report digests differed in any pair, or that had a
    failed unit on either side, is flagged and named in the closing line,
    after its metrics past their bound; a clean one is not."""
    declared = {"rows_per_s": ("higher", 0.25)}
    steady = {"rows_per_s": [100, 100, 100, 100]}
    differed, failed, both = (pairs_of(steady, steady) for _ in range(3))
    differed[2]["change"]["details"]["digests"] = ["e"]
    failed[1]["parent"]["result"]["failed"] = 1
    both[0]["change"]["details"]["digests"] = ["e"]
    both[3]["change"]["result"]["failed"] = 2
    slower = pairs_of(steady, {"rows_per_s": [50, 50, 50, 50]})
    slower[0]["parent"]["details"]["digests"] = ["e"]
    summaries = [bench_pairs.summarize(name, pairs, declared) for name, pairs in [
        ("clean", pairs_of(steady, steady)), ("differed", differed), ("failed", failed),
        ("both", both), ("slower", slower)]]
    flags = bench_pairs.flagged(summaries)
    assert flags == [["differed", "digests", "differed"], ["failed", "units", "failed"],
                     ["both", "digests", "differed"], ["both", "units", "failed"],
                     ["slower", "rows_per_s", "regressed"], ["slower", "digests", "differed"]]
    assert bench_pairs.closing_line(flags) == (
        "flagged: differed digests (differed), failed units (failed), both digests "
        "(differed), both units (failed), slower rows_per_s (regressed), slower digests "
        "(differed)")
    assert bench_pairs.closing_line(bench_pairs.flagged(summaries[:1])) == "flagged: none"


PARENT = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # q1 102.25, q3 106.75


@pytest.mark.parametrize("better, change, expected", [
    # better in all ten pairs, the median 10 up against a spread of 4.5
    ("higher", [110, 111, 112, 113, 114, 115, 116, 117, 118, 119], True),
    # nine wins of ten still meet the rule
    ("higher", [110, 111, 112, 113, 114, 115, 116, 117, 118, 100], True),
    # too few wins: eight of ten, however large the median's move
    ("higher", [150, 151, 152, 153, 154, 155, 156, 157, 90, 91], False),
    # ten wins, but the median moves 4 (104.5 to 108.5), inside the spread
    ("higher", [104, 105, 106, 107, 108, 109, 110, 111, 112, 113], False),
    # the same runs for a lower-is-better metric moved the wrong way
    ("lower", [110, 111, 112, 113, 114, 115, 116, 117, 118, 119], False),
    ("lower", [90, 91, 92, 93, 94, 95, 96, 97, 98, 99], True),
])
def test_a_gain_needs_nine_wins_in_ten_and_a_move_past_the_parents_spread(
        bench_pairs, better, change, expected):
    summary = bench_pairs.summarize("iris-protocol", pairs_of({"rate": PARENT},
                                                              {"rate": change}),
                                    {"rate": (better, 0.25)})
    assert summary["metrics"]["rate"]["improved"] is expected
    gains = bench_pairs.gains([summary])
    assert gains == ([["iris-protocol", "rate"]] if expected else [])
    assert bench_pairs.gains_line(gains) == (
        "improved: iris-protocol rate" if expected else "improved: none")


@pytest.mark.parametrize("line, expected", [
    ("4 failed, 465 passed, 3 skipped in 34.03s", (465, 4, 3)),
    ("======= 3 failed, 219 passed in 111.74s (0:01:51) =======", (219, 3, 0)),
    ("12 passed in 1.20s", (12, 0, 0)),
    ("1 failed, 2 passed, 1 skipped, 2 warnings, 1 error in 5.00s", (2, 1, 1)),
    ("no tests ran in 0.01s", (0, 0, 0)),
    ("", (0, 0, 0)),
], ids=["quiet", "banner", "passed-only", "warnings-and-errors", "none-ran", "empty"])
def test_tier1_counts_come_from_the_summary_line(bench_pairs, line, expected):
    counts = bench_pairs.summary_counts(line)
    assert counts == dict(zip(("passed", "failed", "skipped"), expected))


def test_tier1_line_names_both_sides(bench_pairs):
    runs = {"parent": {"seconds": 34.96, "passed": 465, "failed": 4, "skipped": 3},
            "change": {"seconds": 35.04, "passed": 469, "failed": 4, "skipped": 3}}
    assert bench_pairs.tier1_line(runs) == (
        "tier-1: parent 465 passed, 4 failed, 3 skipped in 35.0 s; "
        "change 469 passed, 4 failed, 3 skipped in 35.0 s")
