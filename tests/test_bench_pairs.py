"""`tools/bench_pairs.py` on synthetic run results: the per-metric verdict
(`held`, `worse`, `unresolved`) and the claim block, with no benchmark run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
METRICS = [
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
    {"name": "episodes_per_s", "better": "higher", "bound": 0.25},
]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(rss, rate):
    return {"failed": 0, "correct": True, "metrics": {
        "peak_rss_mb": {"value": rss}, "episodes_per_s": {"value": rate},
    }}


def summary(parent, change):
    """`summarize` over runs given per side as (peak_rss_mb, episodes_per_s) or None."""
    results = {side: [None if r is None else run(*r) for r in runs] for side, runs in
               (("parent", parent), ("change", change))}
    return load_tool().summarize(METRICS, list(range(1, len(parent) + 1)), results)


TIGHT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


@pytest.mark.parametrize(
    "change, expected",
    [
        ([v * 0.95 for v in TIGHT], "held"),  # better
        ([v * 1.10 for v in TIGHT], "held"),  # worse, within the 15% bound
        ([v * 1.20 for v in TIGHT], "worse"),
    ],
)
def test_a_tight_parent_gives_held_or_worse_by_the_bound(change, expected):
    entry = summary([(v, 700.0) for v in TIGHT], [(v, 700.0) for v in change])
    assert entry["pairs"] == 10
    assert entry["metrics"]["peak_rss_mb"]["verdict"] == expected
    assert entry["metrics"]["episodes_per_s"]["verdict"] == "held"


def test_a_higher_is_better_metric_is_worse_when_it_falls_past_its_bound():
    entry = summary([(30.0, v * 7) for v in TIGHT], [(30.0, v * 5) for v in TIGHT])
    assert entry["metrics"]["episodes_per_s"]["verdict"] == "worse"  # -29%, bound 25%
    assert entry["metrics"]["episodes_per_s"]["change_wins"] == 0


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_the_sides_are_apart():
    wide = [400.0, 1000.0, 500.0, 900.0, 600.0, 800.0, 700.0, 450.0, 950.0, 750.0]
    parent = [(30.0, v) for v in wide]
    # overlapping runs: the median moved little, yet the spread says nothing
    assert summary(parent, [(30.0, v * 1.02) for v in wide])["metrics"]["episodes_per_s"]["verdict"] == "unresolved"
    # every change run beats every parent run
    assert summary(parent, [(30.0, v + 1000.0) for v in wide])["metrics"]["episodes_per_s"]["verdict"] == "held"


def test_missing_runs_drop_their_pairs_and_too_few_pairs_are_unresolved():
    entry = summary([(30.0, 700.0), None, (30.0, 700.0)], [(30.0, 700.0), (30.0, 700.0), None])
    assert entry["pairs"] == 1
    assert entry["correct"] == {"parent": [True, False, True], "change": [True, True, False]}
    assert {m["verdict"] for m in entry["metrics"].values()} == {"unresolved"}


def test_a_claim_is_met_by_nine_pairs_in_ten_and_a_gain_past_the_parent_iqr():
    tool = load_tool()
    parent = [(v, 700.0) for v in TIGHT]
    met = tool.claim("large-world", "peak_rss_mb", summary(parent, [(v * 0.88, 700.0) for v in TIGHT]))
    assert met["met"] and met["change_wins"] == 10 and met["pairs"] == 10
    assert met["parent_median"] == 100.0 and met["change_median"] == 88.0
    # eight wins in ten are too few, though the median gain is large
    change = [(v * 0.88, 700.0) for v in TIGHT[:8]] + [(150.0, 700.0), (150.0, 700.0)]
    assert not tool.claim("large-world", "peak_rss_mb", summary(parent, change))["met"]
    # ten wins whose median gain is within the parent's IQR
    small = tool.claim("large-world", "peak_rss_mb", summary(parent, [(v - 0.05, 700.0) for v in TIGHT]))
    assert small["change_wins"] == 10 and not small["met"]
