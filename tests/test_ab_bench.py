"""`tools/ab_bench.py`'s summary of alternating benchmark runs, on canned
results (no benchmark process is started)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
SPECS = [
    {"name": "us_per_iter", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
    {"name": "speed", "better": "higher", "bound": 0.1},
]


def _load_tool():
    spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _runs(parent, change, name="us_per_iter", correct=None, failed=None):
    correct, failed = correct or {}, failed or {}
    out = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, v in (("parent", p), ("change", c)):
            out.append({"seed": seed, "side": side, "order": 0,
                        "correct": correct.get((seed, side), True),
                        "attempted": 20, "failed": failed.get((seed, side), 0),
                        "metrics": {"us_per_iter": None, "peak_rss_mb": None, "speed": None,
                                    name: v}})
    return out


def test_claim_rule_needs_nine_wins_in_ten_and_a_gap_beyond_the_parents_iqr():
    tool = _load_tool()
    parent = [100.0, 102, 98, 101, 99, 103, 97, 100, 104, 96]
    s = tool.summarize(_runs(parent, [v - 30 for v in parent]), SPECS)["us_per_iter"]
    assert s["pairs"] == 10 and s["wins"] == 10 and s["losses"] == 0
    assert s["parent"]["median"] == 100.0 and s["change"]["median"] == 70.0
    assert s["parent"]["q1"] == 98.25 and s["parent"]["q3"] == 101.75
    assert s["parent_iqr"] == pytest.approx(3.5)
    assert s["median_rel_change"] == pytest.approx(-0.3)
    assert s["claim_rule_met"] and s["within_bound"]
    assert s["failed_share"] == {"parent": 0.0, "change": 0.0}

    # 8 wins of 10, one tie: the rule fails on the count although the gap is wide
    change = [v - 30 for v in parent]
    change[0], change[1] = parent[0] + 1, parent[1]
    s = tool.summarize(_runs(parent, change), SPECS)["us_per_iter"]
    assert (s["wins"], s["losses"]) == (8, 1) and not s["claim_rule_met"]

    # every pair won, by less than the parent's spread
    s = tool.summarize(_runs(parent, [v - 1 for v in parent]), SPECS)["us_per_iter"]
    assert s["wins"] == 10 and not s["claim_rule_met"]


def test_claim_rule_needs_ten_pairs():
    tool = _load_tool()
    parent = [100.0, 102, 98, 101, 99, 103, 97, 100, 104, 96, 100]
    change = [v - 30 for v in parent]
    assert tool.summarize(_runs(parent, change), SPECS)["us_per_iter"]["claim_rule_met"]
    # nine pairs, every one won by far more than the spread
    s = tool.summarize(_runs(parent[:9], change[:9]), SPECS)["us_per_iter"]
    assert s["wins"] == 9 and not s["claim_rule_met"]
    # ten runs per side, but one pair drops out for an incorrect run
    s = tool.summarize(_runs(parent[:10], change[:10], correct={(4, "parent"): False}),
                       SPECS)["us_per_iter"]
    assert (s["pairs"], s["wins"]) == (9, 9) and not s["claim_rule_met"]


def test_claim_rule_needs_no_larger_share_of_failed_operations():
    tool = _load_tool()
    parent = [100.0, 102, 98, 101, 99, 103, 97, 100, 104, 96]
    change = [v - 30 for v in parent]
    s = tool.summarize(_runs(parent, change, failed={(3, "change"): 1}), SPECS)["us_per_iter"]
    assert s["failed_share"] == {"parent": 0.0, "change": 1 / 200}
    assert s["wins"] == 10 and not s["claim_rule_met"]
    # as many failures on the parent's side: the gain still counts
    s = tool.summarize(_runs(parent, change, failed={(3, "change"): 1, (7, "parent"): 1}),
                       SPECS)["us_per_iter"]
    assert s["claim_rule_met"]


def test_bound_and_direction():
    tool = _load_tool()
    parent = [50.0] * 4
    within = tool.summarize(_runs(parent, [52.0] * 4, "peak_rss_mb"), SPECS)["peak_rss_mb"]
    assert within["losses"] == 4 and within["within_bound"]
    beyond = tool.summarize(_runs(parent, [53.0] * 4, "peak_rss_mb"), SPECS)["peak_rss_mb"]
    assert not beyond["within_bound"]
    # a `higher` metric: a larger change value is a win
    s = tool.summarize(_runs([1.0] * 10, [2.0] * 10, "speed"), SPECS)["speed"]
    assert s["wins"] == 10 and s["claim_rule_met"] and s["within_bound"]


def test_pairs_with_an_incorrect_run_are_left_out():
    tool = _load_tool()
    runs = _runs([10.0, 11, 12], [5.0, 6, 7], correct={(1, "change"): False})
    s = tool.summarize(runs, SPECS)
    assert s["us_per_iter"]["pairs"] == 2 and s["us_per_iter"]["parent"]["median"] == 11.0
    assert s["peak_rss_mb"] == {"pairs": 2, "measured": False}


def test_parse_seeds():
    tool = _load_tool()
    assert tool.parse_seeds("2501-2504") == [2501, 2502, 2503, 2504]
    assert tool.parse_seeds("7,9") == [7, 9]


def test_pair_ratios_show_the_spread_of_change_over_parent():
    """The summary gives the minimum, quartiles and maximum of the per-pair
    ratios change / parent (inclusive quartiles, as for each side), and the
    printed line shows them beside the wins."""
    tool = _load_tool()
    parent = [100.0, 100, 100, 100, 100]
    change = [70.0, 80, 90, 110, 60]
    r = tool.summarize(_runs(parent, change), SPECS)["us_per_iter"]["pair_ratio"]
    assert r == pytest.approx({"min": 0.6, "q1": 0.7, "median": 0.8, "q3": 0.9, "max": 1.1})
    assert tool._ratio_text(r) == "0.600 [0.700, 0.800, 0.900] 1.100"
    # a pair whose parent reads 0 has no ratio; with none left, none is shown
    r = tool.summarize(_runs([0.0, 50], [1.0, 25]), SPECS)["us_per_iter"]["pair_ratio"]
    assert r == {"min": 0.5, "q1": 0.5, "median": 0.5, "q3": 0.5, "max": 0.5}
    r = tool.summarize(_runs([0.0], [1.0]), SPECS)["us_per_iter"]["pair_ratio"]
    assert r == {"min": None, "q1": None, "median": None, "q3": None, "max": None}
    assert tool._ratio_text(r) == "undefined"
