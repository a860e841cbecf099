"""The verdicts of ``scripts/bench_pairs.py`` on synthetic pairs; no benchmark runs."""

import importlib.util
import os

import pytest

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(REPO_ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "step_ms.p50", "better": "lower", "bound": 0.15}
HIGHER = {"name": "sim_s_per_wall_s", "better": "higher", "bound": 0.15}


def pairs_of(parent, change, name="step_ms.p50"):
    """Pairs in run order: even ones ran the parent first, odd ones the change."""
    return [{"seed": i, "parent": {name: a}, "change": {name: b}}
            for i, (a, b) in enumerate(zip(parent, change))]


PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.0, 10.1, 10.2, 10.3, 10.4]


def test_ten_wins_beyond_the_parents_spread_show_a_gain():
    s = bench_pairs.summarise(pairs_of(PARENT, [a - 2.0 for a in PARENT]), [LOWER])[LOWER["name"]]
    assert s["change_wins"] == "10/10"
    assert s["better_beyond_parent_iqr"] and s["better_in_each_order"]
    assert s["gain_shown"] and not s["beyond_bound"]


def test_eight_wins_show_no_gain():
    # one loss in each run order; the medians still beat the parent's by far
    change = [a + 2.0 if i in (0, 1) else a - 2.0 for i, a in enumerate(PARENT)]
    s = bench_pairs.summarise(pairs_of(PARENT, change), [LOWER])[LOWER["name"]]
    assert s["change_wins"] == "8/10"
    assert s["better_beyond_parent_iqr"] and s["better_in_each_order"]
    assert not s["gain_shown"]


def test_nine_wins_worse_within_one_run_order_show_no_gain():
    # the change-first pairs (odd) win four of five, but their median is the parent's + 0.05
    change = [5.0, 9.95, 5.0, 10.05, 5.0, 50.0, 5.0, 10.25, 5.0, 10.35]
    parent = [10.0, 10.0, 10.1, 10.1, 10.2, 10.2, 10.3, 10.3, 10.4, 10.4]
    s = bench_pairs.summarise(pairs_of(parent, change), [LOWER])[LOWER["name"]]
    assert s["change_wins"] == "9/10"
    assert s["by_order"]["change_first"]["change_median"] > \
        s["by_order"]["change_first"]["parent_median"]
    assert s["better_beyond_parent_iqr"] and not s["better_in_each_order"]
    assert not s["gain_shown"]


@pytest.mark.parametrize("metric, change, beyond", [
    (LOWER, 11.6, True), (LOWER, 11.4, False),
    (HIGHER, 8.4, True), (HIGHER, 8.6, False),
])
def test_beyond_bound_follows_the_bound(metric, change, beyond):
    pairs = pairs_of([10.0] * 10, [change] * 10, metric["name"])
    s = bench_pairs.summarise(pairs, [metric])[metric["name"]]
    assert s["change_worse_by"] == pytest.approx(abs(change - 10.0) / 10.0)
    assert s["beyond_bound"] is beyond and not s["gain_shown"]


def test_raw_summary_skips_pairs_without_raw_figures():
    spec = [dict(LOWER, name=name) for name in bench_pairs.RAW_METRICS]
    pairs = pairs_of(PARENT, PARENT)
    for i, pair in enumerate(pairs):
        if i < 3:
            for side, value in (("parent", 1.0 + i), ("change", 2.0 + i)):
                pair[side]["raw"] = dict.fromkeys(bench_pairs.RAW_METRICS, value)
        else:
            pair["parent"]["raw"] = dict.fromkeys(bench_pairs.RAW_METRICS, 0.0)
    raw = bench_pairs.summarise_raw(pairs, spec)
    assert set(raw) == set(bench_pairs.RAW_METRICS)
    for s in raw.values():
        assert (s["parent_median"], s["change_median"], s["change_wins"]) == (2.0, 3.0, "0/3")
    assert bench_pairs.summarise_raw(pairs[3:], spec) == {}
