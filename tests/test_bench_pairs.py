"""The summary of tools/bench_pairs.py on canned runs; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "loss", "unit": "nats", "better": "lower", "bound": 0.1},
]


def rows(parent: dict, change: dict) -> list:
    """One row per run: metric name -> one value per pair, seeds 1, 2, ..."""
    out = []
    for side, values in (("parent", parent), ("change", change)):
        for i in range(len(next(iter(values.values())))):
            out.append({"side": side, "seed": i + 1,
                        "metrics": {name: v[i] for name, v in values.items()}})
    return out


def by_name(summary):
    return {s["name"]: s for s in summary}


def test_ties_count_for_neither_side():
    ten = [3.0] * 10
    got = by_name(bench_pairs.summarize(
        rows({"rate": ten, "latency": ten, "loss": ten},
             {"rate": ten, "latency": ten, "loss": ten}), METRICS))
    for name in ("rate", "latency", "loss"):
        assert (got[name]["wins"], got[name]["losses"], got[name]["pairs"]) == (0, 0, 10)
        assert not got[name]["claim"] and got[name]["in_bound"]
        assert not got[name]["unresolved"]


def test_lower_is_better_wins_by_going_down():
    parent = {"rate": [100.0 + i for i in range(10)],
              "latency": [2.0 + 0.01 * i for i in range(10)], "loss": [1.0] * 10}
    change = {"rate": [90.0 + i for i in range(10)],
              "latency": [1.5 + 0.01 * i for i in range(10)], "loss": [1.0] * 10}
    change["latency"][3] = 2.5  # one lost pair: 9 of 10 still claims
    got = by_name(bench_pairs.summarize(rows(parent, change), METRICS))
    assert (got["latency"]["wins"], got["latency"]["losses"]) == (9, 1)
    assert got["latency"]["claim"] and got["latency"]["in_bound"]
    assert got["latency"]["parent"] == pytest.approx([2.0225, 2.045, 2.0675])
    # higher is better for rate: lower values lose every pair, within the bound
    assert (got["rate"]["wins"], got["rate"]["losses"]) == (0, 10)
    assert not got["rate"]["claim"] and got["rate"]["in_bound"]


def test_claim_needs_a_gap_beyond_the_parents_spread():
    parent = {"rate": [100.0 + 10 * i for i in range(10)], "latency": [1.0] * 10,
              "loss": [1.0] * 10}
    change = {"rate": [101.0 + 10 * i for i in range(10)], "latency": [1.0] * 10,
              "loss": [1.0] * 10}
    got = by_name(bench_pairs.summarize(rows(parent, change), METRICS))
    assert got["rate"]["wins"] == 10 and not got["rate"]["claim"]


def test_bound_breach():
    parent = {"rate": [100.0] * 10, "latency": [1.0] * 10, "loss": [1.0] * 10}
    change = {"rate": [74.0] * 10, "latency": [1.26] * 10, "loss": [1.09] * 10}
    got = by_name(bench_pairs.summarize(rows(parent, change), METRICS))
    assert not got["rate"]["in_bound"] and not got["latency"]["in_bound"]
    assert got["loss"]["in_bound"]
    assert all(s["losses"] == 10 for s in got.values())
    table = bench_pairs.report(list(got.values())).splitlines()
    assert len(table) == 4 and table[1].split()[0] == "rate" and table[1].split()[-1] == "no"


def test_runs_pair_by_seed_and_failed_runs_are_flagged():
    canned = rows({"rate": [1.0, 2.0], "latency": [1.0, 1.0], "loss": [1.0, 1.0]},
                  {"rate": [2.0, 3.0], "latency": [1.0, 1.0], "loss": [1.0, 1.0]})
    got = by_name(bench_pairs.summarize(canned[:1] + canned[2:], METRICS))
    assert got["rate"]["pairs"] == 1 and got["rate"]["wins"] == 1
    assert not got["rate"]["claim"]  # fewer than ten pairs never claim
    assert bench_pairs.summarize(canned[:2], METRICS) == []
    assert bench_pairs.run_ok({"correct": True, "failed": 0})
    assert not bench_pairs.run_ok({"correct": True, "failed": 1})
    assert not bench_pairs.run_ok({"correct": False, "failed": 0})


def test_spread_wider_than_the_bound_is_unresolved():
    """Relative parent IQR above the bound: unresolved, unless the change wins outright."""
    parent = {"rate": [60.0, 80.0, 100.0, 120.0, 140.0] * 2,  # IQR 40 of median 100
              "latency": [1.0, 1.5] * 5, "loss": [1.0, 1.05] * 5}
    change = {"rate": [61.0, 81.0, 101.0, 121.0, 141.0] * 2,
              "latency": [0.9] * 10, "loss": [1.0, 1.05] * 5}
    got = by_name(bench_pairs.summarize(rows(parent, change), METRICS))
    assert got["rate"]["unresolved"] and got["rate"]["in_bound"]
    # latency's spread 0.5 of 1.25 also tops its bound, but every change run beats every parent run
    assert not got["latency"]["unresolved"]
    assert not got["loss"]["unresolved"]  # spread 0.05 of 1.025, bound 0.1
    change["rate"] = [141.5] * 10  # above every parent run
    change["latency"] = [0.9] * 9 + [1.0]  # ties the best parent run once
    again = by_name(bench_pairs.summarize(rows(parent, change), METRICS))
    assert not again["rate"]["unresolved"] and again["latency"]["unresolved"]
    table = bench_pairs.report(list(got.values())).splitlines()
    assert table[0].split()[-2:] == ["unresolved", "in_bound"]
    assert table[1].split()[-2:] == ["yes", "yes"] and table[2].split()[-2:] == ["no", "yes"]
