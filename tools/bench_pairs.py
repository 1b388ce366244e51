"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --pairs 10 --seed S [--seconds 26] [--out rows.jsonl]

Pair i (i = 1 ... N) runs ``DIR/bench/run.py --trace 0`` of both checkouts
on seed S + i, the parent first in odd pairs and the change first in even
ones; ``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``. For
each end-to-end metric of ``BENCHMARK.json`` it prints:

- both sides' quartiles (25th, median, 75th percentile over the pairs);
- the pairs the change won and lost, in the direction ``better`` gives,
  ties counting for neither side;
- ``claim``: whether a gain could be claimed, that is at least ten pairs
  ran, the change won at least nine tenths of them and its median is
  better than the parent's by more than the parent's interquartile range;
- ``unresolved``: whether the parent's interquartile range, relative to
  its median, is wider than the metric's ``bound``, unless every change
  run reads better than every parent run: then the pairs cannot show that
  the metric held, whatever ``in_bound`` says;
- ``in_bound``: whether the change's median is worse than the parent's
  by no more than the metric's relative ``bound``.

``--out`` also appends one JSON row per run to a file. The exit status is 1 when a
run is not ``correct``, has failed operations or prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run of ``checkout``'s benchmark, as a row."""
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"seed": seed, "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def run_ok(row: dict) -> bool:
    return bool(row["correct"]) and row["failed"] == 0


def summarize(rows: list, end_to_end: list) -> list:
    """One comparison dict per metric of ``end_to_end`` over the pairs in ``rows``.

    A row is one run: its ``side`` (parent or change), ``seed`` and
    ``metrics`` (name to value). Runs pair up by seed.
    """
    runs = {side: {row["seed"]: row["metrics"] for row in rows if row["side"] == side}
            for side in SIDES}
    seeds = sorted(runs["parent"].keys() & runs["change"].keys())
    if not seeds:
        return []
    out = []
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        # a missing or null value reads NaN, which neither wins nor loses
        parent, change = (np.array([runs[side][s].get(name) for s in seeds], dtype=float)
                          for side in SIDES)
        gain = sign * (change - parent)
        p_q, c_q = np.percentile(parent, [25, 50, 75]), np.percentile(change, [25, 50, 75])
        wins = int(np.count_nonzero(gain > 0))
        median_gain = sign * (c_q[1] - p_q[1])
        out.append({
            "name": name, "unit": spec["unit"], "better": spec["better"], "pairs": len(seeds),
            "parent": p_q.tolist(), "change": c_q.tolist(),
            "wins": wins, "losses": int(np.count_nonzero(gain < 0)),
            "claim": bool(len(seeds) >= 10 and wins >= 0.9 * len(seeds)
                          and median_gain > p_q[2] - p_q[0]),
            "unresolved": bool(p_q[2] - p_q[0] > spec["bound"] * abs(p_q[1])
                               and not (sign * change).min() > (sign * parent).max()),
            "in_bound": bool(median_gain >= -spec["bound"] * abs(p_q[1])),
        })
    return out


def report(summary: list) -> str:
    """The summary as a fixed-width table, one line per metric."""
    lines = [f"{'metric':<18} {'unit':<8} {'better':<6} {'parent p25/p50/p75':>30} "
             f"{'change p25/p50/p75':>30} {'won':>4} {'lost':>4} {'pairs':>5} "
             f"{'claim':>5} {'unresolved':>10} {'in_bound':>8}"]
    for s in summary:
        quartiles = ["/".join(f"{q:.4g}" for q in s[side]) for side in SIDES]
        lines.append(f"{s['name']:<18} {s['unit']:<8} {s['better']:<6} {quartiles[0]:>30} "
                     f"{quartiles[1]:>30} {s['wins']:>4} {s['losses']:>4} {s['pairs']:>5} "
                     f"{'yes' if s['claim'] else 'no':>5} "
                     f"{'yes' if s['unresolved'] else 'no':>10} "
                     f"{'yes' if s['in_bound'] else 'no':>8}")
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rows = []
    for pair in range(1, args.pairs + 1):
        seed = args.seed + pair
        for side in SIDES if pair % 2 else SIDES[::-1]:
            row = {"pair": pair, "side": side,
                   **bench_run(checkouts[side], args.workload, seed, args.seconds)}
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)
            if args.out:
                with args.out.open("a") as f:
                    f.write(json.dumps(row) + "\n")
    print(report(summarize([row for row in rows if run_ok(row)], bench["end_to_end"])))
    bad = [f"{row['side']} seed {row['seed']}" for row in rows if not run_ok(row)]
    if bad:
        print("runs not correct or with failed operations: " + ", ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
