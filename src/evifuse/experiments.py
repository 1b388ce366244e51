"""Experiment harness: missing-rate sweeps, reports, and completion export.

A sweep runs one cell per (eta, seed, mode): generate per-split masks,
train, evaluate, and record a row. Completed cells persist as JSON files
under ``<out>/cells`` so a rerun skips them; a lock file (created
atomically, holding the owner's pid and host) keeps other workers off the
cell; a rerun on that host reclaims it once that process is gone. All
cell-level randomness derives from the cell's seed plus its coordinates,
so rerunning a cell reproduces its row exactly.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from evifuse.dataset import (
    MissingnessSpec,
    MultiViewDataset,
    SplitSpec,
    generate_missing_mask,
    load_dataset,
    split,
)
from evifuse.imputer import CompletionSet
from evifuse.predictor import evaluate
from evifuse.trainer import TrainConfig, _subseed, train

RESULT_COLUMNS = ("eta", "seed", "mode", "accuracy", "mean_uncertainty", "wall_time")

_TAG_SPLIT, _TAG_TRAIN_MASK, _TAG_TEST_MASK, _TAG_FIT, _TAG_EVAL = 11, 12, 13, 14, 15

DEFAULT_TRAIN_FRACTION = 0.8


def _eta_key(eta: float) -> int:
    return int(round(eta * 1_000_000))


def prepare_cell_data(data: MultiViewDataset, eta: float, seed: int,
                      train_fraction: float = DEFAULT_TRAIN_FRACTION):
    """Split, then corrupt each split independently at the same missing rate."""
    train_set, test_set = split(
        data, SplitSpec(train_fraction, seed=_subseed(seed, _TAG_SPLIT))
    )
    ek = _eta_key(eta)
    train_mask = generate_missing_mask(
        train_set.n_samples, train_set.n_views,
        MissingnessSpec(eta, seed=_subseed(seed, _TAG_TRAIN_MASK, ek)),
    )
    test_mask = generate_missing_mask(
        test_set.n_samples, test_set.n_views,
        MissingnessSpec(eta, seed=_subseed(seed, _TAG_TEST_MASK, ek)),
    )
    return train_set.with_mask(train_mask), test_set.with_mask(test_mask)


def run_cell(data: MultiViewDataset, eta: float, seed: int, mode: str,
             cfg: TrainConfig, train_fraction: float = DEFAULT_TRAIN_FRACTION) -> dict:
    """Train and evaluate one sweep cell; returns the result row."""
    started = time.perf_counter()
    train_set, test_set = prepare_cell_data(data, eta, seed, train_fraction)
    ek = _eta_key(eta)
    cell_cfg = replace(cfg, mode=mode, seed=_subseed(seed, _TAG_FIT, ek))
    model = train(train_set, cell_cfg)
    metrics = evaluate(model, test_set, seed=_subseed(seed, _TAG_EVAL, ek))
    return {
        "eta": float(eta),
        "seed": int(seed),
        "mode": mode,
        "accuracy": metrics["accuracy"],
        "mean_uncertainty": metrics["mean_uncertainty"],
        "wall_time": time.perf_counter() - started,
        "epochs_run": model.epochs_run,
        "n_train": train_set.n_samples,
        "n_test": test_set.n_samples,
        "mean_uncertainty_correct": metrics["mean_uncertainty_correct"],
        "mean_uncertainty_incorrect": metrics["mean_uncertainty_incorrect"],
        "excluded_samplings": metrics["excluded_samplings"],
        "status": "ok",
    }


def _cell_key(eta: float, seed: int, mode: str) -> str:
    return f"eta{eta:g}_seed{seed}_{mode}"


def _write_json_atomic(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(tmp, path)


def sweep(data_dir, etas, seeds, modes, cfg: TrainConfig, out_dir,
          train_fraction: float = DEFAULT_TRAIN_FRACTION,
          workers: int = 1) -> list[dict]:
    """Run every (eta, seed, mode) cell, skipping ones already on disk.

    Failed cells are recorded with status "error" and the sweep continues.
    Returns all completed rows and writes results.csv plus summary.json;
    the summary lists under ``cells_missing`` the keys of cells that have
    no result, such as a cell whose lock a killed worker left behind.
    """
    out = Path(out_dir)
    cells_dir = out / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    todo = [(float(e), int(s), str(m)) for e in etas for s in seeds for m in modes]
    if workers > 1:
        _run_cells_parallel(data_dir, todo, cfg, cells_dir, train_fraction, workers)
    else:
        data = load_dataset(data_dir)
        for eta, seed, mode in todo:
            _run_cell_guarded(data, eta, seed, mode, cfg, cells_dir, train_fraction)
    rows, missing = [], []
    for eta, seed, mode in todo:
        key = _cell_key(eta, seed, mode)
        path = cells_dir / f"{key}.json"
        if path.exists():
            rows.append(json.loads(path.read_text()))
        else:
            missing.append(key)
    write_results_csv(rows, out / "results.csv")
    summary = summarize(rows)
    summary["cells_missing"] = missing
    _write_json_atomic(out / "summary.json", summary)
    return rows


def _run_cell_guarded(data, eta, seed, mode, cfg, cells_dir: Path,
                      train_fraction) -> None:
    key = _cell_key(eta, seed, mode)
    result_path = cells_dir / f"{key}.json"
    if result_path.exists():
        return
    lock_path = cells_dir / f"{key}.lock"
    if _lock_is_stale(lock_path):  # left by a killed worker
        lock_path.unlink(missing_ok=True)
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # another worker owns this cell
    with os.fdopen(fd, "w") as fh:
        fh.write(f"{os.getpid()} {socket.gethostname()}")
    try:
        if result_path.exists():  # written by a worker that let go of the lock meanwhile
            return
        try:
            row = run_cell(data, eta, seed, mode, cfg, train_fraction)
        except Exception as exc:  # record the failure, keep sweeping
            row = {
                "eta": eta, "seed": seed, "mode": mode, "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
            }
        _write_json_atomic(result_path, row)
    finally:
        lock_path.unlink(missing_ok=True)


def _lock_is_stale(lock_path: Path) -> bool:
    """True for a lock that names this host and a pid that no longer runs.

    A missing, empty or unreadable lock may be mid-write and is not stale.
    Two reruns that reclaim one stale lock at once may both run the cell."""
    try:
        pid, host = lock_path.read_text().split()
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return host == socket.gethostname()
    except (OSError, ValueError):
        return False
    return False


_WORKER_DATA: dict = {}


def _worker_init(data_dir):
    _WORKER_DATA["data"] = load_dataset(data_dir)


def _worker_run(args):
    eta, seed, mode, cfg_dict, cells_dir, train_fraction = args
    cfg = TrainConfig.from_dict(cfg_dict)
    _run_cell_guarded(_WORKER_DATA["data"], eta, seed, mode, cfg,
                      Path(cells_dir), train_fraction)


def _run_cells_parallel(data_dir, todo, cfg, cells_dir, train_fraction, workers):
    import multiprocessing as mp

    ctx = mp.get_context("spawn")
    args = [
        (eta, seed, mode, cfg.to_dict(), str(cells_dir), train_fraction)
        for eta, seed, mode in todo
    ]
    with ctx.Pool(workers, initializer=_worker_init, initargs=(data_dir,)) as pool:
        pool.map(_worker_run, args)


def write_results_csv(rows: list[dict], path) -> None:
    ok = [r for r in rows if r.get("status") == "ok"]
    ok.sort(key=lambda r: (r["eta"], r["mode"], r["seed"]))
    lines = [",".join(RESULT_COLUMNS)]
    for r in ok:
        lines.append(
            f'{r["eta"]:.17g},{r["seed"]},{r["mode"]},'
            f'{r["accuracy"]:.17g},{r["mean_uncertainty"]:.17g},{r["wall_time"]:.17g}'
        )
    Path(path).write_text("\n".join(lines) + "\n")


def summarize(rows: list[dict]) -> dict:
    ok = [r for r in rows if r.get("status") == "ok"]
    failed = [r for r in rows if r.get("status") != "ok"]
    groups: dict = {}
    for r in ok:
        groups.setdefault((r["mode"], r["eta"]), []).append(r["accuracy"])
    summary = []
    for (mode, eta), accs in sorted(groups.items()):
        arr = np.asarray(accs)
        summary.append({
            "mode": mode,
            "eta": eta,
            "n_cells": len(accs),
            "mean_accuracy": float(arr.mean()),
            "std_accuracy": float(arr.std()),
        })
    return {
        "cells_ok": len(ok),
        "cells_failed": len(failed),
        "failures": [
            {"eta": r["eta"], "seed": r["seed"], "mode": r["mode"],
             "error": r.get("error", "")}
            for r in failed
        ],
        "summary": summary,
    }


def read_results_csv(path) -> list[dict]:
    text = Path(path).read_text().strip()
    if not text:
        raise ValueError(f"empty results file {path}")
    lines = text.splitlines()
    header = lines[0].split(",")
    if tuple(header) != RESULT_COLUMNS:
        raise ValueError(f"malformed results header in {path}: {header}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(RESULT_COLUMNS):
            raise ValueError(f"malformed results row in {path}: {line!r}")
        rows.append({
            "eta": float(parts[0]),
            "seed": int(parts[1]),
            "mode": parts[2],
            "accuracy": float(parts[3]),
            "mean_uncertainty": float(parts[4]),
            "wall_time": float(parts[5]),
            "status": "ok",
        })
    if not rows:
        raise ValueError(f"no result rows in {path}")
    return rows


def report(rows: list[dict]) -> tuple[str, list[dict]]:
    """Human-readable mean+/-std table and tidy long-format rows."""
    if not rows:
        raise ValueError("no results to report")
    summary = summarize(rows)["summary"]
    if not summary:
        raise ValueError("no successful cells to report")
    width = max(len(s["mode"]) for s in summary)
    lines = [f'{"mode":<{width}}  {"eta":>5}  {"cells":>5}  accuracy (mean+/-std)']
    for s in summary:
        lines.append(
            f'{s["mode"]:<{width}}  {s["eta"]:>5g}  {s["n_cells"]:>5d}  '
            f'{s["mean_accuracy"]:.4f}+/-{s["std_accuracy"]:.4f}'
        )
    return "\n".join(lines), summary


def write_tidy_csv(summary: list[dict], path) -> None:
    lines = ["mode,eta,n_cells,mean_accuracy,std_accuracy"]
    for s in summary:
        lines.append(
            f'{s["mode"]},{s["eta"]:.17g},{s["n_cells"]},'
            f'{s["mean_accuracy"]:.17g},{s["std_accuracy"]:.17g}'
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_completion_directory(completions: CompletionSet, out_dir) -> None:
    """Dataset-layout export: one subdirectory per sampling plus provenance JSON."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s in range(completions.n_samplings):
        sub = out / f"sampling_{s:03d}"
        sub.mkdir(exist_ok=True)
        for v, mat in enumerate(completions.completion(s)):
            np.savetxt(sub / f"view_{v}.csv", mat, fmt="%.10g", delimiter=",")
        np.savetxt(sub / "labels.csv", completions.labels[:, None], fmt="%d", delimiter=",")
    provenance = {
        "n_samplings": completions.n_samplings,
        "imputed_slots": [
            {"sample": int(n), "view": int(v)}
            for n in range(completions.n_samples)
            for v in range(completions.n_views)
            if not completions.mask[n, v]
        ],
    }
    _write_json_atomic(out / "provenance.json", provenance)
