"""Experiment harness: missing-rate sweeps, reports, and completion export.

A sweep runs one cell per (eta, seed, mode) on one fully observed
dataset, loaded once and held in memory: generate per-split masks,
train, evaluate, and record a row. An output directory holds one sweep:
its first run writes the spec, the config apart from each cell's seed
and mode, the train fraction and a digest of the data, to
``sweep.json``. A cell is its key, ``_cell_key``, which prints eta to 6
significant digits: etas that print alike are one cell, run under the
first of them given. All cell-level randomness derives from the cell's
seed plus its coordinates, so a row is fixed apart from ``wall_time``
and running a cell twice does no harm. A worker publishes its row with
``dataset.write_json`` as ``cells/<key>.json``, hard-linked into place
without overwrite, so the first published row wins and a rerun skips the
cell. A killed worker leaves at most a stray ``*.tmp`` file, which
counts as no result. The output directory must support hard links, as
every local POSIX filesystem does. A column of ``results.csv`` is one
``RESULT_COLUMNS`` entry, its name and the parser that reads it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from evifuse.dataset import (
    MultiViewDataset,
    generate_missing_mask,
    split,
    write_csv_matrix,
    write_file,
    write_json,
)
from evifuse.imputer import CompletionSet
from evifuse.predictor import evaluate
from evifuse.trainer import TrainConfig, _subseed, train

RESULT_COLUMNS = {"eta": float, "seed": int, "mode": str, "accuracy": float,
                  "mean_uncertainty": float, "auroc_u": float, "aurc_u": float, "ece": float,
                  "wall_time": float}
_TIDY_COLUMNS = {"mode": str, "eta": float, "n_cells": int, "mean_accuracy": float,
                 "std_accuracy": float, "mean_auroc_u": float, "mean_aurc_u": float,
                 "mean_ece": float}
# error-ranking metrics of a cell that ``summarize`` averages over the cells holding one
_CARRIED = ("auroc_u", "aurc_u", "ece")

_TAG_SPLIT, _TAG_TRAIN_MASK, _TAG_TEST_MASK, _TAG_FIT, _TAG_EVAL = 11, 12, 13, 14, 15

DEFAULT_TRAIN_FRACTION = 0.8


def _eta_key(eta: float) -> int:
    return int(round(eta * 1_000_000))


def prepare_cell_data(data: MultiViewDataset, eta: float, seed: int,
                      train_fraction: float = DEFAULT_TRAIN_FRACTION):
    """Split, then corrupt each split independently at the same missing rate."""
    train_set, test_set = split(data, train_fraction, seed=_subseed(seed, _TAG_SPLIT))
    ek = _eta_key(eta)
    train_mask = generate_missing_mask(train_set.n_samples, train_set.n_views, eta,
                                       seed=_subseed(seed, _TAG_TRAIN_MASK, ek))
    test_mask = generate_missing_mask(test_set.n_samples, test_set.n_views, eta,
                                      seed=_subseed(seed, _TAG_TEST_MASK, ek))
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
        "auroc_u": metrics["auroc"]["u"],
        "aurc_u": metrics["aurc"]["u"],
        "ece": metrics["ece"],
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


def sweep(data: MultiViewDataset, etas, seeds, modes, cfg: TrainConfig, out_dir,
          train_fraction: float = DEFAULT_TRAIN_FRACTION,
          workers: int = 1) -> dict:
    """Run every distinct cell of (eta, seed, mode) on ``data``, skipping ones already on disk.

    Each cell sets ``cfg``'s ``mode``, and its ``seed`` from the cell's seed and eta.
    ``data`` must be fully observed, as each cell makes its own masks. An
    empty grid, an eta outside [0, 1), a seed or mode that ``TrainConfig``
    rejects, missing slots, a ``train_fraction`` outside (0, 1) or
    ``workers`` below 1 raise ``ValueError`` before ``out_dir`` is made.
    ``out_dir`` holds one sweep: its first run publishes ``sweep.json``, the
    config without seed and mode, ``train_fraction`` and a sha256 of
    ``data``, and a run of another spec raises ``ValueError`` before any cell.

    Failed cells are recorded with status "error" and, like any published
    row, are not rerun. Two sweeps on one ``out_dir`` may both compute a
    cell; the first row published wins. A worker process that dies ends a
    parallel sweep early. Writes results.csv and summary.json, and returns
    the summary, whose ``cells_missing`` lists the keys of cells with no
    result yet, such as a killed worker's; a rerun runs them; its
    ``pool_error`` says why the worker pool broke, or is None.
    ``out_dir`` must support hard links. With ``workers`` > 1 each cell goes
    to a spawned worker process with a pickled copy of ``data``. A worker starts by re-importing the caller's
    ``__main__`` module, so the caller must be importable: from a script on
    stdin no worker starts, every cell is reported missing, and
    ``pool_error`` names ``__main__``'s path.
    """
    etas, seeds, modes = [float(e) for e in etas], [int(s) for s in seeds], [str(m) for m in modes]
    if not (etas and seeds and modes):
        raise ValueError("the sweep grid is empty: give at least one eta, seed and mode")
    if not all(0.0 <= eta < 1.0 for eta in etas):
        raise ValueError("eta must lie in [0, 1)")
    # TrainConfig's own checks of each cell's seed and mode
    for seed in seeds:
        replace(cfg, seed=seed)
    for mode in modes:
        replace(cfg, mode=mode)
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not data.mask.all():
        raise ValueError(f"sweep needs fully observed data; {int((~data.mask).sum())} "
                         "slots are missing")
    spec = {"config": {k: v for k, v in cfg.to_dict().items() if k not in ("seed", "mode")},
            "train_fraction": train_fraction, "data_sha256": _data_sha256(data)}
    out = Path(out_dir)
    cells_dir = out / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    try:
        write_json(out / "sweep.json", spec, overwrite=False)
    except FileExistsError:
        if json.loads((out / "sweep.json").read_text()) != spec:
            raise ValueError(f"{out} holds a sweep of another config, train fraction or "
                             "data (its sweep.json); give another out directory") from None
    todo = {}
    for cell in itertools.product(etas, seeds, modes):
        todo.setdefault(_cell_key(*cell), cell)
    run = partial(_run_cell_once, data, cfg=cfg, cells_dir=cells_dir,
                  train_fraction=train_fraction)
    pool_error = None
    if workers > 1:
        pool_error = _run_cells_parallel(run, todo.values(), workers)
    else:
        for cell in todo.values():
            run(*cell)
    rows, missing = [], []
    for key in todo:
        path = cells_dir / f"{key}.json"
        if path.exists():
            rows.append(json.loads(path.read_text()))
        else:
            missing.append(key)
    write_results_csv(rows, out / "results.csv")
    summary = summarize(rows)
    summary["cells_missing"] = missing
    summary["pool_error"] = pool_error
    write_json(out / "summary.json", summary)
    return summary


def _data_sha256(data: MultiViewDataset) -> str:
    digest = hashlib.sha256(f"{data.class_count}".encode())
    for arr in (*data.views, data.labels, data.mask):
        digest.update(f"{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _run_cell_once(data, eta, seed, mode, cfg, cells_dir: Path,
                   train_fraction) -> None:
    """Run a cell that has no published row and publish its row, unless
    another worker published one first."""
    result_path = cells_dir / f"{_cell_key(eta, seed, mode)}.json"
    if result_path.exists():
        return
    try:
        row = run_cell(data, eta, seed, mode, cfg, train_fraction)
    except Exception as exc:  # record the failure, keep sweeping
        row = {"eta": eta, "seed": seed, "mode": mode, "status": "error",
               "error": f"{type(exc).__name__}: {exc}"}
    try:
        write_json(result_path, row, overwrite=False)
    except FileExistsError:
        pass  # another worker published this cell first; its row stands


def _run_cells_parallel(run, cells, workers):
    """``run(eta, seed, mode)`` for each cell in spawned worker processes; each
    task pickles ``run`` and so the dataset bound in it. Returns why the pool broke, or None."""
    import multiprocessing as mp
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(workers, mp_context=mp.get_context("spawn")) as pool:
            list(pool.map(run, *zip(*cells)))
    except BrokenProcessPool as exc:  # a worker died (say OOM-killed) or none started
        # a spawned worker re-imports __main__ by module name or else from its file,
        # as multiprocessing.spawn does; name that file if it is not there
        main = sys.modules["__main__"]
        path = getattr(main, "__file__", None)
        if getattr(main.__spec__, "name", None) is None and path is not None:
            path = os.path.join(mp.process.ORIGINAL_DIR or "", path)
            if not os.path.isfile(path):
                return (f"{exc} No worker can start: each re-imports __main__ "
                        f"from {path}, which is not a file")
        return str(exc)  # cells stay missing
    return None


def _write_table(path, columns: dict, rows) -> None:
    """A CSV of ``columns``' names and a line per row. A float column prints
    17 significant digits, which ``float`` reads back exactly, and None as
    nan: an older file's cell, of an empty test split or without a valid sampling."""
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join(
            f"{np.nan if r[name] is None else r[name]:.17g}" if parse is float
            else str(r[name]) for name, parse in columns.items()))
    write_file(path, "\n".join(lines) + "\n")


def write_results_csv(rows: list[dict], path) -> None:
    ok = [r for r in rows if r.get("status") == "ok"]
    ok.sort(key=lambda r: (r["eta"], r["mode"], r["seed"]))
    _write_table(path, RESULT_COLUMNS, ok)


def summarize(rows: list[dict]) -> dict:
    ok = [r for r in rows if r.get("status") == "ok"]
    failed = [r for r in rows if r.get("status") != "ok"]
    groups: dict = {}
    for r in ok:
        groups.setdefault((r["mode"], r["eta"]), []).append(r)
    summary = []
    for (mode, eta), cells in sorted(groups.items()):
        accs = np.asarray([r["accuracy"] for r in cells])
        summary.append({
            "mode": mode,
            "eta": eta,
            "n_cells": len(cells),
            "mean_accuracy": float(accs.mean()),
            "std_accuracy": float(accs.std()),
        } | {f"mean_{name}": _mean_held([r.get(name) for r in cells]) for name in _CARRIED})
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


def _mean_held(values) -> float | None:
    """The mean of the values that are neither None nor nan, or None if none is."""
    held = [v for v in values if v is not None and not np.isnan(v)]
    return float(np.mean(held)) if held else None


def read_results_csv(path) -> list[dict]:
    text = Path(path).read_text().strip()
    if not text:
        raise ValueError(f"empty results file {path}")
    lines = text.splitlines()
    header = lines[0].split(",")
    if header != list(RESULT_COLUMNS):
        raise ValueError(f"malformed results header in {path}: {header}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(RESULT_COLUMNS):
            raise ValueError(f"malformed results row in {path}: {line!r}")
        rows.append({name: parse(part) for (name, parse), part
                     in zip(RESULT_COLUMNS.items(), parts)} | {"status": "ok"})
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
    lines = [f'{"mode":<{width}}  {"eta":>5}  {"cells":>5}  accuracy (mean+/-std)  '
             + "  ".join(f"{name:>7}" for name in _CARRIED)]
    for s in summary:
        accuracy = f'{s["mean_accuracy"]:.4f}+/-{s["std_accuracy"]:.4f}'
        carried = (np.nan if s[f"mean_{name}"] is None else s[f"mean_{name}"]
                   for name in _CARRIED)
        lines.append(f'{s["mode"]:<{width}}  {s["eta"]:>5g}  {s["n_cells"]:>5d}  '
                     f'{accuracy:<21}  ' + "  ".join(f"{value:>7.4f}" for value in carried))
    return "\n".join(lines), summary


def write_tidy_csv(summary: list[dict], path) -> None:
    _write_table(path, _TIDY_COLUMNS, summary)


def write_completion_directory(completions: CompletionSet, out_dir) -> None:
    """Dataset-layout export, one subdirectory per sampling plus provenance JSON: how
    ``evifuse impute`` writes the completions ``train`` fits on, in the data's units.
    An ``out_dir`` that already holds files raises ``ValueError`` before any write."""
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise ValueError(f"{out} already holds files; give an empty or new out directory")
    out.mkdir(parents=True, exist_ok=True)
    data = completions.data
    rows = np.arange(data.n_samples)
    for s in range(completions.n_samplings):
        sub = out / f"sampling_{s:03d}"
        sub.mkdir(exist_ok=True)
        for v, mat in enumerate(completions.gather(rows, np.full(rows.size, s))):
            write_csv_matrix(sub / f"view_{v}.csv", mat, "%.10g")
        write_csv_matrix(sub / "labels.csv", data.labels[:, None], "%d")
    provenance = {
        "n_samplings": completions.n_samplings,
        "imputed_slots": [{"sample": int(n), "view": int(v)}
                          for n, v in np.argwhere(~data.mask)],
    }
    write_json(out / "provenance.json", provenance)
