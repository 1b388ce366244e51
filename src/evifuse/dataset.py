"""Multi-view datasets and the files the package reads and writes.

A dataset directory holds one headerless CSV per view (``view_0.csv`` ...
``view_{V-1}.csv``), an integer ``labels.csv``, and optionally a 0/1
``mask.csv`` marking which (sample, view) slots are observed. Missing
entries carry arbitrary placeholder values and are never read; the mask
is the single source of truth. This module also reads files from disk,
and ``write_file`` is the one writer of every file the package writes;
``write_json`` and ``write_csv_matrix`` give JSON and CSV one form each.
"""

from __future__ import annotations

import io
import json
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_DEGENERATE_STD = 1e-8


@dataclass(frozen=True)
class MultiViewDataset:
    """Per-view feature matrices with an availability mask and integer labels."""

    views: list
    labels: np.ndarray
    mask: np.ndarray
    class_count: int

    def __post_init__(self):
        views = [np.array(v, dtype=np.float64, ndmin=2) for v in self.views]
        labels = np.array(self.labels, dtype=np.int64).ravel()
        mask = np.array(self.mask, dtype=bool, ndmin=2)
        if not views:
            raise ValueError("dataset needs at least one view")
        n = views[0].shape[0]
        for i, v in enumerate(views):
            if v.shape[0] != n:
                raise ValueError(
                    f"view {i} has {v.shape[0]} rows, expected {n}"
                )
        if labels.shape[0] != n:
            raise ValueError(f"labels length {labels.shape[0]} != row count {n}")
        if mask.shape != (n, len(views)):
            raise ValueError(f"mask shape {mask.shape} != ({n}, {len(views)})")
        if n and not mask.any(axis=1).all():
            bad = int(np.nonzero(~mask.any(axis=1))[0][0])
            raise ValueError(f"sample with zero observed views (row {bad})")
        if self.class_count < 1:
            raise ValueError("class_count must be >= 1")
        if n and (labels.min() < 0 or labels.max() >= self.class_count):
            raise ValueError(f"label outside [0, {self.class_count})")
        for i, v in enumerate(views):
            observed = v[mask[:, i]]
            if not np.all(np.isfinite(observed)):
                raise ValueError(f"non-finite observed entries in view {i}")
        for arr in (*views, labels, mask):
            arr.flags.writeable = False
        object.__setattr__(self, "views", views)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mask", mask)

    def __reduce__(self):
        # unpickle through the constructor, which checks the arrays and makes them read-only
        return MultiViewDataset, (self.views, self.labels, self.mask, self.class_count)

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def view_dims(self) -> list:
        return [v.shape[1] for v in self.views]

    def subset(self, indices) -> "MultiViewDataset":
        indices = np.asarray(indices)
        return MultiViewDataset(
            [v[indices] for v in self.views],
            self.labels[indices],
            self.mask[indices],
            self.class_count,
        )

    def with_mask(self, mask: np.ndarray) -> "MultiViewDataset":
        return MultiViewDataset(list(self.views), self.labels, mask, self.class_count)


def load_dataset(root_path) -> MultiViewDataset:
    """Read a dataset directory; an absent mask.csv means fully observed."""
    root = Path(root_path)
    if not root.is_dir():
        raise ValueError(f"not a dataset directory: {root}")
    pattern = re.compile(r"view_(\d+)\.csv$")
    indexed = []
    for path in root.iterdir():
        m = pattern.fullmatch(path.name)
        if m:
            indexed.append((int(m.group(1)), path))
    if not indexed:
        raise ValueError(f"no view_<v>.csv files in {root}")
    indexed.sort()
    if [i for i, _ in indexed] != list(range(len(indexed))):
        raise ValueError(f"view files must be numbered 0..V-1, got {[i for i, _ in indexed]}")

    views = [_read_csv_matrix(path) for _, path in indexed]
    labels_path = root / "labels.csv"
    if not labels_path.exists():
        raise ValueError(f"missing labels.csv in {root}")
    labels_raw = _read_csv_matrix(labels_path).ravel()
    if not np.all(labels_raw == np.rint(labels_raw)):
        raise ValueError("labels.csv must contain integers")
    labels = labels_raw.astype(np.int64)
    if labels.min() < 0:
        raise ValueError("label outside [0, K)")
    class_count = int(labels.max()) + 1
    present = np.unique(labels)
    if present.size != class_count:
        missing = sorted(set(range(class_count)) - set(present.tolist()))
        raise ValueError(f"labels must cover a contiguous range; classes {missing} absent")

    mask_path = root / "mask.csv"
    if mask_path.exists():
        mask = load_mask(mask_path)
    else:
        mask = np.ones((views[0].shape[0], len(views)), dtype=bool)
    return MultiViewDataset(views, labels, mask, class_count)


def load_mask(path) -> np.ndarray:
    """A headerless 0/1 CSV of observed (sample, view) slots, as a boolean array."""
    path = Path(path)
    raw = _read_csv_matrix(path)
    if not np.all(np.isin(raw, (0.0, 1.0))):
        raise ValueError(f"{path.name} entries must be 0 or 1")
    return raw.astype(bool)


def _read_csv_matrix(path: Path) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # numpy's warning of a file without rows
        try:
            return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except UserWarning as exc:
            raise ValueError(f"{path.name} holds no rows") from exc
        except ValueError as exc:
            raise ValueError(f"non-numeric cell in {path.name}: {exc}") from exc


def write_file(path, content, overwrite: bool = True) -> None:
    """Publish ``content`` (str or bytes) at ``path`` whole, with the mode a
    plain ``open()`` gives: a new ``<name>.<random>.tmp`` beside ``path`` is
    moved into place by ``os.replace``, or with ``overwrite`` false linked by
    ``os.link``, which raises ``FileExistsError`` if ``path`` exists. No
    reader sees a torn file; the temporary one is gone once the call ends."""
    tmp = Path(f"{path}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(content.encode() if isinstance(content, str) else content)
        (os.replace if overwrite else os.link)(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, payload, overwrite: bool = True) -> None:
    write_file(path, json.dumps(payload, indent=1, sort_keys=True), overwrite)


def write_csv_matrix(path, matrix, fmt: str) -> None:
    """A headerless CSV of the layout that ``load_dataset`` reads."""
    text = io.StringIO()
    np.savetxt(text, matrix, fmt=fmt, delimiter=",")
    write_file(path, text.getvalue())


@dataclass(frozen=True)
class ZScoreStats:
    """Per-view per-feature means and standard deviations fit on observed rows."""

    means: list
    stds: list

    def scales(self) -> list:
        """Divisors used by the transform; degenerate features divide by 1."""
        return [np.where(s < _DEGENERATE_STD, 1.0, s) for s in self.stds]


def zscore_fit_transform(train: MultiViewDataset):
    """Standardize per view using statistics of the observed training entries.

    Features whose (population) standard deviation falls below 1e-8 are
    only centered. Returns the transformed train set and the fitted
    statistics; ``zscore_apply`` standardizes other data with them.
    """
    means, stds = [], []
    for i, v in enumerate(train.views):
        observed = v[train.mask[:, i]]
        if observed.shape[0] == 0:
            means.append(np.zeros(v.shape[1]))
            stds.append(np.zeros(v.shape[1]))
        else:
            means.append(observed.mean(axis=0))
            stds.append(observed.std(axis=0))
    stats = ZScoreStats(means, stds)
    return zscore_apply(train, stats), stats


def zscore_apply(data: MultiViewDataset, stats: ZScoreStats) -> MultiViewDataset:
    return MultiViewDataset(_zscore_views(data.views, data.mask, stats),
                            data.labels, data.mask, data.class_count)


def _zscore_views(views: list, mask: np.ndarray, stats: ZScoreStats) -> list:
    """Standardized copies of the views, 0 in the slots that ``mask`` marks missing.

    Here test data meets the model: the view count, mask width and feature
    counts are checked against ``stats`` first. The mask column broadcasts
    over a view's rows, so a row count that disagrees with the mask reaches
    the dataset checks unchanged."""
    if len(views) != len(stats.means):
        raise ValueError(f"test data has {len(views)} views, the model {len(stats.means)}")
    if mask.shape[1] != len(views):
        raise ValueError(f"mask shape {mask.shape} != ({mask.shape[0]}, {len(views)})")
    for i, (v, mean) in enumerate(zip(views, stats.means)):
        if v.shape[1] != mean.size:
            raise ValueError(f"view {i} has {v.shape[1]} features, the model {mean.size}")
    return [np.where(mask[:, i, None], (v - mean) / scale, 0.0)
            for i, (v, mean, scale) in enumerate(zip(views, stats.means, stats.scales()))]


def generate_missing_mask(n: int, v: int, eta: float, seed: int = 0) -> np.ndarray:
    """Random availability mask with round(eta*n*v) missing slots, eta in [0, 1).

    Slots are removed one at a time by uniform draws over (sample, view),
    rejecting any draw that would leave a sample with no observed view.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    if n < 1 or v < 1:
        raise ValueError("need n >= 1 samples and v >= 1 views")
    target = int(np.rint(eta * n * v))
    if target > n * (v - 1):
        raise ValueError(
            f"infeasible missingness: {target} slots exceed n*(v-1) = {n * (v - 1)}"
        )
    mask = np.ones((n, v), dtype=bool)
    observed_per_row = np.full(n, v)
    rng = np.random.default_rng(seed)
    removed = 0
    while removed < target:
        i = int(rng.integers(n))
        j = int(rng.integers(v))
        if mask[i, j] and observed_per_row[i] >= 2:
            mask[i, j] = False
            observed_per_row[i] -= 1
            removed += 1
    return mask


def split(data: MultiViewDataset, train_fraction: float, seed: int = 0):
    """Disjoint train/test partition, stratified by label; train_fraction in (0, 1)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx = []
    for c in range(data.class_count):
        members = np.nonzero(data.labels == c)[0]
        if members.size == 0:
            continue
        if members.size < 2:
            raise ValueError(
                f"class {c} has {members.size} sample(s); stratified split needs >= 2"
            )
        take = int(round(train_fraction * members.size))
        take = min(max(take, 1), members.size - 1)
        train_idx.append(rng.permutation(members)[:take])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.setdiff1d(np.arange(data.n_samples), train_idx)
    return data.subset(train_idx), data.subset(test_idx)
