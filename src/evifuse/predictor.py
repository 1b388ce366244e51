"""Test-time completion, fusion, vote-based prediction, and evaluation.

Every incomplete test sample is completed multiple times (neighbors come
from the training pool, label-free), each completion is classified by
fusing the per-view opinions, and the final label is the most frequent
per-completion prediction. Ties break toward the class with the larger
belief mass summed over completions, then toward the lower class index.
Reported uncertainty is the fused uncertainty mass averaged over
completions. Samplings whose fusion collapses in total conflict are
excluded from the vote and counted separately.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from evifuse.dataset import MultiViewDataset, _zscore_views, zscore_apply
from evifuse.evidential import SubjectiveOpinion, _opinion_arrays
from evifuse.fusion import _fold_with_exclusions
from evifuse.imputer import CompletionSet
from evifuse.trainer import TrainedModel, _softmax, _subseed, build_completions

_SEED_TEST_IMPUTE = 201
# Rows per forward call on the draws and per fold: bounds the activations
# and opinion arrays of a chunk of samplings. With OpenBLAS, a forward call
# on fewer than ~800 rows may round the last bit differently from one on
# all rows; at ~600 imputed rows per view, 2048 rows (3 samplings) a call
# kept evaluate() output bit-equal to the per-sampling forward.
_FORWARD_ROWS = 2048


@dataclass(frozen=True)
class PredictionResult:
    """Voted prediction for one sample.

    label: the voted class.
    vote_counts: (K,) votes per class over the valid samplings.
    mean_opinion: fused opinion averaged over the valid samplings; vacuous
        (zero beliefs, uncertainty 1) when every sampling was excluded.
    sampling_opinions: one batched opinion of the S_valid valid samplings
        in sampling order, with ``beliefs`` (S_valid, K) and
        ``uncertainty`` (S_valid,); sampling s of them is
        ``beliefs[s]``, ``uncertainty[s]``.
    excluded_samplings: samplings left out for total conflict, S - S_valid.
    """

    label: int
    vote_counts: np.ndarray
    mean_opinion: SubjectiveOpinion
    sampling_opinions: SubjectiveOpinion
    excluded_samplings: int


def _sampling_opinions(model: TrainedModel, completions: CompletionSet):
    """Fused (beliefs, uncertainty, invalid) per sampling: (S, N, K), (S, N), (S, N).

    Observed inputs are the same in every sampling, so each view's network
    runs once on all rows and then only on the imputed draws, a chunk of
    whole samplings at a time. A chunk's opinions are folded a few
    samplings at a time, so neither step holds more than about
    ``_FORWARD_ROWS`` rows.
    """
    s_count = completions.n_samplings
    n = completions.n_samples
    k = model.class_count
    heads = [net.forward if model.uses_evidence else net.forward_logits
             for net in model.networks]
    shared = [head(x) for head, x in zip(heads, completions.views)]
    widest = max(rows.size for rows in completions.imputed_rows)
    per_forward = max(1, _FORWARD_ROWS // max(widest, 1))
    per_fold = max(1, _FORWARD_ROWS // max(n, 1))
    all_b = np.empty((s_count, n, k))
    all_u = np.zeros((s_count, n))
    all_bad = np.zeros((s_count, n), dtype=bool)
    for first in range(0, s_count, per_forward):
        last = min(first + per_forward, s_count)
        drawn = [head(draws[:, first:last].transpose(1, 0, 2).reshape(-1, draws.shape[-1]))
                 .reshape(last - first, rows.size, k) if rows.size else None
                 for head, rows, draws in zip(heads, completions.imputed_rows,
                                              completions.draws)]
        for start in range(first, last, per_fold):
            part = slice(start, min(start + per_fold, last))
            outs = []
            for out, rows, new in zip(shared, completions.imputed_rows, drawn):
                full = np.broadcast_to(out, (part.stop - start, n, k)).copy()
                if rows.size:
                    full[:, rows] = new[start - first:part.stop - first]
                outs.append(full)
            if model.uses_evidence:
                bs, us = zip(*(_opinion_arrays(e + 1.0) for e in outs))
                all_b[part], all_u[part], all_bad[part], _ = _fold_with_exclusions(
                    list(bs), list(us))
            else:
                all_b[part] = np.mean([_softmax(logits) for logits in outs], axis=0)
    return all_b, all_u, all_bad


def _vote(all_b: np.ndarray, all_bad: np.ndarray):
    """Majority vote per sample over valid samplings.

    Returns (labels, vote_counts) with counts of shape (N, K); ties break
    by the larger belief mass summed over valid samplings, then by the
    lower class index.
    """
    n, k = all_b.shape[1:]
    sampling_labels = all_b.argmax(axis=-1)
    valid = ~all_bad
    # one bin per (row, class): exact integer counts of the valid votes
    cells = np.arange(n) * k + sampling_labels
    counts = np.bincount(cells[valid], minlength=n * k).reshape(n, k)
    summed_belief = (all_b * valid[..., None]).sum(axis=0)
    top = counts.max(axis=1, keepdims=True)
    tied = counts == top
    # rank ties by summed belief; zero out non-tied classes first
    tie_scores = np.where(tied, summed_belief, -np.inf)
    labels = tie_scores.argmax(axis=1)
    return labels, counts


def complete_test_data(model: TrainedModel, std: MultiViewDataset,
                       n_samplings: int | None = None, seed: int = 0) -> CompletionSet:
    """Complete a standardized test set against the model's training pool."""
    if std.n_views != len(model.networks):
        raise ValueError(f"test data has {std.n_views} views, the model "
                         f"{len(model.networks)}")
    cfg = model.config
    if n_samplings is not None and cfg.mode in ("uimc", "naive_ce"):
        cfg = replace(cfg, n_samplings=int(n_samplings))
    return build_completions(
        std, cfg, reference=model.train_pool, use_labels=False,
        seed=_subseed(seed, _SEED_TEST_IMPUTE),
    )


def predict_sample(model: TrainedModel, views, mask_row,
                   n_samplings: int | None = None, seed: int = 0) -> PredictionResult:
    """Classify a single (possibly incomplete) raw sample."""
    mask = np.asarray(mask_row, dtype=bool).reshape(1, -1)
    raw = [np.atleast_2d(np.asarray(v, dtype=np.float64)) for v in views]
    if mask.shape[1] != len(raw):
        raise ValueError(f"mask shape {mask.shape} != (1, {len(raw)})")
    # standardized before the one dataset is built, which then checks the row
    std = MultiViewDataset(_zscore_views(raw, mask, model.stats),
                           np.zeros(1, dtype=np.int64), mask, model.class_count)
    completions = complete_test_data(model, std, n_samplings=n_samplings, seed=seed)
    all_b, all_u, all_bad = _sampling_opinions(model, completions)
    labels, counts = _vote(all_b, all_bad)
    valid = ~all_bad[:, 0]
    if valid.any():
        mean_b = all_b[valid, 0].mean(axis=0)
        mean_u = float(all_u[valid, 0].mean())
    else:
        mean_b = np.zeros(model.class_count)
        mean_u = 1.0
    return PredictionResult(
        label=int(labels[0]),
        vote_counts=counts[0],
        mean_opinion=SubjectiveOpinion(mean_b, mean_u),
        sampling_opinions=SubjectiveOpinion(all_b[valid, 0], all_u[valid, 0]),
        excluded_samplings=int((~valid).sum()),
    )


def evaluate(model: TrainedModel, test: MultiViewDataset,
             n_samplings: int | None = None, seed: int = 0) -> dict:
    """Accuracy and uncertainty metrics of voted predictions on a test set."""
    completions = complete_test_data(model, zscore_apply(test, model.stats),
                                     n_samplings=n_samplings, seed=seed)
    all_b, all_u, all_bad = _sampling_opinions(model, completions)
    labels, counts = _vote(all_b, all_bad)
    valid = ~all_bad
    any_valid = valid.any(axis=0)
    mean_u = np.full(test.n_samples, np.nan)
    mean_u[any_valid] = (
        (all_u * valid).sum(axis=0)[any_valid] / valid.sum(axis=0)[any_valid]
    )
    correct = labels == test.labels
    per_class = []
    for c in range(test.class_count):
        members = test.labels == c
        per_class.append(float(correct[members].mean()) if members.any() else float("nan"))

    def _mean_u(mask):
        return float(np.nanmean(mean_u[mask])) if mask.any() else float("nan")

    return {
        "accuracy": float(correct.mean()),
        "per_class_accuracy": per_class,
        "n_test": int(test.n_samples),
        "n_correct": int(correct.sum()),
        "mean_uncertainty": float(np.nanmean(mean_u)),
        "mean_uncertainty_correct": _mean_u(correct),
        "mean_uncertainty_incorrect": _mean_u(~correct),
        "excluded_samplings": int(all_bad.sum()),
        "predictions": labels.tolist(),
        "vote_counts": counts.tolist(),
        "mode": model.config.mode,
        "n_samplings": int(completions.n_samplings),
        "seed": int(seed),
    }


def stability_experiment(model: TrainedModel, test: MultiViewDataset,
                         n_repeats: int = 10, n_samplings: int | None = None,
                         seed: int = 0) -> dict:
    """Repeat prediction with fresh completion draws under a fixed mask.

    A sample counts as consistent when all repeats agree on its label.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    all_labels = np.empty((n_repeats, test.n_samples), dtype=np.int64)
    std = zscore_apply(test, model.stats)
    for r in range(n_repeats):
        completions = complete_test_data(model, std, n_samplings=n_samplings,
                                         seed=_subseed(seed, r))
        all_b, _, all_bad = _sampling_opinions(model, completions)
        all_labels[r], _ = _vote(all_b, all_bad)
    consistent = (all_labels == all_labels[0]).all(axis=0)
    return {
        "consistent_fraction": float(consistent.mean()),
        "per_sample_consistent": consistent.tolist(),
        "n_repeats": int(n_repeats),
        "class_count": int(test.class_count),
        "repeat_labels": all_labels.tolist(),
    }
