"""Test-time completion, fusion, vote-based prediction, and evaluation.

Every incomplete test sample is completed multiple times (neighbors come
from the training pool, label-free), each completion is classified by
fusing the per-view opinions, and the final label is the most frequent
per-completion prediction. Ties break toward the class with the larger
belief mass summed over completions, then toward the lower class index.
Reported uncertainty is the fused uncertainty mass averaged over
completions. Samplings whose fused evidence is not finite (it overflows,
or a head gave NaN) are excluded from the vote and counted separately.
``_vote``, the one per-row aggregation, gives a sample with no valid
sampling the vacuous opinion (zero beliefs, uncertainty 1). ``predict_sample``
and ``evaluate`` read it; ``stability_experiment`` reads through ``evaluate``.

Test-time completion is a stream, one missing view at a time:
``_test_draws`` yields view m's draws for every slot missing it, and
``_sampling_opinions`` folds head m's outputs on them into one (samplings,
rows, classes) product before it asks for view m + 1. So memory holds one
view's draws and one product, whatever the number of views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from evifuse.dataset import MultiViewDataset, _zscore_views, zscore_apply
from evifuse.evidential import SubjectiveOpinion
from evifuse.fusion import _fold_with_exclusions, _ratio
from evifuse.imputer import view_draws
from evifuse.trainer import TrainedModel, _completion_options, _softmax, _subseed

_SEED_TEST_IMPUTE = 201
# Rows per forward call on the draws: bounds the activations of a chunk of
# samplings, and nothing else. With OpenBLAS, a forward call on fewer than
# ~800 rows may round the last bit differently from one on all rows; at
# ~600 imputed rows per view, 2048 rows (3 samplings) a call kept
# evaluate() output bit-equal to the per-sampling forward.
_FORWARD_ROWS = 2048


@dataclass(frozen=True)
class PredictionResult:
    """Voted prediction for one sample: its row of what ``evaluate`` reports.

    label: the voted class.
    vote_counts: (K,) votes per class over the valid samplings.
    mean_opinion: fused opinion averaged over the valid samplings; vacuous
        (zero beliefs, uncertainty 1) when every sampling was excluded.
    excluded_samplings: samplings left out because their fused evidence
        is not finite.
    """

    label: int
    vote_counts: np.ndarray
    mean_opinion: SubjectiveOpinion
    excluded_samplings: int


def _test_draws(model: TrainedModel, std: MultiViewDataset,
                n_samplings: int | None = None, seed: int = 0):
    """Completions of a standardized test set against the model's training pool, per view.

    A generator: view m's ``view_draws`` are made only when asked for, so
    a consumer that drops them before asking for the next holds one
    view's draws at a time.
    """
    options = _completion_options(model.config, n_samplings)
    seed = _subseed(seed, _SEED_TEST_IMPUTE)
    for m in range(std.n_views):
        yield view_draws(std, m, seed=seed, reference=model.train_pool, **options)


def _sampling_opinions(model: TrainedModel, std: MultiViewDataset, draws):
    """Fused (beliefs, uncertainty, invalid) per sampling: (S, N, K), (S, N), (S, N).

    ``draws`` gives, in view order, each view's (rows missing it,
    samplings, features) completions of ``std``'s missing rows, such as
    ``_test_draws`` or a ``CompletionSet``'s ``draws``. One pass per view:
    its head runs once on the observed inputs (the same in every sampling)
    and on its draws, a chunk of whole samplings at a time, and each output
    goes straight into one (S, N, K) fold before the next view's draws are
    asked for: evidential heads multiply their pair-rule ratios into a
    product, cross-entropy heads add their softmax. A view that no row
    observes is all draws, so its head does not run on the inputs.
    """
    n = std.n_samples
    if n == 0:
        raise ValueError("test set has no rows")
    k, evidential = model.class_count, model.config.uses_evidence
    fold = np.multiply if evidential else np.add

    def head(net, x):
        return _ratio(net.forward(x) + 1.0) if evidential else _softmax(net.forward_logits(x))
    missing = ~std.mask.T
    per_forward = max(1, _FORWARD_ROWS // max(int(missing.sum(axis=1).max()), 1))
    views, acc = iter(draws), None
    # ``next`` and ``del``: a loop variable would keep view m's draws as m + 1's are made
    for net, miss, x in zip(model.networks, missing, std.views):
        view = next(views)
        acc = np.full((view.shape[1], n, k), fold.identity, dtype=float) if acc is None else acc
        if not miss.all():
            out = head(net, np.where(miss[:, None], 0.0, x))
            with np.errstate(over="ignore"):
                fold(acc, out, out=acc, where=~miss[:, None])
        for first in range(0, len(acc), per_forward) if view.shape[0] else ():
            part = slice(first, first + per_forward)
            out = head(net, view[:, part].transpose(1, 0, 2).reshape(-1, view.shape[-1]))
            with np.errstate(over="ignore"):
                acc[part, miss] = fold(acc[part, miss], out.reshape(-1, view.shape[0], k))
        del view
    if evidential:
        return _fold_with_exclusions(acc)
    acc /= len(model.networks)
    return acc, np.zeros(acc.shape[:2]), np.zeros(acc.shape[:2], dtype=bool)


def _vote(all_b: np.ndarray, all_u: np.ndarray, all_bad: np.ndarray):
    """Majority vote and mean opinion per sample over valid samplings.

    Returns (labels, vote_counts, mean_beliefs, mean_uncertainty) of
    shapes (N,), (N, K), (N, K) and (N,). Ties break by the larger belief
    mass summed over valid samplings, then by the lower class index. The
    means are over the valid samplings; a sample with none has the
    vacuous opinion, zero beliefs and uncertainty 1.
    """
    n, k = all_b.shape[1:]
    sampling_labels = all_b.argmax(axis=-1)
    valid = ~all_bad
    # one bin per (row, class): exact integer counts of the valid votes
    cells = np.arange(n) * k + sampling_labels
    counts = np.bincount(cells[valid], minlength=n * k).reshape(n, k)
    summed_belief = all_b.sum(axis=0, where=valid[..., None])
    top = counts.max(axis=1, keepdims=True)
    tied = counts == top
    # rank ties by summed belief; zero out non-tied classes first
    tie_scores = np.where(tied, summed_belief, -np.inf)
    labels = tie_scores.argmax(axis=1)
    n_valid = counts.sum(axis=1)
    divisor = np.maximum(n_valid, 1)
    mean_u = np.where(n_valid > 0, (all_u * valid).sum(axis=0) / divisor, 1.0)
    return labels, counts, summed_belief / divisor[:, None], mean_u


def predict_sample(model: TrainedModel, views, mask_row, seed: int = 0) -> PredictionResult:
    """Classify one (possibly incomplete) raw sample as ``evaluate`` classifies a row."""
    mask = np.asarray(mask_row, dtype=bool).reshape(1, -1)
    raw = [np.atleast_2d(np.asarray(v, dtype=np.float64)) for v in views]
    # standardized before the one dataset is built, which then checks the row
    std = MultiViewDataset(_zscore_views(raw, mask, model.stats),
                           np.zeros(1, dtype=np.int64), mask, model.class_count)
    all_b, all_u, all_bad = _sampling_opinions(model, std, _test_draws(model, std, seed=seed))
    labels, counts, mean_b, mean_u = _vote(all_b, all_u, all_bad)
    return PredictionResult(
        label=int(labels[0]),
        vote_counts=counts[0],
        mean_opinion=SubjectiveOpinion(mean_b[0], float(mean_u[0])),
        excluded_samplings=int(all_bad[:, 0].sum()),
    )


def evaluate(model: TrainedModel, test: MultiViewDataset,
             n_samplings: int | None = None, seed: int = 0) -> dict:
    """Accuracy and uncertainty metrics of voted predictions on a test set."""
    if np.any(test.labels >= model.class_count):
        raise ValueError(f"test label {test.labels.max()} is outside the model's "
                         f"{model.class_count} classes")
    std = zscore_apply(test, model.stats)
    all_b, all_u, all_bad = _sampling_opinions(model, std,
                                               _test_draws(model, std, n_samplings, seed))
    labels, counts, _, mean_u = _vote(all_b, all_u, all_bad)
    correct = labels == test.labels

    def _mean(values):
        """Mean of the values; None (JSON null) for an empty group."""
        return float(values.mean()) if values.size else None

    return {
        "accuracy": float(correct.mean()),
        "per_class_accuracy": [_mean(correct[test.labels == c].astype(float))
                               for c in range(test.class_count)],
        "n_test": int(test.n_samples),
        "n_correct": int(correct.sum()),
        "mean_uncertainty": float(mean_u.mean()),
        "mean_uncertainty_correct": _mean(mean_u[correct]),
        "mean_uncertainty_incorrect": _mean(mean_u[~correct]),
        "excluded_samplings": int(all_bad.sum()),
        "predictions": labels.tolist(),
        "vote_counts": counts.tolist(),
        "mode": model.config.mode,
        "n_samplings": int(all_b.shape[0]),
        "seed": int(seed),
    }


def stability_experiment(model: TrainedModel, test: MultiViewDataset,
                         n_repeats: int = 10, n_samplings: int | None = None,
                         seed: int = 0) -> dict:
    """Repeat prediction with fresh completion draws under a fixed mask.

    Repeat r is ``evaluate`` under seed ``_subseed(seed, r)``. A sample
    counts as consistent when all repeats agree on its label.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    all_labels = np.array([evaluate(model, test, n_samplings, _subseed(seed, r))["predictions"]
                           for r in range(n_repeats)], dtype=np.int64)
    consistent = (all_labels == all_labels[0]).all(axis=0)
    return {
        "consistent_fraction": float(consistent.mean()),
        "per_sample_consistent": consistent.tolist(),
        "n_repeats": int(n_repeats),
        "class_count": int(test.class_count),
        "repeat_labels": all_labels.tolist(),
    }
