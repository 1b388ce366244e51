"""Vote-based prediction, evaluation metrics, and the stability study."""

import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from evifuse import predictor
from evifuse.dataset import MultiViewDataset, ZScoreStats, zscore_apply
from evifuse.evidential import SubjectiveOpinion, _opinion_arrays
from evifuse.fusion import _fuse_alphas
from evifuse.imputer import CompletionSet, view_draws
from evifuse.network import EvidenceNetwork
from evifuse.predictor import (
    _aurc,
    _auroc,
    _ece,
    _sampling_opinions,
    _selective_accuracy,
    _test_draws,
    _vote,
    evaluate,
    predict_sample,
    stability_experiment,
)
from evifuse.trainer import MODES, TrainConfig, TrainedModel, _softmax, _subseed, train
from conftest import make_blobs_dataset

FAST = dict(epochs=12, batch_size=32, n_samplings=4, hidden=(12,), anneal_epochs=5,
            early_stop=False)


def with_samplings(model, n):
    """The model with n test-time samplings, as evaluate's n_samplings override gives."""
    return replace(model, config=replace(model.config, n_samplings=n))


def row_opinions(model, data, i, n_samplings, seed):
    """``_sampling_opinions`` of row i alone, standardized as predict_sample has it."""
    std = zscore_apply(data.subset(np.array([i])), model.stats)
    return _sampling_opinions(model, std, _test_draws(model, std, n_samplings, seed))


@pytest.fixture(scope="module")
def fitted():
    data = make_blobs_dataset(n=90, eta=0.3, seed=61, mask_seed=62)
    model = train(data, TrainConfig(seed=3, **FAST))
    test = make_blobs_dataset(n=45, eta=0.3, seed=61, mask_seed=63)
    return model, test


class TestVote:
    def test_majority(self):
        # three samplings vote {1, 1, 2}
        b = np.array([[[0.1, 0.8, 0.1]], [[0.0, 0.9, 0.1]], [[0.1, 0.2, 0.7]]])
        labels, counts, *_ = _vote(b, np.zeros((3, 1)), np.zeros((3, 1), dtype=bool))
        assert labels[0] == 1
        assert counts[0].tolist() == [0, 2, 1]

    def test_tie_breaks_by_summed_belief(self):
        # classes 0 and 1 tie 1-1; class 0 carries more total belief
        b = np.array([[[0.6, 0.1, 0.0]], [[0.3, 0.4, 0.0]]])
        labels, counts, *_ = _vote(b, np.zeros((2, 1)), np.zeros((2, 1), dtype=bool))
        assert counts[0].tolist() == [1, 1, 0]
        assert labels[0] == 0

    def test_tie_breaks_to_lower_index_when_equal(self):
        b = np.array([[[0.5, 0.1]], [[0.1, 0.5]]])
        labels, *_ = _vote(b, np.zeros((2, 1)), np.zeros((2, 1), dtype=bool))
        assert labels[0] == 0

    def test_excluded_samplings_do_not_vote(self):
        b = np.array([[[0.9, 0.0]], [[0.0, 0.9]], [[0.0, 0.8]]])
        bad = np.array([[False], [True], [True]])
        labels, counts, *_ = _vote(b, np.zeros((3, 1)), bad)
        assert labels[0] == 0
        assert counts[0].sum() == 1

    def test_counts_match_per_class_loop(self):
        rng = np.random.default_rng(14)
        # few distinct belief values, so rows tie often
        b = rng.integers(0, 3, (9, 50, 4)) / 4.0
        bad = rng.uniform(size=(9, 50)) < 0.3
        u = rng.uniform(size=(9, 50))
        bad[:, 0] = True  # a row excluded in every sampling
        labels, counts, mean_b, mean_u = _vote(b, u, bad)
        ref = np.stack([((b.argmax(axis=-1) == c) & ~bad).sum(axis=0) for c in range(4)],
                       axis=1)
        np.testing.assert_array_equal(counts, ref)
        assert counts.dtype == np.int64 and counts[0].sum() == 0
        summed = (b * ~bad[..., None]).sum(axis=0)
        tie_scores = np.where(ref == ref.max(axis=1, keepdims=True), summed, -np.inf)
        np.testing.assert_array_equal(labels, tie_scores.argmax(axis=1))
        # the mean opinion over each row's valid samplings; vacuous for row 0
        assert mean_b.shape == (50, 4) and mean_u.shape == (50,)
        for i in range(1, 50):
            valid = ~bad[:, i]
            np.testing.assert_allclose(mean_b[i], b[valid, i].mean(axis=0), rtol=1e-15)
            np.testing.assert_allclose(mean_u[i], u[valid, i].mean(), rtol=1e-15)
        assert mean_b[0].tolist() == [0.0] * 4 and mean_u[0] == 1.0

    def test_vote_makes_no_copy_of_the_beliefs(self):
        """The valid beliefs are summed in place: no second (S, N, K) array is made."""
        rng = np.random.default_rng(15)
        b = rng.uniform(size=(30, 600, 20))
        bad = rng.uniform(size=(30, 600)) < 0.1
        u = rng.uniform(size=(30, 600))
        tracemalloc.start()
        try:
            _vote(b, u, bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * b.nbytes


class TestPredictSample:
    def test_complete_sample_unanimous(self, fitted):
        model, test = fitted
        i = int(np.nonzero(test.mask.all(axis=1))[0][0])
        res = predict_sample(with_samplings(model, 6), [v[i] for v in test.views],
                             test.mask[i], seed=0)
        assert res.vote_counts.sum() == 6
        assert res.vote_counts.max() == 6  # all samplings identical
        assert res.excluded_samplings == 0

    def test_vote_counts_sum_to_samplings(self, fitted):
        model, test = fitted
        i = int(np.nonzero(~test.mask.all(axis=1))[0][0])
        res = predict_sample(with_samplings(model, 7), [v[i] for v in test.views],
                             test.mask[i], seed=1)
        assert res.vote_counts.sum() + res.excluded_samplings == 7

    def test_label_among_sampling_votes(self, fitted):
        model, test = fitted
        for i in range(10):
            res = predict_sample(with_samplings(model, 5), [v[i] for v in test.views],
                                 test.mask[i], seed=2)
            assert res.vote_counts[res.label] > 0

    def test_single_sampling_equals_argmax(self, fitted):
        model, test = fitted
        for i in range(8):
            res = predict_sample(with_samplings(model, 1), [v[i] for v in test.views],
                                 test.mask[i], seed=3)
            all_b, _, all_bad = row_opinions(model, test, i, n_samplings=1, seed=3)
            assert not all_bad.any()
            assert res.label == int(np.argmax(all_b[0, 0]))

    def test_matches_batched_evaluation(self, fitted):
        """Per-sample prediction agrees with the batched evaluate path on every row."""
        model, test = fitted
        metrics = evaluate(model, test, seed=5)
        for i in range(test.n_samples):
            res = predict_sample(model, [v[i] for v in test.views], test.mask[i],
                                 seed=5)
            assert res.label == metrics["predictions"][i]

    def test_sampling_opinions_batch_the_valid_samplings(self, fitted):
        """The votes and mean opinion are those of the row's valid samplings."""
        model, test = fitted
        for i in range(6):
            res = predict_sample(with_samplings(model, 5), [v[i] for v in test.views],
                                 test.mask[i], seed=4)
            all_b, all_u, all_bad = row_opinions(model, test, i, n_samplings=5, seed=4)
            valid = ~all_bad[:, 0]
            beliefs, uncertainty = all_b[valid, 0], all_u[valid, 0]
            assert res.excluded_samplings == int((~valid).sum())
            np.testing.assert_array_equal(res.mean_opinion.beliefs, beliefs.mean(axis=0))
            assert res.mean_opinion.uncertainty == float(uncertainty.mean())
            np.testing.assert_array_equal(
                res.vote_counts,
                np.bincount(beliefs.argmax(axis=1), minlength=test.class_count))

    def test_mean_opinion_normalized(self, fitted):
        model, test = fitted
        res = predict_sample(model, [v[0] for v in test.views], test.mask[0], seed=0)
        total = res.mean_opinion.beliefs.sum() + res.mean_opinion.uncertainty
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_builds_one_dataset(self, fitted, monkeypatch):
        model, test = fitted
        built = []
        check = MultiViewDataset.__post_init__
        monkeypatch.setattr(MultiViewDataset, "__post_init__",
                            lambda self: built.append(check(self)))
        i = int(np.nonzero(~test.mask.all(axis=1))[0][0])
        predict_sample(model, [v[i] for v in test.views], test.mask[i], seed=0)
        assert len(built) == 1

    def test_builds_one_opinion(self, fitted, monkeypatch):
        """Only the mean opinion is built, for a complete row and an incomplete one."""
        model, test = fitted
        built = []
        check = SubjectiveOpinion.__post_init__
        monkeypatch.setattr(SubjectiveOpinion, "__post_init__",
                            lambda self: built.append(check(self)))
        complete = test.mask.all(axis=1)
        for i in (int(np.nonzero(complete)[0][0]), int(np.nonzero(~complete)[0][0])):
            before = len(built)
            predict_sample(model, [v[i] for v in test.views], test.mask[i], seed=0)
            assert len(built) - before == 1

    def test_non_finite_observed_entry_rejected(self, fitted):
        model, test = fitted
        views = [v[0].copy() for v in test.views]
        views[1][-1] = np.inf
        with pytest.raises(ValueError, match="non-finite observed entries in view 1"):
            predict_sample(model, views, [True, True], seed=0)
        # a missing view's placeholder is never read
        views[0][0] = np.nan
        predict_sample(model, [views[0], test.views[1][0]], [False, True], seed=0)

    def test_wrong_row_count_rejected(self, fitted):
        model, test = fitted
        views = [np.vstack([v[0], v[0]]) for v in test.views]
        with pytest.raises(ValueError, match="labels length 1 != row count 2"):
            predict_sample(model, views, [True, True], seed=0)
        with pytest.raises(ValueError, match="view 1 has 1 rows, expected 2"):
            predict_sample(model, [views[0], test.views[1][0]], [True, True], seed=0)

    def test_row_without_observed_view_rejected(self, fitted):
        model, test = fitted
        with pytest.raises(ValueError, match="sample with zero observed views"):
            predict_sample(model, [v[0] for v in test.views], [False, False], seed=0)

    @pytest.mark.parametrize("mask_row", [[True], [True, True, True]])
    def test_mask_of_wrong_length_rejected(self, fitted, mask_row):
        model, test = fitted
        with pytest.raises(ValueError, match=r"mask shape \(1, \d\) != \(1, 2\)"):
            predict_sample(model, [v[0] for v in test.views], mask_row, seed=0)

    def test_fewer_views_than_model_rejected(self, fitted):
        model, test = fitted
        with pytest.raises(ValueError, match="test data has 1 views, the model 2"):
            predict_sample(model, [test.views[0][0]], [True], seed=0)

    @pytest.mark.parametrize("mask_row", [[True, True], [True, False], [False, True]])
    def test_view_one_feature_short_rejected(self, fitted, mask_row):
        """Checked before any arithmetic, also where the short view is missing."""
        model, test = fitted
        views = [test.views[0][0][:-1], test.views[1][0]]
        with pytest.raises(ValueError, match="^view 0 has 2 features, the model 3$"):
            predict_sample(model, views, mask_row, seed=0)


def first_view_only(data):
    """The data's first view alone, every row observing it."""
    return MultiViewDataset([data.views[0]], data.labels,
                            np.ones((data.n_samples, 1), dtype=bool), data.class_count)


def first_view_one_feature_short(data):
    """The data with the last feature of view 0 dropped."""
    return MultiViewDataset([data.views[0][:, :-1], *data.views[1:]], data.labels,
                            data.mask, data.class_count)


class TestEvaluate:
    def test_fewer_views_than_model_rejected(self, fitted):
        model, test = fitted
        with pytest.raises(ValueError, match="test data has 1 views, the model 2"):
            evaluate(model, first_view_only(test), seed=0)

    def test_view_one_feature_short_rejected(self, fitted):
        model, test = fitted
        with pytest.raises(ValueError, match="^view 0 has 2 features, the model 3$"):
            evaluate(model, first_view_one_feature_short(test), seed=0)

    def test_empty_test_set_rejected(self, fitted):
        model, test = fitted
        with pytest.raises(ValueError, match="test set has no rows"):
            evaluate(model, test.subset(np.array([], dtype=int)), seed=0)

    def test_label_the_model_cannot_predict_rejected(self, fitted):
        model, _ = fitted
        four_classes = make_blobs_dataset(n=40, class_count=4, eta=0.3, seed=64)
        assert four_classes.labels.max() == 3
        with pytest.raises(ValueError, match="^test label 3 is outside the model's 3 classes$"):
            evaluate(model, four_classes, seed=0)
        with pytest.raises(ValueError, match="^test label 3 is outside the model's 3 classes$"):
            stability_experiment(model, four_classes, n_repeats=2, seed=0)

    def test_test_set_without_the_top_class_accepted(self, fitted):
        """A split may lack the model's top class, as a set that counts fewer classes."""
        model, test = fitted
        rows = np.nonzero(test.labels != 2)[0]
        two_classes = MultiViewDataset([v[rows] for v in test.views], test.labels[rows],
                                       test.mask[rows], 2)
        metrics = evaluate(model, two_classes, seed=0)
        assert metrics["n_test"] == rows.size
        assert len(metrics["per_class_accuracy"]) == 2

    def test_perfect_prediction_upper_bound(self, fitted):
        model, _ = fitted
        easy = make_blobs_dataset(n=30, eta=0.0, seed=61)
        metrics = evaluate(model, easy, seed=0)
        assert metrics["accuracy"] == 1.0

    def test_empty_groups_report_null(self, fitted):
        """No wrong prediction and an absent class: their entries are JSON null."""
        model, _ = fitted
        easy = make_blobs_dataset(n=30, eta=0.0, seed=61)
        easy = easy.subset(np.nonzero(easy.labels != 2)[0])
        metrics = evaluate(model, easy, seed=0)
        assert metrics["accuracy"] == 1.0
        assert metrics["mean_uncertainty_incorrect"] is None
        assert metrics["per_class_accuracy"][2] is None
        assert metrics["mean_uncertainty_correct"] is not None
        json.dumps(metrics, allow_nan=False)

    def test_deterministic(self, fitted):
        model, test = fitted
        m1 = evaluate(model, test, seed=11)
        m2 = evaluate(model, test, seed=11)
        assert m1 == m2

    def test_permutation_invariant(self, fitted):
        """Reordering the test set permutes predictions without changing them."""
        model, test = fitted
        perm = np.random.default_rng(0).permutation(test.n_samples)
        shuffled = test.subset(perm)
        m1 = evaluate(model, test, seed=13)
        m2 = evaluate(model, shuffled, seed=13)
        assert m1["accuracy"] == m2["accuracy"]
        assert [m1["predictions"][i] for i in perm] == m2["predictions"]

    def test_per_class_accuracy_shape(self, fitted):
        model, test = fitted
        metrics = evaluate(model, test, seed=0)
        assert len(metrics["per_class_accuracy"]) == test.class_count
        overall = np.nansum([
            a * (test.labels == c).sum()
            for c, a in enumerate(metrics["per_class_accuracy"])
        ]) / test.n_samples
        assert overall == pytest.approx(metrics["accuracy"])

    @pytest.mark.parametrize("mode", MODES)
    def test_samplings_override_below_one_rejected(self, fitted, mode):
        """Every mode checks the override, also those that take one completion."""
        _, test = fitted
        data = make_blobs_dataset(n=60, eta=0.3, seed=61, mask_seed=62)
        model = train(data, TrainConfig(seed=3, mode=mode, **dict(FAST, epochs=1)))
        for count in (0, -3):
            with pytest.raises(ValueError, match="n_samplings must be >= 1"):
                evaluate(model, test, n_samplings=count, seed=0)
            with pytest.raises(ValueError, match="n_samplings must be >= 1"):
                stability_experiment(model, test, n_repeats=2, n_samplings=count, seed=0)

    def test_vote_counts_rowwise_sum(self, fitted):
        model, test = fitted
        metrics = evaluate(model, test, seed=0)
        counts = np.asarray(metrics["vote_counts"])
        expected = metrics["n_samplings"] * np.ones(test.n_samples)
        complete = test.mask.all(axis=1)
        # counts sum to n_samplings minus exclusions (none here)
        np.testing.assert_array_equal(counts.sum(axis=1), expected)
        assert complete.shape == (test.n_samples,)


    def test_mean_uncertainty_by_missing_views(self):
        """The mean u of the rows missing 0, 1 and 2 of 3 views; None for an empty group."""
        view_dims = (3, 2, 2)
        data = make_blobs_dataset(n=90, view_dims=view_dims, eta=0.5, seed=61, mask_seed=62)
        model = train(data, TrainConfig(seed=3, **dict(FAST, epochs=2)))
        test = make_blobs_dataset(n=60, view_dims=view_dims, eta=0.5, seed=61, mask_seed=64)
        n_missing = len(view_dims) - test.mask.sum(axis=1)
        assert set(n_missing.tolist()) == {0, 1, 2}
        std = zscore_apply(test, model.stats)
        u = _vote(*_sampling_opinions(model, std, _test_draws(model, std, seed=5)))[3]
        metrics = evaluate(model, test, seed=5)
        assert metrics["mean_uncertainty_by_missing"] == [float(u[n_missing == j].mean())
                                                          for j in range(3)]
        complete = evaluate(model, test.subset(np.nonzero(n_missing == 0)[0]), seed=5)
        assert complete["mean_uncertainty_by_missing"][1:] == [None, None]
        json.dumps(complete, allow_nan=False)

    def test_selective_accuracy_ends_at_the_accuracy(self, fitted):
        model, test = fitted
        metrics = evaluate(model, test, seed=0)
        assert set(metrics["selective_accuracy"]) == {"u", "projected", "disagreement"}
        for accuracies in metrics["selective_accuracy"].values():
            assert len(accuracies) == len(predictor._COVERAGES)
            assert accuracies[-1] == metrics["accuracy"]


class TestErrorRanking:
    """AUROC, AURC and ECE on cases worked by hand."""

    WRONG = np.array([False, False, True, True])

    def test_auroc_ranks_wrong_rows_above_right_ones(self):
        assert _auroc(np.array([0.1, 0.2, 0.3, 0.4]), self.WRONG) == 1.0
        assert _auroc(np.array([0.4, 0.3, 0.2, 0.1]), self.WRONG) == 0.0
        assert _auroc(np.zeros(4), self.WRONG) == 0.5
        # one wrong-right pair of four ties: (3 + 0.5) / 4
        assert _auroc(np.array([0.1, 0.3, 0.3, 0.4]), self.WRONG) == 0.875
        assert _auroc(np.arange(4.0), np.zeros(4, dtype=bool)) is None
        assert _auroc(np.arange(4.0), np.ones(4, dtype=bool)) is None

    def test_aurc_admits_tied_rows_together(self):
        score, wrong = np.array([0.1, 0.1, 0.2, 0.3]), np.array([False, True, False, True])
        # risks 1/2 (two rows enter at once), 1/3 and 2/4, weighted by rows entering
        assert _aurc(score, wrong) == pytest.approx((2 * 1 / 2 + 1 / 3 + 2 / 4) / 4, rel=1e-15)
        assert _aurc(score[::-1], wrong[::-1]) == _aurc(score, wrong)
        assert _aurc(np.zeros(4), wrong) == 0.5  # a constant score gives the error rate
        assert _aurc(np.array([0.1, 0.2, 0.3, 0.4]), self.WRONG) == pytest.approx(
            (0 + 0 + 1 / 3 + 2 / 4) / 4, rel=1e-15)

    def test_selective_accuracy_admits_tied_rows_together(self):
        score = np.array([0.1, 0.2, 0.2, 0.2, 0.3])
        correct = np.array([True, False, True, True, False])
        # 50 % (2.5 rows) and 80 % (4 rows) are first reached as the three tied rows enter
        assert _selective_accuracy(score, correct) == [3 / 4, 3 / 4, 3 / 5]
        # no ties: the first 5, 8 and 10 rows, of which 4, 6 and 7 are right
        assert _selective_accuracy(np.arange(10.0), np.arange(10) % 3 != 2) == [0.8, 0.75, 0.7]
        # a constant score admits every row at once
        assert _selective_accuracy(np.zeros(5), correct) == [3 / 5] * 3

    def test_ece_bins_confidence_in_fifteenths(self):
        confidence = np.array([0.95, 0.95, 0.3, 1.0])
        correct = np.array([True, False, False, True])
        # bin 14 holds 0.95, 0.95 and 1.0: |2 - 2.9|; bin 4 holds 0.3: |0 - 0.3|
        assert _ece(confidence, correct) == pytest.approx((0.9 + 0.3) / 4, rel=1e-12)
        assert _ece(np.array([0.5, 0.5]), np.array([True, False])) == 0.0
        assert _ece(np.ones(3), np.ones(3, dtype=bool)) == 0.0

    def test_cross_entropy_uncertainty_ranks_nothing(self):
        """A cross-entropy mode's u is 0 on every row: all ties."""
        data = make_blobs_dataset(n=90, noise=2.5, eta=0.3, seed=61, mask_seed=62)
        model = train(data, TrainConfig(seed=3, mode="naive_ce", **dict(FAST, epochs=2)))
        test = make_blobs_dataset(n=60, noise=2.5, eta=0.3, seed=61, mask_seed=63)
        metrics = evaluate(model, test, seed=0)
        assert 0.0 < metrics["accuracy"] < 1.0
        assert metrics["auroc"]["u"] == 0.5
        assert metrics["aurc"]["u"] == pytest.approx(1.0 - metrics["accuracy"], rel=1e-12)
        for table in ("auroc", "aurc"):
            assert set(metrics[table]) == {"u", "projected", "disagreement"}
        assert 0.0 <= metrics["ece"] <= 1.0


class TestStability:
    def test_fewer_views_than_model_rejected(self, fitted):
        model, test = fitted
        with pytest.raises(ValueError, match="test data has 1 views, the model 2"):
            stability_experiment(model, first_view_only(test), n_repeats=2, seed=0)

    def test_view_one_feature_short_rejected(self, fitted):
        model, test = fitted
        with pytest.raises(ValueError, match="^view 0 has 2 features, the model 3$"):
            stability_experiment(model, first_view_one_feature_short(test), n_repeats=2,
                                 seed=0)

    def test_empty_test_set_rejected(self, fitted):
        model, test = fitted
        with pytest.raises(ValueError, match="test set has no rows"):
            stability_experiment(model, test.subset(np.array([], dtype=int)), n_repeats=2,
                                 seed=0)

    def test_complete_data_fully_consistent(self, fitted):
        model, _ = fitted
        easy = make_blobs_dataset(n=25, eta=0.0, seed=61)
        report = stability_experiment(model, easy, n_repeats=5, seed=0)
        assert report["consistent_fraction"] == 1.0

    def test_single_repeat_trivially_consistent(self, fitted):
        model, test = fitted
        report = stability_experiment(model, test, n_repeats=1, seed=0)
        assert report["consistent_fraction"] == 1.0

    def test_repeats_reseed_completions(self, fitted):
        model, test = fitted
        report = stability_experiment(model, test, n_repeats=4, seed=0)
        labels = np.asarray(report["repeat_labels"])
        assert labels.shape == (4, test.n_samples)
        flags = np.asarray(report["per_sample_consistent"])
        np.testing.assert_array_equal(flags, (labels == labels[0]).all(axis=0))

    def test_repeat_labels_are_evaluate_predictions(self, fitted):
        """Repeat r votes as evaluate does under the repeat's seed."""
        model, test = fitted
        report = stability_experiment(model, test, n_repeats=3, seed=5)
        for r, labels in enumerate(report["repeat_labels"]):
            assert labels == evaluate(model, test, seed=_subseed(5, r))["predictions"]

    def test_invalid_repeats(self, fitted):
        model, test = fitted
        with pytest.raises(ValueError):
            stability_experiment(model, test, n_repeats=0)


def per_sampling_opinions(model, completions):
    """Every network on every row of every materialized completion, fused as training
    fuses, with non-finite fused evidence excluded as the vacuous opinion."""
    all_b, all_u, all_bad = [], [], []
    rows = np.arange(completions.data.n_samples)
    for s in range(completions.n_samplings):
        views = completions.gather(rows, np.full(rows.size, s))
        if model.config.uses_evidence:
            with np.errstate(over="ignore"):
                fused = _fuse_alphas([net.forward(x) + 1.0
                                      for net, x in zip(model.networks, views)])[0]
                bad = ~np.isfinite(fused.sum(axis=-1))
            fused[bad] = 1.0
            b, u = _opinion_arrays(fused)
        else:
            b = np.mean([_softmax(net.forward_logits(x))
                         for net, x in zip(model.networks, views)], axis=0)
            u, bad = np.zeros(len(b)), np.zeros(len(b), dtype=bool)
        all_b.append(b)
        all_u.append(u)
        all_bad.append(bad)
    return np.array(all_b), np.array(all_u), np.array(all_bad)


def far_model(mode, evidence=1e14, huge_classes=(0, 1)):
    """Two 2-feature views, 3 classes; a first feature above 5 gives evidence
    of about ``evidence`` for class ``huge_classes[v]`` in view v."""
    networks = []
    for seed, huge_class in enumerate(huge_classes):
        net = EvidenceNetwork([2, 2, 3], seed=seed)
        net.weights[0] = np.eye(2)
        net.biases[0] = np.array([-5.0, 0.0])  # hidden = relu(x0 - 5), relu(x1)
        net.weights[1] = np.array([[0.0, 0.0, 0.0], [0.7, -0.4, 0.2]])
        net.weights[1][0, huge_class] = evidence
        net.biases[1] = np.array([0.3, 0.1, -0.2])
        networks.append(net)
    return TrainedModel(networks=networks, stats=None, config=TrainConfig(mode=mode),
                        loss_history=[], train_pool=None)


def far_completions():
    """Data and its label-free completions from its own rows; row 0 is complete
    and has both views far out."""
    rng = np.random.default_rng(12)
    views = [rng.uniform(-1.0, 1.0, (40, 2)) for _ in range(2)]
    views[0][0, 0] = views[1][0, 0] = 6.0
    mask = rng.uniform(size=(40, 2)) > 0.3
    mask[~mask.any(axis=1), 0] = True
    mask[0] = True
    data = MultiViewDataset(views, rng.integers(0, 3, 40), mask, 3)
    return data, CompletionSet(data, [view_draws(data, m, k=4, n_samplings=7, seed=1,
                                                 reference=data) for m in range(2)])


def far_predictor(evidence, huge_classes, n_samplings):
    """``far_model`` in uimc mode that evaluate and predict_sample can run: identity
    standardization, the completed data as its neighbor pool."""
    data, _ = far_completions()
    identity = ZScoreStats([np.zeros(2)] * 2, [np.ones(2)] * 2)
    model = replace(far_model("uimc", evidence, huge_classes), stats=identity,
                    train_pool=data.with_mask(np.ones((40, 2), dtype=bool)))
    return with_samplings(model, n_samplings)


class TestObservedOnce:
    @pytest.mark.parametrize("mode", ["uimc", "naive_ce"])
    # 40 rows, at most 13 imputed per view: 1, 2, 7 and 7 samplings per
    # forward call on the draws
    @pytest.mark.parametrize("forward_rows", [5, 30, 100, 4096])
    def test_matches_per_sampling_loop(self, mode, forward_rows, monkeypatch):
        monkeypatch.setattr(predictor, "_FORWARD_ROWS", forward_rows)
        model, (data, completions) = far_model(mode), far_completions()
        all_b, all_u, all_bad = _sampling_opinions(model, data, completions.draws)
        ref_b, ref_u, ref_bad = per_sampling_opinions(model, completions)
        np.testing.assert_allclose(all_b, ref_b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(all_u, ref_u, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(all_bad, ref_bad)
        labels, counts, *_ = _vote(all_b, all_u, all_bad)
        ref_labels, ref_counts, *_ = _vote(ref_b, ref_u, ref_bad)
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(counts, ref_counts)
        if mode == "uimc":
            # row 0's opposed 1e14 evidence fuses finite: it votes in every sampling
            assert not all_bad.any()
            assert counts[0].sum() == completions.n_samplings
            np.testing.assert_allclose(all_b.sum(axis=-1) + all_u, 1.0, atol=1e-12)

    def test_far_out_sample_votes_alike_in_evaluate_and_predict_sample(self):
        """Evidence of about 1e14 for class 0 in view 0 and class 1 in view 1 fuses to
        a finite, normalized opinion that votes, the same way in both paths."""
        model = far_predictor(1e14, (0, 1), n_samplings=5)
        data, _ = far_completions()
        metrics = evaluate(model, data, seed=0)
        res = predict_sample(model, [v[0] for v in data.views], data.mask[0], seed=0)
        assert metrics["excluded_samplings"] == 0 and res.excluded_samplings == 0
        assert res.label in (0, 1) and res.label == metrics["predictions"][0]
        assert res.vote_counts.tolist() == metrics["vote_counts"][0]
        assert res.vote_counts.sum() == 5
        all_b, _, all_bad = row_opinions(model, data, 0, n_samplings=5, seed=0)
        assert all_b.shape == (5, 1, 3) and not all_bad.any()
        # the belief splits between classes 0 and 1, at almost no uncertainty
        assert res.mean_opinion.beliefs[:2].min() > 0.4
        assert res.mean_opinion.beliefs[2] < 1e-12 and res.mean_opinion.uncertainty < 1e-12

    def test_sample_with_overflowing_evidence_gives_empty_batch(self):
        """Evidence of about 1e200 for class 0 in both views overflows the fused
        product: every sampling of the row is excluded and counted."""
        model = far_predictor(1e200, (0, 0), n_samplings=5)
        row = [np.array([6.0, 0.0])] * 2
        res = predict_sample(model, row, [True, True])
        one_row = MultiViewDataset([r[None] for r in row], [0], np.ones((1, 2), dtype=bool), 3)
        assert row_opinions(model, one_row, 0, n_samplings=5, seed=0)[2].all()
        assert res.excluded_samplings == 5 and res.vote_counts.tolist() == [0, 0, 0]
        np.testing.assert_array_equal(res.mean_opinion.beliefs, np.zeros(3))
        assert res.mean_opinion.uncertainty == 1.0
        data, _ = far_completions()
        metrics = evaluate(model, data, seed=0)
        assert metrics["excluded_samplings"] == 5
        assert metrics["vote_counts"][0] == [0, 0, 0]

    def test_no_valid_sampling_counts_as_vacuous_uncertainty(self):
        """Four complete rows whose fused evidence overflows in every sampling: each
        row counts at uncertainty 1, the vacuous opinion; an empty group reads null."""
        model = far_predictor(1e200, (0, 0), n_samplings=3)
        views = [np.tile([6.0, 0.0], (4, 1))] * 2
        data = MultiViewDataset(views, [0, 1, 2, 0], np.ones((4, 2), dtype=bool), 3)
        metrics = evaluate(model, data, seed=0)
        assert metrics["excluded_samplings"] == 12
        assert metrics["predictions"] == [0, 0, 0, 0]
        assert metrics["mean_uncertainty"] == 1.0
        assert metrics["mean_uncertainty_correct"] == 1.0
        assert metrics["mean_uncertainty_incorrect"] == 1.0
        json.dumps(metrics, allow_nan=False)
        all_correct = evaluate(model, data.subset(np.array([0, 3])), seed=0)
        assert all_correct["mean_uncertainty_correct"] == 1.0
        assert all_correct["mean_uncertainty_incorrect"] is None

    def test_evaluate_and_predict_sample_agree_on_a_row_without_valid_sampling(self, fitted):
        model = far_predictor(1e200, (0, 0), n_samplings=3)
        row = [np.array([6.0, 0.0])] * 2
        data = MultiViewDataset([r[None] for r in row], [0], np.ones((1, 2), dtype=bool), 3)
        res = predict_sample(model, row, [True, True], seed=0)
        assert res.excluded_samplings == 3
        assert evaluate(model, data, seed=0)["mean_uncertainty"] == res.mean_opinion.uncertainty
        # and on ordinary rows: a one-row evaluate reads what predict_sample reads
        model, test = fitted
        for i in range(test.n_samples):
            metrics = evaluate(model, test.subset(np.array([i])), seed=7)
            res = predict_sample(model, [v[i] for v in test.views], test.mask[i], seed=7)
            assert metrics["predictions"] == [res.label]
            assert metrics["vote_counts"] == [res.vote_counts.tolist()]
            assert metrics["mean_uncertainty"] == res.mean_opinion.uncertainty

    def test_each_input_runs_once(self, monkeypatch):
        model, (data, completions) = far_model("uimc"), far_completions()
        rows = []
        forward = EvidenceNetwork.forward

        def counting_forward(self, x, **kwargs):
            rows.append(len(x))
            return forward(self, x, **kwargs)

        monkeypatch.setattr(EvidenceNetwork, "forward", counting_forward)
        _sampling_opinions(model, data, completions.draws)
        imputed = int((~data.mask).sum())
        assert imputed and completions.n_samplings == 7
        assert sum(rows) == 2 * data.n_samples + completions.n_samplings * imputed


    @pytest.mark.parametrize("mode", ["uimc", "naive_ce"])
    def test_no_head_runs_on_a_view_no_row_observes(self, mode, monkeypatch):
        """Every row draws view 1: its head runs on the draws alone, and the
        opinions are those of every head on every row of every completion."""
        model, (pool, _) = far_model(mode), far_completions()
        n = pool.n_samples
        data = pool.with_mask(np.tile([True, False], (n, 1)))  # every row misses view 1
        completions = CompletionSet(data, [view_draws(data, m, k=4, n_samplings=7, seed=1,
                                                      reference=pool) for m in range(2)])
        # one sampling per forward call on the draws, as the reference loop runs them
        monkeypatch.setattr(predictor, "_FORWARD_ROWS", n)
        ref = per_sampling_opinions(model, completions)
        rows = []
        linear = EvidenceNetwork._forward_linear

        def counting_linear(self, x):
            rows.append(len(x))
            return linear(self, x)

        monkeypatch.setattr(EvidenceNetwork, "_forward_linear", counting_linear)
        got = _sampling_opinions(model, data, completions.draws)
        assert rows == [n] + [n] * completions.n_samplings  # view 0 once, then view 1's draws
        for array, expected in zip(got, ref):
            np.testing.assert_array_equal(array, expected)


class TestStream:
    """Test-time completion holds one view's draws at a time."""

    def test_each_view_is_let_go_before_the_next_is_drawn(self, monkeypatch):
        dims = (3, 2, 4)
        train_set = make_blobs_dataset(n=90, view_dims=dims, eta=0.4, seed=71, mask_seed=72)
        test = make_blobs_dataset(n=60, view_dims=dims, eta=0.4, seed=71, mask_seed=73)
        model = train(train_set, TrainConfig(seed=5, **FAST))
        held, alive_at_call = [], []
        draw = predictor.view_draws

        def watched(data, m, *args, **kwargs):
            alive_at_call.append([ref() is not None for ref in held])
            out = draw(data, m, *args, **kwargs)
            held.append(weakref.ref(out))
            return out

        monkeypatch.setattr(predictor, "view_draws", watched)
        evaluate(model, test, seed=0)
        assert alive_at_call == [[], [False], [False, False]]

    def test_evaluate_peak_stays_below_the_draws(self):
        dims = (120,) * 6
        train_set = make_blobs_dataset(n=600, view_dims=dims, eta=0.5, seed=81, mask_seed=82)
        test = make_blobs_dataset(n=600, view_dims=dims, eta=0.5, seed=81, mask_seed=83)
        cfg = TrainConfig(epochs=1, hidden=(16,), early_stop=False, seed=1)
        model = train(train_set, cfg)
        draw_bytes = int((~test.mask).sum()) * cfg.n_samplings * 120 * 8
        tracemalloc.start()
        try:
            evaluate(model, test, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * draw_bytes

    def test_evaluate_peak_stays_below_three_opinion_arrays(self):
        """Many views and classes: each view's head outputs fold into one (S, N, K)
        product as they are made, so no per-view copy of the opinions is held."""
        dims = (4,) * 6
        train_set = make_blobs_dataset(n=600, class_count=20, view_dims=dims, eta=0.5,
                                       seed=91, mask_seed=92)
        test = make_blobs_dataset(n=600, class_count=20, view_dims=dims, eta=0.5,
                                  seed=91, mask_seed=93)
        cfg = TrainConfig(epochs=1, hidden=(16,), early_stop=False, seed=1, n_samplings=30)
        model = train(train_set, cfg)
        opinion_bytes = cfg.n_samplings * test.n_samples * test.class_count * 8
        tracemalloc.start()
        try:
            evaluate(model, test, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * opinion_bytes
