"""Vote-based prediction, evaluation metrics, and the stability study."""

from dataclasses import replace

import numpy as np
import pytest

from evifuse import predictor
from evifuse.dataset import MultiViewDataset, ZScoreStats, zscore_apply
from evifuse.evidential import _opinion_arrays
from evifuse.fusion import _fold_with_exclusions
from evifuse.imputer import sample_completions
from evifuse.network import EvidenceNetwork
from evifuse.predictor import (
    _sampling_opinions,
    _vote,
    complete_test_data,
    evaluate,
    predict_sample,
    stability_experiment,
)
from evifuse.trainer import TrainConfig, TrainedModel, _softmax, train
from conftest import make_blobs_dataset

FAST = dict(epochs=12, batch_size=32, n_samplings=4, hidden=(12,), anneal_epochs=5,
            early_stop=False)


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
        labels, counts = _vote(b, np.zeros((3, 1), dtype=bool))
        assert labels[0] == 1
        assert counts[0].tolist() == [0, 2, 1]

    def test_tie_breaks_by_summed_belief(self):
        # classes 0 and 1 tie 1-1; class 0 carries more total belief
        b = np.array([[[0.6, 0.1, 0.0]], [[0.3, 0.4, 0.0]]])
        labels, counts = _vote(b, np.zeros((2, 1), dtype=bool))
        assert counts[0].tolist() == [1, 1, 0]
        assert labels[0] == 0

    def test_tie_breaks_to_lower_index_when_equal(self):
        b = np.array([[[0.5, 0.1]], [[0.1, 0.5]]])
        labels, _ = _vote(b, np.zeros((2, 1), dtype=bool))
        assert labels[0] == 0

    def test_excluded_samplings_do_not_vote(self):
        b = np.array([[[0.9, 0.0]], [[0.0, 0.9]], [[0.0, 0.8]]])
        bad = np.array([[False], [True], [True]])
        labels, counts = _vote(b, bad)
        assert labels[0] == 0
        assert counts[0].sum() == 1

    def test_counts_match_per_class_loop(self):
        rng = np.random.default_rng(14)
        # few distinct belief values, so rows tie often
        b = rng.integers(0, 3, (9, 50, 4)) / 4.0
        bad = rng.uniform(size=(9, 50)) < 0.3
        bad[:, 0] = True  # a row excluded in every sampling
        labels, counts = _vote(b, bad)
        ref = np.stack([((b.argmax(axis=-1) == c) & ~bad).sum(axis=0) for c in range(4)],
                       axis=1)
        np.testing.assert_array_equal(counts, ref)
        assert counts.dtype == np.int64 and counts[0].sum() == 0
        summed = (b * ~bad[..., None]).sum(axis=0)
        tie_scores = np.where(ref == ref.max(axis=1, keepdims=True), summed, -np.inf)
        np.testing.assert_array_equal(labels, tie_scores.argmax(axis=1))


class TestPredictSample:
    def test_complete_sample_unanimous(self, fitted):
        model, test = fitted
        i = int(np.nonzero(test.mask.all(axis=1))[0][0])
        res = predict_sample(model, [v[i] for v in test.views], test.mask[i],
                             n_samplings=6, seed=0)
        assert res.vote_counts.sum() == 6
        assert res.vote_counts.max() == 6  # all samplings identical
        assert res.excluded_samplings == 0

    def test_vote_counts_sum_to_samplings(self, fitted):
        model, test = fitted
        i = int(np.nonzero(~test.mask.all(axis=1))[0][0])
        res = predict_sample(model, [v[i] for v in test.views], test.mask[i],
                             n_samplings=7, seed=1)
        assert res.vote_counts.sum() + res.excluded_samplings == 7

    def test_label_among_sampling_votes(self, fitted):
        model, test = fitted
        for i in range(10):
            res = predict_sample(model, [v[i] for v in test.views], test.mask[i],
                                 n_samplings=5, seed=2)
            assert res.vote_counts[res.label] > 0

    def test_single_sampling_equals_argmax(self, fitted):
        model, test = fitted
        for i in range(8):
            res = predict_sample(model, [v[i] for v in test.views], test.mask[i],
                                 n_samplings=1, seed=3)
            assert res.label == int(np.argmax(res.sampling_opinions.beliefs[0]))

    def test_matches_batched_evaluation(self, fitted):
        """Per-sample prediction agrees with the batched evaluate path."""
        model, test = fitted
        metrics = evaluate(model, test, seed=5)
        for i in range(12):
            res = predict_sample(model, [v[i] for v in test.views], test.mask[i],
                                 seed=5)
            assert res.label == metrics["predictions"][i]

    def test_sampling_opinions_batch_the_valid_samplings(self, fitted):
        """Row s of the batch is the s-th valid sampling's fused opinion."""
        model, test = fitted
        for i in range(6):
            res = predict_sample(model, [v[i] for v in test.views], test.mask[i],
                                 n_samplings=5, seed=4)
            std = zscore_apply(test.subset(np.array([i])), model.stats)
            completions = complete_test_data(model, std, n_samplings=5, seed=4)
            all_b, all_u, all_bad = _sampling_opinions(model, completions)
            valid = np.nonzero(~all_bad[:, 0])[0]
            batch = res.sampling_opinions
            assert batch.beliefs.shape == (valid.size, test.class_count)
            assert batch.uncertainty.shape == (valid.size,)
            for s, sampling in enumerate(valid):
                np.testing.assert_array_equal(batch.beliefs[s], all_b[sampling, 0])
                assert batch.uncertainty[s] == all_u[sampling, 0]
            np.testing.assert_array_equal(res.mean_opinion.beliefs, batch.beliefs.mean(axis=0))
            assert res.mean_opinion.uncertainty == float(batch.uncertainty.mean())
            np.testing.assert_array_equal(
                res.vote_counts,
                np.bincount(batch.beliefs.argmax(axis=1), minlength=test.class_count))

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


def first_view_only(data):
    """The data's first view alone, every row observing it."""
    return MultiViewDataset([data.views[0]], data.labels,
                            np.ones((data.n_samples, 1), dtype=bool), data.class_count)


class TestEvaluate:
    def test_fewer_views_than_model_rejected(self, fitted):
        model, test = fitted
        with pytest.raises(ValueError, match="test data has 1 views, the model 2"):
            evaluate(model, first_view_only(test), seed=0)

    def test_perfect_prediction_upper_bound(self, fitted):
        model, _ = fitted
        easy = make_blobs_dataset(n=30, eta=0.0, seed=61)
        metrics = evaluate(model, easy, seed=0)
        assert metrics["accuracy"] == 1.0

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

    def test_vote_counts_rowwise_sum(self, fitted):
        model, test = fitted
        metrics = evaluate(model, test, seed=0)
        counts = np.asarray(metrics["vote_counts"])
        expected = metrics["n_samplings"] * np.ones(test.n_samples)
        complete = test.mask.all(axis=1)
        # counts sum to n_samplings minus exclusions (none here)
        np.testing.assert_array_equal(counts.sum(axis=1), expected)
        assert complete.shape == (test.n_samples,)


class TestStability:
    def test_fewer_views_than_model_rejected(self, fitted):
        model, test = fitted
        with pytest.raises(ValueError, match="test data has 1 views, the model 2"):
            stability_experiment(model, first_view_only(test), n_repeats=2, seed=0)

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

    def test_invalid_repeats(self, fitted):
        model, test = fitted
        with pytest.raises(ValueError):
            stability_experiment(model, test, n_repeats=0)


def per_sampling_opinions(model, completions):
    """Every network on every row of every materialized completion."""
    all_b, all_u, all_bad = [], [], []
    for s in range(completions.n_samplings):
        views = completions.completion(s)
        if model.uses_evidence:
            b, u, bad, _ = _fold_with_exclusions(
                *zip(*(_opinion_arrays(net.forward(x) + 1.0)
                       for net, x in zip(model.networks, views))))
        else:
            b = np.mean([_softmax(net.forward_logits(x))
                         for net, x in zip(model.networks, views)], axis=0)
            u, bad = np.zeros(len(b)), np.zeros(len(b), dtype=bool)
        all_b.append(b)
        all_u.append(u)
        all_bad.append(bad)
    return np.array(all_b), np.array(all_u), np.array(all_bad)


def conflict_model(mode):
    """Two 2-feature views, 3 classes; a first feature above 5 gives evidence
    of about 1e14 for class 0 in view 0 and for class 1 in view 1."""
    networks = []
    for huge_class in (0, 1):
        net = EvidenceNetwork([2, 2, 3], seed=huge_class)
        net.weights[0] = np.eye(2)
        net.biases[0] = np.array([-5.0, 0.0])  # hidden = relu(x0 - 5), relu(x1)
        net.weights[1] = np.array([[0.0, 0.0, 0.0], [0.7, -0.4, 0.2]])
        net.weights[1][0, huge_class] = 1e14
        net.biases[1] = np.array([0.3, 0.1, -0.2])
        networks.append(net)
    return TrainedModel(networks=networks, stats=None, config=TrainConfig(mode=mode),
                        loss_history=[], train_pool=None, class_count=3, epochs_run=0)


def conflict_completions():
    """Row 0 is complete and has both views far out, in total conflict."""
    rng = np.random.default_rng(12)
    views = [rng.uniform(-1.0, 1.0, (40, 2)) for _ in range(2)]
    views[0][0, 0] = views[1][0, 0] = 6.0
    mask = rng.uniform(size=(40, 2)) > 0.3
    mask[~mask.any(axis=1), 0] = True
    mask[0] = True
    data = MultiViewDataset(views, rng.integers(0, 3, 40), mask, 3)
    return sample_completions(data, k=4, n_samplings=7, seed=1, use_labels=False)


class TestObservedOnce:
    @pytest.mark.parametrize("mode", ["uimc", "naive_ce"])
    # 40 rows, at most 13 imputed per view: samplings per forward call and
    # per fold are (1, 1), (2, 1), (7, 2) and (7, 7)
    @pytest.mark.parametrize("forward_rows", [5, 30, 100, 4096])
    def test_matches_per_sampling_loop(self, mode, forward_rows, monkeypatch):
        monkeypatch.setattr(predictor, "_FORWARD_ROWS", forward_rows)
        model, completions = conflict_model(mode), conflict_completions()
        all_b, all_u, all_bad = _sampling_opinions(model, completions)
        ref_b, ref_u, ref_bad = per_sampling_opinions(model, completions)
        np.testing.assert_allclose(all_b, ref_b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(all_u, ref_u, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(all_bad, ref_bad)
        labels, counts = _vote(all_b, all_bad)
        ref_labels, ref_counts = _vote(ref_b, ref_bad)
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(counts, ref_counts)
        if mode == "uimc":
            assert all_bad[:, 0].all() and not all_bad[:, 1:].any()
            assert counts[0].sum() == 0  # flagged in every sampling, out of the vote

    def test_sample_in_total_conflict_gives_empty_batch(self):
        data = conflict_completions()
        identity = ZScoreStats([np.zeros(2)] * 2, [np.ones(2)] * 2)
        model = replace(conflict_model("uimc"), stats=identity,
                        train_pool=MultiViewDataset(data.views, data.labels,
                                                    np.ones((40, 2), dtype=bool), 3))
        res = predict_sample(model, [np.array([6.0, 0.0])] * 2, [True, True],
                             n_samplings=5)
        assert res.sampling_opinions.beliefs.shape == (0, 3)
        assert res.sampling_opinions.uncertainty.shape == (0,)
        assert res.excluded_samplings == 5 and res.vote_counts.tolist() == [0, 0, 0]
        np.testing.assert_array_equal(res.mean_opinion.beliefs, np.zeros(3))
        assert res.mean_opinion.uncertainty == 1.0

    def test_each_input_runs_once(self, monkeypatch):
        model, completions = conflict_model("uimc"), conflict_completions()
        rows = []
        forward = EvidenceNetwork.forward

        def counting_forward(self, x, **kwargs):
            rows.append(len(x))
            return forward(self, x, **kwargs)

        monkeypatch.setattr(EvidenceNetwork, "forward", counting_forward)
        _sampling_opinions(model, completions)
        imputed = sum(r.size for r in completions.imputed_rows)
        assert sum(rows) == 2 * completions.n_samples + completions.n_samplings * imputed
