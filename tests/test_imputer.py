"""Neighbor search, Gaussian estimation, and multi-sample completion."""

import numpy as np
import pytest

from evifuse.dataset import MultiViewDataset
from evifuse.imputer import (
    CompletionSet,
    GaussianImputation,
    NeighborQuery,
    distance_set,
    estimate_gaussian,
    mean_value_completions,
    neighbor_union,
    sample_completions,
    topk_indicator,
)
from conftest import make_blobs_dataset


class TestDistanceSet:
    def test_three_four_five(self):
        out = distance_set([0.0, 0.0], [[3.0, 4.0]])
        assert out[0] == pytest.approx(-25.0)

    def test_zero_distance(self):
        out = distance_set([1.5, -2.0], [[1.5, -2.0]])
        assert out[0] == 0.0

    def test_two_candidates(self):
        out = distance_set([0.0, 0.0], [[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(out, [-1.0, -4.0])


class TestTopK:
    def test_orders_by_negated_distance(self):
        assert topk_indicator(np.array([-1.0, -4.0, -9.0]), 2).tolist() == [0, 1]

    def test_saturates(self):
        assert topk_indicator(np.array([-1.0, -4.0, -9.0]), 10).tolist() == [0, 1, 2]

    def test_tie_breaks_to_lowest_index(self):
        assert topk_indicator(np.array([-4.0, -4.0]), 1).tolist() == [0]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            topk_indicator(np.array([-1.0]), 0)


def tiny_dataset():
    """4 samples, 2 views, sample 0 missing view 1."""
    v0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [5.0, 5.0]])
    v1 = np.array([[9.0, 9.0, 9.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])
    mask = np.array([[True, False], [True, True], [True, True], [True, True]])
    labels = np.array([0, 0, 0, 1])
    return MultiViewDataset([v0, v1], labels, mask, 2)


class TestNeighborUnion:
    def test_label_filter_restricts_candidates(self):
        data = tiny_dataset()
        idx = neighbor_union(NeighborQuery(0, 1, k=5, use_labels=True), data)
        assert idx.tolist() == [1, 2]  # sample 3 has the wrong label

    def test_label_free_includes_all(self):
        data = tiny_dataset()
        idx = neighbor_union(NeighborQuery(0, 1, k=5, use_labels=False), data)
        assert idx.tolist() == [1, 2, 3]

    def test_union_collapses_duplicates(self):
        data = make_blobs_dataset(n=20, view_dims=(2, 2, 3), eta=0.3, seed=1)
        target = None
        for n in range(20):
            missing = np.nonzero(~data.mask[n])[0]
            if missing.size and data.mask[n].sum() >= 2:
                target = (n, int(missing[0]))
                break
        assert target is not None
        idx = neighbor_union(NeighborQuery(target[0], target[1], k=3), data)
        assert len(idx) == len(set(idx.tolist()))

    def test_observed_view_rejected(self):
        data = tiny_dataset()
        with pytest.raises(ValueError):
            neighbor_union(NeighborQuery(1, 1, k=2), data)

    def test_empty_when_no_candidates(self):
        # all same-label candidates lack view 1
        v0 = np.array([[0.0], [1.0], [2.0]])
        v1 = np.array([[0.0], [0.0], [7.0]])
        mask = np.array([[True, False], [True, False], [True, True]])
        data = MultiViewDataset([v0, v1], np.array([0, 0, 1]), mask, 2)
        idx = neighbor_union(NeighborQuery(0, 1, k=3, use_labels=True), data)
        assert idx.size == 0

    def test_matches_exhaustive_scan(self):
        """Oracle: brute-force recomputation of the union on small datasets."""
        for seed in range(6):
            data = make_blobs_dataset(
                n=int(np.random.default_rng(seed).integers(10, 50)),
                class_count=3, view_dims=(2, 3, 2), eta=0.35, seed=seed,
                mask_seed=seed + 100,
            )
            k = 4
            for n in range(data.n_samples):
                for m in np.nonzero(~data.mask[n])[0]:
                    got = neighbor_union(NeighborQuery(n, int(m), k), data)
                    expect = set()
                    for v in range(data.n_views):
                        if v == m or not data.mask[n, v]:
                            continue
                        scored = []
                        for j in range(data.n_samples):
                            if not (data.mask[j, v] and data.mask[j, m]):
                                continue
                            if data.labels[j] != data.labels[n]:
                                continue
                            dist = -np.sum((data.views[v][n] - data.views[v][j]) ** 2)
                            scored.append((-dist, j))
                        scored.sort()
                        expect.update(j for _, j in scored[:k])
                    assert set(got.tolist()) == expect


class TestEstimateGaussian:
    def test_two_neighbors(self):
        g = estimate_gaussian(np.array([[0.0, 0.0], [2.0, 2.0]]), jitter=0.0)
        np.testing.assert_array_equal(g.mu, [1.0, 1.0])
        np.testing.assert_array_equal(g.sigma, [[2.0, 2.0], [2.0, 2.0]])
        assert g.neighbor_count == 2

    def test_single_neighbor_point_mass(self):
        g = estimate_gaussian(np.array([[5.0]]), jitter=1e-3)
        np.testing.assert_array_equal(g.mu, [5.0])
        np.testing.assert_allclose(g.sigma, [[1e-3]])

    def test_identical_neighbors(self):
        g = estimate_gaussian(np.array([[1.0], [1.0], [1.0]]), jitter=1e-3)
        np.testing.assert_array_equal(g.mu, [1.0])
        np.testing.assert_allclose(g.sigma, [[1e-3]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_gaussian(np.empty((0, 2)), jitter=0.0)

    def test_diagonal_switch(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        g = estimate_gaussian(pts, jitter=0.0, diag_only=True)
        off = g.sigma - np.diag(np.diag(g.sigma))
        np.testing.assert_array_equal(off, 0.0)

    def test_asymmetric_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianImputation([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]], 2)


class TestSampleCompletions:
    def test_complete_data_noop(self, blobs):
        cs = sample_completions(blobs, k=3, n_samplings=4, seed=0)
        assert cs.incomplete_samples.size == 0
        for s in range(4):
            for v, mat in enumerate(cs.completion(s)):
                np.testing.assert_array_equal(mat, blobs.views[v])

    def test_observed_entries_bit_identical(self, blobs_incomplete):
        cs = sample_completions(blobs_incomplete, k=5, n_samplings=3, seed=1)
        for s in range(3):
            mats = cs.completion(s)
            for v in range(blobs_incomplete.n_views):
                obs = blobs_incomplete.mask[:, v]
                np.testing.assert_array_equal(
                    mats[v][obs], blobs_incomplete.views[v][obs]
                )

    def test_deterministic(self, blobs_incomplete):
        a = sample_completions(blobs_incomplete, k=5, n_samplings=3, seed=42)
        b = sample_completions(blobs_incomplete, k=5, n_samplings=3, seed=42)
        for v in range(a.n_views):
            np.testing.assert_array_equal(a.draws[v], b.draws[v])

    def test_seed_changes_draws(self, blobs_incomplete):
        a = sample_completions(blobs_incomplete, k=5, n_samplings=3, seed=42)
        b = sample_completions(blobs_incomplete, k=5, n_samplings=3, seed=43)
        different = any(
            a.draws[v].size and not np.array_equal(a.draws[v], b.draws[v])
            for v in range(a.n_views)
        )
        assert different

    def test_point_estimate_uses_mean(self):
        data = tiny_dataset()
        cs = sample_completions(data, k=5, n_samplings=1, seed=0, point_estimate=True)
        # neighbors of sample 0 in view 1 are samples {1, 2}: mean = [1.5]*3
        np.testing.assert_allclose(cs.draws[1][0, 0], [1.5, 1.5, 1.5])

    def test_monte_carlo_moments(self):
        """Empirical mean/cov of many draws converge to the slot's moments."""
        rng = np.random.default_rng(3)
        n, d = 200, 3
        labels = rng.integers(0, 2, n)
        v0 = rng.normal(size=(n, 2)) + labels[:, None]
        v1 = rng.normal(size=(n, d)) + 2.0 * labels[:, None]
        mask = np.ones((n, 2), dtype=bool)
        mask[0, 1] = False
        data = MultiViewDataset([v0, v1], labels, mask, 2)

        jitter = 1e-3
        draws = 10_000
        cs = sample_completions(data, k=10, n_samplings=draws, seed=7, jitter=jitter)
        sample = cs.draws[1][0]  # (draws, d)

        idx = neighbor_union(NeighborQuery(0, 1, k=10), data)
        g = estimate_gaussian(data.views[1][idx], jitter=jitter)
        # mean within 3 standard errors per coordinate
        se_mean = np.sqrt(np.diag(g.sigma) / draws)
        assert np.all(np.abs(sample.mean(axis=0) - g.mu) < 3 * se_mean)
        # covariance entries within 3 standard errors of a Gaussian cov estimate
        emp_cov = np.cov(sample, rowvar=False)
        for i in range(d):
            for j in range(d):
                se = np.sqrt(
                    (g.sigma[i, i] * g.sigma[j, j] + g.sigma[i, j] ** 2) / (draws - 1)
                )
                assert abs(emp_cov[i, j] - g.sigma[i, j]) < 3 * se

    def test_gather_matches_completion(self, blobs_incomplete):
        cs = sample_completions(blobs_incomplete, k=4, n_samplings=3, seed=5)
        rows = np.array([0, 5, 10, 17, 3])
        slots = np.array([0, 2, 1, 0, 2])
        gathered = cs.gather(rows, slots)
        for v in range(cs.n_views):
            for pos, (r, s) in enumerate(zip(rows, slots)):
                np.testing.assert_array_equal(
                    gathered[v][pos], cs.completion(int(s))[v][r]
                )

    def test_provenance_tracks_mask(self, blobs_incomplete):
        cs = sample_completions(blobs_incomplete, k=4, n_samplings=2, seed=5)
        np.testing.assert_array_equal(cs.provenance, (~blobs_incomplete.mask).astype(np.uint8))

    def test_column_mean_fallback(self):
        """No candidate observes both views: falls back to column means."""
        v0 = np.array([[0.0], [1.0], [2.0]])
        v1 = np.array([[0.0], [10.0], [20.0]])
        mask = np.array([[True, False], [False, True], [False, True]])
        data = MultiViewDataset([v0, v1], np.array([0, 0, 1]), mask, 2)
        cs = sample_completions(data, k=2, n_samplings=1, seed=0, point_estimate=True)
        assert cs.draws[1][0, 0, 0] == pytest.approx(15.0)

    def test_reference_pool_for_test_data(self):
        """Test-time candidates come from the reference, label-free."""
        train = make_blobs_dataset(n=60, class_count=2, view_dims=(2, 2), seed=11)
        test = make_blobs_dataset(n=10, class_count=2, view_dims=(2, 2), seed=12)
        mask = np.ones((10, 2), dtype=bool)
        mask[:, 1] = False
        test = test.with_mask(mask)
        cs = sample_completions(
            test, k=5, n_samplings=2, seed=0, reference=train, use_labels=False
        )
        assert cs.draws[1].shape == (10, 2, 2)
        idx = neighbor_union(NeighborQuery(0, 1, k=5, use_labels=False), test,
                             reference=train)
        assert idx.size > 0
        assert idx.max() < train.n_samples


class TestMeanValueCompletions:
    def test_fills_with_column_means(self):
        data = tiny_dataset()
        cs = mean_value_completions(data)
        observed_mean = data.views[1][data.mask[:, 1]].mean(axis=0)
        np.testing.assert_allclose(cs.draws[1][0, 0], observed_mean)
        assert cs.n_samplings == 1
