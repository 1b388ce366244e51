"""Neighbor search, Gaussian estimation, and multi-sample completion."""

import json

import numpy as np
import pytest

from evifuse import imputer
from evifuse.dataset import MultiViewDataset
from evifuse.experiments import write_completion_directory
from evifuse.imputer import (
    NeighborQuery,
    _moments,
    _nearest,
    _neighbor_unions,
    _sample_content_key,
    _seed_states,
    _SeedState,
    _slot_seeds,
    _stable_cholesky,
    mean_value_completions,
    neighbor_union,
    sample_completions,
)
from conftest import make_blobs_dataset


def nearest(query, candidates, k):
    """_nearest for one query row: candidate positions, nearest first."""
    return _nearest(np.atleast_2d(np.asarray(query, dtype=float)),
                    np.asarray(candidates, dtype=float), k)[0].tolist()


class TestDistanceSet:
    """_nearest ranks its shortlist by the exact squared distance."""

    def test_three_four_five(self):
        # (3, 4), (0, 5) and (4, 3) all lie at squared distance 25, (6, 0) at 36
        assert nearest([0.0, 0.0], [[6.0, 0.0], [3.0, 4.0], [0.0, 5.0], [4.0, 3.0]], 2) == [1, 2]

    def test_zero_distance(self):
        assert nearest([1.5, -2.0], [[1.6, -2.0], [1.5, -2.0], [1.5, -2.1]], 1) == [1]

    def test_two_candidates(self):
        assert nearest([0.0, 0.0], [[1.0, 0.0], [0.0, 2.0]], 1) == [0]
        assert nearest([0.0, 0.0], [[0.0, 2.0], [1.0, 0.0]], 1) == [1]


class TestTopK:
    """_nearest's k nearest, ties resolved to the lowest candidate position."""

    def test_orders_by_negated_distance(self):
        assert nearest([0.0], [[1.0], [2.0], [3.0]], 2) == [0, 1]
        assert nearest([0.0], [[3.0], [2.0], [1.0]], 2) == [2, 1]

    def test_saturates(self):
        # k >= candidate count returns every candidate, in position order
        assert nearest([0.0], [[3.0], [1.0], [2.0]], 3) == [0, 1, 2]
        assert nearest([0.0], [[3.0], [1.0], [2.0]], 10) == [0, 1, 2]

    def test_tie_breaks_to_lowest_index(self):
        assert nearest([0.0], [[2.0], [-2.0], [5.0]], 1) == [0]
        assert nearest([0.0], [[5.0], [-2.0], [2.0]], 2) == [1, 2]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            NeighborQuery(0, 1, k=0)


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
                    assert got.tolist() == exhaustive_union(data, data, n, int(m), k, True)

    @pytest.mark.parametrize("shift", [0.0, 1e4])
    @pytest.mark.parametrize("use_labels", [True, False])
    def test_batched_unions_match_exhaustive_scan(self, shift, use_labels):
        """Every slot of a view at once, against the oracle, with exact ties.

        Each candidate row appears twice, so with k = 3 the 3rd and 4th
        nearest tie whenever a query's nearest distinct rows are doubled.
        Scaled by 1e-3 and shifted by 1e4, the terms of ||a||^2 - 2 a.b +
        ||b||^2 are ~1e8 and the distances ~1e-6, so the GEMM distance
        alone misorders neighbors.
        """
        base = make_blobs_dataset(n=40, class_count=3, view_dims=(2, 3, 2), eta=0.35,
                                  seed=5, mask_seed=105)
        doubled = base.subset(np.repeat(np.arange(base.n_samples), 2))
        pool = MultiViewDataset([v * 1e-3 + shift for v in doubled.views], doubled.labels,
                                doubled.mask, doubled.class_count)
        queries = make_blobs_dataset(n=30, class_count=3, view_dims=(2, 3, 2), eta=0.35,
                                     seed=5, mask_seed=106)
        queries = MultiViewDataset([v * 1e-3 + shift for v in queries.views], queries.labels,
                                   queries.mask, queries.class_count)
        for data, ref in ((pool, pool), (queries, pool)):
            for m in range(data.n_views):
                rows = np.nonzero(~data.mask[:, m])[0]
                got = _neighbor_unions(data, ref, rows, m, 3, use_labels)
                expect = [exhaustive_union(data, ref, int(n), m, 3, use_labels) for n in rows]
                assert [idx.tolist() for idx in got] == expect


def exhaustive_union(data, ref, n, m, k, use_labels):
    """Sorted union of each observed view's k nearest by a full scan, ties to the lower index."""
    expect = set()
    for v in range(data.n_views):
        if v == m or not data.mask[n, v]:
            continue
        scored = []
        for j in range(ref.n_samples):
            if not (ref.mask[j, v] and ref.mask[j, m]):
                continue
            if use_labels and ref.labels[j] != data.labels[n]:
                continue
            dist = -np.sum((data.views[v][n] - ref.views[v][j]) ** 2)
            scored.append((-dist, j))
        scored.sort()
        expect.update(j for _, j in scored[:k])
    return sorted(expect)


class TestEstimateGaussian:
    """_moments of one neighbor set: mean and unbiased covariance."""

    def test_two_neighbors(self):
        mu, cov = _moments(np.array([[[0.0, 0.0], [2.0, 2.0]]]), diag_only=False)
        np.testing.assert_array_equal(mu, [[1.0, 1.0]])
        np.testing.assert_array_equal(cov, [[[2.0, 2.0], [2.0, 2.0]]])

    def test_single_neighbor_point_mass(self):
        for diag_only in (False, True):
            mu, cov = _moments(np.array([[[5.0]]]), diag_only)
            np.testing.assert_array_equal(mu, [[5.0]])
            np.testing.assert_array_equal(cov, [[[0.0]]])

    def test_identical_neighbors(self):
        mu, cov = _moments(np.array([[[1.0], [1.0], [1.0]]]), diag_only=False)
        np.testing.assert_array_equal(mu, [[1.0]])
        np.testing.assert_array_equal(cov, [[[0.0]]])

    def test_diagonal_switch(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(1, 20, 3))
        _, cov = _moments(pts, diag_only=True)
        off = cov[0] - np.diag(np.diag(cov[0]))
        np.testing.assert_array_equal(off, 0.0)
        np.testing.assert_array_equal(np.diag(cov[0]), pts[0].var(axis=0, ddof=1))


class TestStackedMoments:
    """_moments over a (B, c, d) stack against np.cov and var per set, bit for bit."""

    @pytest.mark.parametrize("count", [1, 2, 10, 20])
    @pytest.mark.parametrize("dim", [1, 3, 40])
    def test_matches_per_set_reference(self, count, dim):
        sets = np.random.default_rng(count * 100 + dim).normal(0.0, 2.0, (5, count, dim))
        mu, cov = _moments(sets, diag_only=False)
        mu_diag, cov_diag = _moments(sets, diag_only=True)
        assert mu.tobytes() == mu_diag.tobytes()
        for rows, got_mu, got_cov, got_diag in zip(sets, mu, cov, cov_diag):
            assert got_mu.tobytes() == rows.mean(axis=0).tobytes()
            if count == 1:
                full = diag = np.zeros((dim, dim))
            else:
                full = np.cov(rows, rowvar=False, ddof=1).reshape(dim, dim)
                diag = np.diag(rows.var(axis=0, ddof=1))
            assert got_cov.tobytes() == full.tobytes()
            assert got_diag.tobytes() == diag.tobytes()

    def test_infinite_variance_leaves_off_diagonal_zero(self):
        sets = np.array([[[1e200, 0.0], [-1e200, 1.0]]])
        with np.errstate(over="ignore"):
            _, cov = _moments(sets, diag_only=True)
        assert cov[0, 0, 0] == np.inf
        assert cov[0, 0, 1] == cov[0, 1, 0] == 0.0


class TestSeedStates:
    """The vectorised SeedSequence hash against numpy's, key by key."""

    EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]

    @pytest.mark.parametrize("seed, m", [
        (0, 0),          # one word each: the pool is padded with a zero word
        (8, 2),
        (2**32 - 1, 1),
        (2**32, 0),      # two seed words: keys of 2**32 or more add a fifth word
        (2**40 + 3, 1),
        (2**70 + 9, 2),  # three seed words: every key mixes in past the pool
    ])
    def test_matches_seed_sequence(self, seed, m):
        rng = np.random.default_rng(seed % 1000 + m)
        keys = (self.EDGE_KEYS
                + rng.integers(0, 2**64, 700, dtype=np.uint64).tolist()
                + rng.integers(0, 2**32, 300, dtype=np.uint64).tolist())
        got = _seed_states(seed, m, keys)
        assert got.dtype == np.uint64 and got.shape == (len(keys), 4)
        for key, state in zip(keys, got):
            expect = np.random.SeedSequence([seed, m, key]).generate_state(4, np.uint64)
            assert state.tobytes() == expect.tobytes(), key

    def test_generators_draw_like_default_rng(self):
        keys = self.EDGE_KEYS + [123456789, 2**50 + 7]
        for seed in (0, 5, 2**33):
            for key, state in zip(keys, _seed_states(seed, 1, keys)):
                got = np.random.Generator(np.random.PCG64(_SeedState(state)))
                expect = np.random.default_rng(np.random.SeedSequence([seed, 1, key]))
                assert got.standard_normal((3, 4)).tobytes() == \
                    expect.standard_normal((3, 4)).tobytes()
                assert got.integers(0, 2**62, 5).tolist() == expect.integers(0, 2**62, 5).tolist()

    def test_both_seed_paths_draw_alike(self):
        keys = self.EDGE_KEYS * 3
        assert len(keys) >= imputer._VECTOR_SEED_MIN
        vectorised = _slot_seeds(9, 2, keys)
        per_slot = _slot_seeds(9, 2, keys[:imputer._VECTOR_SEED_MIN - 1])
        assert isinstance(vectorised[0], _SeedState)
        assert isinstance(per_slot[0], np.random.SeedSequence)
        for a, b in zip(vectorised, per_slot):
            draw_a = np.random.Generator(np.random.PCG64(a)).standard_normal(6)
            draw_b = np.random.Generator(np.random.PCG64(b)).standard_normal(6)
            assert draw_a.tobytes() == draw_b.tobytes()

    @pytest.mark.parametrize("slots", [1, imputer._VECTOR_SEED_MIN, 40])
    def test_negative_seed_rejected(self, slots):
        with pytest.raises(ValueError):
            _slot_seeds(-1, 0, list(range(slots)))

    def test_negative_seed_rejected_by_completion(self, monkeypatch):
        data = make_blobs_dataset(n=70, class_count=3, view_dims=(2, 3, 2), eta=0.35,
                                  seed=4, mask_seed=104)
        for threshold in (0, 10**9):
            monkeypatch.setattr(imputer, "_VECTOR_SEED_MIN", threshold)
            with pytest.raises(ValueError):
                sample_completions(data, k=3, n_samplings=2, seed=-1)

    def test_state_serves_only_pcg64(self):
        state = _SeedState(np.zeros(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            state.generate_state(8, np.uint32)


class TestSampleCompletions:
    def test_complete_data_noop(self, blobs):
        cs = sample_completions(blobs, k=3, n_samplings=4, seed=0)
        assert all(rows.size == 0 for rows in cs.imputed_rows)
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

        idx = _neighbor_unions(data, data, np.array([0]), 1, 10, True)[0]
        mu, cov = _moments(data.views[1][idx][None], diag_only=False)
        mu, sigma = mu[0], cov[0] + jitter * np.eye(d)
        # mean within 3 standard errors per coordinate
        se_mean = np.sqrt(np.diag(sigma) / draws)
        assert np.all(np.abs(sample.mean(axis=0) - mu) < 3 * se_mean)
        # covariance entries within 3 standard errors of a Gaussian cov estimate
        emp_cov = np.cov(sample, rowvar=False)
        for i in range(d):
            for j in range(d):
                se = np.sqrt((sigma[i, i] * sigma[j, j] + sigma[i, j] ** 2) / (draws - 1))
                assert abs(emp_cov[i, j] - sigma[i, j]) < 3 * se

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

    def test_gather_leaves_views_unchanged(self, blobs_incomplete):
        cs = sample_completions(blobs_incomplete, k=4, n_samplings=3, seed=5)
        before = [v.copy() for v in cs.views]
        rows = np.array([0, 5, 5, 17])
        for mat in cs.gather(rows, np.array([0, 1, 2, 0])):
            mat[:] = -7.0
        for v, ref in zip(cs.views, before):
            np.testing.assert_array_equal(v, ref)

    def test_k_validation(self, blobs_incomplete):
        with pytest.raises(ValueError):
            sample_completions(blobs_incomplete, k=0, n_samplings=2)

    def test_provenance_tracks_mask(self, blobs_incomplete, tmp_path):
        cs = sample_completions(blobs_incomplete, k=4, n_samplings=2, seed=5)
        write_completion_directory(cs, tmp_path)
        slots = json.loads((tmp_path / "provenance.json").read_text())["imputed_slots"]
        expect = np.argwhere(~blobs_incomplete.mask)
        assert [[s["sample"], s["view"]] for s in slots] == expect.tolist()

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
        idx = _neighbor_unions(test, train, np.array([0]), 1, 5, False)[0]
        assert idx.size > 0
        assert idx.max() < train.n_samples


def reference_completions(data, k, n_samplings, jitter, seed, ref=None, use_labels=True,
                          diag_cov=False, point_estimate=False):
    """Draws slot by slot: full-scan search, np.cov, _stable_cholesky, keyed RNG."""
    ref = data if ref is None else ref
    draws = [[] for _ in range(data.n_views)]
    for n in range(data.n_samples):
        key = _sample_content_key(data, n)
        for m in np.nonzero(~data.mask[n])[0].tolist():
            idx = exhaustive_union(data, ref, n, m, k, use_labels)
            if not idx and use_labels:
                idx = exhaustive_union(data, ref, n, m, k, False)
            d = ref.view_dims[m]
            if not idx:
                mu, cov = ref.views[m][ref.mask[:, m]].mean(axis=0), np.zeros((d, d))
            else:
                rows = ref.views[m][idx]
                mu = rows.mean(axis=0)
                if len(idx) == 1:
                    cov = np.zeros((d, d))
                elif diag_cov:
                    cov = np.diag(rows.var(axis=0, ddof=1))
                else:
                    cov = np.cov(rows, rowvar=False, ddof=1).reshape(d, d)
            if point_estimate:
                draws[m].append(np.broadcast_to(mu, (n_samplings, d)).copy())
                continue
            chol, _ = _stable_cholesky(cov, jitter)
            rng = np.random.default_rng(np.random.SeedSequence([seed, m, key]))
            draws[m].append(mu + rng.standard_normal((n_samplings, d)) @ chol.T)
    return [np.stack(blocks) if blocks else np.empty((0, n_samplings, d))
            for blocks, d in zip(draws, data.view_dims)]


def fallback_dataset():
    """Blob rows plus slots that need every fallback of the chain.

    Rows 0-29 (classes 0-2) observe views 0 and 1, every fifth misses view
    1, and none observes view 2, so their view-2 slots take the column
    means. Rows 30-31 observe only view 2: no candidate shares a view with
    them, labelled or not. Row 32 is the only one of class 3, so its view-1
    slot drops the label. Rows 33-36 have one and the same view-1 row next
    to row 37's view 0, so row 37's view-1 covariance is zero: with jitter
    0 it needs escalation, inside the block of the other view-1 slots.
    """
    base = make_blobs_dataset(n=30, class_count=3, view_dims=(2, 3, 2), seed=9)
    labels = np.concatenate([base.labels, [0, 1, 3, 0, 0, 0, 0, 0]])
    rng = np.random.default_rng(10)
    v0 = np.vstack([base.views[0], np.zeros((2, 2)), [[0.5, 0.5]],
                    [50.0, 50.0] + rng.normal(0.0, 0.1, (4, 2)), [[50.0, 50.0]]])
    v1 = np.vstack([base.views[1], np.zeros((3, 3)), np.full((4, 3), 5.0), np.zeros((1, 3))])
    v2 = np.vstack([base.views[2], rng.normal(0.0, 1.0, (8, 2))])
    mask = np.zeros((38, 3), dtype=bool)
    mask[:30, :2] = True
    mask[0:30:5, 1] = False
    mask[30:32, 2] = True
    mask[32, 0] = True
    mask[33:37, :2] = True
    mask[37, 0] = True
    return MultiViewDataset([v0, v1, v2], labels, mask, 4)


class TestBatchedDraws:
    """sample_completions against the slot-by-slot reference, bit for bit."""

    def assert_same_draws(self, got, expect):
        for v, block in enumerate(expect):
            np.testing.assert_array_equal(got.imputed_rows[v],
                                          np.nonzero(~got.mask[:, v])[0])
            assert got.draws[v].tobytes() == block.tobytes()

    # ids: options<i> with 4 slots a block, options<i>-block<b> with b slots
    @pytest.mark.parametrize("options, block", [
        pytest.param(options, block, id=f"options{i}" + ("" if block == 4 else f"-block{block}"))
        for i, options in enumerate([
            dict(),
            dict(use_labels=False),
            dict(diag_cov=True),
            dict(point_estimate=True),
        ])
        for block in (1, 4, 128)
    ])
    def test_matches_slot_by_slot_reference(self, options, block, monkeypatch):
        data = make_blobs_dataset(n=70, class_count=3, view_dims=(2, 3, 2), eta=0.35,
                                  seed=4, mask_seed=104)
        # every view takes the vectorised seed path
        assert (~data.mask).sum(axis=0).min() >= imputer._VECTOR_SEED_MIN
        monkeypatch.setattr(imputer, "_SLOT_BLOCK", block)
        got = sample_completions(data, k=3, n_samplings=5, jitter=1e-3, seed=8, **options)
        self.assert_same_draws(got, reference_completions(data, 3, 5, 1e-3, 8, **options))

    def test_reference_pool(self):
        train = make_blobs_dataset(n=60, class_count=3, view_dims=(2, 3, 2), eta=0.3,
                                   seed=4, mask_seed=105)
        test = make_blobs_dataset(n=25, class_count=3, view_dims=(2, 3, 2), eta=0.35,
                                  seed=4, mask_seed=106)
        got = sample_completions(test, k=4, n_samplings=6, seed=2, reference=train,
                                 use_labels=False)
        self.assert_same_draws(
            got, reference_completions(test, 4, 6, 1e-3, 2, ref=train, use_labels=False))

    @pytest.mark.parametrize("use_labels", [True, False])
    def test_fallbacks_and_escalation(self, use_labels):
        data = fallback_dataset()
        got = sample_completions(data, k=4, n_samplings=5, jitter=0.0, seed=3,
                                 use_labels=use_labels)
        self.assert_same_draws(
            got, reference_completions(data, 4, 5, 0.0, 3, use_labels=use_labels))
        row_37 = int(np.searchsorted(got.imputed_rows[1], 37))
        assert np.ptp(got.draws[1][row_37], axis=0).max() > 0.0  # drawn with escalated jitter
        column_mean = data.views[2][30:32].mean(axis=0)  # the rows observing view 2
        np.testing.assert_allclose(got.draws[2][0], np.tile(column_mean, (5, 1)), atol=1e-2)


class TestMeanValueCompletions:
    def test_fills_with_column_means(self):
        data = tiny_dataset()
        cs = mean_value_completions(data)
        observed_mean = data.views[1][data.mask[:, 1]].mean(axis=0)
        np.testing.assert_allclose(cs.draws[1][0, 0], observed_mean)
        assert cs.n_samplings == 1
