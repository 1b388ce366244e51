"""Neighbor search, Gaussian estimation, and multi-sample completion."""

import dataclasses
import hashlib
import json
import tracemalloc

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
    _SeedState,
    _slot_distribution,
    _slot_states,
    neighbor_union,
    sample_completions,
    view_draws,
)
from conftest import make_blobs_dataset


def nearest(query, candidates, k):
    """_nearest for one query row: candidate positions, nearest first."""
    return _nearest(np.atleast_2d(np.asarray(query, dtype=float)),
                    np.asarray(candidates, dtype=float), k)[0].tolist()


class TestNearestExactDistance:
    """_nearest ranks its shortlist by the exact squared distance."""

    def test_three_four_five(self):
        # (3, 4), (0, 5) and (4, 3) all lie at squared distance 25, (6, 0) at 36
        assert nearest([0.0, 0.0], [[6.0, 0.0], [3.0, 4.0], [0.0, 5.0], [4.0, 3.0]], 2) == [1, 2]

    def test_zero_distance(self):
        assert nearest([1.5, -2.0], [[1.6, -2.0], [1.5, -2.0], [1.5, -2.1]], 1) == [1]

    def test_two_candidates(self):
        assert nearest([0.0, 0.0], [[1.0, 0.0], [0.0, 2.0]], 1) == [0]
        assert nearest([0.0, 0.0], [[0.0, 2.0], [1.0, 0.0]], 1) == [1]


class TestNearestOrderAndTies:
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


def tiny_dataset():
    """4 samples, 2 views, sample 0 missing view 1."""
    v0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [5.0, 5.0]])
    v1 = np.array([[9.0, 9.0, 9.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])
    mask = np.array([[True, False], [True, True], [True, True], [True, True]])
    labels = np.array([0, 0, 0, 1])
    return MultiViewDataset([v0, v1], labels, mask, 2)


def slot_union(data, n, m, k, key, ref=None):
    """``_neighbor_unions``' union of the one slot (n, m) under ``key``, a label or -1."""
    ref = data if ref is None else ref
    return _neighbor_unions(data, ref, np.array([n]), m, k, np.array([key]))[0]


class TestNeighborUnion:
    def test_label_filter_restricts_candidates(self):
        data = tiny_dataset()
        idx = slot_union(data, 0, 1, 5, data.labels[0])
        assert idx.tolist() == [1, 2]  # sample 3 has the wrong label

    def test_label_free_includes_all(self):
        data = tiny_dataset()
        idx = slot_union(data, 0, 1, 5, -1)
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
        idx = slot_union(data, target[0], target[1], 3, data.labels[target[0]])
        assert len(idx) == len(set(idx.tolist()))

    def test_observed_view_rejected(self):
        data = tiny_dataset()
        with pytest.raises(ValueError):
            neighbor_union(NeighborQuery(1, 1, k=2), data)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            NeighborQuery(0, 1, k=0)

    def test_empty_when_no_candidates(self):
        # all same-label candidates lack view 1
        v0 = np.array([[0.0], [1.0], [2.0]])
        v1 = np.array([[0.0], [0.0], [7.0]])
        mask = np.array([[True, False], [True, False], [True, True]])
        data = MultiViewDataset([v0, v1], np.array([0, 0, 1]), mask, 2)
        idx = slot_union(data, 0, 1, 3, data.labels[0])
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
                    got = slot_union(data, n, int(m), k, data.labels[n])
                    assert got.tolist() == exhaustive_union(data, data, n, int(m), k, True)

    def test_label_fallback_matches_exhaustive_scan(self):
        """_slot_distribution's union of every slot: the labelled oracle where that
        is non-empty, else the label-free one. Many classes and heavy
        missingness leave some slots no same-label row sharing a view."""
        fell_back = 0
        for seed in range(4):
            data = make_blobs_dataset(n=40, class_count=8, view_dims=(2, 3, 2), eta=0.5,
                                      seed=seed, mask_seed=seed + 200)
            for m in range(data.n_views):
                rows = np.nonzero(~data.mask[:, m])[0]
                index, size = _slot_distribution(data, data, rows, m, 3, True)
                got = np.split(index, np.cumsum(size)[:-1]) if rows.size else []
                expect = []
                for n in rows.tolist():
                    union = exhaustive_union(data, data, n, m, 3, True)
                    if not union:
                        fell_back += 1
                        union = exhaustive_union(data, data, n, m, 3, False)
                    expect.append(union)
                assert [idx.tolist() for idx in got] == expect
        assert fell_back > 0

    def test_shim_is_one_slot_of_neighbor_unions(self):
        """neighbor_union, kept for the benchmark's search span, is its slot's
        ``_neighbor_unions`` union under its label, or under -1 without labels."""
        data = make_blobs_dataset(n=30, class_count=3, view_dims=(2, 3, 2), eta=0.35,
                                  seed=2, mask_seed=102)
        for n, m in np.argwhere(~data.mask).tolist():
            for use_labels in (True, False):
                key = data.labels[n] if use_labels else -1
                assert (neighbor_union(NeighborQuery(n, m, 4, use_labels), data).tolist()
                        == slot_union(data, n, m, 4, key).tolist())

    # ids: <use_labels>-<shift> at 128 slots a block, then -block<b> with b slots
    @pytest.mark.parametrize("use_labels, shift, block", [
        pytest.param(use_labels, shift, block,
                     id=f"{use_labels}-{shift}" + ("" if block == 128 else f"-block{block}"))
        for use_labels in (True, False) for shift in (0.0, 1e4) for block in (1, 4, 128)
    ])
    def test_batched_unions_match_exhaustive_scan(self, shift, use_labels, block, monkeypatch):
        """Every slot of a view at once, against the oracle, with exact ties.

        Each candidate row appears twice, so with k = 3 the 3rd and 4th
        nearest tie whenever a query's nearest distinct rows are doubled.
        Scaled by 1e-3 and shifted by 1e4, the terms of ||a||^2 - 2 a.b +
        ||b||^2 are ~1e8 and the distances ~1e-6, so the GEMM distance
        alone misorders neighbors. Blocks of 1 and 4 queries split every
        key over several searches.
        """
        monkeypatch.setattr(imputer, "_SLOT_BLOCK", block)
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
                keys = data.labels[rows] if use_labels else np.full(rows.size, -1)
                index, size = _neighbor_unions(data, ref, rows, m, 3, keys)
                assert size.shape == rows.shape and size.sum() == index.size
                got = np.split(index, np.cumsum(size)[:-1]) if rows.size else []
                assert all(np.all(np.diff(idx) > 0) for idx in got)
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


class TestMomentsOfOneSet:
    """_moments of one neighbor set: mean and covariance factor."""

    def test_two_neighbors(self):
        mu, factor = _moments(np.array([[[0.0, 0.0], [2.0, 2.0]]]))
        np.testing.assert_array_equal(mu, [[1.0, 1.0]])
        np.testing.assert_array_equal(factor, [[[-1.0, -1.0], [1.0, 1.0]]])
        np.testing.assert_array_equal(factor[0].T @ factor[0], [[2.0, 2.0], [2.0, 2.0]])

    def test_single_neighbor_point_mass(self):
        mu, factor = _moments(np.array([[[5.0]]]))
        np.testing.assert_array_equal(mu, [[5.0]])
        np.testing.assert_array_equal(factor, [[[0.0]]])

    def test_identical_neighbors(self):
        mu, factor = _moments(np.array([[[1.0], [1.0], [1.0]]]))
        np.testing.assert_array_equal(mu, [[1.0]])
        np.testing.assert_array_equal(factor, np.zeros((1, 3, 1)))


class TestStackedMoments:
    """_moments over a (B, c, d) stack against each set's mean and centred rows, bit for bit."""

    @pytest.mark.parametrize("count", [1, 2, 10, 20])
    @pytest.mark.parametrize("dim", [1, 3, 40])
    def test_matches_per_set_reference(self, count, dim):
        sets = np.random.default_rng(count * 100 + dim).normal(0.0, 2.0, (5, count, dim))
        mu, factor = _moments(sets)
        assert factor.shape == sets.shape
        for rows, got_mu, got_factor in zip(sets, mu, factor):
            assert got_mu.tobytes() == rows.mean(axis=0).tobytes()
            if count == 1:
                np.testing.assert_array_equal(got_factor, np.zeros((1, dim)))
                continue
            centred = (rows - rows.mean(axis=0)) / np.sqrt(count - 1)
            assert got_factor.tobytes() == centred.tobytes()
            np.testing.assert_allclose(got_factor.T @ got_factor,
                                       np.cov(rows, rowvar=False).reshape(dim, dim),
                                       rtol=1e-12, atol=1e-12)


def documented_state(seed, m, data, n):
    """Slot (n, m)'s PCG64 state as the imputer docstring derives it, with hashlib alone."""
    seed_bytes = seed.to_bytes((seed.bit_length() + 7) // 8, "little")
    h = hashlib.blake2b(digest_size=32)
    h.update(len(seed_bytes).to_bytes(8, "little") + seed_bytes + m.to_bytes(8, "little"))
    h.update(bytes(data.mask[n].astype(np.uint8)))
    for v in range(data.n_views):
        if data.mask[n, v]:
            h.update(data.views[v][n].astype("<f8").tobytes())
    return np.frombuffer(h.digest(), dtype="<u8").astype(np.uint64)


def slot_rng(seed, m, data, n):
    """Generator of slot (n, m), built the way sample_completions builds it."""
    return np.random.Generator(np.random.PCG64(_SeedState(
        _slot_states(seed, m, data, np.array([n]))[0])))


def first_draws(seed, m, data, n):
    return slot_rng(seed, m, data, n).standard_normal(8).tobytes()


class TestSeedStates:
    """Keyed slot streams: a slot's draws depend on (seed, view, sample content) only."""

    DATA = make_blobs_dataset(n=70, class_count=3, view_dims=(2, 3, 2), eta=0.35,
                              seed=4, mask_seed=104)

    @pytest.mark.parametrize("seed, m", [
        (0, 0),          # an empty seed encoding
        (8, 2),
        (2**32 - 1, 1),
        (2**32, 0),
        (2**40 + 3, 1),
        (2**70 + 9, 2),  # a seed wider than 64 bits
    ])
    def test_matches_documented_derivation(self, seed, m):
        data = self.DATA
        rows = np.nonzero(~data.mask[:, m])[0]
        got = _slot_states(seed, m, data, rows)
        assert got.dtype == np.uint64 and got.shape == (rows.size, 4)
        for n, state in zip(rows.tolist(), got):
            assert state.tobytes() == documented_state(seed, m, data, n).tobytes(), n

    def test_slot_draws_ignore_the_rows_completed_with_it(self):
        train = make_blobs_dataset(n=60, class_count=3, view_dims=(2, 3, 2), eta=0.3,
                                   seed=4, mask_seed=105)
        test = self.DATA

        def draws_by_row(rows):
            part = test.subset(rows)
            return {(int(rows[i]), v): draws.tobytes()
                    for v in range(part.n_views)
                    for i, draws in zip(np.nonzero(~part.mask[:, v])[0],
                                        view_draws(part, v, k=4, n_samplings=3, seed=5,
                                                   reference=train))}

        block = draws_by_row(np.arange(test.n_samples))
        shuffled = draws_by_row(np.random.default_rng(0).permutation(test.n_samples))
        subset = draws_by_row(np.arange(3, test.n_samples, 4))
        assert shuffled == block
        assert subset == {slot: block[slot] for slot in subset}
        incomplete = np.nonzero(~test.mask.all(axis=1))[0]
        for n in incomplete[:12]:
            # one row at a time, the way predict_sample completes its row
            alone = draws_by_row(np.array([n]))
            assert alone and alone == {slot: block[slot] for slot in alone}

    def test_draws_change_with_seed_view_and_content(self):
        data = self.DATA
        n = int(np.nonzero(~data.mask[:, 1] & data.mask[:, 0])[0][0])
        base = first_draws(3, 1, data, n)
        assert first_draws(4, 1, data, n) != base
        assert first_draws(3, 2, data, n) != base
        view_0 = data.views[0].copy()
        view_0[n, 0] = np.nextafter(view_0[n, 0], np.inf)
        nudged = MultiViewDataset([view_0, *data.views[1:]], data.labels, data.mask,
                                  data.class_count)
        assert first_draws(3, 1, nudged, n) != base
        # an unobserved entry is no part of the content
        view_1 = data.views[1].copy()
        view_1[n] += 1.0
        hidden = MultiViewDataset([view_0, view_1, data.views[2]], data.labels, data.mask,
                                  data.class_count)
        assert first_draws(3, 1, hidden, n) == first_draws(3, 1, nudged, n)

    def test_seed_encodings_do_not_run_together(self):
        n = int(np.nonzero(~self.DATA.mask[:, 0])[0][0])
        seeds = [0, 1, 256, 65536, 2**64 + 1, 2**70 + 9]
        streams = {first_draws(s, 0, self.DATA, n) for s in seeds}
        assert len(streams) == len(seeds)

    @pytest.mark.parametrize("slots", [1, 16, 40])
    def test_negative_seed_rejected(self, slots):
        mask = np.ones((slots, 3), dtype=bool)
        mask[:, 0] = False  # every row misses view 0: ``slots`` slots
        data = self.DATA.subset(np.arange(slots)).with_mask(mask)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            view_draws(data, 0, k=3, n_samplings=2, seed=-1)

    def test_negative_seed_rejected_by_completion(self):
        with pytest.raises(ValueError):
            sample_completions(self.DATA, k=3, n_samplings=2, seed=-1)

    def test_state_serves_only_pcg64(self):
        state = _SeedState(np.zeros(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            state.generate_state(8, np.uint32)


def completion(cs, s):
    """The s-th completed dataset of ``cs`` as full float64 view matrices, built
    from its dataset and draws without ``gather``."""
    mats = []
    for view, missing, draws in zip(cs.data.views, (~cs.data.mask).T, cs.draws):
        mat = view.copy()
        mat[missing] = draws[:, s, :]
        mats.append(mat)
    return mats


class TestSampleCompletions:
    def test_complete_data_noop(self, blobs):
        cs = sample_completions(blobs, k=3, n_samplings=4, seed=0)
        assert cs.n_samplings == 4
        assert all(block.shape == (0, 4, d) for block, d in zip(cs.draws, blobs.view_dims))
        rows = np.arange(blobs.n_samples)
        for s in range(4):
            for v, mat in enumerate(cs.gather(rows, np.full(rows.size, s))):
                np.testing.assert_array_equal(mat, blobs.views[v])

    def test_observed_entries_bit_identical(self, blobs_incomplete):
        cs = sample_completions(blobs_incomplete, k=5, n_samplings=3, seed=1)
        rows = np.arange(blobs_incomplete.n_samples)
        for s in range(3):
            mats = cs.gather(rows, np.full(rows.size, s))
            for v in range(blobs_incomplete.n_views):
                obs = blobs_incomplete.mask[:, v]
                np.testing.assert_array_equal(
                    mats[v][obs], blobs_incomplete.views[v][obs]
                )

    def test_deterministic(self, blobs_incomplete):
        a = sample_completions(blobs_incomplete, k=5, n_samplings=3, seed=42)
        b = sample_completions(blobs_incomplete, k=5, n_samplings=3, seed=42)
        for v in range(blobs_incomplete.n_views):
            np.testing.assert_array_equal(a.draws[v], b.draws[v])

    def test_seed_changes_draws(self, blobs_incomplete):
        a = sample_completions(blobs_incomplete, k=5, n_samplings=3, seed=42)
        b = sample_completions(blobs_incomplete, k=5, n_samplings=3, seed=43)
        different = any(
            a.draws[v].size and not np.array_equal(a.draws[v], b.draws[v])
            for v in range(blobs_incomplete.n_views)
        )
        assert different

    def test_point_estimate_uses_mean(self):
        data = tiny_dataset()
        cs = sample_completions(data, k=5, n_samplings=1, seed=0, fill="neighbor_mean")
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

        draws = 10_000
        cs = sample_completions(data, k=10, n_samplings=draws, seed=7)
        sample = cs.draws[1][0]  # (draws, d)

        idx = slot_union(data, 0, 1, 10, data.labels[0])
        neighbors = data.views[1][idx]
        mu = neighbors.mean(axis=0)
        sigma = np.cov(neighbors, rowvar=False) + imputer._JITTER * np.eye(d)
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
        assert not blobs_incomplete.mask[rows].all()  # some gathered rows are drawn
        for v in range(blobs_incomplete.n_views):
            for pos, (r, s) in enumerate(zip(rows, slots)):
                np.testing.assert_array_equal(
                    gathered[v][pos], completion(cs, int(s))[v][r]
                )

    def test_gather_leaves_views_unchanged(self, blobs_incomplete):
        cs = sample_completions(blobs_incomplete, k=4, n_samplings=3, seed=5)
        before = [v.copy() for v in cs.data.views]
        rows = np.array([0, 5, 5, 17])
        for mat in cs.gather(rows, np.array([0, 1, 2, 0])):
            mat[:] = -7.0
        for v, ref in zip(cs.data.views, before):
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
        cs = sample_completions(data, k=2, n_samplings=1, seed=0, fill="neighbor_mean")
        assert cs.draws[1][0, 0, 0] == pytest.approx(15.0)

    def test_reference_pool_for_test_data(self):
        """Test-time candidates come from the reference, label-free."""
        train = make_blobs_dataset(n=60, class_count=2, view_dims=(2, 2), seed=11)
        test = make_blobs_dataset(n=10, class_count=2, view_dims=(2, 2), seed=12)
        mask = np.ones((10, 2), dtype=bool)
        mask[:, 1] = False
        test = test.with_mask(mask)
        draws = view_draws(test, 1, k=5, n_samplings=2, seed=0, reference=train)
        assert draws.shape == (10, 2, 2)
        idx = slot_union(test, 0, 1, 5, -1, ref=train)
        assert idx.size > 0
        assert idx.max() < train.n_samples

    def test_reference_pool_reads_no_test_labels(self):
        """Draws against a reference pool are the same whatever the test labels."""
        train = make_blobs_dataset(n=60, class_count=3, view_dims=(2, 3, 2), eta=0.3,
                                   seed=4, mask_seed=105)
        test = make_blobs_dataset(n=25, class_count=3, view_dims=(2, 3, 2), eta=0.35,
                                  seed=4, mask_seed=106)
        relabelled = MultiViewDataset(test.views, np.roll(test.labels, 1), test.mask,
                                      test.class_count)
        assert (relabelled.labels != test.labels).any()
        for m in range(test.n_views):
            assert (view_draws(test, m, k=4, n_samplings=3, seed=2, reference=train).tobytes()
                    == view_draws(relabelled, m, k=4, n_samplings=3, seed=2,
                                  reference=train).tobytes())


def reference_completions(data, k, n_samplings, seed, ref=None, use_labels=True,
                          fill="draws"):
    """Draws slot by slot: full-scan search, keyed RNG, the imputer docstring's low-rank draw."""
    ref = data if ref is None else ref
    draws = [[] for _ in range(data.n_views)]
    for n in range(data.n_samples):
        for m in np.nonzero(~data.mask[n])[0].tolist():
            idx = exhaustive_union(data, ref, n, m, k, use_labels)
            if not idx and use_labels:
                idx = exhaustive_union(data, ref, n, m, k, False)
            c, d = len(idx), ref.view_dims[m]
            if not idx:
                mu = ref.views[m][ref.mask[:, m]].mean(axis=0)
                factor = np.zeros((0, d))
            else:
                rows = ref.views[m][idx]
                mu = rows.mean(axis=0)
                factor = (rows - mu) / np.sqrt(c - 1) if c > 1 else np.zeros((1, d))
            if fill == "neighbor_mean":
                draws[m].append(np.broadcast_to(mu, (n_samplings, d)).copy())
                continue
            z = slot_rng(seed, m, data, n).standard_normal((n_samplings, c + d))
            draws[m].append(mu + z[:, :c] @ factor + np.sqrt(imputer._JITTER) * z[:, c:])
    return [np.stack(blocks) if blocks else np.empty((0, n_samplings, d))
            for blocks, d in zip(draws, data.view_dims)]


def fallback_dataset():
    """Blob rows plus slots that need every fallback of the chain.

    Rows 0-29 (classes 0-2) observe views 0 and 1, every fifth misses view
    1, and none observes view 2, so their view-2 slots take the column
    means. Rows 30-31 observe only view 2: no candidate shares a view with
    them, labelled or not. Row 32 is the only one of class 3, so its view-1
    slot drops the label. Rows 33-36 have one and the same view-1 row next
    to row 37's view 0, so row 37's view-1 covariance is zero. Rows 38-39
    are the only ones of class 4 and only row 38 observes view 1, so with
    labels row 39's view-1 union is that one row. All view-1 slots fall in
    one block, with union sizes 0 (rows 30-31), 1 (row 39, with labels)
    and 4.
    """
    base = make_blobs_dataset(n=30, class_count=3, view_dims=(2, 3, 2), seed=9)
    labels = np.concatenate([base.labels, [0, 1, 3, 0, 0, 0, 0, 0, 4, 4]])
    rng = np.random.default_rng(10)
    v0 = np.vstack([base.views[0], np.zeros((2, 2)), [[0.5, 0.5]],
                    [50.0, 50.0] + rng.normal(0.0, 0.1, (4, 2)), [[50.0, 50.0]],
                    np.full((2, 2), -50.0)])
    v1 = np.vstack([base.views[1], np.zeros((3, 3)), np.full((4, 3), 5.0), np.zeros((1, 3)),
                    np.full((2, 3), -5.0)])
    v2 = np.vstack([base.views[2], rng.normal(0.0, 1.0, (10, 2))])
    mask = np.zeros((40, 3), dtype=bool)
    mask[:30, :2] = True
    mask[0:30:5, 1] = False
    mask[30:32, 2] = True
    mask[32, 0] = True
    mask[33:37, :2] = True
    mask[37, 0] = True
    mask[38, :2] = True
    mask[39, 0] = True
    return MultiViewDataset([v0, v1, v2], labels, mask, 5)


def every_view_draws(data, k, n_samplings, seed, use_labels=True, fill="draws"):
    """Each view's ``view_draws`` of ``data`` from its own rows: by label as
    ``sample_completions`` draws them, or label-free with ``data`` as the reference."""
    if use_labels:
        return sample_completions(data, k, n_samplings, seed, fill=fill).draws
    return [view_draws(data, m, k, n_samplings, seed, reference=data, fill=fill)
            for m in range(data.n_views)]


class TestBatchedDraws:
    """view_draws against the slot-by-slot reference, bit for bit.

    The reference computes in float64; the stored draws are its values
    rounded once to float32.
    """

    def assert_same_draws(self, data, got, expect):
        for v, block in enumerate(expect):
            assert got[v].shape[0] == np.count_nonzero(~data.mask[:, v])
            assert got[v].dtype == np.float32
            assert got[v].tobytes() == block.astype(np.float32).tobytes()

    # ids: options<i> with 4 slots a block, options<i>-block<b> with b slots
    @pytest.mark.parametrize("options, block", [
        pytest.param(options, block, id=f"options{i}" + ("" if block == 4 else f"-block{block}"))
        for i, options in [
            (0, dict()),
            (1, dict(use_labels=False)),
            (3, dict(fill="neighbor_mean")),
        ]
        for block in (1, 4, 128)
    ])
    def test_matches_slot_by_slot_reference(self, options, block, monkeypatch):
        data = make_blobs_dataset(n=70, class_count=3, view_dims=(2, 3, 2), eta=0.35,
                                  seed=4, mask_seed=104)
        monkeypatch.setattr(imputer, "_SLOT_BLOCK", block)
        got = every_view_draws(data, 3, 5, 8, **options)
        self.assert_same_draws(data, got,
                               reference_completions(data, 3, 5, 8, **options))

    def test_reference_pool(self):
        train = make_blobs_dataset(n=60, class_count=3, view_dims=(2, 3, 2), eta=0.3,
                                   seed=4, mask_seed=105)
        test = make_blobs_dataset(n=25, class_count=3, view_dims=(2, 3, 2), eta=0.35,
                                  seed=4, mask_seed=106)
        got = [view_draws(test, m, k=4, n_samplings=6, seed=2, reference=train)
               for m in range(test.n_views)]
        self.assert_same_draws(
            test, got, reference_completions(test, 4, 6, 2, ref=train, use_labels=False))

    @pytest.mark.parametrize("use_labels", [True, False])
    def test_fallbacks_and_escalation(self, use_labels):
        data = fallback_dataset()
        got = every_view_draws(data, 4, 5, 3, use_labels=use_labels)
        self.assert_same_draws(
            data, got, reference_completions(data, 4, 5, 3, use_labels=use_labels))
        sizes = [len(exhaustive_union(data, data, n, 1, 4, use_labels)) for n in (30, 39, 37)]
        assert sizes == ([0, 1, 4] if use_labels else [0, 4, 4])
        column_mean = data.views[2][30:32].mean(axis=0)  # the rows observing view 2
        # an empty union draws around the column means, c = 0
        noise = np.sqrt(imputer._JITTER) * slot_rng(3, 2, data, 0).standard_normal((5, 2))
        np.testing.assert_allclose(got[2][0], column_mean + noise, rtol=1e-6)

    # ids: <dataset>-<use_labels>
    @pytest.mark.parametrize("use_labels", [True, False])
    @pytest.mark.parametrize("dataset", ["blobs", "fallback"])
    def test_one_search_per_observed_view_and_key(self, dataset, use_labels, monkeypatch):
        """With q queries in an (observed view, key), one view_draws call runs
        _nearest ceil(q / _SLOT_BLOCK) times, however its slots fall into draw blocks.
        A slot's key is its label, or -1 without labels or where no row of its label
        is a candidate: the slots whose labelled union is empty form the -1 key."""
        if dataset == "fallback":
            data = fallback_dataset()
        else:
            data = make_blobs_dataset(n=70, class_count=3, view_dims=(2, 3, 2), eta=0.35,
                                      seed=4, mask_seed=104)
        monkeypatch.setattr(imputer, "_SLOT_BLOCK", 4)
        searched = []

        def counted(queries, candidates, k):
            searched.append(len(queries))
            return _nearest(queries, candidates, k)

        monkeypatch.setattr(imputer, "_nearest", counted)
        fell_back = 0
        for m in range(data.n_views):
            searched.clear()
            view_draws(data, m, k=3, n_samplings=2, seed=8,
                       reference=None if use_labels else data)
            rows = np.nonzero(~data.mask[:, m])[0]
            keys = np.array([data.labels[n]
                             if use_labels and exhaustive_union(data, data, n, m, 3, True)
                             else -1 for n in rows.tolist()], dtype=np.int64)
            fell_back += int(np.count_nonzero(keys == -1)) if use_labels else 0
            expect = []
            for v in range(data.n_views):
                if v == m:
                    continue
                for q in np.unique(keys[data.mask[rows, v]], return_counts=True)[1]:
                    expect += [4] * (q // 4) + [q % 4] * int(q % 4 > 0)
            assert searched == expect
        assert fell_back > 0 if (use_labels and dataset == "fallback") else fell_back == 0

    @pytest.mark.parametrize("use_labels", [True, False])
    def test_one_neighbor_search_per_view(self, use_labels, monkeypatch):
        """Each view's slots are searched in one _neighbor_unions call, slots that
        drop their label included."""
        data = fallback_dataset()
        searched = []

        def counted(data, ref, rows, m, k, keys):
            searched.append(rows.tolist())
            return _neighbor_unions(data, ref, rows, m, k, keys)

        monkeypatch.setattr(imputer, "_neighbor_unions", counted)
        for m in range(data.n_views):
            searched.clear()
            view_draws(data, m, k=4, n_samplings=2, seed=3,
                       reference=None if use_labels else data)
            assert searched == [np.nonzero(~data.mask[:, m])[0].tolist()]


class TestViewNoRowMisses:
    """view_draws of a view that every row observes: an empty block, no search."""

    @pytest.mark.parametrize("fill", ["draws", "neighbor_mean"])
    @pytest.mark.parametrize("use_labels", [True, False])
    def test_returns_empty_block_without_search(self, blobs, fill, use_labels, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched a view that no row misses")

        monkeypatch.setattr(imputer, "_slot_distribution", no_search)
        for m, d in enumerate(blobs.view_dims):
            out = view_draws(blobs, m, n_samplings=3, seed=1, fill=fill,
                             reference=None if use_labels else blobs)
            assert out.shape == (0, 3, d) and out.dtype == np.float32

    def test_hashes_no_slot(self, blobs, monkeypatch):
        def no_hash(*args):
            raise AssertionError("hashed the slots of a view that no row misses")

        monkeypatch.setattr(imputer, "_slot_states", no_hash)
        for m, d in enumerate(blobs.view_dims):
            assert view_draws(blobs, m, n_samplings=3, seed=1).shape == (0, 3, d)

    def test_negative_seed_still_rejected(self, blobs):
        with pytest.raises(ValueError):
            view_draws(blobs, 0, n_samplings=3, seed=-1)

    def test_column_mean_fill_still_reads_the_means(self, blobs, monkeypatch):
        calls = []
        column_means = imputer._column_means
        monkeypatch.setattr(imputer, "_column_means",
                            lambda ref, m: calls.append(m) or column_means(ref, m))
        out = view_draws(blobs, 1, n_samplings=3, fill="column_mean")
        assert out.shape == (0, 3, blobs.view_dims[1]) and out.dtype == np.float32
        assert calls == [1]


class TestStorage:
    """Draws are stored as float32 and read back as float64; views are shared."""

    @pytest.mark.parametrize("fill", imputer._FILLS)
    def test_draws_stored_as_float32_and_read_back_as_float64(self, blobs_incomplete, fill):
        cs = sample_completions(blobs_incomplete, k=4, n_samplings=3, seed=5, fill=fill)
        # sample_completions keeps each view's view_draws output as it is
        assert all(block.dtype == np.float32 for block in cs.draws)
        every_row = np.arange(blobs_incomplete.n_samples)
        for v, missing in enumerate((~blobs_incomplete.mask).T):
            rows = np.nonzero(missing)[0]
            for s in range(3):
                mat = cs.gather(every_row, np.full(every_row.size, s))[v]
                assert mat.dtype == np.float64
                np.testing.assert_array_equal(mat[rows], cs.draws[v][:, s].astype(np.float64))
            slots = np.arange(rows.size) % 3
            mat = cs.gather(rows, slots)[v]
            assert mat.dtype == np.float64
            np.testing.assert_array_equal(
                mat, cs.draws[v][np.arange(rows.size), slots].astype(np.float64))

    def test_views_are_the_datasets_own(self, blobs_incomplete):
        cs = sample_completions(blobs_incomplete, k=4, n_samplings=2, seed=5)
        assert cs.data is blobs_incomplete
        assert [f.name for f in dataclasses.fields(cs)] == ["data", "draws"]

    def test_building_holds_little_beyond_the_float32_draws(self, monkeypatch):
        data = make_blobs_dataset(n=400, class_count=3, view_dims=(40, 30, 20), eta=0.5,
                                  seed=21, mask_seed=22)
        # small blocks keep the per-block normals and products small next to the draws
        monkeypatch.setattr(imputer, "_SLOT_BLOCK", 8)
        n_samplings = 30
        draw_bytes = sum(int((~data.mask[:, v]).sum()) * d
                         for v, d in enumerate(data.view_dims)) * n_samplings * 4
        # a first call makes the one-time allocations of a fresh process
        sample_completions(data, k=5, n_samplings=1, seed=3)
        tracemalloc.start()
        try:
            cs = sample_completions(data, k=5, n_samplings=n_samplings, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * draw_bytes
        assert sum(block.nbytes for block in cs.draws) == draw_bytes


class TestMeanValueCompletions:
    def test_fills_with_column_means(self):
        data = tiny_dataset()
        cs = sample_completions(data, n_samplings=1, fill="column_mean")
        observed_mean = data.views[1][data.mask[:, 1]].mean(axis=0)
        np.testing.assert_allclose(cs.draws[1][0, 0], observed_mean)
        assert cs.n_samplings == 1
