"""Dataset loading, standardization, masks, and splits."""

import os
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from evifuse.dataset import (
    MultiViewDataset,
    generate_missing_mask,
    load_dataset,
    split,
    write_file,
    zscore_apply,
    zscore_fit_transform,
)
from conftest import make_blobs_dataset, write_dataset_dir


class TestLoadDataset:
    def test_complete_default_mask(self, tmp_path):
        np.savetxt(tmp_path / "view_0.csv", np.arange(8.0).reshape(4, 2), delimiter=",")
        np.savetxt(tmp_path / "view_1.csv", np.arange(12.0).reshape(4, 3), delimiter=",")
        np.savetxt(tmp_path / "labels.csv", np.array([[0], [1], [0], [1]]), fmt="%d")
        data = load_dataset(tmp_path)
        assert data.n_samples == 4
        assert data.n_views == 2
        assert data.class_count == 2
        assert data.mask.all()

    def test_all_false_mask_row_rejected(self, tmp_path):
        np.savetxt(tmp_path / "view_0.csv", np.ones((2, 2)), delimiter=",")
        np.savetxt(tmp_path / "view_1.csv", np.ones((2, 2)), delimiter=",")
        np.savetxt(tmp_path / "labels.csv", np.array([[0], [1]]), fmt="%d")
        np.savetxt(tmp_path / "mask.csv", np.array([[1, 1], [0, 0]]), fmt="%d", delimiter=",")
        with pytest.raises(ValueError, match="zero observed views"):
            load_dataset(tmp_path)

    def test_row_count_mismatch(self, tmp_path):
        np.savetxt(tmp_path / "view_0.csv", np.ones((3, 2)), delimiter=",")
        np.savetxt(tmp_path / "view_1.csv", np.ones((4, 2)), delimiter=",")
        np.savetxt(tmp_path / "labels.csv", np.array([[0], [1], [0]]), fmt="%d")
        with pytest.raises(ValueError):
            load_dataset(tmp_path)

    def test_non_numeric_cell(self, tmp_path):
        (tmp_path / "view_0.csv").write_text("1.0,2.0\noops,4.0\n")
        np.savetxt(tmp_path / "labels.csv", np.array([[0], [1]]), fmt="%d")
        with pytest.raises(ValueError, match="non-numeric"):
            load_dataset(tmp_path)

    def test_label_gap_rejected(self, tmp_path):
        np.savetxt(tmp_path / "view_0.csv", np.ones((3, 2)), delimiter=",")
        np.savetxt(tmp_path / "labels.csv", np.array([[0], [2], [0]]), fmt="%d")
        with pytest.raises(ValueError, match="contiguous"):
            load_dataset(tmp_path)

    def test_label_gap_costs_what_the_rows_cost(self, tmp_path):
        """A far label does not cost memory or message length in proportion to itself."""
        np.savetxt(tmp_path / "view_0.csv", np.ones((3, 2)), delimiter=",")
        np.savetxt(tmp_path / "labels.csv", np.array([[0], [100_000], [0]]), fmt="%d")
        with pytest.raises(ValueError):
            load_dataset(tmp_path)  # warm up: a first read allocates for its own set-up
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="contiguous") as raised:
                load_dataset(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(str(raised.value)) < 200
        assert "99999 of classes 0..100000 absent, the smallest 1" in str(raised.value)
        assert peak < 1_000_000

    @pytest.mark.parametrize("empty", ["labels.csv", "view_0.csv"])
    def test_file_without_rows_named(self, empty, tmp_path):
        write_dataset_dir(tmp_path, make_blobs_dataset(n=6, seed=3))
        (tmp_path / empty).write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{empty} holds no rows$"):
                load_dataset(tmp_path)

    def test_roundtrip_through_directory(self, tmp_path):
        data = make_blobs_dataset(n=30, eta=0.4, seed=4)
        write_dataset_dir(tmp_path / "d", data)
        back = load_dataset(tmp_path / "d")
        assert back.n_samples == data.n_samples
        np.testing.assert_array_equal(back.mask, data.mask)
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_handwritten_like_layout(self, tmp_path):
        """Six views with heterogeneous dims and ten classes load cleanly."""
        dims = (24, 7, 21, 4, 6, 3)  # scaled-down version of the 6-view layout
        rng = np.random.default_rng(0)
        n = 60
        for v, d in enumerate(dims):
            np.savetxt(tmp_path / f"view_{v}.csv", rng.normal(size=(n, d)), delimiter=",")
        np.savetxt(tmp_path / "labels.csv", np.repeat(np.arange(10), 6)[:, None], fmt="%d")
        data = load_dataset(tmp_path)
        assert data.n_views == 6
        assert data.class_count == 10
        assert data.view_dims == list(dims)


class TestWriteFile:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        write_file(path, "new")
        write_file(tmp_path / "raw.bin", b"\x00\x01")
        assert path.read_text() == "new"
        assert (tmp_path / "raw.bin").read_bytes() == b"\x00\x01"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "raw.bin"]

    def test_without_overwrite_an_existing_file_stands(self, tmp_path):
        path = tmp_path / "cell.json"
        write_file(path, "first", overwrite=False)
        with pytest.raises(FileExistsError):
            write_file(path, "second", overwrite=False)
        assert path.read_text() == "first"
        assert [p.name for p in tmp_path.iterdir()] == ["cell.json"]

    def test_failed_publish_leaves_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text("old")

        def rename_fails(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", rename_fails)
        with pytest.raises(OSError, match="rename failed"):
            write_file(path, "new")
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestZScore:
    def test_two_point_column(self):
        train = MultiViewDataset([np.array([[1.0], [3.0]])], [0, 1], np.ones((2, 1), bool), 2)
        out, _ = zscore_fit_transform(train)
        np.testing.assert_allclose(out.views[0].ravel(), [-1.0, 1.0])

    def test_constant_column_centered_only(self):
        train = MultiViewDataset([np.array([[5.0], [5.0], [5.0]])], [0, 1, 0],
                                 np.ones((3, 1), bool), 2)
        out, _ = zscore_fit_transform(train)
        np.testing.assert_array_equal(out.views[0].ravel(), [0.0, 0.0, 0.0])

    def test_test_value_at_train_mean_is_zero(self):
        train = MultiViewDataset([np.array([[1.0], [3.0]])], [0, 1], np.ones((2, 1), bool), 2)
        test = MultiViewDataset([np.array([[2.0]])], [0], np.ones((1, 1), bool), 2)
        _, stats = zscore_fit_transform(train)
        test_out = zscore_apply(test, stats)
        assert test_out.views[0][0, 0] == 0.0

    def test_statistics_use_observed_entries_only(self):
        views = [np.array([[1.0], [3.0], [999.0]])]
        mask = np.array([[True], [True], [False]])
        # the masked row still needs one observed view somewhere: add a second view
        data = MultiViewDataset([views[0], np.zeros((3, 1))], [0, 1, 0],
                                np.hstack([mask, np.ones((3, 1), bool)]), 2)
        out, stats = zscore_fit_transform(data)
        assert stats.means[0][0] == pytest.approx(2.0)
        np.testing.assert_allclose(out.views[0][:2].ravel(), [-1.0, 1.0])
        assert out.views[0][2, 0] == 0.0  # missing slot zeroed, never read

    def test_apply_matches_fit_transform(self):
        data = make_blobs_dataset(n=25, eta=0.2, seed=10)
        out, stats = zscore_fit_transform(data)
        again = zscore_apply(data, stats)
        for v, w in zip(out.views, again.views):
            np.testing.assert_array_equal(v, w)


class TestMissingMask:
    def test_exact_slot_count(self):
        mask = generate_missing_mask(10, 3, 0.2, seed=0)
        assert (~mask).sum() == 6
        assert mask.any(axis=1).all()

    def test_zero_rate_all_true(self):
        mask = generate_missing_mask(7, 4, 0.0, seed=1)
        assert mask.all()

    def test_infeasible_rate_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            generate_missing_mask(2, 2, 0.9, seed=0)

    def test_every_row_keeps_a_view_at_maximum(self):
        # round(eta*n*v) == n*(v-1): every sample ends with exactly one view
        mask = generate_missing_mask(6, 3, 4.0 / 6.0, seed=3)
        assert (~mask).sum() == 12
        np.testing.assert_array_equal(mask.sum(axis=1), np.ones(6))

    def test_deterministic_and_seed_sensitive(self):
        a = generate_missing_mask(10, 4, 0.4, seed=5)
        b = generate_missing_mask(10, 4, 0.4, seed=5)
        c = generate_missing_mask(10, 4, 0.4, seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_realized_rate_matches_target(self):
        n, v = 200, 5
        for eta in (0.1, 0.3, 0.5):
            mask = generate_missing_mask(n, v, eta, seed=2)
            assert (~mask).sum() == round(eta * n * v)

    def test_eta_bounds(self):
        with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\)"):
            generate_missing_mask(5, 2, 1.0)
        with pytest.raises(ValueError, match=r"eta must lie in \[0, 1\)"):
            generate_missing_mask(5, 2, -0.1)


class TestSplit:
    def test_exact_fraction(self):
        data = make_blobs_dataset(n=10, class_count=2, seed=2)
        train, test = split(data, 0.8, seed=0)
        assert train.n_samples == 8
        assert test.n_samples == 2

    def test_stratified_proportions(self):
        labels = np.array([0] * 6 + [1] * 4)
        views = [np.arange(10.0)[:, None]]
        data = MultiViewDataset(views, labels, np.ones((10, 1), bool), 2)
        train, test = split(data, 0.5, seed=1)
        assert (train.labels == 0).sum() == 3
        assert (train.labels == 1).sum() == 2
        assert (test.labels == 0).sum() == 3
        assert (test.labels == 1).sum() == 2

    def test_deterministic(self):
        data = make_blobs_dataset(n=30, seed=3)
        t1, _ = split(data, 0.7, seed=4)
        t2, _ = split(data, 0.7, seed=4)
        np.testing.assert_array_equal(t1.labels, t2.labels)
        np.testing.assert_array_equal(t1.views[0], t2.views[0])

    def test_partitions_disjoint_and_cover(self):
        data = make_blobs_dataset(n=30, seed=5)
        train, test = split(data, 0.6, seed=6)
        assert train.n_samples + test.n_samples == 30
        combined = np.vstack([train.views[0], test.views[0]])
        assert np.unique(combined, axis=0).shape[0] == 30

    def test_singleton_class_rejected(self):
        data = MultiViewDataset([np.zeros((3, 1))], [0, 0, 1], np.ones((3, 1), bool), 2)
        with pytest.raises(ValueError, match="stratified"):
            split(data, 0.5, seed=0)

    def test_train_fraction_bounds(self):
        data = make_blobs_dataset(n=10, class_count=2, seed=2)
        for fraction in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"train_fraction must lie in \(0, 1\)"):
                split(data, fraction)

    def test_every_class_in_both_partitions(self):
        data = make_blobs_dataset(n=40, class_count=5, seed=7)
        train, test = split(data, 0.8, seed=8)
        assert set(train.labels) == set(range(5))
        assert set(test.labels) == set(range(5))


class TestDatasetInvariants:
    def test_immutable_after_construction(self, blobs):
        with pytest.raises(ValueError):
            blobs.views[0][0, 0] = 99.0

    def test_pickle_round_trip_stays_read_only(self):
        data = make_blobs_dataset(n=20, eta=0.2, seed=3)
        back = pickle.loads(pickle.dumps(data))
        assert back.class_count == data.class_count
        for arr, got in zip((*data.views, data.labels, data.mask),
                            (*back.views, back.labels, back.mask)):
            np.testing.assert_array_equal(got, arr)
            assert got.dtype == arr.dtype and not got.flags.writeable

    def test_view_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultiViewDataset([np.zeros((3, 1)), np.zeros((2, 1))], [0, 1, 0],
                             np.ones((3, 2), bool), 2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MultiViewDataset([np.zeros((2, 1))], [0, 5], np.ones((2, 1), bool), 2)


class TestBlobsHelper:
    @pytest.mark.parametrize("seed", [21, 41, 61])
    def test_same_seed_same_distribution_for_any_n(self, seed):
        """Train and test sets built with one seed and different n must share
        class centers, or a test set scores a model on foreign data."""
        noise = 0.7
        big = make_blobs_dataset(n=90, noise=noise, seed=seed)
        small = make_blobs_dataset(n=30, noise=noise, seed=seed)
        for v in range(big.n_views):
            for c in range(big.class_count):
                mean_big = big.views[v][big.labels == c].mean(axis=0)
                mean_small = small.views[v][small.labels == c].mean(axis=0)
                assert np.abs(mean_big - mean_small).max() < 3 * noise
