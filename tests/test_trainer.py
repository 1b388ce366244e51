"""Training orchestration: modes, accounting, determinism, checkpoints."""

import gc
import json
import struct
import warnings

import numpy as np
import pytest

from evifuse.dataset import zscore_fit_transform
from evifuse.evidential import loss_and_grad, one_hot
from evifuse.fusion import _fuse_alphas
from evifuse.network import EvidenceNetwork
from evifuse.predictor import evaluate
from evifuse.trainer import (
    CheckpointError,
    NonFiniteLossError,
    TrainConfig,
    _flatten_pairs,
    _subseed,
    _SEED_IMPUTE,
    build_completions,
    load_model,
    save_model,
    train,
)
from conftest import make_blobs_dataset, write_checkpoint_version

FAST = dict(epochs=12, batch_size=32, n_samplings=4, hidden=(12,), anneal_epochs=5,
            early_stop=False)


@pytest.fixture(scope="module")
def toy_model():
    data = make_blobs_dataset(n=90, eta=0.3, seed=21, mask_seed=22)
    cfg = TrainConfig(seed=3, **FAST)
    return data, cfg, train(data, cfg)


class TestTrainBasics:
    def test_history_length_and_finiteness(self, toy_model):
        _, cfg, model = toy_model
        hist = model.loss_history
        assert len(hist) == cfg.epochs
        for entry in hist:
            assert np.isfinite(entry["total"])
            assert np.isfinite(entry["fused"])
            assert all(np.isfinite(v) for v in entry["views"])

    def test_loss_improves_on_separable_data(self, toy_model):
        _, cfg, model = toy_model
        hist = model.loss_history
        # The total includes lambda * KL, and lambda ramps from 0 while the KL
        # term is annealed in, so only totals recorded at one lambda compare.
        first_full = next(h for h in hist if h["lambda"] == cfg.anneal_final)
        assert hist[-1]["total"] < first_full["total"]

    def test_lambda_schedule_recorded_monotone(self, toy_model):
        _, cfg, model = toy_model
        lams = [h["lambda"] for h in model.loss_history]
        assert lams[0] == 0.0
        assert all(b >= a for a, b in zip(lams, lams[1:]))
        assert max(lams) <= cfg.anneal_final

    def test_deterministic_loss_history(self):
        data = make_blobs_dataset(n=60, eta=0.2, seed=31, mask_seed=32)
        cfg = TrainConfig(seed=5, **FAST)
        h1 = train(data, cfg).loss_history
        h2 = train(data, cfg).loss_history
        assert h1 == h2

    @pytest.mark.parametrize("mode, error", [("uimc", NonFiniteLossError),
                                             ("naive_ce", FloatingPointError)])
    def test_diverged_run_fails_without_warnings(self, mode, error):
        data = make_blobs_dataset(n=60, eta=0.3, seed=21, mask_seed=22)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                train(data, TrainConfig(learning_rate=1e200, epochs=3, mode=mode))

    def test_complete_data_single_pair_per_sample(self, blobs):
        cfg = TrainConfig(seed=0, **FAST)
        completions = build_completions(blobs, cfg)
        rows, slots = _flatten_pairs(completions)
        assert rows.size == blobs.n_samples
        assert np.all(slots == 0)

    def test_incomplete_samples_expand_by_n_samplings(self, blobs_incomplete):
        cfg = TrainConfig(seed=0, **FAST)
        std, _, _ = zscore_fit_transform(blobs_incomplete)
        completions = build_completions(std, cfg)
        rows, _ = _flatten_pairs(completions)
        n_incomplete = int((~blobs_incomplete.mask.all(axis=1)).sum())
        n_complete = blobs_incomplete.n_samples - n_incomplete
        assert rows.size == n_complete + cfg.n_samplings * n_incomplete


class TestModes:
    def test_all_modes_train_and_predict(self, blobs_incomplete):
        test = make_blobs_dataset(n=40, eta=0.3, seed=21, mask_seed=99)
        for mode in ("uimc", "single_imputation", "naive_ce", "mean_imputation"):
            cfg = TrainConfig(seed=1, mode=mode, **FAST)
            model = train(blobs_incomplete, cfg)
            metrics = evaluate(model, test, seed=0)
            assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_single_imputation_uses_neighbor_mean(self, blobs_incomplete):
        std, _, _ = zscore_fit_transform(blobs_incomplete)
        cfg_multi = TrainConfig(seed=2, mode="uimc", **FAST)
        cfg_point = TrainConfig(seed=2, mode="single_imputation", **FAST)
        multi = build_completions(std, cfg_multi, seed=0)
        point = build_completions(std, cfg_point, seed=0)
        assert point.n_samplings == 1
        for v in range(std.n_views):
            if multi.draws[v].size == 0:
                continue
            # the sampled draws scatter around the point estimate (their mean)
            mc_mean = multi.draws[v].mean(axis=1)
            np.testing.assert_allclose(mc_mean, point.draws[v][:, 0, :], atol=1.0)

    def test_modes_see_identical_inputs_when_complete(self, blobs):
        base = None
        for mode in ("uimc", "single_imputation", "naive_ce", "mean_imputation"):
            cfg = TrainConfig(seed=3, mode=mode, **FAST)
            cs = build_completions(blobs, cfg, seed=0)
            mats = cs.completion(0)
            if base is None:
                base = mats
            else:
                for a, b in zip(base, mats):
                    np.testing.assert_array_equal(a, b)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="bogus")


class TestAccounting:
    def test_reported_loss_matches_independent_recomputation(self):
        """Full-batch first-epoch total equals a from-scratch evaluation of
        the objective over every (sample, sampling) pair."""
        data = make_blobs_dataset(n=50, eta=0.3, seed=41, mask_seed=42)
        cfg = TrainConfig(epochs=1, batch_size=10_000, n_samplings=3, hidden=(8,),
                          seed=7, anneal_epochs=5, early_stop=False)
        model = train(data, cfg)
        reported = model.loss_history[0]

        # recompute with identically re-initialized networks on the same completions
        std, _, _ = zscore_fit_transform(data)
        completions = build_completions(std, cfg, seed=_subseed(cfg.seed, _SEED_IMPUTE))
        rows, slots = _flatten_pairs(completions)
        nets = [EvidenceNetwork([d, *cfg.hidden, data.class_count],
                                seed=_subseed(cfg.seed, 101, v))
                for v, d in enumerate(std.view_dims)]
        lam = 0.0  # epoch 0
        total = 0.0
        labels_hot = one_hot(std.labels, data.class_count)
        for r, s in zip(rows, slots):
            xs = completions.gather(np.array([r]), np.array([s]))
            alphas = [net.forward(x) + 1.0 for net, x in zip(nets, xs)]
            fused, _ = _fuse_alphas([np.atleast_2d(a) for a in alphas])
            y = labels_hot[r]
            total += float(loss_and_grad(fused[0], y, lam)[0])
            total += sum(float(loss_and_grad(a[0], y, lam)[0]) for a in alphas)
        assert reported["total"] == pytest.approx(total, rel=1e-6)


def damaged_header(raw: bytes, offset: int, value: int) -> bytes:
    """A checkpoint whose first central-directory entry has ``value`` ORed in at ``offset``."""
    raw = bytearray(raw)
    # the end-of-central-directory record holds the offset of the
    # first central-directory entry in its bytes 16..19
    eocd = raw.rfind(b"PK\x05\x06")
    entry = struct.unpack_from("<I", raw, eocd + 16)[0]
    assert raw[entry:entry + 4] == b"PK\x01\x02"
    raw[entry + offset] |= value
    return bytes(raw)


class TestCheckpoint:
    def test_roundtrip_identical_predictions(self, toy_model, tmp_path):
        data, _, model = toy_model
        test = make_blobs_dataset(n=30, eta=0.3, seed=21, mask_seed=55)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        m1 = evaluate(model, test, seed=9)
        m2 = evaluate(loaded, test, seed=9)
        assert m1["predictions"] == m2["predictions"]
        assert m1["accuracy"] == m2["accuracy"]
        assert m1["mean_uncertainty"] == m2["mean_uncertainty"]

    def test_roundtrip_under_different_ambient_seed(self, toy_model, tmp_path):
        data, _, model = toy_model
        test = make_blobs_dataset(n=20, eta=0.3, seed=21, mask_seed=56)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        before = evaluate(model, test, seed=4)["predictions"]
        np.random.seed(12345)  # ambient global state must not matter
        loaded = load_model(path)
        assert evaluate(loaded, test, seed=4)["predictions"] == before

    def test_truncated_file_structured_error(self, toy_model, tmp_path):
        _, _, model = toy_model
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_empty_file_structured_error(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_model(path)

    @pytest.mark.parametrize("offset, value", [
        (6, 0xFF),  # "version needed to extract" beyond what zipfile reads
        (8, 0x01),  # general-purpose flags: the entry claims to be encrypted
    ])
    def test_damaged_zip_header_structured_error(self, toy_model, tmp_path,
                                                 offset, value):
        _, _, model = toy_model
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        path.write_bytes(damaged_header(path.read_bytes(), offset, value))
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_damaged_file_left_closed(self, toy_model, tmp_path):
        _, _, model = toy_model
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        raw = path.read_bytes()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for damaged in (raw[: len(raw) // 3], damaged_header(raw, 6, 0xFF),
                            damaged_header(raw, 8, 0x01)):
                path.write_bytes(damaged)
                with pytest.raises(CheckpointError):
                    load_model(path)
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_no_optimizer_or_shuffle_state_saved(self, toy_model, tmp_path):
        _, _, model = toy_model
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        with np.load(path) as payload:
            assert not [key for key in payload.files if key.startswith("opt")]
            meta = json.loads(bytes(payload["meta_json"]).decode("utf-8"))
        assert "rng_state" not in meta

    def test_version_1_rejected(self, toy_model, tmp_path):
        _, _, model = toy_model
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        write_checkpoint_version(path, 1)
        with pytest.raises(CheckpointError, match="unsupported"):
            load_model(path)

    def test_garbage_file_structured_error(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_config_json_roundtrip(self):
        cfg = TrainConfig(epochs=17, hidden=(32, 16), mode="naive_ce", seed=9)
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            TrainConfig.from_dict({"schema": 1, "epoch": 5})

    def test_config_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            TrainConfig.from_dict({"schema": 2})


class TestEarlyStop:
    def test_plateau_stops_before_budget(self):
        data = make_blobs_dataset(n=60, eta=0.0, seed=51)
        cfg = TrainConfig(epochs=300, batch_size=64, n_samplings=2, hidden=(8,),
                          anneal_epochs=3, seed=1, early_stop=True, patience=5,
                          plateau_tol=0.5)  # absurdly strict improvement demand
        model = train(data, cfg)
        assert model.epochs_run < 300
        assert len(model.loss_history) == model.epochs_run
