"""Command-line entry point: exit codes, error reporting and written outputs."""

import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evifuse import cli, experiments, trainer
from evifuse.dataset import load_dataset, zscore_fit_transform
from evifuse.imputer import sample_completions
from evifuse.trainer import TrainConfig
from conftest import (SHAPE_FORGERIES, forge_shape, make_blobs_dataset, rewrite_checkpoint_meta,
                      write_checkpoint_version, write_dataset_dir)

TINY = {"epochs": 1, "batch_size": 32, "n_samplings": 2, "hidden": [8], "anneal_epochs": 1}


def train_tiny(tmp_path, **config_overrides):
    """A dataset directory and a one-epoch checkpoint trained on it by the CLI."""
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=40, eta=0.3, seed=21, mask_seed=22))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(TINY, **config_overrides)))
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--data", str(data_dir), "--out", str(ckpt),
                     "--config", str(config)]) == cli.EXIT_OK
    return data_dir, ckpt


def assert_eval_exits_config(data_dir, ckpt, tmp_path, capsys, *expected):
    """``evifuse eval`` exits 2, writes nothing, and its error holds each of ``expected``."""
    capsys.readouterr()
    out = tmp_path / "eval.json"
    code = cli.main(["eval", "--model", str(ckpt), "--data", str(data_dir),
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:" in err and all(part in err for part in expected)
    assert not out.exists()


def test_eval_truncated_checkpoint_exits_config(tmp_path, capsys):
    data_dir, ckpt = train_tiny(tmp_path)
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[: len(raw) // 3])
    assert_eval_exits_config(data_dir, ckpt, tmp_path, capsys)


def test_eval_version_1_checkpoint_exits_config(tmp_path, capsys):
    data_dir, ckpt = train_tiny(tmp_path)
    write_checkpoint_version(ckpt, 1)
    assert_eval_exits_config(data_dir, ckpt, tmp_path, capsys)


def test_eval_schema_2_checkpoint_exits_config(tmp_path, capsys):
    data_dir, ckpt = train_tiny(tmp_path)
    rewrite_checkpoint_meta(ckpt, lambda meta: meta["config"].update(
        schema=2, anneal_final=1.0, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=1e-5))
    assert_eval_exits_config(data_dir, ckpt, tmp_path, capsys)


@pytest.mark.parametrize("key", SHAPE_FORGERIES)
def test_eval_checkpoint_array_unlike_its_layer_sizes_exits_config(tmp_path, capsys, key):
    data_dir, ckpt = train_tiny(tmp_path)
    forge_shape(ckpt, key)
    assert_eval_exits_config(data_dir, ckpt, tmp_path, capsys, "corrupt checkpoint", key)


def test_eval_on_fewer_views_than_the_model_exits_config(tmp_path, capsys):
    _, ckpt = train_tiny(tmp_path)
    data = make_blobs_dataset(n=40, view_dims=(3,), seed=21)
    assert_eval_exits_config(write_dataset_dir(tmp_path / "one_view", data), ckpt,
                             tmp_path, capsys)


def test_eval_on_a_view_one_feature_short_exits_config(tmp_path, capsys):
    _, ckpt = train_tiny(tmp_path)
    data = make_blobs_dataset(n=40, view_dims=(2, 2), seed=21)
    capsys.readouterr()
    out = tmp_path / "eval.json"
    assert cli.main(["eval", "--model", str(ckpt), "--out", str(out), "--data",
                     str(write_dataset_dir(tmp_path / "short", data))]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: view 0 has 2 features, the model 3\n"
    assert not out.exists()


def test_jitter_in_config_exits_config(tmp_path, capsys):
    """Settings that became constants are unknown keys, whatever their value."""
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=40, eta=0.3, seed=21, mask_seed=22))
    config = tmp_path / "config.json"
    for key, value in [("jitter", 1e-3), ("patience", 20), ("plateau_tol", 1e-3)]:
        config.write_text(json.dumps({**TINY, key: value}))
        assert cli.main(["impute", "--data", str(data_dir), "--config", str(config),
                         "--out", str(tmp_path / "imputed")]) == cli.EXIT_CONFIG
        assert cli.main(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.ckpt"),
                         "--config", str(config)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.count(f"unknown config keys: [{key!r}]") == 2
        assert not (tmp_path / "imputed").exists() and not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("key, value", [
    ("epochs", "2"),
    ("epochs", True),
    ("epochs", 2.0),
    ("hidden", 8),
    ("hidden", [8.0]),
    ("learning_rate", "x"),
    ("learning_rate", False),
    ("mode", ["uimc"]),
    ("early_stop", 1),
])
def test_wrongly_typed_config_value_exits_config(key, value, tmp_path, capsys):
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=40, eta=0.3, seed=21, mask_seed=22))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, key: value}))
    ckpt = tmp_path / "m.ckpt"
    assert cli.main(["train", "--data", str(data_dir), "--out", str(ckpt),
                     "--config", str(config)]) == cli.EXIT_CONFIG
    assert f"error: config key {key!r} must be" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("key, value, field", [
    ("hidden", [0], "hidden"),
    ("hidden", [8, -1], "hidden"),
    ("learning_rate", -1.0, "learning_rate"),
    ("learning_rate", 0, "learning_rate"),
    ("learning_rate", float("nan"), "learning_rate"),
    ("k", 0, "k"),
    ("seed", -1, "seed"),
])
def test_out_of_range_config_value_exits_config(key, value, field, tmp_path, capsys):
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=40, eta=0.3, seed=21, mask_seed=22))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, key: value}))
    ckpt = tmp_path / "m.ckpt"
    assert cli.main(["train", "--data", str(data_dir), "--out", str(ckpt),
                     "--config", str(config)]) == cli.EXIT_CONFIG
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["eval", "stability"])
def test_samplings_override_below_one_exits_config(command, tmp_path, capsys):
    data_dir, ckpt = train_tiny(tmp_path, mode="single_imputation")
    capsys.readouterr()
    out = tmp_path / "out.json"
    code = cli.main([command, "--model", str(ckpt), "--data", str(data_dir), "--ns", "0",
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "error: n_samplings must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "stability"])
def test_label_the_model_cannot_predict_exits_config(command, tmp_path, capsys):
    _, ckpt = train_tiny(tmp_path)
    four_classes = write_dataset_dir(tmp_path / "four",
                                     make_blobs_dataset(n=40, class_count=4, eta=0.3, seed=64))
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert cli.main([command, "--model", str(ckpt), "--data", str(four_classes),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert "error: test label 3 is outside the model's 3 classes" in capsys.readouterr().err
    assert not out.exists()


def test_non_numeric_mask_file_exits_config_and_names_it(tmp_path, capsys):
    data = make_blobs_dataset(n=40, eta=0.3, seed=21, mask_seed=22)
    data_dir = write_dataset_dir(tmp_path / "data", data, include_mask=False)
    rows = [",".join(map(str, row)) for row in data.mask.astype(int)]
    rows[1] = "1,x"
    bad_mask = tmp_path / "bad_mask.csv"
    bad_mask.write_text("\n".join(rows) + "\n")
    out = tmp_path / "imputed"
    assert cli.main(["impute", "--data", str(data_dir), "--mask", str(bad_mask),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert "error: non-numeric cell in bad_mask.csv" in capsys.readouterr().err
    assert not out.exists()


def test_train_on_dataset_without_rows_exits_config_and_names_the_file(tmp_path, capsys):
    data = make_blobs_dataset(n=40, eta=0.3, seed=21, mask_seed=22)
    data_dir = write_dataset_dir(tmp_path / "data", data.subset(np.array([], dtype=int)))
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--data", str(data_dir), "--out", str(ckpt)]) == cli.EXIT_CONFIG
    assert "error: view_0.csv holds no rows" in capsys.readouterr().err
    assert not ckpt.exists()


def test_impute_output_loads_as_dataset(tmp_path):
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=40, eta=0.3, seed=21, mask_seed=22))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 3, "n_samplings": 2}))
    out = tmp_path / "imputed"
    assert cli.main(["impute", "--data", str(data_dir), "--config", str(config),
                     "--out", str(out)]) == cli.EXIT_OK
    source = load_dataset(data_dir)
    completed = load_dataset(out / "sampling_000")
    np.testing.assert_array_equal(completed.labels, source.labels)
    assert completed.mask.all()
    for v in range(source.n_views):
        observed = source.mask[:, v]
        np.testing.assert_array_equal(completed.views[v][observed],
                                      source.views[v][observed])


def test_impute_into_a_directory_that_holds_files_exits_config(tmp_path, capsys):
    """A second export would leave the first one's extra samplings beside its provenance."""
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=40, eta=0.3, seed=21, mask_seed=22))
    out = tmp_path / "imputed"

    def impute(n_samplings):
        config = tmp_path / f"config{n_samplings}.json"
        config.write_text(json.dumps({"k": 3, "n_samplings": n_samplings}))
        return cli.main(["impute", "--data", str(data_dir), "--config", str(config),
                         "--out", str(out)])

    def files():
        return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

    assert impute(4) == cli.EXIT_OK
    first = files()
    assert len(first) == 4 * 3 + 1  # two views and labels per sampling, and provenance
    assert impute(2) == cli.EXIT_CONFIG
    assert f"error: {out} already holds files" in capsys.readouterr().err
    assert files() == first


class _Drawn(Exception):
    """Stops ``train`` once it has drawn its completions."""


def train_time_completions(data, cfg, monkeypatch):
    """The completions ``train(data, cfg)`` fits on, caught before its first epoch."""
    drawn = []

    def catch(*args, **kwargs):
        drawn.append(sample_completions(*args, **kwargs))
        raise _Drawn

    with monkeypatch.context() as patch:
        patch.setattr(trainer, "sample_completions", catch)
        with pytest.raises(_Drawn):
            trainer.train(data, cfg)
    return drawn[0]


@pytest.mark.parametrize("seed_flag", [[], ["--seed", "4"]])
@pytest.mark.parametrize("overrides", [{"k": 3, "n_samplings": 2, "seed": 2},
                                       {"mode": "mean_imputation", "n_samplings": 5},
                                       {"mode": "single_imputation", "k": 4, "seed": 3}])
def test_impute_writes_the_train_time_completions_of_its_config(overrides, seed_flag,
                                                                  tmp_path, monkeypatch):
    """Standardized by the data's own statistics, the export's imputed entries are
    the draws ``train`` fits on; its observed entries are the data's."""
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=40, eta=0.3, seed=21, mask_seed=22))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overrides))
    out = tmp_path / "imputed"
    assert cli.main(["impute", "--data", str(data_dir), "--config", str(config), *seed_flag,
                     "--out", str(out)]) == cli.EXIT_OK
    cfg = TrainConfig(**overrides)
    if seed_flag:
        cfg = replace(cfg, seed=int(seed_flag[1]))
    data = load_dataset(data_dir)
    drawn = train_time_completions(data, cfg, monkeypatch)
    stats = zscore_fit_transform(data)[1]
    assert sorted(p.name for p in out.iterdir()) == [
        "provenance.json", *(f"sampling_{s:03d}" for s in range(drawn.n_samplings))]
    for s in range(drawn.n_samplings):
        exported = load_dataset(out / f"sampling_{s:03d}")
        np.testing.assert_array_equal(exported.labels, data.labels)
        for v, (x, mean, scale) in enumerate(zip(exported.views, stats.means, stats.scales())):
            missing = ~data.mask[:, v]
            np.testing.assert_allclose((x[missing] - mean) / scale, drawn.draws[v][:, s],
                                       rtol=0, atol=1e-6)
            # the data files hold 10 significant digits, as the export prints them
            np.testing.assert_array_equal(x[~missing], data.views[v][~missing])


def test_diverged_training_exits_numeric(tmp_path, capsys):
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=60, eta=0.3, seed=21, mask_seed=22))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, "epochs": 3, "learning_rate": 1e200}))
    ckpt = tmp_path / "model.ckpt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["train", "--data", str(data_dir), "--out", str(ckpt),
                         "--config", str(config)])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numerical error:" in err and "at epoch 0" in err
    assert not ckpt.exists()


def sweep_two_cells(tmp_path):
    """A two-cell sweep (one uimc cell) into ``tmp_path / "sweep"``: (out, uimc key)."""
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=40, seed=21), include_mask=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--data", str(data_dir), "--etas", "0.2", "--seeds", "0",
                     "--modes", "uimc,mean_imputation", "--config", str(config),
                     "--out", str(out)]) == cli.EXIT_OK
    return out, experiments._cell_key(0.2, 0, "uimc")


def test_sweep_drops_row_of_cell_published_meanwhile(tmp_path, monkeypatch):
    key = experiments._cell_key(0.2, 0, "uimc")
    result = tmp_path / f"{key}.json"
    first = b'{"status": "ok", "by": "first"}'

    def publish_elsewhere(*args, **kwargs):
        result.write_bytes(first)  # another worker publishes while this one runs
        return {"status": "ok", "by": "second"}

    monkeypatch.setattr(experiments, "run_cell", publish_elsewhere)
    experiments._run_cell_once(None, 0.2, 0, "uimc", TrainConfig(), tmp_path, 0.5)
    assert result.read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == [result.name]


def test_sweep_reruns_cell_left_as_temp_file(tmp_path, capsys):
    key = experiments._cell_key(0.2, 0, "uimc")
    (tmp_path / "sweep" / "cells").mkdir(parents=True)
    (tmp_path / "sweep" / "cells" / f"{key}.json.k1ll3d.tmp").write_text('{"status": "ok"')
    out, _ = sweep_two_cells(tmp_path)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells_missing"] == [] and summary["cells_ok"] == 2
    assert json.loads((out / "cells" / f"{key}.json").read_text())["status"] == "ok"
    assert "2 cells ok, 0 failed, 0 missing" in capsys.readouterr().out


def test_sweep_publishes_error_row_and_does_not_retry_it(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("cell blew up")

    links = []
    real_link = os.link
    monkeypatch.setattr(os, "link", lambda src, dst: (links.append(dst), real_link(src, dst)))
    monkeypatch.setattr(experiments, "run_cell", fail)
    out, key = sweep_two_cells(tmp_path)
    error_row = (out / "cells" / f"{key}.json").read_text()
    assert json.loads(error_row)["error"] == "RuntimeError: cell blew up"
    assert sorted(Path(dst).name for dst in links) == sorted(
        ["sweep.json", *(p.name for p in (out / "cells").iterdir())])
    assert len(links) == 3
    calls = []
    monkeypatch.setattr(experiments, "run_cell", lambda *a, **k: calls.append(a))
    sweep_two_cells(tmp_path)
    assert calls == []
    assert (out / "cells" / f"{key}.json").read_text() == error_row
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells_failed"] == 2 and summary["cells_missing"] == []


def test_sweep_with_killed_worker_returns_and_rerun_completes(tmp_path, capsys):
    data_dir = write_dataset_dir(tmp_path / "data", make_blobs_dataset(n=200, seed=21),
                                 include_mask=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, "epochs": 40}))  # about 0.3 s a cell
    out = tmp_path / "sweep"
    argv = ["sweep", "--data", str(data_dir), "--etas", "0.2", "--seeds", "0,1,2,3",
            "--modes", "uimc", "--config", str(config), "--out", str(out)]
    swept, killed = threading.Event(), []

    def kill_a_worker():
        # once a cell is published, the pool is up and the other cells are running or queued
        while not swept.is_set() and not list((out / "cells").glob("*.json")):
            time.sleep(0.005)
        workers = multiprocessing.active_children()
        if workers and not swept.is_set():
            os.kill(workers[0].pid, signal.SIGKILL)
            killed.append(workers[0].pid)

    killer = threading.Thread(target=kill_a_worker)
    killer.start()
    try:
        assert cli.main([*argv, "--threads", "2"]) == cli.EXIT_MISSING
    finally:
        swept.set()
        killer.join(timeout=30)
    assert not killer.is_alive() and killed
    summary = json.loads((out / "summary.json").read_text())
    missing = summary["cells_missing"]
    assert missing and summary["cells_ok"] + len(missing) == 4
    assert not any((out / "cells" / f"{key}.json").exists() for key in missing)
    printed = capsys.readouterr()
    assert f"{len(missing)} missing" in printed.out
    assert f"{len(missing)} missing, rerun to finish them" in printed.err
    assert cli.main(argv) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells_missing"] == [] and summary["cells_ok"] == 4


STDIN_SWEEP = """
import json, sys
from pathlib import Path
from conftest import make_blobs_dataset, write_dataset_dir
from evifuse import cli, experiments
from evifuse.trainer import TrainConfig

data = make_blobs_dataset(n=40, seed=21)
summary = experiments.sweep(data, [0.2], [0, 1], ["uimc"], TrainConfig.from_dict(TINY),
                            "library", workers=2)
print(json.dumps(summary))
write_dataset_dir(Path("data"), data, include_mask=False)
sys.exit(cli.main(["sweep", "--data", "data", "--etas", "0.2", "--seeds", "0,1",
                   "--modes", "uimc", "--out", "cli", "--threads", "2"]))
"""


def test_sweep_whose_workers_cannot_start_says_why(tmp_path):
    """A spawned worker re-imports ``__main__``, which a script on stdin has not."""
    tests = Path(__file__).resolve().parent
    script = f"TINY = {TINY!r}\n{STDIN_SWEEP}"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    run = subprocess.run([sys.executable, "-"], input=script, cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == cli.EXIT_MISSING, run.stderr
    summary = json.loads(run.stdout.splitlines()[0])
    assert summary["cells_missing"] == ["eta0.2_seed0_uimc", "eta0.2_seed1_uimc"]
    assert "__main__" in summary["pool_error"] and "<stdin>" in summary["pool_error"]
    assert f"2 missing, rerun to finish them (worker pool: {summary['pool_error']})" in run.stderr


def test_parallel_sweep_of_missing_data_exits_config(tmp_path, capsys):
    code = cli.main(["sweep", "--data", str(tmp_path / "absent"), "--etas", "0.2",
                     "--seeds", "0", "--modes", "uimc", "--out", str(tmp_path / "sweep"),
                     "--threads", "2"])
    assert code == cli.EXIT_CONFIG
    assert "not a dataset directory" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_of_data_with_missing_slots_exits_config_before_writing(tmp_path, capsys):
    """Each cell makes its own masks, so a missing slot's placeholder would read as data."""
    data_dir = write_dataset_dir(tmp_path / "data", make_blobs_dataset(n=40, eta=0.25, seed=21))
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--data", str(data_dir), "--etas", "0.0", "--seeds", "0",
                     "--modes", "uimc", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "error: sweep needs fully observed data; 20 slots are missing" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "stability", "impute"])
def test_mask_flag_that_reveals_a_missing_slot_exits_config(command, tmp_path, capsys):
    data_dir, ckpt = train_tiny(tmp_path)  # its mask.csv misses 24 of 80 slots
    mask = tmp_path / "all_observed.csv"
    np.savetxt(mask, np.ones((40, 2)), fmt="%d", delimiter=",")
    out = tmp_path / "out"
    model = ["--model", str(ckpt)] if command in ("eval", "stability") else []
    capsys.readouterr()
    assert cli.main([command, *model, "--data", str(data_dir), "--mask", str(mask),
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert (f"error: {mask} marks observed 24 slots that {data_dir / 'mask.csv'} marks "
            "missing") in capsys.readouterr().err
    assert not out.exists()


def test_mask_flag_that_hides_more_slots_is_read(tmp_path):
    data_dir, ckpt = train_tiny(tmp_path)
    hidden = np.loadtxt(data_dir / "mask.csv", delimiter=",").astype(bool)
    hidden[np.nonzero(hidden.all(axis=1))[0][0], 1] = False
    mask = tmp_path / "hide_one.csv"
    np.savetxt(mask, hidden, fmt="%d", delimiter=",")
    np.testing.assert_array_equal(cli._load_data(data_dir, mask).mask, hidden)
    assert cli.main(["eval", "--model", str(ckpt), "--data", str(data_dir), "--mask", str(mask),
                     "--out", str(tmp_path / "eval.json")]) == cli.EXIT_OK


@pytest.mark.parametrize("grid, message", [
    pytest.param(["--etas", "0.2,1.5"], "eta must lie in [0, 1)", id="eta-1.5"),
    pytest.param(["--etas", "nan"], "eta must lie in [0, 1)", id="eta-nan"),
    pytest.param(["--train-fraction", "1.5"], "train_fraction must lie in (0, 1)",
                 id="train-fraction-1.5"),
    pytest.param(["--train-fraction", "0"], "train_fraction must lie in (0, 1)",
                 id="train-fraction-0"),
    pytest.param(["--threads", "-3"], "workers must be >= 1, got -3", id="threads-minus-3"),
    pytest.param(["--modes", "uimcc"], "mode must be one of", id="mode-uimcc"),
    pytest.param(["--seeds", "-1"], "seed must be >= 0, got -1", id="seed-minus-1"),
    pytest.param(["--modes", ","], "the sweep grid is empty", id="no-modes"),
])
def test_sweep_of_a_bad_grid_exits_config_before_writing(grid, message, tmp_path, capsys):
    data_dir = write_dataset_dir(tmp_path / "data", make_blobs_dataset(n=40, seed=21),
                                 include_mask=False)
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--data", str(data_dir), "--etas", "0.2", "--seeds", "0",
                     "--modes", "uimc", "--out", str(out), *grid])
    assert code == cli.EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def run_sweep(data_dir, config, out, *extra):
    return cli.main(["sweep", "--data", str(data_dir), "--etas", "0.2", "--seeds", "0,1",
                     "--modes", "uimc", "--config", str(config), "--out", str(out), *extra])


@pytest.fixture(scope="module")
def finished_sweep(tmp_path_factory):
    """A serial two-cell sweep, run to the end: (data dir, config, sweep dir)."""
    root = tmp_path_factory.mktemp("sweep")
    data_dir = write_dataset_dir(root / "data", make_blobs_dataset(n=40, seed=21),
                                 include_mask=False)
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    assert run_sweep(data_dir, config, root / "sweep") == cli.EXIT_OK
    return data_dir, config, root / "sweep"


def test_report_writes_tidy_csv(finished_sweep, tmp_path, capsys):
    _, _, out = finished_sweep
    cells = [json.loads(p.read_text()) for p in sorted((out / "cells").glob("*.json"))]
    accs = [cell["accuracy"] for cell in cells]
    assert len(accs) == 2
    assert all(0.0 <= cell["aurc_u"] <= 1.0 and 0.0 <= cell["ece"] <= 1.0 for cell in cells)
    tidy = tmp_path / "tidy.csv"
    capsys.readouterr()
    assert cli.main(["report", "--results", str(out / "results.csv"),
                     "--out", str(tidy)]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "uimc" in text and "auroc_u" in text and "ece" in text
    # a cell that gets every test row right or every one wrong ranks none: auroc_u None
    means = [np.mean([v for cell in cells if (v := cell[name]) is not None])
             for name in ("auroc_u", "aurc_u", "ece")]
    assert tidy.read_text() == (
        "mode,eta,n_cells,mean_accuracy,std_accuracy,mean_auroc_u,mean_aurc_u,mean_ece\n"
        f"uimc,0.20000000000000001,2,{np.mean(accs):.17g},{np.std(accs):.17g},"
        + ",".join(f"{m:.17g}" for m in means) + "\n")


def test_cell_without_mean_uncertainty_is_written_as_nan_and_reported(tmp_path, capsys):
    """A cell whose every sampling was excluded has mean uncertainty None."""
    row = {"eta": 0.2, "seed": 0, "mode": "uimc", "accuracy": 0.5,
           "mean_uncertainty": None, "auroc_u": None, "aurc_u": 0.5, "ece": 0.25,
           "wall_time": 1.5, "status": "ok"}
    results = tmp_path / "results.csv"
    experiments.write_results_csv([row], results)
    assert results.read_text().splitlines()[1] == \
        "0.20000000000000001,0,uimc,0.5,nan,nan,0.5,0.25,1.5"
    [back] = experiments.read_results_csv(results)
    assert np.isnan(back["mean_uncertainty"]) and back["accuracy"] == 0.5
    assert np.isnan(back["auroc_u"])
    assert cli.main(["report", "--results", str(results)]) == cli.EXIT_OK
    # a mean over no cell that holds a value is None, and the table prints it as nan
    text = capsys.readouterr().out
    assert "uimc" in text and "    nan" in text
    [group] = experiments.summarize([back])["summary"]
    assert (group["mean_auroc_u"], group["mean_aurc_u"], group["mean_ece"]) == (None, 0.5, 0.25)


def test_every_result_column_round_trips_exactly(tmp_path):
    row = {"eta": 0.1 + 0.2, "seed": 12345678901, "mode": "naive_ce", "accuracy": 1 / 3,
           "mean_uncertainty": 5e-324, "auroc_u": 0.1 + 0.7, "aurc_u": 2 / 7, "ece": 1e-300,
           "wall_time": 1.7976931348623157e308, "status": "ok"}
    results = tmp_path / "results.csv"
    experiments.write_results_csv([row], results)
    [back] = experiments.read_results_csv(results)
    for name, parse in experiments.RESULT_COLUMNS.items():
        assert type(back[name]) is parse and back[name] == row[name]
    assert back == row


@pytest.mark.parametrize("text", [
    "",
    "eta,seed,mode,accuracy\n0.2,0,uimc,0.5\n",
    "eta,seed,mode,accuracy,mean_uncertainty,wall_time\n0.2,0,uimc,0.5,0.1\n",
    ",".join(experiments.RESULT_COLUMNS) + "\n0.2,0,uimc,0.5,0.1,0.5,0.2,0.1\n",
])
def test_report_malformed_results_exits_config(text, tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(text)
    tidy = tmp_path / "tidy.csv"
    assert cli.main(["report", "--results", str(results), "--out", str(tidy)]) == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not tidy.exists()


def test_sweep_rerun_runs_no_cell(finished_sweep, monkeypatch):
    data_dir, config, out = finished_sweep
    before = (out / "results.csv").read_text()
    calls = []
    monkeypatch.setattr(experiments, "run_cell", lambda *a, **k: calls.append(a))
    assert run_sweep(data_dir, config, out) == cli.EXIT_OK
    assert calls == []
    assert (out / "results.csv").read_text() == before


def test_parallel_sweep_matches_serial(finished_sweep, tmp_path):
    data_dir, config, serial = finished_sweep
    assert run_sweep(data_dir, config, tmp_path / "par", "--threads", "2") == cli.EXIT_OK

    def rows(out):  # every column but the trailing wall_time
        lines = (out / "results.csv").read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    assert rows(tmp_path / "par") == rows(serial)
    assert len(rows(serial)) == 3


def test_parallel_sweep_of_data_only_in_memory_matches_serial(tmp_path):
    data = make_blobs_dataset(n=40, seed=21)

    def rows(workers):  # every column but the trailing wall_time
        out = tmp_path / f"workers_{workers}"
        summary = experiments.sweep(data, [0.2], [0, 1], ["uimc"], TrainConfig.from_dict(TINY),
                                    out, workers=workers)
        assert summary["cells_ok"] == 2 and summary["cells_missing"] == []
        return [line.rsplit(",", 1)[0] for line in (out / "results.csv").read_text().splitlines()]

    assert rows(2) == rows(1)


@pytest.mark.parametrize("change", ["train_fraction", "config", "data"])
def test_sweep_rerun_of_another_spec_exits_config_before_any_cell(
        change, finished_sweep, tmp_path, monkeypatch, capsys):
    data_dir, config, serial = finished_sweep
    out = tmp_path / "sweep"
    shutil.copytree(serial, out)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    extra = []
    if change == "train_fraction":
        extra = ["--train-fraction", "0.5"]
    elif change == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY, "hidden": [4]}))
    else:
        data_dir = write_dataset_dir(tmp_path / "data", make_blobs_dataset(n=40, seed=22),
                                     include_mask=False)
    calls = []
    monkeypatch.setattr(experiments, "run_cell", lambda *a, **k: calls.append(a))
    capsys.readouterr()
    assert run_sweep(data_dir, config, out, *extra) == cli.EXIT_CONFIG
    assert f"error: {out} holds a sweep of another" in capsys.readouterr().err
    assert calls == []
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_sweep_rerun_under_another_seed_and_mode_reuses_its_cells(finished_sweep, tmp_path,
                                                                   monkeypatch):
    """Each cell sets the seed and mode, so they are no part of a sweep's spec; a
    directory without sweep.json, as an older sweep left it, gets one."""
    data_dir, _, serial = finished_sweep
    out = tmp_path / "sweep"
    shutil.copytree(serial, out)
    spec = (out / "sweep.json").read_text()
    (out / "sweep.json").unlink()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY, "seed": 5, "mode": "naive_ce"}))
    calls = []
    monkeypatch.setattr(experiments, "run_cell", lambda *a, **k: calls.append(a))
    assert run_sweep(data_dir, config, out) == cli.EXIT_OK
    assert calls == [] and (out / "sweep.json").read_text() == spec


def test_sweep_runs_a_repeated_cell_once(finished_sweep, tmp_path):
    data_dir, config, serial = finished_sweep
    out = tmp_path / "repeated"
    assert cli.main(["sweep", "--data", str(data_dir), "--etas", "0.2,0.2", "--seeds", "0,0",
                     "--modes", "uimc,uimc", "--config", str(config),
                     "--out", str(out)]) == cli.EXIT_OK
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].rsplit(",", 1)[0] == \
        (serial / "results.csv").read_text().splitlines()[1].rsplit(",", 1)[0]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells_ok"] == 1 and summary["summary"][0]["n_cells"] == 1


def test_sweep_runs_etas_of_one_cell_key_once(finished_sweep, tmp_path, capsys):
    data_dir, config, _ = finished_sweep
    out = tmp_path / "close"
    capsys.readouterr()
    assert cli.main(["sweep", "--data", str(data_dir), "--etas", "0.1,0.1000001",
                     "--seeds", "0", "--modes", "uimc", "--config", str(config),
                     "--out", str(out)]) == cli.EXIT_OK
    assert "1 cells ok, 0 failed, 0 missing" in capsys.readouterr().out
    assert [p.name for p in (out / "cells").iterdir()] == ["eta0.1_seed0_uimc.json"]
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0.10000000000000001,0,uimc,")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells_ok"] == 1 and summary["summary"][0]["n_cells"] == 1


@pytest.fixture
def umask_027():
    """Run a test under umask 027, under which a plain ``open()`` creates files ``0o640``."""
    old = os.umask(0o027)
    yield
    os.umask(old)


def test_every_published_file_has_the_mode_open_gives(umask_027, tmp_path):
    data_dir = write_dataset_dir(tmp_path / "data", make_blobs_dataset(n=40, seed=21),
                                 include_mask=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    ckpt, mask = tmp_path / "model.ckpt", tmp_path / "mask.csv"
    data = ["--data", str(data_dir), "--mask", str(mask)]
    for argv in (
            ["mask", "--data", str(data_dir), "--eta", "0.3", "--out", str(mask)],
            ["impute", *data, "--config", str(config), "--out", str(tmp_path / "imputed")],
            ["train", *data, "--config", str(config), "--out", str(ckpt),
             "--metrics", str(tmp_path / "metrics.json")],
            ["eval", "--model", str(ckpt), *data, "--out", str(tmp_path / "eval.json")],
            ["stability", "--model", str(ckpt), *data, "--repeats", "2",
             "--out", str(tmp_path / "stability.json")],
            ["sweep", "--data", str(data_dir), "--etas", "0.2", "--seeds", "0",
             "--modes", "uimc", "--config", str(config), "--out", str(tmp_path / "sweep")],
            ["report", "--results", str(tmp_path / "sweep" / "results.csv"),
             "--out", str(tmp_path / "tidy.csv")]):
        assert cli.main(argv) == cli.EXIT_OK, argv
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    names = {p.name for p in files}
    assert {"model.ckpt", "results.csv", "summary.json", "tidy.csv", "provenance.json",
            "eta0.2_seed0_uimc.json", "eval.json", "metrics.json"} <= names
    assert not [p for p in files if p.suffix == ".tmp"]
    assert {p.relative_to(tmp_path).as_posix(): oct(p.stat().st_mode & 0o777)
            for p in files if p.stat().st_mode & 0o777 != 0o640} == {}


def test_eval_whose_json_encoder_fails_leaves_old_output(tmp_path, monkeypatch):
    data_dir, ckpt = train_tiny(tmp_path)
    out = tmp_path / "eval.json"
    argv = ["eval", "--model", str(ckpt), "--data", str(data_dir), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    before = out.read_bytes()

    def encode_partway(self, o, _one_shot=False):
        yield "{"
        raise ValueError("encoder failed")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", encode_partway)
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert out.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("argv", [
    ["eval", "--model", "m.ckpt", "--data", "d", "--out", "e.json", "--config", "c.json"],
    ["train", "--data", "d", "--out", "m.ckpt", "--threads", "2"],
    ["report", "--results", "r.csv", "--seed", "1"],
    ["sweep", "--data", "d", "--out", "s", "--seed", "1"],
    ["impute", "--data", "d", "--out", "o", "--k", "3"],
    ["impute", "--data", "d", "--out", "o", "--ns", "2"],
    ["impute", "--data", "d", "--out", "o", "--jitter", "0.1"],
    ["train", "--data", "d", "--out", "m.ckpt", "--mode", "uimc"],
])
def test_flag_a_subcommand_does_not_read_exits_config(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
