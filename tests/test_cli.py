"""Command-line entry point: exit codes, error reporting and written outputs."""

import json
import os
import socket
import subprocess
import sys
import warnings

import numpy as np
import pytest

from evifuse import cli, experiments
from evifuse.dataset import load_dataset
from conftest import make_blobs_dataset, write_checkpoint_version, write_dataset_dir

TINY = {"epochs": 1, "batch_size": 32, "n_samplings": 2, "hidden": [8], "anneal_epochs": 1}


def train_tiny(tmp_path):
    """A dataset directory and a one-epoch checkpoint trained on it by the CLI."""
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=40, eta=0.3, seed=21, mask_seed=22))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--data", str(data_dir), "--out", str(ckpt),
                     "--config", str(config)]) == cli.EXIT_OK
    return data_dir, ckpt


def assert_eval_exits_config(data_dir, ckpt, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "eval.json"
    code = cli.main(["eval", "--model", str(ckpt), "--data", str(data_dir),
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
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


def test_eval_on_fewer_views_than_the_model_exits_config(tmp_path, capsys):
    _, ckpt = train_tiny(tmp_path)
    data = make_blobs_dataset(n=40, view_dims=(3,), seed=21)
    assert_eval_exits_config(write_dataset_dir(tmp_path / "one_view", data), ckpt,
                             tmp_path, capsys)


def test_impute_output_loads_as_dataset(tmp_path):
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=40, eta=0.3, seed=21, mask_seed=22))
    out = tmp_path / "imputed"
    assert cli.main(["impute", "--data", str(data_dir), "--k", "3", "--ns", "2",
                     "--out", str(out)]) == cli.EXIT_OK
    source = load_dataset(data_dir)
    completed = load_dataset(out / "sampling_000")
    np.testing.assert_array_equal(completed.labels, source.labels)
    assert completed.mask.all()
    for v in range(source.n_views):
        observed = source.mask[:, v]
        np.testing.assert_array_equal(completed.views[v][observed],
                                      source.views[v][observed])


def test_sweep_reports_cell_left_locked(tmp_path, capsys):
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=40, seed=21), include_mask=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    out = tmp_path / "sweep"
    locked = experiments._cell_key(0.2, 0, "uimc")
    (out / "cells").mkdir(parents=True)
    (out / "cells" / f"{locked}.lock").touch()
    assert cli.main(["sweep", "--data", str(data_dir), "--etas", "0.2", "--seeds", "0",
                     "--modes", "uimc,mean_imputation", "--config", str(config),
                     "--out", str(out)]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells_missing"] == [locked]
    assert summary["cells_ok"] == 1
    assert "1 missing" in capsys.readouterr().out


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


def sweep_two_cells(tmp_path, lock_text):
    """A two-cell sweep whose uimc cell starts with a lock holding ``lock_text``."""
    data_dir = write_dataset_dir(tmp_path / "data",
                                 make_blobs_dataset(n=40, seed=21), include_mask=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    out = tmp_path / "sweep"
    key = experiments._cell_key(0.2, 0, "uimc")
    (out / "cells").mkdir(parents=True)
    (out / "cells" / f"{key}.lock").write_text(lock_text)
    assert cli.main(["sweep", "--data", str(data_dir), "--etas", "0.2", "--seeds", "0",
                     "--modes", "uimc,mean_imputation", "--config", str(config),
                     "--out", str(out)]) == cli.EXIT_OK
    return out, key


def test_sweep_reclaims_lock_of_finished_process(tmp_path):
    finished = subprocess.Popen([sys.executable, "-c", "pass"])
    finished.wait()
    out, key = sweep_two_cells(tmp_path, f"{finished.pid} {socket.gethostname()}")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells_missing"] == [] and summary["cells_ok"] == 2
    assert json.loads((out / "cells" / f"{key}.json").read_text())["status"] == "ok"
    assert not (out / "cells" / f"{key}.lock").exists()


def test_sweep_respects_lock_of_live_process(tmp_path):
    out, key = sweep_two_cells(tmp_path, f"{os.getpid()} {socket.gethostname()}")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells_missing"] == [key]
    assert (out / "cells" / f"{key}.lock").exists()


def test_sweep_lock_names_its_owner(tmp_path, monkeypatch):
    seen = []
    real_run_cell = experiments.run_cell

    def run_cell(*args, **kwargs):
        key = experiments._cell_key(*args[1:4])
        seen.append((tmp_path / "sweep" / "cells" / f"{key}.lock").read_text())
        return real_run_cell(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_cell", run_cell)
    sweep_two_cells(tmp_path, "")
    assert seen == [f"{os.getpid()} {socket.gethostname()}"]


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
    accs = [json.loads(p.read_text())["accuracy"] for p in sorted((out / "cells").glob("*.json"))]
    assert len(accs) == 2
    tidy = tmp_path / "tidy.csv"
    capsys.readouterr()
    assert cli.main(["report", "--results", str(out / "results.csv"),
                     "--out", str(tidy)]) == cli.EXIT_OK
    assert "uimc" in capsys.readouterr().out
    assert tidy.read_text() == (
        "mode,eta,n_cells,mean_accuracy,std_accuracy\n"
        f"uimc,0.20000000000000001,2,{np.mean(accs):.17g},{np.std(accs):.17g}\n")


@pytest.mark.parametrize("text", [
    "",
    "eta,seed,mode,accuracy\n0.2,0,uimc,0.5\n",
    "eta,seed,mode,accuracy,mean_uncertainty,wall_time\n0.2,0,uimc,0.5,0.1\n",
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
