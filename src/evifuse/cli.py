"""Command-line experiment driver.

Subcommands: mask, impute, train, eval, stability, sweep, report. Exit
codes: 0 on success, 1 for a sweep that left cells missing (a rerun runs
them), 2 for configuration or validation problems, 3 for numerical
failures at runtime.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from evifuse import experiments
from evifuse.dataset import (generate_missing_mask, load_dataset, load_mask,
                             write_csv_matrix, write_json)
from evifuse.imputer import CompletionSet
from evifuse.predictor import evaluate, stability_experiment
from evifuse.trainer import (
    CONFIG_SCHEMA,
    CheckpointError,
    NonFiniteLossError,
    TrainConfig,
    build_completions,
    load_model,
    save_model,
    train,
)

EXIT_OK = 0
EXIT_MISSING = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evifuse",
        description="incomplete multi-view classification experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _flag("--seed", type=int, default=0, help="default 0")
    config = _flag("--config", type=Path, default=None,
                   help=f"training config JSON (schema {CONFIG_SCHEMA})")
    config_seed = _flag("--seed", type=int, default=None, help="overrides the config's seed")

    p = sub.add_parser("mask", parents=[seed], help="generate a missingness mask")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("impute", parents=[config, config_seed],
                       help="write the completions `train` fits on, in the data's units")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--mask", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("train", parents=[config, config_seed], help="train a model")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--mask", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True, help="checkpoint path")
    p.add_argument("--metrics", type=Path, default=None, help="training metrics JSON")

    p = sub.add_parser("eval", parents=[seed], help="evaluate a trained model")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--mask", type=Path, default=None)
    p.add_argument("--ns", type=int, default=None, help="test-time samplings")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("stability", parents=[seed],
                       help="repeat prediction under fresh completion draws")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--mask", type=Path, default=None)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--ns", type=int, default=None)
    p.add_argument("--out", type=Path, required=True)

    about = "missing-rate sweep over seeds and modes; each cell sets the config's seed and mode"
    p = sub.add_parser("sweep", parents=[config], help=about, description=about,
                       allow_abbrev=False)  # else --seed would read as --seeds
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--etas", default="0,0.1,0.2,0.3,0.4,0.5")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--modes", default=TrainConfig.mode)
    p.add_argument("--train-fraction", type=float,
                   default=experiments.DEFAULT_TRAIN_FRACTION)
    p.add_argument("--threads", type=int, default=1, help="worker processes for sweep cells")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("report", help="summarize sweep results")
    p.add_argument("--results", type=Path, required=True, help="results.csv from sweep")
    p.add_argument("--out", type=Path, default=None, help="tidy CSV path")
    return parser


def _load_data(data_path: Path, mask_path: Path | None):
    """The dataset directory's data, with ``mask_path``'s mask if given. That
    mask may hide slots but not reveal one that the directory's mask.csv marks
    missing, whose entry is a placeholder: that raises ``ValueError``."""
    data = load_dataset(data_path)
    if mask_path is None:
        return data
    masked = data.with_mask(load_mask(mask_path))
    revealed = int((masked.mask & ~data.mask).sum())
    if revealed:
        raise ValueError(f"{mask_path} marks observed {revealed} slots that "
                         f"{data_path / 'mask.csv'} marks missing")
    return masked


def _load_config(args) -> TrainConfig:
    """The ``--config`` file's config, or the defaults; a ``--seed`` flag overrides its seed."""
    cfg = (TrainConfig() if args.config is None
           else TrainConfig.from_dict(json.loads(Path(args.config).read_text())))
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _cmd_mask(args) -> int:
    data = load_dataset(args.data)
    mask = generate_missing_mask(data.n_samples, data.n_views, args.eta, seed=args.seed)
    write_csv_matrix(args.out, mask.astype(int), "%d")
    print(f"wrote {args.out}: {(~mask).sum()} missing of {mask.size} slots")
    return EXIT_OK


def _cmd_impute(args) -> int:
    data = _load_data(args.data, args.mask)
    std, stats = build_completions(data, _load_config(args))
    # each draw back in the data's units; observed entries come from the raw arrays
    draws = [d * s + m for d, s, m in zip(std.draws, stats.scales(), stats.means)]
    experiments.write_completion_directory(CompletionSet(data, draws), args.out)
    print(f"wrote {std.n_samplings} samplings to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    data = _load_data(args.data, args.mask)
    cfg = _load_config(args)
    started = time.perf_counter()
    model = train(data, cfg)
    save_model(model, args.out)
    wall = time.perf_counter() - started
    print(f"trained {cfg.mode} for {model.epochs_run} epochs in {wall:.1f}s -> {args.out}")
    if args.metrics is not None:
        payload = {
            "config": cfg.to_dict(),
            "epochs_run": model.epochs_run,
            "loss_history": model.loss_history,
            "wall_time": wall,
        }
        write_json(args.metrics, payload)
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    data = _load_data(args.data, args.mask)
    metrics = evaluate(model, data, n_samplings=args.ns, seed=args.seed)
    write_json(args.out, metrics)
    print(f"accuracy {metrics['accuracy']:.4f} on {metrics['n_test']} samples -> {args.out}")
    return EXIT_OK


def _cmd_stability(args) -> int:
    model = load_model(args.model)
    data = _load_data(args.data, args.mask)
    result = stability_experiment(model, data, n_repeats=args.repeats, n_samplings=args.ns,
                                  seed=args.seed)
    write_json(args.out, result)
    print(f"consistent fraction {result['consistent_fraction']:.4f} -> {args.out}")
    return EXIT_OK


def _parse_list(text: str, cast):
    return [cast(tok) for tok in text.split(",") if tok.strip() != ""]


def _cmd_sweep(args) -> int:
    summary = experiments.sweep(
        load_dataset(args.data), _parse_list(args.etas, float), _parse_list(args.seeds, int),
        _parse_list(args.modes, str), _load_config(args), args.out,
        train_fraction=args.train_fraction, workers=args.threads)
    print(f"{summary['cells_ok']} cells ok, {summary['cells_failed']} failed, "
          f"{len(summary['cells_missing'])} missing -> {args.out}")
    if summary["cells_missing"]:
        reason = "" if summary["pool_error"] is None else f" (worker pool: {summary['pool_error']})"
        print(f"{len(summary['cells_missing'])} missing, rerun to finish them{reason}",
              file=sys.stderr)
        return EXIT_MISSING
    return EXIT_OK


def _cmd_report(args) -> int:
    rows = experiments.read_results_csv(args.results)
    text, summary = experiments.report(rows)
    print(text)
    if args.out is not None:
        experiments.write_tidy_csv(summary, args.out)
    return EXIT_OK


_COMMANDS = {
    "mask": _cmd_mask,
    "impute": _cmd_impute,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "stability": _cmd_stability,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, CheckpointError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteLossError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
