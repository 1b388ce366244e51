"""Print sha256 digests of what training and prediction compute, for every mode.

    python tools/digest.py --seeds 7 11

For each seed and training mode it trains a model on the benchmark's data
(``bench/workloads.make_pool`` split by ``prepare_cell_data``, two epochs)
and prints one line per output:

    seed <seed> <mode> <output> <sha256>

where ``<output>`` is ``weights`` (every head's parameters and the loss
history), ``evaluate`` (the ``evaluate`` JSON), ``stability`` (a 2-repeat
``stability_experiment``), ``predict`` (``predict_sample``'s label, vote
counts, mean opinion and excluded samplings on the first 32 incomplete
test rows) or ``draws`` (the train-time completions). A change
meant to keep every result bit for bit must leave every line as it was;
two processes of one checkout must print the same lines.
"""

import os

# One BLAS thread, as in the benchmark: the result must not depend on how
# a thread pool splits a product.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from evifuse.experiments import prepare_cell_data  # noqa: E402
from evifuse.predictor import evaluate, predict_sample, stability_experiment  # noqa: E402
from evifuse.trainer import MODES, TrainConfig, build_completions, train  # noqa: E402

PREDICT_ROWS = 32
STABILITY_REPEATS = 2


def _digest(*parts) -> str:
    """sha256 over arrays (with dtype and shape) and JSON-able values, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def digests(seed: int, mode: str) -> dict:
    """Digest of each output of one (seed, mode) model, by output name."""
    train_set, test_set = prepare_cell_data(workloads.make_pool(seed), workloads.ETA, seed,
                                            workloads.TRAIN_FRACTION)
    cfg = TrainConfig(epochs=workloads.EPOCHS, early_stop=False, seed=seed, mode=mode)
    model = train(train_set, cfg)
    completions, _ = build_completions(train_set, cfg)
    predictions = []
    for row in np.nonzero(~test_set.mask.all(axis=1))[0][:PREDICT_ROWS]:
        res = predict_sample(model, [v[row] for v in test_set.views], test_set.mask[row],
                             seed=seed)
        predictions += [res.label, res.vote_counts, res.mean_opinion.beliefs,
                        res.mean_opinion.uncertainty, res.excluded_samplings]
    return {
        "weights": _digest(*(p for net in model.networks for p in net.params),
                           model.loss_history),
        "evaluate": _digest(evaluate(model, test_set, seed=seed)),
        "stability": _digest(stability_experiment(model, test_set, STABILITY_REPEATS,
                                                  seed=seed)),
        "predict": _digest(*(np.asarray(p) for p in predictions)),
        "draws": _digest(*completions.draws),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for mode in MODES:
            for output, value in digests(seed, mode).items():
                print(f"seed {seed} {mode} {output} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
