"""The evifuse benchmark: data, set-up, operations, checks and metrics.

Set-up builds one fixture from the run's seed: a 4000-row blob pool, split
into 2000 train and 2000 test rows with 30 % of the view slots missing in
each split, and a uimc model trained on the train rows. The three
operations are the public entry points ``train``, ``evaluate`` (all test
rows at once) and ``predict_sample`` (one incomplete test row per call).

Every run reports every end-to-end metric, so it calls all three
operations. The workload names the operation that fills the measured
window in a closed loop (one caller, the next call starts when the last
returns), and the operation a traced run traces. The other operations
are called a fixed number of times, spread evenly over the window.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from evifuse.dataset import MultiViewDataset
from evifuse.experiments import prepare_cell_data
from evifuse.predictor import evaluate, predict_sample
from evifuse.trainer import TrainConfig, train
from spans import Tracer

# tests/conftest.make_blobs_dataset at benchmark size. Noise 6.0 keeps
# accuracy near 0.92, so roughly 150 test rows are wrong and the
# uncertainty gap rests on more than a handful of errors.
POOL_ROWS = 4000
CLASS_COUNT = 10
VIEW_DIMS = (40, 30, 20)
CENTRE_SCALE = 3.0
NOISE = 6.0
ETA = 0.3
TRAIN_FRACTION = 0.5

# anneal_lambda(0) is 0, so epoch 0 multiplies the KL term by 0; the second
# epoch makes KL count in train_loss and in the weights the check compares.
EPOCHS = 2
# Machine speed drifts over seconds to minutes, so the calls besides the
# workload's own are spread evenly over the window: this many set-ups
# (each one train() call), evaluate() calls and passes of PREDICTS_PER_PASS
# predict_sample() calls.
SIDE_CALLS = {"train": 2, "evaluate": 8, "predict": 24}
PREDICTS_PER_PASS = 32
# two-epoch models reach 0.899-0.936 on this data (seeds 1-3, 51-70, 81-90, 201-210, 301-310)
ACCURACY_FLOOR = 0.85

OPERATIONS = ("train", "evaluate", "predict")
WORKLOADS = ("train", "evaluate")
# Layer metrics of the predict_sample() calls that every traced run makes
# besides its workload's operation: its fixed per-call costs.
PREDICT_LAYER_METRICS = (
    "network.forward.calls", "network.forward.rows", "network.forward.s",
    "evidential.opinion_init.calls", "evidential.opinion_init.s",
    "imputer.sample_completions.s", "imputer.neighbor_union.s",
    "imputer.cholesky.s", "imputer.gather.s",
    "predictor.opinions.s", "predictor.fold.s", "predictor.vote.s",
    "predictor.valid_sampling_ratio",
    "dataset.zscore.s", "dataset.construct.calls", "dataset.construct.s",
    "trace.overhead_s",
)

# Metric names and units come from BENCHMARK.json at the root of the checkout.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def reported(values: dict, section: str) -> dict:
    """``values`` in the order and with the units that BENCHMARK.json's ``section`` lists.

    A listed metric without a value reads None; a value that the section
    does not list is an error in the benchmark itself.
    """
    listed = {m["name"]: m["unit"] for m in SPEC[section]}
    unlisted = sorted(set(values) - set(listed))
    if unlisted:
        raise KeyError(f"metrics not listed in BENCHMARK.json {section}: {unlisted}")
    return {name: {"value": values.get(name), "unit": unit} for name, unit in listed.items()}


def make_pool(seed: int, n: int = POOL_ROWS) -> MultiViewDataset:
    """Complete blob pool: labels first, then per-view class centres and noise.

    Labels are drawn before the centres, so pools of different ``n`` from
    one seed have different classes: make one pool and split it.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, CLASS_COUNT, n)
    views = []
    for d in VIEW_DIMS:
        centres = rng.normal(0.0, CENTRE_SCALE, (CLASS_COUNT, d))
        views.append(centres[labels] + rng.normal(0.0, NOISE, (n, d)))
    return MultiViewDataset(views, labels, np.ones((n, len(VIEW_DIMS)), dtype=bool),
                            CLASS_COUNT)


class Fixture:
    """Train and test splits of one seed plus the model trained on them."""

    def __init__(self, seed: int):
        pool = make_pool(seed)
        self.train_set, self.test_set = prepare_cell_data(pool, ETA, seed, TRAIN_FRACTION)
        self.config = TrainConfig(epochs=EPOCHS, early_stop=False, seed=seed)
        start = perf_counter()
        self.model = train(self.train_set, self.config)
        self.train_s = perf_counter() - start
        incomplete = ~self.train_set.mask.all(axis=1)
        self.pairs_per_epoch = int((~incomplete).sum()
                                   + self.config.n_samplings * incomplete.sum())
        self.predict_rows = np.nonzero(~self.test_set.mask.all(axis=1))[0]

    def loss_per_pair(self, model) -> float:
        return model.loss_history[-1]["total"] / self.pairs_per_epoch


def signature(kind: str, output):
    """What must repeat exactly when an operation runs again on the same input."""
    if kind == "train":
        return [p.tobytes() for net in output.networks for p in net.params]
    if kind == "evaluate":
        return output["predictions"], output["vote_counts"], output["mean_uncertainty"]
    return output.label, output.vote_counts.tolist(), output.mean_opinion.uncertainty


class Run:
    """Timings and check outcomes of every operation in one benchmark run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.fixture: Fixture | None = None
        self.seconds = {kind: [] for kind in OPERATIONS}
        self.traced_seconds = {kind: [] for kind in OPERATIONS}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.reference = None
        self.predicts = 0
        self.predicted: list = []
        self.agreed = 0
        self._next_row = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def _attempt(self, kind, call, check, tracer=None):
        """Time one operation; an exception or a failed check counts as a failure."""
        self.attempted += 1
        try:
            start = perf_counter()
            if tracer is None:
                output = call()
            else:
                with tracer.op(f"op.{kind}"):
                    output = call()
            elapsed = perf_counter() - start
        except Exception:
            self.fail(traceback.format_exc(limit=4))
            return None
        (self.seconds if tracer is None else self.traced_seconds)[kind].append(elapsed)
        self._check(kind, output, check)
        return output

    def _check(self, kind, output, check) -> None:
        try:
            ok = check(output)
        except Exception:
            self.fail(traceback.format_exc(limit=4))
            return
        if not ok:
            self.fail(f"{kind}: output check failed")

    def add_fixture(self, fixture: Fixture) -> None:
        """Count the set-up's train() call as a train operation of the run."""
        if self.fixture is None:
            self.fixture = fixture
        self.attempted += 1
        self.seconds["train"].append(fixture.train_s)
        self._check("train", fixture.model, self._train_ok)

    def _train_ok(self, model) -> bool:
        f = self.fixture
        return (math.isfinite(f.loss_per_pair(model))
                and signature("train", model) == signature("train", f.model))

    def _evaluate_ok(self, result) -> bool:
        if self.reference is None:
            self.reference = result
        return (result["accuracy"] >= ACCURACY_FLOOR
                and signature("evaluate", result) == signature("evaluate", self.reference))

    def train_op(self, tracer=None):
        f = self.fixture
        return self._attempt("train", lambda: train(f.train_set, f.config),
                             self._train_ok, tracer)

    def evaluate_op(self, tracer=None):
        f = self.fixture
        return self._attempt("evaluate", lambda: evaluate(f.model, f.test_set, seed=self.seed),
                             self._evaluate_ok, tracer)

    def next_predict_row(self) -> int:
        rows = self.fixture.predict_rows
        row = int(rows[self._next_row % rows.size])
        self._next_row += 1
        return row

    def predict_op(self, tracer=None, row: int | None = None):
        f = self.fixture
        if row is None:
            row = self.next_predict_row()
        views = [v[row] for v in f.test_set.views]

        def keep(result) -> bool:
            self.predicted.append((row, result.label))
            return True

        self.predicts += 1
        return self._attempt(
            "predict",
            lambda: predict_sample(f.model, views, f.test_set.mask[row], seed=self.seed),
            keep, tracer,
        )

    def predict_pass(self) -> None:
        """predict_sample() on the next PREDICTS_PER_PASS incomplete test rows."""
        for _ in range(PREDICTS_PER_PASS):
            self.predict_op()

    def check_predictions(self) -> None:
        """Each predict_sample() label must equal the reference evaluate() label."""
        reference = self.reference["predictions"] if self.reference else None
        for row, label in self.predicted:
            if reference is not None and label == reference[row]:
                self.agreed += 1
            else:
                self.fail(f"predict: row {row} got label {label}, evaluate() did not")

    def end_to_end(self, setup_s: list) -> dict:
        f, ref = self.fixture, self.reference
        train_s, eval_s, predict_s = (self.seconds[k] for k in OPERATIONS)
        values = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train_pairs_per_s": (f.pairs_per_epoch * EPOCHS * len(train_s) / sum(train_s)
                                  if train_s else None),
            "train_loss": f.loss_per_pair(f.model),
            "eval_rows_per_s": (f.test_set.n_samples * len(eval_s) / sum(eval_s)
                                if eval_s else None),
            "accuracy": ref["accuracy"] if ref else None,
            "u_gap": (ref["mean_uncertainty_incorrect"] - ref["mean_uncertainty_correct"]
                      if ref else None),
            "predict_p90_ms": 1e3 * float(np.percentile(predict_s, 90)) if predict_s else None,
            "predict_agree": self.agreed / self.predicts if self.predicts else None,
        }
        return reported(values, "end_to_end")


def _side_events(workload: str) -> list:
    """(share of the window, operation) of the calls made besides the workload's own."""
    events = []
    for kind, count in SIDE_CALLS.items():
        if kind != workload:
            events += [((i + 0.5) / count, kind) for i in range(count)]
    return sorted(events)


def measure(workload: str, seed: int, seconds: float) -> tuple[Run, dict]:
    """Untraced run: set up, fill the window with the workload's operation, set up again.

    The window is ``seconds`` of the workload's own operation in a closed
    loop. The train workload's operation is a whole set-up, whose train()
    call is the operation, and the first set-up counts towards its window.
    The other operations are called as often as SIDE_CALLS says, spread
    evenly over the window; their time does not count towards it.
    """
    run = Run(seed)
    setup_s = []

    def set_up():
        start = perf_counter()
        fixture = Fixture(seed)
        setup_s.append(perf_counter() - start)
        run.add_fixture(fixture)

    side = {"train": set_up, "evaluate": run.evaluate_op, "predict": run.predict_pass}
    operation = side[workload]
    set_up()
    run.evaluate_op()
    events = _side_events(workload)
    busy = setup_s[0] if workload == "train" else 0.0
    while True:
        while events and events[0][0] * seconds <= busy:
            side[events.pop(0)[1]]()
        if busy >= seconds:
            break
        start = perf_counter()
        operation()
        busy += perf_counter() - start
    if workload != "train":
        set_up()
    run.check_predictions()
    return run, run.end_to_end(setup_s)


def _traced_pair(run: Run, kind: str, tracer: Tracer, **kwargs) -> None:
    """An untraced and a traced call on the same input; their outputs must be equal."""
    operation = getattr(run, f"{kind}_op")
    plain = operation(**kwargs)
    traced = operation(tracer=tracer, **kwargs)
    if (plain is not None and traced is not None
            and signature(kind, plain) != signature(kind, traced)):
        run.fail(f"{kind}: a traced call returned other output than the untraced one")


def _layer_metrics(run: Run, kind: str, tracer: Tracer) -> dict:
    """Layer metrics per traced call; the overhead is median traced minus median untraced."""
    metrics = tracer.metrics()
    traced, plain = run.traced_seconds[kind], run.seconds[kind]
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain)
                                   if traced and plain else None)
    run.errors.extend(f"hook target missing: {name}" for name in sorted(tracer.missing))
    return metrics


def trace(workload: str, seed: int, seconds: float) -> tuple[Run, dict]:
    """Traced run: pairs of an untraced and a traced call on the same input.

    Each round traces one call of the workload's operation, then one pass
    of predict_sample() calls with a tracer of their own, until ``seconds``
    have passed. The predict_sample() metrics named in PREDICT_LAYER_METRICS
    are reported under ``predict_sample.`` names.
    """
    run = Run(seed)
    run.add_fixture(Fixture(seed))
    run.evaluate_op()
    tracers = {workload: Tracer(), "predict": Tracer()}
    deadline = perf_counter() + seconds
    while True:
        _traced_pair(run, workload, tracers[workload])
        for _ in range(PREDICTS_PER_PASS):
            _traced_pair(run, "predict", tracers["predict"], row=run.next_predict_row())
        if perf_counter() >= deadline:
            break
    run.check_predictions()
    metrics = _layer_metrics(run, workload, tracers[workload])
    predict_metrics = _layer_metrics(run, "predict", tracers["predict"])
    metrics.update({f"predict_sample.{name}": predict_metrics[name]
                    for name in PREDICT_LAYER_METRICS})
    return run, reported(metrics, "per_layer")


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if it is found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Details line and result line of one benchmark run."""
    benchmark_run, metrics = (trace if traced else measure)(workload, seed, seconds)
    correct = benchmark_run.failed == 0 and all(
        m["value"] is not None for m in metrics.values())
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "environment": environment(),
        "samples": {kind: len(s) for kind, s in benchmark_run.seconds.items()},
        "traced_samples": {kind: len(s) for kind, s in benchmark_run.traced_seconds.items()},
        # The median and the mean call follow the share of the run that the
        # machine spent in its fast state, so they are shown here but not
        # gated as metrics.
        "predict_p50_ms": (1e3 * statistics.median(benchmark_run.seconds["predict"])
                           if benchmark_run.seconds["predict"] else None),
        "predict_mean_ms": (1e3 * statistics.fmean(benchmark_run.seconds["predict"])
                            if benchmark_run.seconds["predict"] else None),
        "errors": benchmark_run.errors,
    }
    result = {
        "correct": correct,
        "attempted": benchmark_run.attempted,
        "failed": benchmark_run.failed,
        "metrics": metrics,
    }
    return details, result
