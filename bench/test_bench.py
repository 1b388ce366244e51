"""Tests of the benchmark's own machinery: span arithmetic, data, hook restoration.

    python3 -m pytest -q bench
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evifuse.experiments import prepare_cell_data  # noqa: E402
from evifuse.predictor import evaluate, predict_sample  # noqa: E402
from evifuse.trainer import TrainConfig, train  # noqa: E402

import workloads  # noqa: E402
from spans import HOOKS, Tracer, _record_union, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 6.0, 9.0, 0],
    ]
    assert self_times(spans) == [3.0, 3.0, 1.0, 3.0]


def test_tracer_records_nested_spans():
    fake = types.ModuleType("fake")
    clock = iter(range(100))
    fake.inner = lambda: next(clock)
    fake.outer = lambda: fake.inner() + fake.inner()
    tracer = Tracer(hooks=((fake, "outer", "layer.outer", None),
                           (fake, "inner", "layer.inner", None)))
    for _ in range(2):
        with tracer.op("op.test"):
            fake.outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["op.test", "layer.outer", "layer.inner", "layer.inner"] * 2
    assert [s[3] for s in tracer.spans[:4]] == [-1, 0, 1, 1]
    own = self_times(tracer.spans)
    assert all(t >= 0.0 for t in own)
    outer = tracer.spans[1]
    assert own[1] == pytest.approx(
        (outer[2] - outer[1]) - sum(s[2] - s[1] for s in tracer.spans[2:4]))


def test_pool_is_identical_under_the_same_seed():
    a, b, c = workloads.make_pool(5, n=300), workloads.make_pool(5, n=300), workloads.make_pool(6, n=300)
    for va, vb in zip(a.views, b.views):
        np.testing.assert_array_equal(va, vb)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.views[0], c.views[0])


def test_union_size_counts_only_the_search_a_slot_uses():
    tracer = Tracer(hooks=())
    labelled, unlabelled = types.SimpleNamespace(use_labels=True), types.SimpleNamespace(use_labels=False)
    _record_union(tracer, (labelled,), np.arange(4))
    _record_union(tracer, (labelled,), np.arange(0))
    _record_union(tracer, (unlabelled,), np.arange(7))
    assert tracer.samples["imputer.neighbors"] == [4, 7]
    assert tracer.counts["imputer.label_empty"] == 1


def test_reported_metrics_follow_benchmark_json():
    listed = [m["name"] for m in workloads.SPEC["end_to_end"]]
    out = workloads.reported({"setup_s": 1.5}, "end_to_end")
    assert list(out) == listed
    assert out["setup_s"] == {"value": 1.5, "unit": "s"}
    assert out["accuracy"]["value"] is None
    with pytest.raises(KeyError):
        workloads.reported({"not_a_metric": 1.0}, "end_to_end")


def _hooked_objects():
    return {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in HOOKS}


def test_every_hook_target_exists():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in HOOKS
               if attr not in vars(owner)]
    assert missing == []


def test_traced_calls_restore_every_hooked_object():
    before = _hooked_objects()
    pool = workloads.make_pool(3, n=300)
    train_set, test_set = prepare_cell_data(pool, workloads.ETA, 3, workloads.TRAIN_FRACTION)
    cfg = TrainConfig(epochs=1, n_samplings=2, hidden=(8,), early_stop=False, seed=3)
    tracer = Tracer()
    with tracer.op("op.train"):
        assert all(vars(owner)[attr] is not obj for (owner, attr), obj in before.items())
        model = train(train_set, cfg)
    row = int(np.nonzero(~test_set.mask.all(axis=1))[0][0])
    with tracer.op("op.predict"):
        predict_sample(model, [v[row] for v in test_set.views], test_set.mask[row], seed=3)
    with pytest.raises(RuntimeError), tracer.op("op.evaluate"):
        evaluate(model, test_set, seed=3)
        raise RuntimeError("operation failed")
    after = _hooked_objects()
    assert all(after[key] is obj for key, obj in before.items())
    assert tracer.ops == 3 and not tracer.missing
    metrics = tracer.metrics()
    per_layer = {m["name"] for m in workloads.SPEC["per_layer"]}
    predict_names = {f"predict_sample.{name}" for name in workloads.PREDICT_LAYER_METRICS}
    assert set(metrics) | {"trace.overhead_s"} == per_layer - predict_names
    assert predict_names <= per_layer
    assert set(workloads.PREDICT_LAYER_METRICS) <= set(metrics) | {"trace.overhead_s"}
    assert metrics["special.digamma.calls"] > 0
    assert metrics["trainer.epoch.s"] > 0.0
