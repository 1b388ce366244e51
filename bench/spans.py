"""Per-layer tracing of evifuse from outside the package.

A traced operation swaps the module-level names and class attributes that
evifuse code looks up at call time (``evifuse.evidential.digamma``,
``EvidenceNetwork.forward``, ...) for wrappers that record one span per
call, then puts the original objects back. A span is ``[name, start, end,
parent]``, where ``parent`` indexes the enclosing span (-1 for the root
span of an operation). A layer's self time is its span minus its
children's spans.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from evifuse import dataset, evidential, fusion, imputer, network, predictor, trainer


def _count_elements(tracer, args, result):
    tracer.counts["special.elements"] += np.size(args[0])


def _count_rows(tracer, args, result):
    x = args[1]
    tracer.counts["network.forward.rows"] += 1 if np.ndim(x) == 1 else len(x)


def _record_union(tracer, args, result):
    # An empty labelled search is retried without labels; only the search
    # whose result the slot uses gives a union size.
    if args[0].use_labels and len(result) == 0:
        tracer.counts["imputer.label_empty"] += 1
    else:
        tracer.samples["imputer.neighbors"].append(len(result))


def _count_slot(tracer, args, result):
    tracer.counts["imputer.slots"] += 1


def _count_mean_fallback(tracer, args, result):
    tracer.counts["imputer.mean_fallback"] += 1


def _count_escalation(tracer, args, result):
    if result[1] > args[1]:
        tracer.counts["imputer.jitter_escalations"] += 1


def _count_samplings(tracer, args, result):
    invalid = result[2]
    tracer.counts["predictor.samplings"] += invalid.size
    tracer.counts["predictor.valid_samplings"] += int((~invalid).sum())


def _mark_epoch(tracer, args, result):
    # train() calls anneal_lambda once at the start of every epoch
    tracer.samples["epoch_starts"].append(perf_counter())


# (owner, attribute, span name or None for a counter only, observer or None)
HOOKS = (
    (evidential, "digamma", "special.digamma", _count_elements),
    (evidential, "trigamma", "special.trigamma", _count_elements),
    (evidential, "gammaln", "special.gammaln", _count_elements),
    (fusion, "view_loss", "evidential.view_loss", None),
    (fusion, "view_loss_grad", "evidential.view_loss_grad", None),
    (evidential.SubjectiveOpinion, "__post_init__", "evidential.opinion_init", None),
    (trainer, "total_loss_alpha_grads", "fusion.loss_grads", None),
    (fusion, "_fuse_alphas", "fusion.fuse", None),
    (fusion, "_fuse_alphas_vjp", "fusion.fuse", None),
    (network.EvidenceNetwork, "forward", "network.forward", _count_rows),
    (network.EvidenceNetwork, "backward", "network.backward", None),
    (network.Adam, "step", "network.adam", None),
    (trainer, "sample_completions", "imputer.sample_completions", None),
    (imputer, "_slot_distribution", None, _count_slot),
    (imputer, "neighbor_union", "imputer.neighbor_union", _record_union),
    (imputer, "_column_means", None, _count_mean_fallback),
    (imputer, "_stable_cholesky", "imputer.cholesky", _count_escalation),
    (imputer.CompletionSet, "gather", "imputer.gather", None),
    (predictor, "_sampling_opinions", "predictor.opinions", _count_samplings),
    (predictor, "_fold_with_exclusions", "predictor.fold", None),
    (predictor, "_vote", "predictor.vote", None),
    (trainer, "build_completions", "trainer.impute", None),
    (trainer, "anneal_lambda", None, _mark_epoch),
    (trainer, "_evidential_step", "trainer.step", None),
    (trainer, "zscore_fit_transform", "dataset.zscore", None),
    (predictor, "zscore_apply", "dataset.zscore", None),
    (dataset.MultiViewDataset, "__post_init__", "dataset.construct", None),
)

SPAN_LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in HOOKS if name))

# phase spans whose time is reported with their children included
_INCLUSIVE = {"trainer.impute"}
_RENAMED = {"trainer.step.calls": "trainer.batches"}


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    """Spans and counters of traced operations, kept in memory."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list = []
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        self.ops = 0
        self.missing: set = set()
        self._stack: list = []

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, observe):
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = self._begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._end(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @contextmanager
    def op(self, name: str):
        """Trace one workload operation under a root span named ``name``.

        Every hooked attribute holds its original object again on exit,
        also when the operation raises. A hook whose attribute no longer
        exists is skipped and listed in ``missing``.
        """
        patched = []
        try:
            for owner, attr, span_name, observe in self.hooks:
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.add(f"{owner.__name__}.{attr}")
                    continue
                setattr(owner, attr, self._wrap(original, span_name, observe))
                patched.append((owner, attr, original))
            root = self._begin(name)
            try:
                yield
            finally:
                self._end(root)
                starts = self.samples.pop("epoch_starts", [])
                bounds = [*starts, self.spans[root][2]]
                self.samples["trainer.epoch"].extend(np.diff(bounds).tolist())
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            self.ops += 1

    def metrics(self) -> dict:
        """Per-operation layer metrics: counts and self seconds per traced op."""
        ops = max(self.ops, 1)
        calls, busy, total = Counter(), Counter(), Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            busy[span[0]] += own
            total[span[0]] += span[2] - span[1]
        out = {}
        for name in SPAN_LAYERS:
            seconds = total[name] if name in _INCLUSIVE else busy[name]
            out[_RENAMED.get(f"{name}.calls", f"{name}.calls")] = calls[name] / ops
            out[f"{name}.s"] = seconds / ops
        counts, samples = self.counts, self.samples
        neighbors = samples["imputer.neighbors"] or [0]
        epochs = samples["trainer.epoch"]
        out.update({
            "special.elements": counts["special.elements"] / ops,
            "network.forward.rows": counts["network.forward.rows"] / ops,
            "imputer.neighbors.median": float(statistics.median(neighbors)),
            "imputer.neighbors.max": float(max(neighbors)),
            "imputer.label_fallback_ratio": _ratio(counts["imputer.label_empty"],
                                                   counts["imputer.slots"]),
            "imputer.mean_fallback": counts["imputer.mean_fallback"] / ops,
            "imputer.jitter_escalations": counts["imputer.jitter_escalations"] / ops,
            "predictor.valid_sampling_ratio": _ratio(counts["predictor.valid_samplings"],
                                                     counts["predictor.samplings"]),
            "trainer.epoch.s": float(statistics.median(epochs)) if epochs else 0.0,
            "trace.spans": len(self.spans) / ops,
        })
        return out


def _ratio(part, whole) -> float:
    """part / whole, or 0.0 when the layer did no work at all."""
    return part / whole if whole else 0.0
