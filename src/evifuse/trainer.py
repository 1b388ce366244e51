"""Training orchestration: impute once, then fit V evidence heads jointly.

Completions are drawn before the epoch loop. Each epoch flattens the
data into (sample, sampling) pairs (complete samples contribute a single
pair), shuffles them, and for every minibatch runs all per-view heads,
fuses their opinions, and backpropagates the summed objective: fused-head
loss plus every per-view loss, each annealed by the same lambda.

Modes
-----
uimc               multi-sample completions, evidential losses, belief fusion
single_imputation  neighbor-mean completion (one per sample), evidential losses
naive_ce           multi-sample completions, softmax + cross-entropy heads,
                   fusion replaced by probability averaging
mean_imputation    column-mean completion, cross-entropy heads
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from evifuse.dataset import MultiViewDataset, ZScoreStats, zscore_fit_transform
from evifuse.evidential import AnnealSchedule, anneal_lambda, one_hot
from evifuse.fusion import FusionConflictError, total_loss_alpha_grads
from evifuse.imputer import CompletionSet, mean_value_completions, sample_completions
from evifuse.network import Adam, EvidenceNetwork

MODES = ("uimc", "single_imputation", "naive_ce", "mean_imputation")

CHECKPOINT_VERSION = 2
CONFIG_SCHEMA = 1

# fixed subkeys carving independent RNG streams out of the config seed
_SEED_INIT, _SEED_IMPUTE, _SEED_SHUFFLE = 101, 102, 103


class NonFiniteLossError(RuntimeError):
    """Training aborted because the objective became NaN or infinite."""


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or version-incompatible checkpoint file."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 128
    k: int = 10
    n_samplings: int = 30
    jitter: float = 1e-3
    anneal_final: float = 1.0
    anneal_epochs: int = 50
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-5
    seed: int = 0
    mode: str = "uimc"
    hidden: tuple = (128,)
    detach_fusion: bool = False
    diag_cov: bool = False
    early_stop: bool = True
    patience: int = 20
    plateau_tol: float = 1e-3

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.n_samplings < 1:
            raise ValueError("n_samplings must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        AnnealSchedule(self.anneal_final, self.anneal_epochs)  # validates F, E

    @property
    def schedule(self) -> AnnealSchedule:
        return AnnealSchedule(self.anneal_final, self.anneal_epochs)

    def to_dict(self) -> dict:
        out = {"schema": CONFIG_SCHEMA}
        out.update(asdict(self))
        out["hidden"] = list(self.hidden)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        data = dict(raw)
        schema = data.pop("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ValueError(f"unsupported config schema {schema}")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "hidden" in data:
            data["hidden"] = tuple(data["hidden"])
        return cls(**data)


@dataclass
class TrainedModel:
    """Everything needed to predict: heads, normalization, and the train pool.

    The (standardized) training data rides along as the candidate pool
    for test-time neighbor search.
    """

    networks: list
    stats: ZScoreStats
    config: TrainConfig
    loss_history: list
    train_pool: MultiViewDataset
    class_count: int
    epochs_run: int

    @property
    def uses_evidence(self) -> bool:
        return self.config.mode in ("uimc", "single_imputation")


def _seeded(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def _subseed(seed: int, *path: int) -> int:
    """A derived integer seed, stable under the parent seed and path."""
    return int(np.random.SeedSequence([int(seed), *map(int, path)]).generate_state(1)[0])


def build_completions(data: MultiViewDataset, cfg: TrainConfig,
                      reference: MultiViewDataset | None = None,
                      use_labels: bool = True,
                      seed: int | None = None) -> CompletionSet:
    """Mode-appropriate completions of ``data`` (train-time or test-time)."""
    seed_val = cfg.seed if seed is None else seed
    if cfg.mode == "mean_imputation":
        return mean_value_completions(data, reference=reference)
    if cfg.mode == "single_imputation":
        return sample_completions(
            data, k=cfg.k, n_samplings=1, jitter=cfg.jitter, seed=seed_val,
            reference=reference, use_labels=use_labels, diag_cov=cfg.diag_cov,
            point_estimate=True,
        )
    return sample_completions(
        data, k=cfg.k, n_samplings=cfg.n_samplings, jitter=cfg.jitter, seed=seed_val,
        reference=reference, use_labels=use_labels, diag_cov=cfg.diag_cov,
    )


def _flatten_pairs(completions: CompletionSet):
    """(sample, sampling) index pairs; complete samples appear exactly once."""
    incomplete = ~completions.mask.all(axis=1)
    complete_rows = np.nonzero(~incomplete)[0]
    inc_rows = np.nonzero(incomplete)[0]
    rows = [complete_rows]
    slots = [np.zeros(complete_rows.size, dtype=np.int64)]
    for s in range(completions.n_samplings):
        rows.append(inc_rows)
        slots.append(np.full(inc_rows.size, s, dtype=np.int64))
    return np.concatenate(rows), np.concatenate(slots)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def train(data: MultiViewDataset, cfg: TrainConfig) -> TrainedModel:
    """Run the full training procedure on an incomplete dataset."""
    std_train, _, stats = zscore_fit_transform(data)
    completions = build_completions(std_train, cfg, seed=_subseed(cfg.seed, _SEED_IMPUTE))
    pair_rows, pair_slots = _flatten_pairs(completions)
    n_pairs = pair_rows.size

    k_classes = data.class_count
    networks = [
        EvidenceNetwork([dim, *cfg.hidden, k_classes],
                        seed=_subseed(cfg.seed, _SEED_INIT, v))
        for v, dim in enumerate(std_train.view_dims)
    ]
    optimizers = [
        Adam(net.params, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps,
             cfg.weight_decay)
        for net in networks
    ]
    labels_hot = one_hot(std_train.labels, k_classes)

    schedule = cfg.schedule
    history = []
    monitor_start = int(np.ceil(cfg.anneal_final * cfg.anneal_epochs))
    best = np.inf
    stale = 0
    shuffle_rng = _seeded(cfg.seed, _SEED_SHUFFLE)
    epochs_run = 0

    for epoch in range(cfg.epochs):
        lam = anneal_lambda(epoch, schedule)
        order = shuffle_rng.permutation(n_pairs)
        fused_total = 0.0
        view_totals = np.zeros(data.n_views)
        for start in range(0, n_pairs, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            rows = pair_rows[batch]
            xs = completions.gather(rows, pair_slots[batch])
            y = labels_hot[rows]
            # a diverging step overflows to inf and nan; the finite checks on
            # alpha, the gradients and the epoch loss report it as an error
            with np.errstate(over="ignore", invalid="ignore"):
                if cfg.mode in ("uimc", "single_imputation"):
                    fused_sum, view_sums = _evidential_step(
                        networks, optimizers, xs, y, lam, cfg.detach_fusion,
                        epoch=epoch, batch_rows=rows,
                    )
                else:
                    fused_sum, view_sums = _cross_entropy_step(networks, optimizers, xs, y)
            fused_total += fused_sum
            view_totals += view_sums
        total = fused_total + view_totals.sum()
        if not np.isfinite(total):
            raise NonFiniteLossError(f"non-finite training loss at epoch {epoch}")
        history.append(
            {"total": float(total), "fused": float(fused_total),
             "views": view_totals.tolist(), "lambda": float(lam)}
        )
        epochs_run = epoch + 1
        if cfg.early_stop and epoch >= monitor_start:
            if total < best * (1.0 - cfg.plateau_tol):
                best = total
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break

    return TrainedModel(
        networks=networks,
        stats=stats,
        config=cfg,
        loss_history=history,
        train_pool=std_train,
        class_count=k_classes,
        epochs_run=epochs_run,
    )


def _evidential_step(networks, optimizers, xs, y, lam, detach_fusion,
                     epoch, batch_rows):
    batch_size = y.shape[0]
    alphas, caches = [], []
    for net, x in zip(networks, xs):
        evidence, cache = net.forward(x, return_cache=True)
        alphas.append(evidence + 1.0)
        caches.append(cache)
    try:
        fused_term, view_terms, grads = total_loss_alpha_grads(
            alphas, y, lam, detach_fusion=detach_fusion
        )
    except FusionConflictError as exc:
        rows = batch_rows[exc.rows] if exc.rows is not None else batch_rows
        raise FusionConflictError(
            f"fusion conflict at epoch {epoch}, samples {rows[:8].tolist()}: {exc}",
            rows=rows,
        ) from exc
    except FloatingPointError as exc:
        raise NonFiniteLossError(f"training diverged at epoch {epoch}: {exc}") from exc
    for net, opt, cache, grad in zip(networks, optimizers, caches, grads):
        opt.step(net.params, net.backward(cache, grad / batch_size))
    return float(np.sum(fused_term)), np.array([float(np.sum(t)) for t in view_terms])


def _cross_entropy_step(networks, optimizers, xs, y):
    batch_size, v_count = y.shape[0], len(networks)
    probs, caches = [], []
    for net, x in zip(networks, xs):
        logits, cache = net.forward_logits(x, return_cache=True)
        probs.append(_softmax(np.atleast_2d(logits)))
        caches.append(cache)
    avg = np.mean(probs, axis=0)
    fused_sum = float(-(y * np.log(np.maximum(avg, 1e-12))).sum())
    grad_avg = -(y / np.maximum(avg, 1e-12)) / (v_count * batch_size)
    view_sums = np.zeros(v_count)
    for i, (net, opt, p, cache) in enumerate(zip(networks, optimizers, probs, caches)):
        view_sums[i] = float(-(y * np.log(np.maximum(p, 1e-12))).sum())
        fused_part = p * (grad_avg - (grad_avg * p).sum(axis=-1, keepdims=True))
        grad_logits = (p - y) / batch_size + fused_part
        opt.step(net.params, net.backward_logits(cache, grad_logits))
    return fused_sum, view_sums


def save_model(model: TrainedModel, path) -> None:
    """Write a versioned checkpoint atomically (temp file, then rename)."""
    arrays = {}
    for v, net in enumerate(model.networks):
        for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays[f"net{v}_w{layer}"] = w
            arrays[f"net{v}_b{layer}"] = b
    for v, view in enumerate(model.train_pool.views):
        arrays[f"pool_view{v}"] = view
        arrays[f"norm_mean{v}"] = model.stats.means[v]
        arrays[f"norm_std{v}"] = model.stats.stds[v]
    arrays["pool_mask"] = model.train_pool.mask
    arrays["pool_labels"] = model.train_pool.labels
    meta = {
        "ckpt_version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "class_count": model.class_count,
        "layer_sizes": [net.layer_sizes for net in model.networks],
        "loss_history": model.loss_history,
        "epochs_run": model.epochs_run,
    }
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp, path)


def load_model(path) -> TrainedModel:
    """Read a checkpoint written by save_model; raises CheckpointError on damage."""
    try:
        # np.load does not close a file it opened itself when it fails to read it
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as payload:
            arrays = {key: payload[key] for key in payload.files}
    except (OSError, ValueError, KeyError, EOFError, RuntimeError,
            zipfile.BadZipFile) as exc:
        # EOFError: empty file; BadZipFile: truncated archive; RuntimeError
        # (NotImplementedError among them): a damaged zip header that names
        # an unknown zip version or sets the encryption flag
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    try:
        meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
        if meta["ckpt_version"] != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {meta['ckpt_version']} unsupported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        cfg = TrainConfig.from_dict(meta["config"])
        networks = []
        for v, sizes in enumerate(meta["layer_sizes"]):
            net = EvidenceNetwork(sizes, seed=0)
            net.set_params(
                [arrays[f"net{v}_{kind}{layer}"]
                 for layer in range(len(sizes) - 1) for kind in ("w", "b")]
            )
            networks.append(net)
        view_count = len(meta["layer_sizes"])
        pool = MultiViewDataset(
            [arrays[f"pool_view{v}"] for v in range(view_count)],
            arrays["pool_labels"],
            arrays["pool_mask"],
            int(meta["class_count"]),
        )
        stats = ZScoreStats(
            [arrays[f"norm_mean{v}"] for v in range(view_count)],
            [arrays[f"norm_std{v}"] for v in range(view_count)],
        )
        return TrainedModel(
            networks=networks,
            stats=stats,
            config=cfg,
            loss_history=meta["loss_history"],
            train_pool=pool,
            class_count=int(meta["class_count"]),
            epochs_run=int(meta["epochs_run"]),
        )
    except CheckpointError:
        raise
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
