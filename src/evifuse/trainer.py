"""Training orchestration: impute once, then fit V evidence heads jointly.

``build_completions``, what ``train`` fits on, runs before the epoch loop. Each
epoch flattens the data into (sample, sampling) pairs (complete samples
contribute a single pair), shuffles them, and for every minibatch runs each
per-view head on its (rows, features) input, fuses their opinions, and takes
one Adam step over all heads on the summed objective: fused-head loss plus
every per-view loss, each ACE + lambda * KL with lambda = min(1, epoch /
anneal_epochs). A step at lambda = 0 (epoch 0) computes ACE only.

``MODES`` is the one table of what each mode does: the ``fill`` by which
the imputer completes a missing view, and whether the heads are evidential,
fused by the pair rule, or softmax heads trained by cross-entropy on their
averaged probabilities. The first row is the paper's method, the rest baselines.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from evifuse.dataset import MultiViewDataset, ZScoreStats, write_file, zscore_fit_transform
from evifuse.evidential import anneal_lambda, one_hot
from evifuse.fusion import total_loss_alpha_grads
from evifuse.imputer import CompletionSet, sample_completions
from evifuse.network import Adam, EvidenceNetwork

# mode -> (``imputer.view_draws`` fill, evidential heads)
MODES = {"uimc": ("draws", True), "single_imputation": ("neighbor_mean", True),
         "naive_ce": ("draws", False), "mean_imputation": ("column_mean", False)}

CHECKPOINT_VERSION = 2
CONFIG_SCHEMA = 4

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
    anneal_epochs: int = 50
    learning_rate: float = 1e-3
    seed: int = 0
    mode: str = "uimc"
    hidden: tuple = (128,)
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
        if self.anneal_epochs < 1:
            raise ValueError("anneal_epochs must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (np.isfinite(self.plateau_tol) and self.plateau_tol >= 0.0):
            raise ValueError(f"plateau_tol must be finite and >= 0, got {self.plateau_tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden must be widths >= 1, got {list(self.hidden)}")

    @property
    def uses_evidence(self) -> bool:
        """Whether the mode trains evidential heads fused by belief fusion."""
        return MODES[self.mode][1]

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
            raise ValueError(f"config schema {schema} unsupported (expected {CONFIG_SCHEMA})")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            kind = cls.__dataclass_fields__[key].type
            if not _fits(value, kind):
                expected = "list of int" if kind == "tuple" else kind
                raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
        return cls(**data)


def _fits(value, kind: str) -> bool:
    """Whether a config file value fits a field annotated ``kind``; a bool is no number."""
    if kind == "tuple":
        return isinstance(value, list) and all(_fits(h, "int") for h in value)
    types = {"int": int, "float": (int, float), "str": str, "bool": bool}[kind]
    return isinstance(value, types) and isinstance(value, bool) == (kind == "bool")


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

    @property
    def class_count(self) -> int:
        """Classes the heads score: their output width."""
        return self.networks[0].layer_sizes[-1]

    @property
    def epochs_run(self) -> int:
        return len(self.loss_history)


def _seeded(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def _subseed(seed: int, *path: int) -> int:
    """A derived integer seed, stable under the parent seed and path."""
    return int(np.random.SeedSequence([int(seed), *map(int, path)]).generate_state(1)[0])


def _completion_options(cfg: TrainConfig, n_samplings: int | None = None) -> dict:
    """Imputer keyword arguments of the config: k and its mode's ``MODES`` fill.

    The ``"draws"`` fill makes ``n_samplings`` completions (the config's
    count unless given); the other fills make one. An override below 1 is
    rejected whatever the fill.
    """
    count = cfg.n_samplings if n_samplings is None else int(n_samplings)
    if count < 1:
        raise ValueError(f"n_samplings must be >= 1, got {count}")
    fill = MODES[cfg.mode][0]
    return dict(k=cfg.k, n_samplings=count if fill == "draws" else 1, fill=fill)


def build_completions(data: MultiViewDataset, cfg: TrainConfig):
    """What ``train`` fits on: ``(completions, stats)``, where ``stats`` standardize ``data``
    and ``completions`` fill its standardized rows as the config's mode and seed say."""
    std, stats = zscore_fit_transform(data)
    return sample_completions(std, seed=_subseed(cfg.seed, _SEED_IMPUTE),
                              **_completion_options(cfg)), stats


def _flatten_pairs(completions: CompletionSet):
    """(sample, sampling) index pairs; complete samples appear exactly once."""
    incomplete = ~completions.data.mask.all(axis=1)
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
    completions, stats = build_completions(data, cfg)
    pair_rows, pair_slots = _flatten_pairs(completions)
    n_pairs = pair_rows.size

    k_classes = data.class_count
    networks = [
        EvidenceNetwork([dim, *cfg.hidden, k_classes],
                        seed=_subseed(cfg.seed, _SEED_INIT, v))
        for v, dim in enumerate(data.view_dims)
    ]
    optimizer = Adam.over(networks, cfg.learning_rate)
    labels_hot = one_hot(data.labels, k_classes)

    history = []
    best = np.inf
    stale = 0
    shuffle_rng = _seeded(cfg.seed, _SEED_SHUFFLE)

    for epoch in range(cfg.epochs):
        lam = anneal_lambda(epoch, cfg.anneal_epochs)
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
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    if cfg.uses_evidence:
                        fused_sum, view_sums = _evidential_step(networks, optimizer, xs, y, lam)
                    else:
                        fused_sum, view_sums = _cross_entropy_step(networks, optimizer, xs, y)
            except FloatingPointError as exc:
                raise NonFiniteLossError(f"training diverged at epoch {epoch}: {exc}") from exc
            fused_total += fused_sum
            view_totals += view_sums
        total = fused_total + view_totals.sum()
        if not np.isfinite(total):
            raise NonFiniteLossError(f"non-finite training loss at epoch {epoch}")
        history.append(
            {"total": float(total), "fused": float(fused_total),
             "views": view_totals.tolist(), "lambda": float(lam)}
        )
        if cfg.early_stop and epoch >= cfg.anneal_epochs:
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
        train_pool=completions.data,
    )


def _evidential_step(networks, optimizer, xs, y, lam):
    batch_size = y.shape[0]
    alphas, caches = [], []
    for net, x in zip(networks, xs):
        evidence, cache = net.forward(x, return_cache=True)
        alphas.append(evidence + 1.0)
        caches.append(cache)
    fused_term, view_terms, grads = total_loss_alpha_grads(alphas, y, lam)
    optimizer.step([g for net, cache, grad in zip(networks, caches, grads)
                    for g in net.backward(cache, grad / batch_size)])
    sums = np.sum([fused_term, *view_terms], axis=-1)
    return float(sums[0]), sums[1:]


def _cross_entropy_step(networks, optimizer, xs, y):
    batch_size, v_count = y.shape[0], len(networks)
    probs, caches = [], []
    for net, x in zip(networks, xs):
        logits, cache = net.forward_logits(x, return_cache=True)
        probs.append(_softmax(logits))
        caches.append(cache)
    avg = np.mean(probs, axis=0)
    fused_sum = float(-(y * np.log(np.maximum(avg, 1e-12))).sum())
    grad_avg = -(y / np.maximum(avg, 1e-12)) / (v_count * batch_size)
    view_sums = np.zeros(v_count)
    grads = []
    for i, (net, p, cache) in enumerate(zip(networks, probs, caches)):
        view_sums[i] = float(-(y * np.log(np.maximum(p, 1e-12))).sum())
        fused_part = p * (grad_avg - (grad_avg * p).sum(axis=-1, keepdims=True))
        grads.extend(net.backward_logits(cache, (p - y) / batch_size + fused_part))
    optimizer.step(grads)
    return fused_sum, view_sums


def save_model(model: TrainedModel, path) -> None:
    """Publish a versioned checkpoint whole, through ``dataset.write_file``."""
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
    archive = io.BytesIO()
    np.savez(archive, **arrays)
    write_file(path, archive.getvalue())


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
        try:
            cfg = TrainConfig.from_dict(meta["config"])
        except ValueError as exc:
            raise CheckpointError(f"checkpoint {path} holds an unusable config: {exc}") from exc
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
        )
    except CheckpointError:
        raise
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
