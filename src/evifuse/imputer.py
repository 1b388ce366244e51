"""Neighbor-conditioned Gaussian imputation of missing views.

For a sample missing view m, every one of its observed views proposes its
k nearest candidates (restricted to samples that observe both that view
and view m, and at train time to samples with the same label). The union
of proposals indexes view-m rows whose mean and covariance define a
multivariate Gaussian; multiple draws from it produce multiple completed
copies of the sample.

Randomness is keyed on (seed, missing view, content hash of the sample's
observed data), so completions are reproducible, independent of sample
order, and safe to compute concurrently.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from evifuse.dataset import MultiViewDataset

_MAX_JITTER = 1.0


class CholeskyEscalationError(RuntimeError):
    """Covariance stayed non-factorizable after jitter escalation up to 1.0."""


@dataclass(frozen=True)
class NeighborQuery:
    """One lookup: which sample, which missing view, how many neighbors per view."""

    sample_index: int
    missing_view: int
    k: int = 10
    use_labels: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class GaussianImputation:
    """Moments of one missing view's distribution.

    ``sigma`` already includes the jitter on its diagonal, so drawing uses
    it directly.
    """

    mu: np.ndarray
    sigma: np.ndarray
    neighbor_count: int

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64).ravel()
        sigma = np.asarray(self.sigma, dtype=np.float64)
        if sigma.shape != (mu.size, mu.size):
            raise ValueError("sigma must be square and match mu")
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise ValueError("sigma must be symmetric")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)


def distance_set(x_v: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Negated squared Euclidean distances from x_v to each candidate row."""
    x_v = np.asarray(x_v, dtype=np.float64).ravel()
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    diff = candidates - x_v
    return -np.einsum("ij,ij->i", diff, diff)


def topk_indicator(distances: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries; ties resolve to the lowest index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    distances = np.asarray(distances)
    if distances.size == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-distances, kind="stable")
    return np.sort(order[:k])


def neighbor_union(
    query: NeighborQuery,
    data: MultiViewDataset,
    reference: MultiViewDataset | None = None,
) -> np.ndarray:
    """Union of per-observed-view top-k candidate indices into the reference set.

    Candidates for view v are reference samples observing both v and the
    missing view (and matching the query's label when ``use_labels``).
    An empty result signals that the caller must fall back.
    """
    ref = reference if reference is not None else data
    n, m = query.sample_index, query.missing_view
    if data.mask[n, m]:
        raise ValueError(f"view {m} of sample {n} is observed, nothing to impute")
    # the query sample is never eligible: it lacks view m by construction
    eligible_base = ref.mask[:, m].copy()
    if query.use_labels:
        eligible_base &= ref.labels == data.labels[n]
    union: set = set()
    for v in range(data.n_views):
        if v == m or not data.mask[n, v]:
            continue
        eligible = eligible_base & ref.mask[:, v]
        cand_idx = np.nonzero(eligible)[0]
        if cand_idx.size == 0:
            continue
        dists = distance_set(data.views[v][n], ref.views[v][cand_idx])
        union.update(cand_idx[topk_indicator(dists, query.k)].tolist())
    return np.array(sorted(union), dtype=np.int64)


def estimate_gaussian(neighbors: np.ndarray, jitter: float,
                      diag_only: bool = False) -> GaussianImputation:
    """Mean and (jittered) unbiased covariance of the neighbor rows.

    A single neighbor degenerates to a point mass with sigma = jitter * I.
    """
    neighbors = np.atleast_2d(np.asarray(neighbors, dtype=np.float64))
    count = neighbors.shape[0]
    if count == 0:
        raise ValueError("empty neighbor set")
    mu = neighbors.mean(axis=0)
    d = mu.size
    if count == 1:
        cov = np.zeros((d, d))
    elif diag_only:
        cov = np.diag(neighbors.var(axis=0, ddof=1))
    else:
        cov = np.cov(neighbors, rowvar=False, ddof=1).reshape(d, d)
    sigma = cov + jitter * np.eye(d)
    return GaussianImputation(mu, sigma, count)


def _stable_cholesky(cov: np.ndarray, jitter: float):
    """Cholesky of cov + eps*I, escalating eps tenfold up to 1.0 on failure."""
    d = cov.shape[0]
    eps = jitter
    while True:
        try:
            return np.linalg.cholesky(cov + eps * np.eye(d)), eps
        except np.linalg.LinAlgError:
            if eps >= _MAX_JITTER:
                raise CholeskyEscalationError(
                    f"covariance not factorizable even with jitter {eps:g}"
                ) from None
            eps = min(eps * 10.0 if eps > 0.0 else 1e-6, _MAX_JITTER)


def _sample_content_key(data: MultiViewDataset, n: int) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(data.mask[n].tobytes())
    for v in range(data.n_views):
        if data.mask[n, v]:
            h.update(np.ascontiguousarray(data.views[v][n]).tobytes())
    return int.from_bytes(h.digest(), "little")


@dataclass
class CompletionSet:
    """All completions of a dataset: observed entries plus per-slot draws.

    Observed entries are bit-identical across samplings; only the rows
    listed in ``imputed_rows[v]`` differ, with their draws stored as
    ``(row, sampling, feature)`` blocks per view.
    """

    n_samplings: int
    views: list
    mask: np.ndarray
    labels: np.ndarray
    imputed_rows: list
    draws: list
    _row_pos: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        n = self.views[0].shape[0]
        self._row_pos = []
        for v in range(len(self.views)):
            pos = np.full(n, -1, dtype=np.int64)
            pos[self.imputed_rows[v]] = np.arange(len(self.imputed_rows[v]))
            self._row_pos.append(pos)

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def provenance(self) -> np.ndarray:
        """(N, V) array: 0 where observed, 1 where imputed."""
        return (~self.mask).astype(np.uint8)

    @property
    def incomplete_samples(self) -> np.ndarray:
        return np.nonzero(~self.mask.all(axis=1))[0]

    def completion(self, s: int) -> list:
        """Materialize the s-th completed dataset as full view matrices."""
        if not 0 <= s < self.n_samplings:
            raise IndexError(f"sampling {s} out of range [0, {self.n_samplings})")
        out = []
        for v in range(self.n_views):
            mat = self.views[v].copy()
            rows = self.imputed_rows[v]
            if rows.size:
                mat[rows] = self.draws[v][:, s, :]
            out.append(mat)
        return out

    def gather(self, sample_rows: np.ndarray, samplings: np.ndarray) -> list:
        """Per-view matrices for a flattened (sample, sampling) batch."""
        sample_rows = np.asarray(sample_rows)
        samplings = np.asarray(samplings)
        out = []
        for v in range(self.n_views):
            mat = self.views[v][sample_rows].copy()
            pos = self._row_pos[v][sample_rows]
            hit = pos >= 0
            if hit.any():
                mat[hit] = self.draws[v][pos[hit], samplings[hit], :]
            out.append(mat)
        return out


def sample_completions(
    data: MultiViewDataset,
    k: int = 10,
    n_samplings: int = 30,
    jitter: float = 1e-3,
    seed: int = 0,
    *,
    reference: MultiViewDataset | None = None,
    use_labels: bool = True,
    diag_cov: bool = False,
    point_estimate: bool = False,
) -> CompletionSet:
    """Draw ``n_samplings`` completions for every missing view of every sample.

    ``reference`` supplies the candidate pool (defaults to ``data`` itself,
    the train-time setting); pass the training set when completing test
    data. ``point_estimate`` replaces draws by the neighbor mean, the
    single-imputation baseline.

    Fallbacks when no candidate satisfies the eligibility predicate:
    first drop the label restriction, then fall back to the column means
    of the missing view over all rows observing it.
    """
    if n_samplings < 1:
        raise ValueError("n_samplings must be >= 1")
    ref = reference if reference is not None else data
    imputed_rows = [[] for _ in range(data.n_views)]
    draw_blocks = [[] for _ in range(data.n_views)]
    for n in range(data.n_samples):
        missing = np.nonzero(~data.mask[n])[0]
        if missing.size == 0:
            continue
        key = _sample_content_key(data, n)
        for m in missing:
            mu, cov = _slot_distribution(data, ref, n, int(m), k, use_labels, diag_cov)
            if point_estimate:
                block = np.broadcast_to(mu, (n_samplings, mu.size)).copy()
            else:
                chol, _ = _stable_cholesky(cov, jitter)
                rng = np.random.default_rng(
                    np.random.SeedSequence([int(seed), int(m), key])
                )
                z = rng.standard_normal((n_samplings, mu.size))
                block = mu + z @ chol.T
            imputed_rows[m].append(n)
            draw_blocks[m].append(block)
    rows_arr, draws_arr = [], []
    for v in range(data.n_views):
        rows_arr.append(np.array(imputed_rows[v], dtype=np.int64))
        if draw_blocks[v]:
            draws_arr.append(np.stack(draw_blocks[v], axis=0))
        else:
            draws_arr.append(np.empty((0, n_samplings, data.view_dims[v])))
    base_views = []
    for v in range(data.n_views):
        mat = data.views[v].copy()
        mat[~data.mask[:, v]] = 0.0
        base_views.append(mat)
    return CompletionSet(
        n_samplings=n_samplings,
        views=base_views,
        mask=data.mask.copy(),
        labels=data.labels.copy(),
        imputed_rows=rows_arr,
        draws=draws_arr,
    )


def mean_value_completions(
    data: MultiViewDataset, reference: MultiViewDataset | None = None
) -> CompletionSet:
    """Single completion filling each missing view with its column means."""
    ref = reference if reference is not None else data
    col_means = _column_means(ref)
    imputed_rows, draws = [], []
    for v in range(data.n_views):
        rows = np.nonzero(~data.mask[:, v])[0]
        imputed_rows.append(rows)
        block = np.broadcast_to(col_means[v], (rows.size, 1, data.view_dims[v])).copy()
        draws.append(block)
    base_views = []
    for v in range(data.n_views):
        mat = data.views[v].copy()
        mat[~data.mask[:, v]] = 0.0
        base_views.append(mat)
    return CompletionSet(
        n_samplings=1,
        views=base_views,
        mask=data.mask.copy(),
        labels=data.labels.copy(),
        imputed_rows=imputed_rows,
        draws=draws,
    )


def _column_means(ref: MultiViewDataset) -> list:
    means = []
    for v in range(ref.n_views):
        observed = ref.views[v][ref.mask[:, v]]
        if observed.shape[0] == 0:
            raise ValueError(f"view {v} has no observed rows in the reference pool")
        means.append(observed.mean(axis=0))
    return means


def _slot_distribution(data, ref, n, m, k, use_labels, diag_cov):
    """(mu, raw covariance) for one missing slot, applying the fallback chain."""
    idx = neighbor_union(
        NeighborQuery(n, m, k, use_labels=use_labels), data, reference=ref
    )
    if idx.size == 0 and use_labels:
        idx = neighbor_union(
            NeighborQuery(n, m, k, use_labels=False), data, reference=ref
        )
    if idx.size == 0:
        mu = _column_means(ref)[m]
        return mu, np.zeros((mu.size, mu.size))
    gauss = estimate_gaussian(ref.views[m][idx], jitter=0.0, diag_only=diag_cov)
    return gauss.mu, gauss.sigma
