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

Slots are completed a block at a time: one GEMM neighbor search per
(missing view, observed view, label group), then stacked Cholesky factors
and draws.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from evifuse.dataset import MultiViewDataset

_MAX_JITTER = 1.0
# Slots searched, factored and drawn together: bounds the distance block
# (slots x candidates) and the covariance, factor and draw stacks.
_SLOT_BLOCK = 128


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


def _nearest(queries: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Positions of each query row's k nearest candidate rows, ties to the lowest.

    One GEMM distance ||b||^2 - 2 a.b (||a||^2 is the same for all of a
    query's candidates) shortlists every candidate within its rounding
    bound of the query's k-th smallest; the ``distance_set`` formula then
    ranks the shortlist, so the result equals an exact ranking of all
    candidates.
    """
    count = candidates.shape[0]
    if count <= k:
        return np.broadcast_to(np.arange(count), (queries.shape[0], count))
    b_sq = np.einsum("ij,ij->i", candidates, candidates)
    a_sq = np.einsum("ij,ij->i", queries, queries)
    # By the dot-product rounding bound, the GEMM distance plus ||a||^2 and
    # the exact one differ by at most (2d + 3) eps (||a||^2 + ||b||^2), so
    # an exact k nearest lies at most twice that above the GEMM k-th; the
    # slack is twice that again.
    slack = 8.0 * (queries.shape[1] + 2) * np.finfo(np.float64).eps * (a_sq + b_sq.max())
    approx = queries @ candidates.T
    approx *= -2.0
    approx += b_sq
    kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
    query_of, cand_of = np.nonzero(approx <= (kth + slack)[:, None])
    diff = candidates[cand_of] - queries[query_of]
    exact = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((cand_of, exact, query_of))
    shortlisted = np.bincount(query_of, minlength=queries.shape[0])
    first = np.cumsum(shortlisted) - shortlisted
    return cand_of[order[first[:, None] + np.arange(k)]]


def _neighbor_unions(data, ref, rows, m, k, use_labels) -> list:
    """Neighbor union of every slot (rows[i], m), as sorted reference indices.

    Candidates for view v are reference samples observing both v and m
    (and sharing the slot's label when ``use_labels``); each observed view
    proposes its k nearest. A slot with no candidate gets an empty union.
    """
    found_slot, found_ref = [], []
    for v in range(data.n_views):
        if v == m:
            continue
        on_v = data.mask[rows, v]
        eligible = ref.mask[:, m] & ref.mask[:, v]
        if use_labels:
            slot_labels = data.labels[rows]
            groups = [(on_v & (slot_labels == g), eligible & (ref.labels == g))
                      for g in np.unique(slot_labels[on_v])]
        else:
            groups = [(on_v, eligible)]
        for slot_mask, cand_mask in groups:
            slots, cand = np.nonzero(slot_mask)[0], np.nonzero(cand_mask)[0]
            if slots.size == 0 or cand.size == 0:
                continue
            nearest = _nearest(data.views[v][rows[slots]], ref.views[v][cand], k)
            found_slot.append(np.repeat(slots, nearest.shape[1]))
            found_ref.append(cand[nearest].ravel())
    if not found_slot:
        return [np.empty(0, dtype=np.int64) for _ in rows]
    pairs = np.unique(np.concatenate(found_slot) * ref.n_samples + np.concatenate(found_ref))
    slot, index = np.divmod(pairs, ref.n_samples)
    return np.split(index, np.searchsorted(slot, np.arange(1, len(rows))))


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
    return _neighbor_unions(data, ref, np.array([n]), m, query.k, query.use_labels)[0]


def _moments(neighbors: np.ndarray, diag_only: bool):
    """Mean and unbiased covariance of the rows; one row gives zero covariance.

    ``dot(centred.T, centred) / (count - 1)`` is what ``np.cov`` computes,
    bit for bit, without its per-call overhead.
    """
    count = neighbors.shape[0]
    mu = neighbors.mean(axis=0)
    if count == 1:
        return mu, np.zeros((mu.size, mu.size))
    if diag_only:
        return mu, np.diag(neighbors.var(axis=0, ddof=1))
    centred = neighbors - mu
    return mu, np.dot(centred.T, centred) * (1.0 / (count - 1))


def estimate_gaussian(neighbors: np.ndarray, jitter: float,
                      diag_only: bool = False) -> GaussianImputation:
    """Mean and (jittered) unbiased covariance of the neighbor rows.

    A single neighbor degenerates to a point mass with sigma = jitter * I.
    """
    neighbors = np.atleast_2d(np.asarray(neighbors, dtype=np.float64))
    if neighbors.shape[0] == 0:
        raise ValueError("empty neighbor set")
    mu, cov = _moments(neighbors, diag_only)
    return GaussianImputation(mu, cov + jitter * np.eye(mu.size), neighbors.shape[0])


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
        """Per-view matrices for a flattened (sample, sampling) batch.

        Integer-array indexing gives each matrix as a new array, so filling
        in the draws leaves ``views`` unchanged."""
        sample_rows = np.asarray(sample_rows)
        samplings = np.asarray(samplings)
        out = []
        for v in range(self.n_views):
            mat = self.views[v][sample_rows]
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
    if k < 1:
        raise ValueError("k must be >= 1")
    ref = reference if reference is not None else data
    keys = {n: _sample_content_key(data, n)
            for n in np.nonzero(~data.mask.all(axis=1))[0].tolist()}
    imputed_rows, draws = [], []
    for m in range(data.n_views):
        rows = np.nonzero(~data.mask[:, m])[0]
        out = np.empty((rows.size, n_samplings, data.view_dims[m]))
        for start in range(0, rows.size, _SLOT_BLOCK):
            block = rows[start:start + _SLOT_BLOCK]
            part = out[start:start + block.size]
            mu, cov = _slot_distribution(data, ref, block, m, k, use_labels, diag_cov)
            if point_estimate:
                part[:] = mu[:, None, :]
                continue
            try:
                chol = np.linalg.cholesky(cov + jitter * np.eye(mu.shape[1]))
            except np.linalg.LinAlgError:
                # escalate the jitter only for the slots that need it
                chol = np.stack([_stable_cholesky(c, jitter)[0] for c in cov])
            z = np.stack([
                np.random.default_rng(np.random.SeedSequence([int(seed), m, keys[n]]))
                .standard_normal((n_samplings, mu.shape[1]))
                for n in block.tolist()
            ])
            np.matmul(z, chol.transpose(0, 2, 1), out=part)
            part += mu[:, None, :]
        imputed_rows.append(rows)
        draws.append(out)
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
        imputed_rows=imputed_rows,
        draws=draws,
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


def _slot_distribution(data, ref, rows, m, k, use_labels, diag_cov):
    """Stacked (mu, raw covariance) of the slots (rows, m), applying the fallback chain."""
    unions = _neighbor_unions(data, ref, rows, m, k, use_labels)
    retry = [i for i, idx in enumerate(unions) if idx.size == 0]
    if use_labels and retry:
        for i, idx in zip(retry, _neighbor_unions(data, ref, rows[retry], m, k, False)):
            unions[i] = idx
    d = ref.view_dims[m]
    mu, cov = np.empty((rows.size, d)), np.zeros((rows.size, d, d))
    means = None
    for i, idx in enumerate(unions):
        if idx.size:
            mu[i], cov[i] = _moments(ref.views[m][idx], diag_cov)
        else:
            if means is None:
                means = _column_means(ref)
            mu[i] = means[m]
    return mu, cov
