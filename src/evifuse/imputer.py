"""Neighbor-conditioned Gaussian imputation of missing views.

For a sample missing view m, every one of its observed views proposes its
k nearest candidates (restricted to samples that observe both that view
and view m, and at train time to samples with the same label). The union
of proposals indexes view-m rows whose mean and covariance define a
multivariate Gaussian; multiple draws from it produce multiple completed
copies of the sample.

Randomness is keyed on (seed, missing view, content hash of the sample's
observed data), so completions are reproducible, independent of sample
order, and safe to compute concurrently. A slot draws from
``np.random.default_rng(np.random.SeedSequence([seed, m, key]))``. For a
view with at least ``_VECTOR_SEED_MIN`` missing slots, ``_seed_states``
runs numpy's documented SeedSequence hash on all its keys at once and
each slot's PCG64 starts from its precomputed state, which gives the same
draws bit for bit. Smaller views, such as the one row of a prediction,
seed each slot through ``SeedSequence``: the vectorised hash costs a fixed
0.3 ms, about what a dozen ``SeedSequence`` calls cost.

Slots are completed a block at a time: one GEMM neighbor search
(``_nearest``) per (missing view, observed view, label group), merged
into per-slot unions (``_neighbor_unions``), moments stacked per union
size (``_moments``), then stacked Cholesky factors and draws. A
``CompletionSet`` holds the observed entries once and the draws per slot.
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
# Missing slots of a view from which its seed states are hashed as one array.
_VECTOR_SEED_MIN = 16

# numpy's SeedSequence hash: its pool size and 32-bit constants.
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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


def _nearest(queries: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Positions of each query row's k nearest candidate rows, ties to the lowest.

    One GEMM distance ||b||^2 - 2 a.b (||a||^2 is the same for all of a
    query's candidates) shortlists every candidate within its rounding
    bound of the query's k-th smallest; the exact squared distance of the
    row difference then ranks the shortlist, so the result equals an exact
    ranking of all candidates.
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
    query_of, cand_of = np.divmod(np.flatnonzero(approx <= (kth + slack)[:, None]), count)
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
    """``_neighbor_unions`` of one slot (query.sample_index, query.missing_view).

    No code path calls it; the benchmark's search span hooks this name
    until it is re-hooked on ``_neighbor_unions``.
    """
    ref = reference if reference is not None else data
    n, m = query.sample_index, query.missing_view
    if data.mask[n, m]:
        raise ValueError(f"view {m} of sample {n} is observed, nothing to impute")
    return _neighbor_unions(data, ref, np.array([n]), m, query.k, query.use_labels)[0]


def _moments(neighbors: np.ndarray, diag_only: bool):
    """Means (B, d) and unbiased covariances (B, d, d) of B row sets of equal size.

    ``neighbors`` is (B, c, d); one row (c = 1) gives zero covariance. Per
    set, ``centred.T @ centred / (c - 1)`` is what ``np.cov`` computes, bit
    for bit, and the diagonal variances are ``var(ddof=1)``.
    """
    count = neighbors.shape[1]
    mu = neighbors.mean(axis=1)
    if count > 1 and not diag_only:
        centred = neighbors - mu[:, None, :]
        cov = np.matmul(centred.transpose(0, 2, 1), centred)
        cov *= 1.0 / (count - 1)
        return mu, cov
    d = mu.shape[1]
    cov = np.zeros((mu.shape[0], d, d))
    if count > 1:
        # written onto zeros: var * eye would turn an infinite variance into NaNs
        cov[:, np.arange(d), np.arange(d)] = neighbors.var(axis=1, ddof=1)
    return mu, cov


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


def _uint32_words(n: int) -> list:
    """A non-negative integer as SeedSequence reads it: 32-bit words, low first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_states(seed: int, m: int, keys) -> np.ndarray:
    """(slots, 4) uint64 PCG64 seed states of the slots (seed, m, key) of ``keys``.

    Row i equals ``SeedSequence([seed, m, keys[i]]).generate_state(4,
    np.uint64)``: numpy's hash run over a (slots, words) uint32 array.
    Entropy is the words of seed, m and key; a key below 2**32 has no high
    word, which inside the pool of 4 equals the zero padding and past it
    skips that word's mixing round. uint32 arithmetic wraps as the hash's
    does.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    high = (keys >> np.uint64(32)).astype(np.uint32)
    lead = _uint32_words(seed) + _uint32_words(m)
    entropy = [np.full(keys.size, w, dtype=np.uint32) for w in lead]
    entropy += [keys.astype(np.uint32), high]
    length = len(entropy) - (high == 0)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_WORDS, len(entropy)):
        live = length > src
        for dst in range(_POOL_WORDS):
            pool[dst] = np.where(live, mix(pool[dst], hashmix(entropy[src])), pool[dst])
    hash_const = _INIT_B
    state = np.empty((keys.size, 2 * _POOL_WORDS), dtype=np.uint32)
    for i in range(2 * _POOL_WORDS):
        value = pool[i % _POOL_WORDS] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedState(np.random.bit_generator.ISeedSequence):
    """One slot's precomputed PCG64 seed state behind the seed-sequence interface."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("holds the 4 uint64 words that PCG64 seeds from")
        return self.state


def _slot_seeds(seed: int, m: int, keys: list) -> list:
    """Seed sequence of each slot (seed, m, key); both paths give the same draws."""
    if len(keys) < _VECTOR_SEED_MIN:
        return [np.random.SeedSequence([seed, m, key]) for key in keys]
    return [_SeedState(state) for state in _seed_states(seed, m, keys)]


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
    draws = []
    for m in range(data.n_views):
        rows = np.nonzero(~data.mask[:, m])[0]
        out = np.empty((rows.size, n_samplings, data.view_dims[m]))
        seeds = None if point_estimate else _slot_seeds(
            int(seed), m, [keys[n] for n in rows.tolist()])
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
                np.random.Generator(np.random.PCG64(slot_seed))
                .standard_normal((n_samplings, mu.shape[1]))
                for slot_seed in seeds[start:start + block.size]
            ])
            np.matmul(z, chol.transpose(0, 2, 1), out=part)
            part += mu[:, None, :]
        draws.append(out)
    return _completion_set(data, n_samplings, draws)


def mean_value_completions(
    data: MultiViewDataset, reference: MultiViewDataset | None = None
) -> CompletionSet:
    """Single completion filling each missing view with its column means."""
    col_means = _column_means(reference if reference is not None else data)
    draws = [np.broadcast_to(mean, ((~data.mask[:, v]).sum(), 1, data.view_dims[v])).copy()
             for v, mean in enumerate(col_means)]
    return _completion_set(data, 1, draws)


def _completion_set(data: MultiViewDataset, n_samplings: int, draws: list) -> CompletionSet:
    """Completions of ``data`` whose view-v draws fill, in order, the rows missing view v."""
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
        imputed_rows=[np.nonzero(~data.mask[:, v])[0] for v in range(data.n_views)],
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
    by_size = {}
    for i, idx in enumerate(unions):
        by_size.setdefault(idx.size, []).append(i)
    empty = by_size.pop(0, None)
    if empty:
        mu[empty] = _column_means(ref)[m]
    for size, slots in by_size.items():
        index = np.concatenate([unions[i] for i in slots]).reshape(len(slots), size)
        mu[slots], cov[slots] = _moments(ref.views[m][index], diag_cov)
    return mu, cov
