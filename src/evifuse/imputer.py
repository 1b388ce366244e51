"""Neighbor-conditioned Gaussian imputation of missing views.

For a sample missing view m, every one of its observed views proposes its
k nearest candidates among samples that observe both that view and view m
and, when the data completes itself, share its label if a sample of its
label observes m with one of its views. The union of proposals indexes
view-m rows whose mean and covariance define a multivariate Gaussian;
multiple draws from it produce multiple completed copies of the sample.

Randomness is keyed on (seed, missing view, sample content): a slot's
draws do not depend on sample order or on the rows completed with it, and
can be computed concurrently. Slot (n, m) draws from ``PCG64(seq)``, where
``seq.generate_state(4, np.uint64)`` returns the four little-endian uint64
words of one ``hashlib.blake2b(digest_size=32)`` digest over:

- the byte length of ``seed`` as 8 bytes, then ``seed`` (non-negative; no
  bytes for 0), then ``m`` as 8 bytes, all little-endian;
- the sample's mask row, one byte (0 or 1) per view;
- each observed view's row of the sample, in view order, as little-endian
  float64.

A slot whose union holds c view-m rows X (c x d) has mean mu = X.mean(0)
and factor F = (X - mu) / sqrt(c - 1), all zeros for c = 1, so that
F.T @ F is the unbiased sample covariance S. A slot with no candidate
takes the column means of view m as mu and an empty factor (c = 0). The
slot draws one ``standard_normal((n_samplings, c + d))`` array z from its
generator, and its draws are

    x = mu + z[:, :c] @ F + sqrt(_JITTER) * z[:, c:]

(added in that order), an exact sample of N(mu, S + _JITTER * I): no d x d
matrix is formed or factored. A draw is computed in float64 and stored
once, rounded to float32, as are the means of the other fills; the keyed
contract still fixes every stored value exactly.

``view_draws`` completes every slot missing one view, each searched once
under a key, its label or -1 for all. Each (observed view, key) gathers
its candidates once and runs one GEMM search (``_nearest``) per
``_SLOT_BLOCK`` queries; the unions are held flat (``_neighbor_unions``)
as ``index``, the unions in slot order, and ``size``, each slot's union
size. Slots of one union size draw together, ``_SLOT_BLOCK`` at a time:
means and factors stacked (``_moments``), each slot's normals filled in
place in one (slots, n_samplings, c + d) array. It is the one per-view
step of both completion paths, and the reference pool decides whether
labels are read: only a dataset completed from itself (no ``reference``)
reads its labels. At train time ``sample_completions`` runs it for every
view and keeps the result in a ``CompletionSet``, which holds the dataset
and the draws per slot. At test time the predictor asks for one view's
draws at a time, label-free from the training pool, and drops them once
its head has run on them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from evifuse.dataset import MultiViewDataset

# Slots searched and drawn together: bounds the distance block
# (slots x candidates) and the factor and normal stacks.
_SLOT_BLOCK = 128

# Variance added to every feature of a draw; ROADMAP item 12 decides whether it stays.
_JITTER = 1e-3


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


def _neighbor_unions(data, ref, rows, m, k, keys):
    """Neighbor unions of the slots (rows[i], m), flat: (index, size).

    Slot i's union is the next size[i] reference indices of index, in
    ascending order, slots in order. Candidates for view v are reference
    samples observing both v and m, of label keys[i] or of any label where
    keys[i] is -1, gathered once per key and searched ``_SLOT_BLOCK``
    queries at a time; each observed view proposes its k nearest. A slot
    with no candidate gets an empty union.
    """
    found = [np.empty(0, dtype=np.int64)]
    for v in range(data.n_views):
        if v == m:
            continue
        on_v = data.mask[rows, v]
        eligible = ref.mask[:, m] & ref.mask[:, v]
        for key in np.unique(keys[on_v]):
            slots = np.nonzero(on_v & (keys == key))[0]
            cand = np.nonzero(eligible if key < 0 else eligible & (ref.labels == key))[0]
            queries, candidates = data.views[v][rows[slots]], ref.views[v][cand]
            for start in range(0, slots.size, _SLOT_BLOCK):
                nearest = _nearest(queries[start:start + _SLOT_BLOCK], candidates, k)
                chunk = slots[start:start + _SLOT_BLOCK, None]
                found.append((chunk * ref.n_samples + cand[nearest]).ravel())
    slot, index = np.divmod(np.unique(np.concatenate(found)), ref.n_samples)
    return index, np.bincount(slot, minlength=rows.size)


def _moments(neighbors: np.ndarray):
    """Means (B, d) and covariance factors (B, c, d) of B row sets of c rows each.

    A set's factor is its centred rows over sqrt(c - 1), so factor.T @
    factor is its unbiased covariance; one row (c = 1) gives a zero factor.
    """
    count = neighbors.shape[1]
    mu = neighbors.mean(axis=1)
    factor = neighbors - mu[:, None, :]
    if count > 1:
        factor /= np.sqrt(count - 1)
    return mu, factor


class _SeedState(np.random.bit_generator.ISeedSequence):
    """One slot's precomputed PCG64 seed state behind the seed-sequence interface."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("holds the 4 uint64 words that PCG64 seeds from")
        return self.state


def _slot_states(seed: int, m: int, data: MultiViewDataset, rows: np.ndarray) -> np.ndarray:
    """(len(rows), 4) uint64 PCG64 seed states of the slots (rows[i], m): see the module doc."""
    seed = int(seed)
    seed_bytes = seed.to_bytes((seed.bit_length() + 7) // 8, "little")
    keyed = hashlib.blake2b(digest_size=32)
    keyed.update(len(seed_bytes).to_bytes(8, "little"))
    keyed.update(seed_bytes)
    keyed.update(int(m).to_bytes(8, "little"))
    views = [np.ascontiguousarray(v, dtype="<f8") for v in data.views]
    digests = []
    for n, seen in zip(rows.tolist(), data.mask[rows].tolist()):
        h = keyed.copy()
        h.update(bytes(seen))
        for view, observed in zip(views, seen):
            if observed:
                h.update(view[n])
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64).reshape(-1, 4)


@dataclass
class CompletionSet:
    """All completions of a dataset: its observed entries plus per-slot draws.

    ``draws[v]`` holds the float32 draws of the rows missing view v, in row
    order, as a ``(row, sampling, feature)`` block; observed entries come
    from ``data``'s own arrays, the same in every sampling.
    """

    data: MultiViewDataset
    draws: list

    def __post_init__(self):
        # each view's position of a row in its draws, -1 where the row observes it
        self._row_pos = []
        for missing in (~self.data.mask).T:
            pos = np.full(missing.size, -1, dtype=np.int64)
            pos[missing] = np.arange(np.count_nonzero(missing))
            self._row_pos.append(pos)

    @property
    def n_samplings(self) -> int:
        return self.draws[0].shape[1]

    def gather(self, sample_rows: np.ndarray, samplings: np.ndarray) -> list:
        """Per-view float64 matrices for a flattened (sample, sampling) batch.

        ``take`` gives each matrix as a new array, so filling in the draws
        leaves the dataset's views unchanged. A view's draws are read with
        one ``take`` on their (rows * samplings, features) view, at
        position * samplings + sampling."""
        sample_rows = np.asarray(sample_rows)
        samplings = np.asarray(samplings)
        out = []
        for view, pos, draws in zip(self.data.views, self._row_pos, self.draws):
            mat = view.take(sample_rows, axis=0)
            pos = pos.take(sample_rows)
            hit = np.flatnonzero(pos >= 0)
            if hit.size:
                s_count, d = draws.shape[1:]
                at = pos.take(hit) * s_count + samplings.take(hit)
                mat[hit] = draws.reshape(-1, d).take(at, axis=0)
            out.append(mat)
        return out


_FILLS = ("draws", "neighbor_mean", "column_mean")


def view_draws(
    data: MultiViewDataset,
    m: int,
    k: int = 10,
    n_samplings: int = 30,
    seed: int = 0,
    *,
    reference: MultiViewDataset | None = None,
    fill: str = "draws",
) -> np.ndarray:
    """(rows missing view m, n_samplings, d_m) float32 completions of every slot missing view m.

    Rows follow ``data``'s order. ``reference`` supplies the candidate pool,
    searched label-free: pass the training set when completing test data.
    Without it, ``data`` completes itself, the train-time setting, and a
    slot's candidates must share its label; labels are read only then.
    ``fill`` picks what a slot takes: ``"draws"`` from its neighbor
    Gaussian (see the module doc), ``"neighbor_mean"`` the Gaussian's mean,
    the single-imputation baseline, or ``"column_mean"`` the column means
    of view m over the pool's rows observing it, with no neighbor search.

    Fallbacks: a slot searches every label if no row of its own label
    observes view m and one of its views; only a slot whose union is still
    empty takes the column means of view m over all rows observing it.
    """
    if n_samplings < 1:
        raise ValueError("n_samplings must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if fill not in _FILLS:
        raise ValueError(f"fill must be one of {_FILLS}, got {fill!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    use_labels = reference is None
    ref = data if use_labels else reference
    rows = np.nonzero(~data.mask[:, m])[0]
    d = data.view_dims[m]
    out = np.empty((rows.size, n_samplings, d), dtype=np.float32)
    if fill == "column_mean":
        out[:] = _column_means(ref, m)
        return out
    if rows.size == 0:
        return out
    states = _slot_states(seed, m, data, rows) if fill == "draws" else None
    index, size = _slot_distribution(data, ref, rows, m, k, use_labels)
    first = np.cumsum(size) - size
    for count in np.unique(size):
        of_size = np.flatnonzero(size == count)
        for start in range(0, of_size.size, _SLOT_BLOCK):
            slots = of_size[start:start + _SLOT_BLOCK]
            if count == 0:
                mu = np.broadcast_to(_column_means(ref, m), (slots.size, d))
                factor = np.empty((slots.size, 0, d))
            else:
                mu, factor = _moments(ref.views[m][index[first[slots, None] + np.arange(count)]])
            if states is None:
                out[slots] = mu[:, None, :]
                continue
            z = np.empty((slots.size, n_samplings, count + d))
            for normals, state in zip(z, states[slots]):
                np.random.Generator(np.random.PCG64(_SeedState(state))).standard_normal(
                    out=normals)
            x = np.matmul(z[:, :, :count], factor)
            x += mu[:, None, :]
            x += np.sqrt(_JITTER) * z[:, :, count:]
            out[slots] = x
    return out


def sample_completions(
    data: MultiViewDataset,
    k: int = 10,
    n_samplings: int = 30,
    seed: int = 0,
    *,
    fill: str = "draws",
) -> CompletionSet:
    """Every view's ``view_draws`` of ``data`` from its own rows, by label, in one
    ``CompletionSet``: the train-time completions."""
    return CompletionSet(data, [view_draws(data, m, k, n_samplings, seed, fill=fill)
                                for m in range(data.n_views)])


def _column_means(ref: MultiViewDataset, m: int) -> np.ndarray:
    """Column means of view m over the reference rows observing it."""
    observed = ref.views[m][ref.mask[:, m]]
    if observed.shape[0] == 0:
        raise ValueError(f"view {m} has no observed rows in the reference pool")
    return observed.mean(axis=0)


def _slot_distribution(data, ref, rows, m, k, use_labels):
    """``_neighbor_unions`` (index, size) of the slots (rows, m), each searched once.

    Without labels every key is -1. With them a slot's key is its label, or
    -1 (the label fallback) if no reference row of that label observes view
    m and a view the slot observes: exactly when its labelled union is empty.
    A slot still empty keeps size 0; ``view_draws`` gives it column means.
    """
    keys = np.full(rows.size, -1)
    if use_labels:
        labels, on_m = data.labels[rows], ref.mask[:, m]
        # covered[c, v]: some reference row of label c observes views m and v
        covered = np.eye(ref.class_count, dtype=bool)[ref.labels[on_m]].T @ ref.mask[on_m]
        keys = np.where((covered[labels] & data.mask[rows]).any(axis=1), labels, -1)
    return _neighbor_unions(data, ref, rows, m, k, keys)


# No code calls these two names: the benchmark's search and Cholesky spans hook
# them, and ROADMAP item 11's bench re-hook on the kernels deletes them.
neighbor_union = _neighbor_unions
_stable_cholesky = view_draws
