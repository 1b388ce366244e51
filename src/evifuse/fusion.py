"""Belief-mass fusion across views and the multi-task objective.

Two opinions combine by redistributing the mass of their agreeing parts:
with conflict C = sum_{i != j} b_i^1 b_j^2,

    b_k = (b_k^1 b_k^2 + b_k^1 u^2 + b_k^2 u^1) / (1 - C)
    u   = u^1 u^2 / (1 - C)

The rule is commutative and associative, so a left fold over the views is
order-invariant. Training treats a row in total conflict (1 - C <= 1e-12)
as an error; prediction drops it from the vote. A fused opinion converts
back to concentrations through the strength S = K / u via
alpha_k = b_k * S + 1.

Everything here works on raw arrays batched over leading axes.
``_combine_pair`` is the pair rule and ``_fold_with_exclusions`` its
left fold, shared by training and prediction; ``_fused_alpha`` is the
conversion back to concentrations. Each has a reverse-mode
vector-Jacobian product, and ``total_loss_alpha_grads`` chains them so
that the gradient of the multi-task objective (fused-head loss plus
every per-view loss) flows back into every per-view evidence head.
"""

from __future__ import annotations

import numpy as np

from evifuse.evidential import _opinion_arrays, loss_and_grad

# Imported only so that the benchmark's span hooks on fusion.view_loss and
# fusion.view_loss_grad resolve, until the bench is re-hooked on the kernels.
from evifuse.evidential import view_loss, view_loss_grad  # noqa: F401

_CONFLICT_EPS = 1e-12


class FusionConflictError(RuntimeError):
    """Raised when two opinions are in (near-)total conflict: 1 - C <= 1e-12."""

    def __init__(self, message: str, rows: np.ndarray):
        super().__init__(message)
        self.rows = rows


# -- raw-array kernels, batched over leading axes ---------------------------


def _opinion_arrays_vjp(alpha, grad_b, grad_u) -> np.ndarray:
    strength = alpha.sum(axis=-1, keepdims=True)
    k = alpha.shape[-1]
    inner = (grad_b * (alpha - 1.0)).sum(axis=-1, keepdims=True)
    return grad_b / strength - (inner + k * grad_u[..., None]) / (strength * strength)


def _combine_pair(b1, u1, b2, u2):
    """One pair-rule step; returns (b, u, bad).

    Rows in total conflict (1 - C <= 1e-12) are flagged in ``bad`` and come
    out as the vacuous opinion (b = 0, u = 1), so a fold can carry on past
    them; callers decide whether a flagged row is an error.
    """
    s1 = b1.sum(axis=-1)
    s2 = b2.sum(axis=-1)
    norm = 1.0 - (s1 * s2 - (b1 * b2).sum(axis=-1))
    bad = norm <= _CONFLICT_EPS
    norm = np.where(bad, 1.0, norm)
    b = (b1 * b2 + b1 * u2[..., None] + b2 * u1[..., None]) / norm[..., None]
    u = u1 * u2 / norm
    if bad.any():
        b = np.where(bad[..., None], 0.0, b)
        u = np.where(bad, 1.0, u)
    return b, u, bad


def _combine_pair_vjp(b1, u1, b2, u2, b, u, grad_b, grad_u):
    """Gradients of one pair combination with respect to both inputs."""
    s1 = b1.sum(axis=-1, keepdims=True)
    s2 = b2.sum(axis=-1, keepdims=True)
    norm = (1.0 - (s1[..., 0] * s2[..., 0] - (b1 * b2).sum(axis=-1)))[..., None]
    # combined upstream mass flowing through the 1/(1-C) normalization
    through_norm = ((grad_b * b).sum(axis=-1) + grad_u * u)[..., None]
    gb1 = (grad_b * (b2 + u2[..., None]) + through_norm * (s2 - b2)) / norm
    gb2 = (grad_b * (b1 + u1[..., None]) + through_norm * (s1 - b1)) / norm
    gu1 = ((grad_b * b2).sum(axis=-1) + grad_u * u2) / norm[..., 0]
    gu2 = ((grad_b * b1).sum(axis=-1) + grad_u * u1) / norm[..., 0]
    return gb1, gu1, gb2, gu2


def _fold_with_exclusions(beliefs: list, uncerts: list):
    """Left fold of the pair rule; returns (b, u, invalid, partials).

    ``invalid`` marks the rows that hit total conflict at any step; such a
    row restarts from the vacuous opinion at that step, so later views
    still fold in. ``partials`` caches every intermediate opinion for the VJP.
    """
    b, u = beliefs[0], uncerts[0]
    invalid = np.zeros(np.shape(u), dtype=bool)
    partials = [(b, u)]
    for bv, uv in zip(beliefs[1:], uncerts[1:]):
        b, u, bad = _combine_pair(b, u, bv, uv)
        invalid |= bad
        partials.append((b, u))
    return b, u, invalid, partials


def _raise_on_conflict(invalid: np.ndarray) -> None:
    if invalid.any():
        rows = np.nonzero(np.atleast_1d(invalid))[0]
        raise FusionConflictError(
            f"total conflict between opinions (1 - C <= {_CONFLICT_EPS:g}) "
            f"at batch rows {rows[:8].tolist()}",
            rows=rows,
        )


def _fold_opinions_vjp(beliefs, uncerts, partials, grad_b, grad_u):
    """Distribute a gradient on the folded opinion back to every view."""
    n = len(beliefs)
    grads_b = [None] * n
    grads_u = [None] * n
    gb, gu = grad_b, grad_u
    for i in range(n - 1, 0, -1):
        left_b, left_u = partials[i - 1]
        out_b, out_u = partials[i]
        gb, gu, gbi, gui = _combine_pair_vjp(
            left_b, left_u, beliefs[i], uncerts[i], out_b, out_u, gb, gu
        )
        grads_b[i] = gbi
        grads_u[i] = gui
    grads_b[0] = gb
    grads_u[0] = gu
    return grads_b, grads_u


def _fused_alpha(b: np.ndarray, u: np.ndarray) -> np.ndarray:
    k = b.shape[-1]
    return b * (k / u)[..., None] + 1.0


def _fused_alpha_vjp(b, u, grad_alpha):
    k = b.shape[-1]
    grad_b = grad_alpha * (k / u)[..., None]
    grad_u = -(k / (u * u)) * (grad_alpha * b).sum(axis=-1)
    return grad_b, grad_u


def _fuse_alphas(alphas: list[np.ndarray]):
    """Per-view concentrations -> fused concentrations, with backward cache."""
    beliefs, uncerts = [], []
    for alpha in alphas:
        b, u = _opinion_arrays(alpha)
        beliefs.append(b)
        uncerts.append(u)
    b, u, invalid, partials = _fold_with_exclusions(beliefs, uncerts)
    _raise_on_conflict(invalid)
    fused = _fused_alpha(b, u)
    return fused, (alphas, beliefs, uncerts, partials, b, u)


def _fuse_alphas_vjp(cache, grad_fused: np.ndarray) -> list[np.ndarray]:
    alphas, beliefs, uncerts, partials, b, u = cache
    gb, gu = _fused_alpha_vjp(b, u, grad_fused)
    grads_b, grads_u = _fold_opinions_vjp(beliefs, uncerts, partials, gb, gu)
    return [
        _opinion_arrays_vjp(alpha, gbv, guv)
        for alpha, gbv, guv in zip(alphas, grads_b, grads_u)
    ]


def total_loss_alpha_grads(view_alphas: list[np.ndarray], label, lam: float):
    """Losses and d(total)/d(alpha^v) for every view, fusing internally.

    Returns (fused_term, view_terms, grads) where fused_term is the fused
    head's loss, view_terms is a list of per-view losses, and grads[v] is
    the gradient of the summed objective with respect to view v's
    concentrations.
    """
    fused, cache = _fuse_alphas(view_alphas)
    losses, grads = loss_and_grad(np.stack([fused, *view_alphas]), label, lam)
    view_grads = list(grads[1:])
    for g, extra in zip(view_grads, _fuse_alphas_vjp(cache, grads[0])):
        g += extra
    return losses[0], list(losses[1:]), view_grads
