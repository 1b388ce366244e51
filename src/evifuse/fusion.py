"""Belief-mass fusion across views and the multi-task objective.

Two opinions combine by the reduced Dempster-Shafer rule: with conflict
C = sum_{i != j} b_i^1 b_j^2,

    b_k = (b_k^1 b_k^2 + b_k^1 u^2 + b_k^2 u^1) / (1 - C)
    u   = u^1 u^2 / (1 - C)

For Dirichlet opinions b_k / u = e_k / K, so b_k / u of the result is
(1 + e_k^1/K)(1 + e_k^2/K) - 1 and the 1 - C normalizer cancels: over any
number of views, 1 + e_k/K = prod_v (1 + e_vk/K), that is

    alpha_k = K * prod_v r_vk - (K - 1),   r_vk = (alpha_vk + K - 1) / K.

``_fuse_alphas`` computes this product and ``_fuse_alphas_vjp`` its
vector-Jacobian product, d alpha_k / d alpha_vk = prod_{w != v} r_wk,
with no cross-class terms. ``total_loss_alpha_grads`` chains them so that
the gradient of the multi-task objective (fused-head loss plus every
per-view loss) flows back into every per-view evidence head. With finite
evidence 1 - C is at least the incoming view's u > 0, so the rule has no
total-conflict case; only evidence large enough to overflow the product
gives a non-finite fused alpha. Training reports that as a numerical
failure; prediction (``_fold_with_exclusions``) drops the row from the vote.

Everything here works on raw arrays batched over leading axes.
"""

from __future__ import annotations

import numpy as np

from evifuse.evidential import _opinion_arrays, loss_and_grad

# Imported only so that the benchmark's span hooks on fusion.view_loss and
# fusion.view_loss_grad resolve, until the bench is re-hooked on the kernels.
from evifuse.evidential import view_loss, view_loss_grad  # noqa: F401


def _fuse_alphas(alphas: list[np.ndarray]):
    """Per-view concentrations -> fused concentrations, with backward cache."""
    k = alphas[0].shape[-1]
    ratios = [(alpha + (k - 1.0)) / k for alpha in alphas]
    product = ratios[0]
    for ratio in ratios[1:]:
        product = product * ratio
    return k * product - (k - 1.0), (ratios, product)


def _fuse_alphas_vjp(cache, grad_fused: np.ndarray) -> list[np.ndarray]:
    ratios, product = cache
    scaled = grad_fused * product
    return [scaled / ratio for ratio in ratios]


def _fold_with_exclusions(alphas: list[np.ndarray]):
    """Fused (beliefs, uncertainty, invalid) of per-view concentrations.

    ``invalid`` marks the rows whose fused alpha or its strength is not
    finite (evidence that overflows the product or its sum, or NaN
    evidence); they come out as the vacuous opinion (b = 0, u = 1) so that
    a vote can skip them.
    """
    with np.errstate(over="ignore"):
        fused, _ = _fuse_alphas(alphas)
        invalid = ~np.isfinite(fused.sum(axis=-1))
    fused[invalid] = 1.0
    b, u = _opinion_arrays(fused)
    return b, u, invalid


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
