"""Belief-mass fusion across views and the multi-task objective.

Two opinions combine by the reduced Dempster-Shafer rule: with conflict
C = sum_{i != j} b_i^1 b_j^2,

    b_k = (b_k^1 b_k^2 + b_k^1 u^2 + b_k^2 u^1) / (1 - C)
    u   = u^1 u^2 / (1 - C)

For Dirichlet opinions b_k / u = e_k / K, so b_k / u of the result is
(1 + e_k^1/K)(1 + e_k^2/K) - 1 and the 1 - C normalizer cancels: over any
number of views, 1 + e_k/K = prod_v (1 + e_vk/K), that is

    alpha_k = K * prod_v r_vk - (K - 1),   r_vk = (alpha_vk + K - 1) / K.

``_ratio`` and ``_fused_alpha`` write r and alpha once. Training's
``_fuse_alphas`` takes the product over all views at once, and its
vector-Jacobian product ``_fuse_alphas_vjp``, d alpha_k / d alpha_vk =
prod_{w != v} r_wk, lets ``total_loss_alpha_grads`` reach every view's
head. Prediction multiplies each view's ratios in as its head makes them,
then ``_fold_with_exclusions`` reads the product. With finite evidence
1 - C is at least the incoming view's u > 0, so there is no total conflict;
only evidence that overflows the product gives a non-finite fused alpha,
a numerical failure in training and a row left out of the vote in prediction.

Everything here works on raw arrays batched over leading axes.
"""

from __future__ import annotations

import numpy as np

from evifuse.evidential import _opinion_arrays, loss_and_grad

# Imported only so that the benchmark's span hooks on fusion.view_loss and
# fusion.view_loss_grad resolve, until the bench is re-hooked on the kernels.
from evifuse.evidential import view_loss, view_loss_grad  # noqa: F401


def _ratio(alpha: np.ndarray) -> np.ndarray:
    """r = (alpha + K - 1) / K, a view's factor in the pair-rule product."""
    return (alpha + (alpha.shape[-1] - 1.0)) / alpha.shape[-1]


def _fused_alpha(product: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Fused concentrations K * product - (K - 1), written to ``out`` if given."""
    fused = np.multiply(product, product.shape[-1], out=out)
    fused -= product.shape[-1] - 1.0
    return fused


def _fuse_alphas(alphas: list[np.ndarray]):
    """Per-view concentrations -> fused concentrations, with backward cache."""
    ratios = [_ratio(alpha) for alpha in alphas]
    product = ratios[0]
    for ratio in ratios[1:]:
        product = product * ratio
    return _fused_alpha(product), (ratios, product)


def _fuse_alphas_vjp(cache, grad_fused: np.ndarray) -> list[np.ndarray]:
    ratios, product = cache
    scaled = grad_fused * product
    return [scaled / ratio for ratio in ratios]


def _fold_with_exclusions(product: np.ndarray):
    """Fused (beliefs, uncertainty, invalid) of a pair-rule product, which it overwrites.

    ``invalid`` marks the rows whose fused alpha or its strength is not
    finite (evidence that overflows the product or its sum, or NaN
    evidence); they come out as the vacuous opinion (b = 0, u = 1) so that
    a vote can skip them.
    """
    with np.errstate(over="ignore"):
        fused = _fused_alpha(product, out=product)
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
