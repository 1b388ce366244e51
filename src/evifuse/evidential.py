"""Dirichlet-based evidential classification primitives.

A head's evidence maps to Dirichlet concentrations alpha = evidence + 1;
``_opinion_arrays`` projects them to a subjective opinion (belief masses
b = (alpha - 1) / alpha0 plus an uncertainty mass u = K / alpha0). The
training objective per head is an expected cross-entropy (ACE) under the
Dirichlet plus an annealed KL pull toward the uniform Dirichlet on the
non-label classes. ``_loss_parts`` computes both terms and their
alpha-gradients for a stack of heads at once, with one call of each
polygamma on the columns [label concentration, alpha0] and, only when KL
is asked for, [masked concentrations (K), their strength] after them.
``loss_and_grad`` combines the terms under the annealing weight and asks
for KL only when that weight is nonzero.

All kernels broadcast over leading axes: ``alpha`` may be ``(K,)`` or
``(heads, batch, K)``, losses come back as scalars or arrays without the
class axis. Labels are one-hot (``one_hot``): the losses read the label
class from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from evifuse.special import digamma, gammaln, trigamma

_ATOL = 1e-9


def one_hot(labels, class_count: int) -> np.ndarray:
    """Integer labels (any shape) to one-hot float64 arrays (..., K)."""
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= class_count):
        raise ValueError("label outside [0, class_count)")
    return np.eye(class_count, dtype=np.float64)[labels]


def _checked_alpha(alpha) -> np.ndarray:
    """Concentrations as float64; non-finite entries are a numerical failure."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if not np.all(np.isfinite(alpha)):
        raise FloatingPointError("alpha must be finite")
    if np.any(alpha < 1.0 - _ATOL):
        raise ValueError("alpha entries must be >= 1")
    return alpha


@dataclass(frozen=True)
class SubjectiveOpinion:
    """Belief masses over K classes plus an overall uncertainty mass.

    Components are nonnegative and sum to one (within 1e-9); the vacuous
    opinion (all belief zero, uncertainty one) expresses total ignorance.
    """

    beliefs: np.ndarray
    uncertainty: np.ndarray | float

    def __post_init__(self):
        b = np.asarray(self.beliefs, dtype=np.float64)
        u = np.asarray(self.uncertainty, dtype=np.float64)
        if b.ndim < 1:
            raise ValueError("beliefs needs a class axis")
        if u.shape != b.shape[:-1]:
            raise ValueError("uncertainty shape must match beliefs without the class axis")
        if np.any(b < -_ATOL) or np.any(u < -_ATOL):
            raise ValueError("opinion components must be nonnegative")
        total = b.sum(axis=-1) + u
        if np.any(np.abs(total - 1.0) > _ATOL):
            raise ValueError("beliefs plus uncertainty must sum to 1")
        object.__setattr__(self, "beliefs", b)
        object.__setattr__(self, "uncertainty", u if u.ndim else float(u))


def anneal_lambda(epoch: int, decay_epochs: int) -> float:
    """KL weight of an epoch: a linear ramp min(1, epoch / decay_epochs)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return min(1.0, epoch / decay_epochs)


def _opinion_arrays(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Beliefs b = (alpha - 1)/alpha0, written over ``alpha``, and u = K/alpha0."""
    strength = alpha.sum(axis=-1, keepdims=True)
    alpha -= 1.0
    return np.divide(alpha, strength, out=alpha), alpha.shape[-1] / strength[..., 0]


@lru_cache
def _log_gamma_of(k: int) -> np.floating:
    """log Gamma(k) of a class count, computed once per k."""
    return gammaln(float(k))


def _loss_parts(alpha, label, with_kl: bool = True):
    """(ace, kl, ace_grad, kl_grad) of every head stacked on alpha's leading axes.

    Each polygamma runs once, on one array whose last axis holds the ACE
    columns [label concentration, alpha0] and then, only ``with_kl``, the KL
    columns [masked concentrations (K), their strength]; gammaln reads only
    the KL columns. Without KL, ``kl`` and ``kl_grad`` are None. ACE and its
    gradient read columns 0-1 either way, and every element's polygamma is
    the same whatever the other columns are (``special``), so the ACE parts
    do not depend on ``with_kl``."""
    alpha = _checked_alpha(alpha)
    y = np.asarray(label, dtype=np.float64)
    columns = [(y * alpha).sum(axis=-1, keepdims=True), alpha.sum(axis=-1, keepdims=True)]
    if with_kl:
        wrong = 1.0 - y
        # label class reset to 1: the KL term sees only evidence on wrong classes
        masked = y + wrong * alpha
        columns += [masked, masked.sum(axis=-1, keepdims=True)]
    z = np.concatenate(columns, axis=-1)
    dg, tg = digamma(z), trigamma(z)
    ace = dg[..., 1] - dg[..., 0]
    ace_grad = tg[..., 1:2] - y * tg[..., 0:1]
    if not with_kl:
        return ace, None, ace_grad, None
    k = alpha.shape[-1]
    z, dg, tg = z[..., 2:], dg[..., 2:], tg[..., 2:]
    lg = gammaln(z)
    excess = masked - 1.0
    kl = (lg[..., k] - lg[..., :k].sum(axis=-1) - _log_gamma_of(k)
          + (excess * (dg[..., :k] - dg[..., k:k + 1])).sum(axis=-1))
    kl_grad = wrong * (excess * tg[..., :k] - (z[..., k:k + 1] - k) * tg[..., k:k + 1])
    return ace, kl, ace_grad, kl_grad


def loss_and_grad(alpha, label, lam: float):
    """Per-head objective ACE + lam * KL and its alpha-gradient, for stacked heads.

    At lam == 0 the KL parts are not computed and (ace, ace_grad) come back
    as they are: ace + 0.0 * kl == ace for any finite KL."""
    ace, kl, ace_grad, kl_grad = _loss_parts(alpha, label, with_kl=lam != 0)
    if kl is None:
        return ace, ace_grad
    return ace + lam * kl, ace_grad + lam * kl_grad


# The program calls loss_and_grad; these two remain as the benchmark's loss
# span names (hooked through fusion) until it is re-hooked on the kernels.
def view_loss(alpha, label, lam: float) -> np.ndarray | float:
    """Per-head objective: expected cross-entropy plus lam times the KL pull."""
    return loss_and_grad(alpha, label, lam)[0]


def view_loss_grad(alpha: np.ndarray, label: np.ndarray, lam: float) -> np.ndarray:
    """d view_loss / d alpha."""
    return loss_and_grad(alpha, label, lam)[1]
