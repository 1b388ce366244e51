"""Dirichlet-based evidential classification primitives.

Evidence vectors map to Dirichlet concentrations (alpha = evidence + 1),
concentrations project to subjective opinions (belief masses plus an
uncertainty mass), and the training objective per classifier head is an
expected cross-entropy under the Dirichlet plus an annealed KL pull
toward the uniform Dirichlet on the non-label classes.

All operations broadcast over leading axes: ``alpha`` may be ``(K,)`` or
``(batch, K)``, losses come back as scalars or ``(batch,)`` arrays.
Labels are one-hot (``one_hot``): the losses read the label class from them.
"""

from __future__ import annotations

from dataclasses import dataclass

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
class DirichletParams:
    """Concentration vector(s) of a Dirichlet distribution, all entries >= 1."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = _checked_alpha(self.alpha)
        if alpha.ndim < 1 or alpha.shape[-1] < 2:
            raise ValueError("alpha needs at least 2 classes on the last axis")
        object.__setattr__(self, "alpha", alpha)

    @property
    def alpha0(self) -> np.ndarray:
        """Dirichlet strength: sum of concentrations along the class axis."""
        return self.alpha.sum(axis=-1)

    @property
    def expected_probs(self) -> np.ndarray:
        return self.alpha / self.alpha.sum(axis=-1, keepdims=True)


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

    @property
    def class_count(self) -> int:
        return self.beliefs.shape[-1]


@dataclass(frozen=True)
class AnnealSchedule:
    """Linear ramp of the regularizer weight: min(final_value, epoch / decay_epochs)."""

    final_value: float = 1.0
    decay_epochs: int = 50

    def __post_init__(self):
        if not 0.0 < self.final_value <= 1.0:
            raise ValueError("final_value must lie in (0, 1]")
        if self.decay_epochs < 1:
            raise ValueError("decay_epochs must be >= 1")


def anneal_lambda(epoch: int, schedule: AnnealSchedule) -> float:
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return min(schedule.final_value, epoch / schedule.decay_epochs)


def evidence_to_dirichlet(evidence) -> DirichletParams:
    """Nonnegative per-class evidence to concentrations via alpha = evidence + 1."""
    e = np.asarray(evidence, dtype=np.float64)
    if np.any(e < 0.0):
        raise ValueError("evidence must be nonnegative")
    return DirichletParams(e + 1.0)


def _opinion_arrays(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw-array projection: b = (alpha - 1)/alpha0, u = K/alpha0."""
    strength = alpha.sum(axis=-1, keepdims=True)
    return (alpha - 1.0) / strength, alpha.shape[-1] / strength[..., 0]


def dirichlet_to_opinion(d: DirichletParams) -> SubjectiveOpinion:
    """Project concentrations to an opinion (belief masses and uncertainty)."""
    return SubjectiveOpinion(*_opinion_arrays(d.alpha))


def _loss_parts(alpha, label):
    """(ace, kl, ace_grad, kl_grad) of every head stacked on alpha's leading axes.

    Each polygamma runs once, on one array whose last axis holds the masked
    concentrations, their strength, the label concentration and alpha0."""
    alpha = _checked_alpha(alpha)
    y = np.asarray(label, dtype=np.float64)
    k = alpha.shape[-1]
    # label class reset to 1: the KL term sees only evidence on wrong classes
    masked = y + (1.0 - y) * alpha
    z = np.concatenate([masked, masked.sum(axis=-1, keepdims=True),
                        (y * alpha).sum(axis=-1, keepdims=True),
                        alpha.sum(axis=-1, keepdims=True)], axis=-1)
    lg, dg, tg = gammaln(z[..., :k + 1]), digamma(z), trigamma(z)
    ace = dg[..., k + 2] - dg[..., k + 1]
    kl = (lg[..., k] - lg[..., :k].sum(axis=-1) - gammaln(float(k))
          + ((masked - 1.0) * (dg[..., :k] - dg[..., k:k + 1])).sum(axis=-1))
    ace_grad = tg[..., k + 2:] - y * tg[..., k + 1:k + 2]
    kl_grad = (1.0 - y) * ((masked - 1.0) * tg[..., :k] - (z[..., k:k + 1] - k) * tg[..., k:k + 1])
    return ace, kl, ace_grad, kl_grad


def loss_and_grad(alpha, label, lam: float):
    """Per-head objective ACE + lam * KL and its alpha-gradient, for stacked heads."""
    ace, kl, ace_grad, kl_grad = _loss_parts(alpha, label)
    return ace + lam * kl, ace_grad + lam * kl_grad


def ace_loss(d: DirichletParams, label) -> np.ndarray | float:
    """Expected cross-entropy of the label under the Dirichlet: psi(alpha0) - psi(alpha_y)."""
    return _loss_parts(d.alpha, label)[0]


def kl_regularizer(d: DirichletParams, label) -> np.ndarray | float:
    """KL divergence from the uniform Dirichlet after masking out the label class."""
    return _loss_parts(d.alpha, label)[1]


def view_loss(d: DirichletParams, label, lam: float) -> np.ndarray | float:
    """Per-head objective: expected cross-entropy plus lam times the KL pull."""
    return loss_and_grad(d.alpha, label, lam)[0]


def ace_loss_grad(alpha: np.ndarray, label: np.ndarray) -> np.ndarray:
    """d ace_loss / d alpha."""
    return _loss_parts(alpha, label)[2]


def kl_regularizer_grad(alpha: np.ndarray, label: np.ndarray) -> np.ndarray:
    """d kl_regularizer / d alpha."""
    return _loss_parts(alpha, label)[3]


def view_loss_grad(alpha: np.ndarray, label: np.ndarray, lam: float) -> np.ndarray:
    """d view_loss / d alpha."""
    return loss_and_grad(alpha, label, lam)[1]
