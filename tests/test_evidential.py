"""Evidential classification math: conversions, losses, schedule, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from evifuse.evidential import (
    AnnealSchedule,
    DirichletParams,
    SubjectiveOpinion,
    ace_loss,
    ace_loss_grad,
    anneal_lambda,
    dirichlet_to_opinion,
    evidence_to_dirichlet,
    kl_regularizer,
    kl_regularizer_grad,
    loss_and_grad,
    one_hot,
    view_loss,
    view_loss_grad,
)
from evifuse.special import digamma, gammaln, trigamma

evidence_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=2, max_size=8
)


class TestConversions:
    def test_zero_evidence_gives_uniform_prior(self):
        d = evidence_to_dirichlet([0.0, 0.0, 0.0])
        np.testing.assert_array_equal(d.alpha, [1.0, 1.0, 1.0])
        assert d.alpha0 == 3.0

    def test_unit_evidence(self):
        d = evidence_to_dirichlet([1.0, 0.0])
        np.testing.assert_array_equal(d.alpha, [2.0, 1.0])
        assert d.alpha0 == 3.0

    def test_expected_probs(self):
        d = evidence_to_dirichlet([9.0, 0.0, 0.0])
        np.testing.assert_array_equal(d.alpha, [10.0, 1.0, 1.0])
        np.testing.assert_allclose(d.expected_probs, [10 / 12, 1 / 12, 1 / 12])

    def test_negative_evidence_rejected(self):
        with pytest.raises(ValueError):
            evidence_to_dirichlet([-0.1, 0.0])

    def test_uniform_dirichlet_is_vacuous(self):
        op = dirichlet_to_opinion(DirichletParams([1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(op.beliefs, [0.0, 0.0, 0.0])
        assert op.uncertainty == 1.0

    def test_opinion_example(self):
        op = dirichlet_to_opinion(DirichletParams([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(op.beliefs, [0.25, 0.0, 0.0])
        assert op.uncertainty == pytest.approx(0.75)

    @given(evidence_vectors)
    def test_beliefs_and_uncertainty_sum_to_one(self, evidence):
        op = dirichlet_to_opinion(evidence_to_dirichlet(evidence))
        assert op.beliefs.sum() + op.uncertainty == pytest.approx(1.0, abs=1e-9)

    @given(evidence_vectors)
    def test_uncertainty_formula_roundtrip(self, evidence):
        """u = K / (sum(e) + K) for all nonnegative evidence vectors."""
        op = dirichlet_to_opinion(evidence_to_dirichlet(evidence))
        k = len(evidence)
        assert op.uncertainty == pytest.approx(k / (sum(evidence) + k), rel=1e-12)

    def test_batched_conversion(self):
        d = evidence_to_dirichlet(np.arange(6, dtype=float).reshape(2, 3))
        op = dirichlet_to_opinion(d)
        assert op.beliefs.shape == (2, 3)
        np.testing.assert_allclose(op.beliefs.sum(axis=-1) + op.uncertainty, 1.0)


class TestLosses:
    def test_ace_uniform_binary(self):
        # psi(2) - psi(1) = 1
        assert ace_loss(DirichletParams([1.0, 1.0]), [1.0, 0.0]) == pytest.approx(1.0)

    def test_ace_after_one_observation(self):
        # psi(3) - psi(2) = 1/2
        assert ace_loss(DirichletParams([2.0, 1.0]), [1.0, 0.0]) == pytest.approx(0.5)

    def test_ace_decreases_monotonically_in_true_evidence(self):
        values = [
            ace_loss(DirichletParams([a, 1.0, 1.0]), [1.0, 0.0, 0.0])
            for a in (10.0, 100.0, 1000.0)
        ]
        assert values[0] > values[1] > values[2] > 0.0

    def test_ace_matches_quadrature_binary(self):
        """Numerical integral of the cross-entropy over the Dirichlet, K=2."""
        rng = np.random.default_rng(3)
        for _ in range(12):
            a, b = 1.0 + rng.uniform(0, 20, 2)

            def integrand(p):
                dens = p ** (a - 1) * (1 - p) ** (b - 1) / sp.beta(a, b)
                return -np.log(p) * dens

            expected, err = integrate.quad(integrand, 0.0, 1.0)
            assert err < 1e-8
            got = ace_loss(DirichletParams([a, b]), [1.0, 0.0])
            assert got == pytest.approx(expected, abs=1e-4)

    def test_kl_zero_for_uniform(self):
        assert kl_regularizer(DirichletParams([1.0, 1.0, 1.0]), [0.0, 1.0, 0.0]) == \
            pytest.approx(0.0, abs=1e-12)

    def test_kl_zero_when_nonlabel_slots_uniform(self):
        assert kl_regularizer(DirichletParams([7.0, 1.0, 1.0]), [1.0, 0.0, 0.0]) == \
            pytest.approx(0.0, abs=1e-12)

    def test_kl_hand_value(self):
        got = kl_regularizer(DirichletParams([1.0, 2.0]), [1.0, 0.0])
        assert got == pytest.approx(np.log(2.0) - 0.5, abs=1e-9)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(5)
        alpha = 1.0 + rng.uniform(0, 30, (200, 4))
        y = one_hot(rng.integers(0, 4, 200), 4)
        vals = kl_regularizer(DirichletParams(alpha), y)
        assert np.all(vals >= -1e-12)

    def test_view_loss_zero_lambda_equals_ace(self):
        d = DirichletParams([3.0, 2.0])
        y = [0.0, 1.0]
        assert view_loss(d, y, 0.0) == pytest.approx(ace_loss(d, y))

    def test_view_loss_uniform_lambda_one(self):
        assert view_loss(DirichletParams([1.0, 1.0]), [1.0, 0.0], 1.0) == pytest.approx(1.0)

    def test_view_loss_is_exact_sum(self):
        rng = np.random.default_rng(11)
        alpha = 1.0 + rng.uniform(0, 10, (50, 3))
        y = one_hot(rng.integers(0, 3, 50), 3)
        d = DirichletParams(alpha)
        lam = 0.37
        np.testing.assert_array_equal(
            view_loss(d, y, lam), ace_loss(d, y) + lam * kl_regularizer(d, y)
        )


class TestGradients:
    def test_grads_match_finite_differences(self):
        """Central differences at h=1e-5; the absolute floor absorbs the
        oracle's own O(h^2) truncation noise near flat directions."""
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(30):
            k = int(rng.integers(2, 8))
            alpha = 1.0 + rng.uniform(0, 49, k)
            y = one_hot(int(rng.integers(0, k)), k)
            for fn, grad_fn in [(ace_loss, ace_loss_grad),
                                (kl_regularizer, kl_regularizer_grad)]:
                grad = grad_fn(alpha, y)
                for j in range(k):
                    ap, am = alpha.copy(), alpha.copy()
                    ap[j] += h
                    am[j] -= h
                    fd = (fn(DirichletParams(ap), y) - fn(DirichletParams(am), y)) / (2 * h)
                    assert abs(grad[j] - fd) <= 1e-8 + 1e-6 * abs(fd)

    def test_view_loss_grad_composes(self):
        rng = np.random.default_rng(23)
        alpha = 1.0 + rng.uniform(0, 5, (4, 3))
        y = one_hot(rng.integers(0, 3, 4), 3)
        np.testing.assert_allclose(
            view_loss_grad(alpha, y, 0.6),
            ace_loss_grad(alpha, y) + 0.6 * kl_regularizer_grad(alpha, y),
        )

    def test_more_true_evidence_never_raises_ace(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            alpha = 1.0 + rng.uniform(0, 20, k)
            label = int(rng.integers(0, k))
            y = one_hot(label, k)
            base = ace_loss(DirichletParams(alpha), y)
            bumped = alpha.copy()
            bumped[label] += rng.uniform(0.1, 10)
            assert ace_loss(DirichletParams(bumped), y) <= base + 1e-12


def reference_head(alpha, y):
    """ACE, KL and their gradients for one head, as written before the stacked kernel."""
    ace = (y * (digamma(alpha.sum(axis=-1, keepdims=True)) - digamma(alpha))).sum(axis=-1)
    masked = y + (1.0 - y) * alpha
    total = masked.sum(axis=-1)
    k = alpha.shape[-1]
    kl = (
        gammaln(total)
        - gammaln(masked).sum(axis=-1)
        - gammaln(float(k))
        + ((masked - 1.0) * (digamma(masked) - digamma(total)[..., None])).sum(axis=-1)
    )
    ace_grad = trigamma(alpha.sum(axis=-1, keepdims=True)) - y * trigamma(alpha)
    total = total[..., None]
    kl_grad = (1.0 - y) * ((masked - 1.0) * trigamma(masked) - (total - k) * trigamma(total))
    return ace, kl, ace_grad, kl_grad


def random_heads(rng, shape):
    """Concentrations >= 1 spanning 1 to ~1e3, a quarter of them exactly 1."""
    alpha = 1.0 + rng.exponential(1.0, shape) * 10.0 ** rng.integers(-3, 3, shape)
    return np.where(rng.random(shape) < 0.25, 1.0, alpha)


class TestStackedKernel:
    """The stacked kernel reproduces the per-head formulas bit for bit."""

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
    def test_matches_per_head_reference(self, heads, k, lam):
        rng = np.random.default_rng(100 * heads + k)
        alpha = random_heads(rng, (heads, 33, k))
        y = one_hot(rng.integers(0, k, 33), k)
        loss, grad = loss_and_grad(alpha, y, lam)
        assert loss.shape == (heads, 33) and grad.shape == (heads, 33, k)
        for h in range(heads):
            ace, kl, ace_grad, kl_grad = reference_head(alpha[h], y)
            np.testing.assert_array_equal(loss[h], ace + lam * kl)
            np.testing.assert_array_equal(grad[h], ace_grad + lam * kl_grad)

    def test_wrappers_match_reference_on_one_vector(self):
        rng = np.random.default_rng(7)
        for k in (2, 3, 10):
            alpha = random_heads(rng, (k,))
            y = one_hot(int(rng.integers(0, k)), k)
            ace, kl, ace_grad, kl_grad = reference_head(alpha, y)
            d = DirichletParams(alpha)
            assert np.ndim(ace_loss(d, y)) == 0
            np.testing.assert_array_equal(ace_loss(d, y), ace)
            np.testing.assert_array_equal(kl_regularizer(d, y), kl)
            np.testing.assert_array_equal(view_loss(d, y, 0.37), ace + 0.37 * kl)
            np.testing.assert_array_equal(ace_loss_grad(alpha, y), ace_grad)
            np.testing.assert_array_equal(kl_regularizer_grad(alpha, y), kl_grad)
            np.testing.assert_array_equal(view_loss_grad(alpha, y, 0.37),
                                          ace_grad + 0.37 * kl_grad)

    def test_non_finite_alpha_is_a_numerical_error(self):
        y = one_hot([0, 1], 2)
        with pytest.raises(FloatingPointError):
            loss_and_grad(np.array([[2.0, np.inf], [1.0, 1.0]]), y, 0.5)
        with pytest.raises(ValueError):
            loss_and_grad(np.array([[2.0, 0.5], [1.0, 1.0]]), y, 0.5)


class TestAnnealSchedule:
    def test_midpoint(self):
        assert anneal_lambda(25, AnnealSchedule(1.0, 50)) == pytest.approx(0.5)

    def test_start_is_zero(self):
        assert anneal_lambda(0, AnnealSchedule(1.0, 50)) == 0.0

    def test_cap(self):
        sched = AnnealSchedule(0.7, 40)
        assert anneal_lambda(10 * 40, sched) == pytest.approx(0.7)

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            AnnealSchedule(0.0, 50)
        with pytest.raises(ValueError):
            AnnealSchedule(1.0, 0)
        with pytest.raises(ValueError):
            anneal_lambda(-1, AnnealSchedule(1.0, 50))


class TestValidation:
    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            DirichletParams([0.5, 1.0])

    def test_opinion_must_normalize(self):
        with pytest.raises(ValueError):
            SubjectiveOpinion([0.5, 0.2], 0.5)

    def test_opinion_nonnegative(self):
        with pytest.raises(ValueError):
            SubjectiveOpinion([-0.1, 0.6], 0.5)

    def test_one_hot_bounds(self):
        with pytest.raises(ValueError):
            one_hot([3], 3)
