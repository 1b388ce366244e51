"""Evidential classification kernels: opinion projection, losses, gradients, schedule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate
from scipy import special as sp

from evifuse import evidential
from evifuse.evidential import (
    SubjectiveOpinion,
    _loss_parts,
    _opinion_arrays,
    anneal_lambda,
    loss_and_grad,
    one_hot,
)
from evifuse.special import digamma, gammaln, trigamma
from evifuse.trainer import TrainConfig

evidence_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=2, max_size=8
)


def ace(alpha, label):
    """Expected cross-entropy of the label under the Dirichlet: psi(alpha0) - psi(alpha_y)."""
    return _loss_parts(np.asarray(alpha, dtype=float), label)[0]


def kl(alpha, label):
    """KL divergence from the uniform Dirichlet after masking out the label class."""
    return _loss_parts(np.asarray(alpha, dtype=float), label)[1]


class TestConversions:
    """Evidence e gives alpha = e + 1; _opinion_arrays projects alpha to (b, u)."""

    def test_zero_evidence_gives_uniform_prior(self):
        b, u = _opinion_arrays(np.zeros(3) + 1.0)
        np.testing.assert_array_equal(b, [0.0, 0.0, 0.0])
        assert u == 3.0 / 3.0

    def test_unit_evidence(self):
        b, u = _opinion_arrays(np.array([1.0, 0.0]) + 1.0)
        np.testing.assert_allclose(b, [1 / 3, 0.0])
        assert u == pytest.approx(2 / 3)

    def test_expected_probs(self):
        """b + u / K is the Dirichlet mean alpha / alpha0."""
        b, u = _opinion_arrays(np.array([10.0, 1.0, 1.0]))
        np.testing.assert_allclose(b + u / 3, [10 / 12, 1 / 12, 1 / 12])

    def test_negative_evidence_rejected(self):
        with pytest.raises(ValueError):
            loss_and_grad(np.array([-0.1, 0.0]) + 1.0, [1.0, 0.0], 0.5)

    def test_uniform_dirichlet_is_vacuous(self):
        b, u = _opinion_arrays(np.array([1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(b, [0.0, 0.0, 0.0])
        assert u == 1.0

    def test_opinion_example(self):
        b, u = _opinion_arrays(np.array([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(b, [0.25, 0.0, 0.0])
        assert u == pytest.approx(0.75)

    @given(evidence_vectors)
    def test_beliefs_and_uncertainty_sum_to_one(self, evidence):
        b, u = _opinion_arrays(np.asarray(evidence) + 1.0)
        assert b.sum() + u == pytest.approx(1.0, abs=1e-9)
        SubjectiveOpinion(b, u)  # passes the opinion checks

    @given(evidence_vectors)
    def test_uncertainty_formula_roundtrip(self, evidence):
        """u = K / (sum(e) + K) for all nonnegative evidence vectors."""
        _, u = _opinion_arrays(np.asarray(evidence) + 1.0)
        k = len(evidence)
        assert u == pytest.approx(k / (sum(evidence) + k), rel=1e-12)

    def test_batched_conversion(self):
        b, u = _opinion_arrays(np.arange(6, dtype=float).reshape(2, 3) + 1.0)
        assert b.shape == (2, 3) and u.shape == (2,)
        np.testing.assert_allclose(b.sum(axis=-1) + u, 1.0)


class TestLosses:
    """ACE and KL values of _loss_parts; loss_and_grad combines them."""

    def test_ace_uniform_binary(self):
        # psi(2) - psi(1) = 1
        assert ace([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_ace_after_one_observation(self):
        # psi(3) - psi(2) = 1/2
        assert ace([2.0, 1.0], [1.0, 0.0]) == pytest.approx(0.5)

    def test_ace_decreases_monotonically_in_true_evidence(self):
        values = [ace([a, 1.0, 1.0], [1.0, 0.0, 0.0]) for a in (10.0, 100.0, 1000.0)]
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
            assert ace([a, b], [1.0, 0.0]) == pytest.approx(expected, abs=1e-4)

    def test_kl_zero_for_uniform(self):
        assert kl([1.0, 1.0, 1.0], [0.0, 1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_kl_zero_when_nonlabel_slots_uniform(self):
        assert kl([7.0, 1.0, 1.0], [1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_kl_hand_value(self):
        assert kl([1.0, 2.0], [1.0, 0.0]) == pytest.approx(np.log(2.0) - 0.5, abs=1e-9)

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(5)
        alpha = 1.0 + rng.uniform(0, 30, (200, 4))
        y = one_hot(rng.integers(0, 4, 200), 4)
        assert np.all(kl(alpha, y) >= -1e-12)

    def test_view_loss_zero_lambda_equals_ace(self):
        alpha, y = np.array([3.0, 2.0]), [0.0, 1.0]
        assert loss_and_grad(alpha, y, 0.0)[0] == pytest.approx(ace(alpha, y))

    def test_view_loss_uniform_lambda_one(self):
        assert loss_and_grad(np.array([1.0, 1.0]), [1.0, 0.0], 1.0)[0] == pytest.approx(1.0)

    def test_view_loss_is_exact_sum(self):
        rng = np.random.default_rng(11)
        alpha = 1.0 + rng.uniform(0, 10, (50, 3))
        y = one_hot(rng.integers(0, 3, 50), 3)
        lam = 0.37
        np.testing.assert_array_equal(loss_and_grad(alpha, y, lam)[0],
                                      ace(alpha, y) + lam * kl(alpha, y))


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
            _, _, ace_grad, kl_grad = _loss_parts(alpha, y)
            for fn, grad in [(ace, ace_grad), (kl, kl_grad)]:
                for j in range(k):
                    ap, am = alpha.copy(), alpha.copy()
                    ap[j] += h
                    am[j] -= h
                    fd = (fn(ap, y) - fn(am, y)) / (2 * h)
                    assert abs(grad[j] - fd) <= 1e-8 + 1e-6 * abs(fd)

    def test_view_loss_grad_composes(self):
        rng = np.random.default_rng(23)
        alpha = 1.0 + rng.uniform(0, 5, (4, 3))
        y = one_hot(rng.integers(0, 3, 4), 3)
        _, _, ace_grad, kl_grad = _loss_parts(alpha, y)
        np.testing.assert_allclose(loss_and_grad(alpha, y, 0.6)[1], ace_grad + 0.6 * kl_grad)

    def test_more_true_evidence_never_raises_ace(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            alpha = 1.0 + rng.uniform(0, 20, k)
            label = int(rng.integers(0, k))
            y = one_hot(label, k)
            base = ace(alpha, y)
            bumped = alpha.copy()
            bumped[label] += rng.uniform(0.1, 10)
            assert ace(bumped, y) <= base + 1e-12


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
        """One (K,) head: the kernel returns scalars, and loss_and_grad combines them."""
        rng = np.random.default_rng(7)
        for k in (2, 3, 10):
            alpha = random_heads(rng, (k,))
            y = one_hot(int(rng.integers(0, k)), k)
            expect = reference_head(alpha, y)
            got = _loss_parts(alpha, y)
            assert np.ndim(got[0]) == 0 and np.ndim(got[1]) == 0
            for part, ref in zip(got, expect):
                np.testing.assert_array_equal(part, ref)
            loss, grad = loss_and_grad(alpha, y, 0.37)
            np.testing.assert_array_equal(loss, expect[0] + 0.37 * expect[1])
            np.testing.assert_array_equal(grad, expect[2] + 0.37 * expect[3])

    def test_non_finite_alpha_is_a_numerical_error(self):
        y = one_hot([0, 1], 2)
        with pytest.raises(FloatingPointError):
            loss_and_grad(np.array([[2.0, np.inf], [1.0, 1.0]]), y, 0.5)
        with pytest.raises(ValueError):
            loss_and_grad(np.array([[2.0, 0.5], [1.0, 1.0]]), y, 0.5)


@st.composite
def stacked_heads(draw):
    """(heads, batch, K) concentrations, exact 1.0s among values in [1, 1e6], and one-hot labels."""
    heads, batch, k = draw(st.integers(1, 4)), draw(st.integers(1, 16)), draw(st.integers(2, 12))
    entries = st.one_of(st.just(1.0), st.floats(1.0, 1e6))
    alpha = draw(hnp.arrays(np.float64, (heads, batch, k), elements=entries))
    labels = draw(hnp.arrays(np.int64, (batch,), elements=st.integers(0, k - 1)))
    return alpha, one_hot(labels, k)


class TestKLSkippedAtZeroWeight:
    """loss_and_grad builds the KL columns only when the KL weight is nonzero."""

    @settings(max_examples=200, deadline=None)
    @given(stacked_heads(), st.sampled_from([0.0, 0.37, 1.0]))
    def test_matches_kl_bearing_parts_byte_for_byte(self, heads, lam):
        alpha, y = heads
        ace, kl, ace_grad, kl_grad = _loss_parts(alpha, y)
        loss, grad = loss_and_grad(alpha, y, lam)
        if lam == 0.0:
            expect_loss, expect_grad = ace, ace_grad
        else:
            expect_loss, expect_grad = ace + lam * kl, ace_grad + lam * kl_grad
        assert loss.tobytes() == expect_loss.tobytes()
        assert grad.tobytes() == expect_grad.tobytes()

    def test_zero_weight_runs_only_the_ace_columns(self, monkeypatch):
        """The names the benchmark hooks: no gammaln, one digamma and one
        trigamma on the two ACE columns."""
        shapes = {name: [] for name in ("gammaln", "digamma", "trigamma")}
        for name, seen in shapes.items():
            def record(z, real=getattr(evidential, name), seen=seen):
                seen.append(np.shape(z))
                return real(z)
            monkeypatch.setattr(evidential, name, record)
        rng = np.random.default_rng(13)
        alpha = random_heads(rng, (4, 128, 10))
        y = one_hot(rng.integers(0, 10, 128), 10)
        loss_and_grad(alpha, y, 0.0)
        assert shapes == {"gammaln": [], "digamma": [(4, 128, 2)], "trigamma": [(4, 128, 2)]}
        loss_and_grad(alpha, y, 0.37)
        assert shapes["digamma"][1:] == shapes["trigamma"][1:] == [(4, 128, 13)]
        assert (4, 128, 11) in shapes["gammaln"]


class TestAnnealSchedule:
    def test_midpoint(self):
        assert anneal_lambda(25, 50) == 0.5

    def test_start_is_zero(self):
        assert anneal_lambda(0, 50) == 0.0

    def test_cap(self):
        assert anneal_lambda(40, 40) == 1.0
        assert anneal_lambda(10 * 40, 40) == 1.0

    def test_invalid_schedule(self):
        with pytest.raises(ValueError, match="epoch"):
            anneal_lambda(-1, 50)
        with pytest.raises(ValueError, match="anneal_epochs"):
            TrainConfig(anneal_epochs=0)


class TestValidation:
    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            _loss_parts(np.array([0.5, 1.0]), [1.0, 0.0])

    def test_opinion_must_normalize(self):
        with pytest.raises(ValueError):
            SubjectiveOpinion([0.5, 0.2], 0.5)

    def test_opinion_nonnegative(self):
        with pytest.raises(ValueError):
            SubjectiveOpinion([-0.1, 0.6], 0.5)

    def test_one_hot_bounds(self):
        with pytest.raises(ValueError):
            one_hot([3], 3)
