"""Belief fusion: the closed-form product kernel, its VJP, prediction's exclusions and the objective.

The kernels are checked against a test-local reference: the reduced
Dempster-Shafer pair rule on (b, u) opinions, folded left over the views.
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evifuse import evidential
from evifuse.evidential import SubjectiveOpinion, _opinion_arrays
from evifuse.fusion import (
    _fold_with_exclusions,
    _fuse_alphas,
    _fuse_alphas_vjp,
    _ratio,
    total_loss_alpha_grads,
)


def reference_fold(opinions):
    """Left fold of the pair rule over (b, u) opinions: the rule as written, conflict and all."""
    b, u = opinions[0]
    for b2, u2 in opinions[1:]:
        norm = 1.0 - (b.sum(axis=-1) * b2.sum(axis=-1) - (b * b2).sum(axis=-1))
        b = (b * b2 + b * u2[..., None] + b2 * u[..., None]) / norm[..., None]
        u = u * u2 / norm
    return b, u


def reference_alpha(alphas):
    """Fused concentrations of the reference fold, through the strength K / u."""
    b, u = reference_fold([_opinion_arrays(alpha) for alpha in alphas])
    return b * (b.shape[-1] / u)[..., None] + 1.0


def fused_opinion(alphas):
    """(b, u) of the fused concentrations."""
    return _opinion_arrays(_fuse_alphas(alphas)[0])


def ratio_product(alphas):
    """The views' ratios folded into one product a view at a time, as prediction folds them."""
    product = np.ones(np.shape(alphas[0]))
    with np.errstate(over="ignore"):
        for alpha in alphas:
            product *= _ratio(alpha)
    return product


def random_opinions(rng, count, k, min_u=0.0):
    """Valid opinions drawn uniformly-ish on the simplex, batched (count, k)."""
    raw = rng.dirichlet(np.ones(k + 1), size=count)
    if min_u > 0:
        raw[:, -1] = np.maximum(raw[:, -1], min_u)
        raw /= raw.sum(axis=1, keepdims=True)
    return raw[:, :k], raw[:, -1]


def alpha_of(b, u):
    """Concentrations of a (b, u) opinion: alpha = b K / u + 1."""
    return b * (b.shape[-1] / u)[..., None] + 1.0


@st.composite
def view_alphas(draw, view_counts=(1, 2, 3, 6), class_counts=(2, 3, 10)):
    """Concentrations of V views over 4 rows and K classes, evidence in [0, 100]."""
    v = draw(st.sampled_from(view_counts))
    k = draw(st.sampled_from(class_counts))
    evidence = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
    return [1.0 + draw(arrays(np.float64, (4, k), elements=evidence)) for _ in range(v)]


class TestPairRule:
    """The product equals the pair rule it replaces."""

    @given(view_alphas())
    def test_matches_reference_fold(self, alphas):
        np.testing.assert_allclose(_fuse_alphas(alphas)[0], reference_alpha(alphas),
                                   rtol=1e-12, atol=0)

    def test_vacuous_is_neutral(self):
        alpha = np.array([4.0, 2.0])
        np.testing.assert_allclose(_fuse_alphas([alpha, np.ones(2)])[0], alpha, rtol=1e-15)
        np.testing.assert_allclose(_fuse_alphas([np.ones(2), alpha])[0], alpha, rtol=1e-15)

    def test_hand_example(self):
        """alpha [7, 3] is b [0.6, 0.2], u 0.2; [6, 4] is b [0.5, 0.3], u 0.2.
        The pair rule gives b [13/18, 4/18], u 1/18, which is alpha [27, 9]."""
        fused = _fuse_alphas([np.array([7.0, 3.0]), np.array([6.0, 4.0])])[0]
        np.testing.assert_allclose(fused, [27.0, 9.0], rtol=1e-15)
        b, u = _opinion_arrays(fused)
        np.testing.assert_allclose(b, [13 / 18, 4 / 18], rtol=1e-12)
        assert u == pytest.approx(1 / 18, rel=1e-12)

    def test_commutative(self):
        rng = np.random.default_rng(3)
        a1, a2 = (1.0 + rng.uniform(0.0, 30.0, (500, 4)) for _ in range(2))
        np.testing.assert_array_equal(_fuse_alphas([a1, a2])[0], _fuse_alphas([a2, a1])[0])

    def test_opposed_huge_evidence_fuses_finite(self):
        """Evidence 1e15 for different classes: the rule has no total conflict, the
        opinion splits its belief between the two classes."""
        fused = _fuse_alphas([np.array([1e15, 1.0, 1.0]), np.array([1.0, 1e15, 1.0])])[0]
        np.testing.assert_allclose(fused, [1e15, 1e15, 1.0], rtol=1e-12)
        b, u = _opinion_arrays(fused)
        SubjectiveOpinion(b, u)
        np.testing.assert_allclose(b, [0.5, 0.5, 0.0], atol=1e-14)

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError):
            _fuse_alphas([np.ones(2), np.ones(3)])

    @given(view_alphas())
    def test_closure(self, alphas):
        """The fused alpha projects to a normalized opinion with nonnegative parts."""
        b, u = fused_opinion(alphas)
        assert np.all(b >= 0) and np.all(u > 0)
        np.testing.assert_allclose(b.sum(axis=-1) + u, 1.0, atol=1e-12)
        SubjectiveOpinion(b, u)  # passes the opinion checks

    @given(view_alphas())
    def test_uncertainty_contracts(self, alphas):
        """Fused uncertainty never exceeds any view's uncertainty."""
        _, u = fused_opinion(alphas)
        view_u = np.min([_opinion_arrays(alpha)[1] for alpha in alphas], axis=0)
        assert np.all(u <= view_u * (1.0 + 1e-12))


class TestFold:
    def test_single_element(self):
        alpha = np.array([4.0, 2.0, 9.5])
        np.testing.assert_allclose(_fuse_alphas([alpha])[0], alpha, rtol=1e-15)

    def test_all_vacuous(self):
        np.testing.assert_array_equal(_fuse_alphas([np.ones(3)] * 3)[0], np.ones(3))

    def test_order_invariance_enumerated(self):
        rng = np.random.default_rng(2)
        alphas = [1.0 + rng.uniform(0.0, 20.0, 4) for _ in range(3)]
        results = [_fuse_alphas([alphas[i] for i in perm])[0] for perm in permutations(range(3))]
        for r in results[1:]:
            np.testing.assert_allclose(r, results[0], rtol=1e-14)

    def test_order_invariance_batched(self):
        """All 6 orders agree for 10**4 random triples (batched check)."""
        rng = np.random.default_rng(7)
        triples = [alpha_of(*random_opinions(rng, 10_000, 3, min_u=0.01)) for _ in range(3)]
        outputs = [_fuse_alphas([triples[i] for i in perm])[0]
                   for perm in permutations(range(3))]
        for other in outputs[1:]:
            np.testing.assert_allclose(other, outputs[0], rtol=1e-14)


class TestSharedKernel:
    """Training and prediction fuse with one kernel and differ only in policy."""

    @staticmethod
    def overflowing_alphas():
        """Three views over 5 rows; row 2 has evidence 1e200 in two views, which
        overflows the product, and row 4 the 1e15 evidence the pair rule's fold
        once reported as total conflict."""
        rng = np.random.default_rng(43)
        alphas = [1.0 + rng.uniform(0.0, 6.0, (5, 3)) for _ in range(3)]
        alphas[0][2] = [1e200, 1.0, 1.0]
        alphas[1][2] = [1e200, 1.0, 1.0]
        alphas[0][4] = alphas[1][4] = [1e15, 1.0, 1.0]
        alphas[2][4] = [1.0, 1e15, 1.0]
        return alphas

    def test_fold_flags_overflow_row_and_leaves_it_vacuous(self):
        alphas = self.overflowing_alphas()
        b, u, invalid = _fold_with_exclusions(ratio_product(alphas))
        assert invalid.tolist() == [False, False, True, False, False]
        np.testing.assert_array_equal(b[2], 0.0)
        assert u[2] == 1.0
        SubjectiveOpinion(b, u)
        for row in (0, 1, 3, 4):
            single_b, single_u = fused_opinion([a[row] for a in alphas])
            np.testing.assert_array_equal(b[row], single_b)
            assert u[row] == single_u

    def test_fold_flags_nan_evidence_and_strength_overflow(self):
        """Row 1 has NaN evidence; row 2 a finite fused alpha whose strength overflows."""
        alphas = [np.array([[2.0, 1.0, 1.0], [np.nan, 1.0, 1.0], [1.5e308, 1.5e308, 1.0]]),
                  np.array([[1.0, 3.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])]
        b, u, invalid = _fold_with_exclusions(ratio_product(alphas))
        assert invalid.tolist() == [False, True, True]
        np.testing.assert_array_equal(b[1:], 0.0)
        np.testing.assert_array_equal(u[1:], 1.0)
        SubjectiveOpinion(b, u)

    def test_fold_of_a_view_at_a_time_is_training_fusion_bit_for_bit(self):
        """Prediction's product, folded a view at a time, gives exactly the opinions
        and exclusions of training's fused alpha, overflowing rows included."""
        rng = np.random.default_rng(47)
        for v, k in ((1, 2), (2, 3), (3, 10), (6, 4)):
            alphas = 1.0 + rng.exponential(20.0, (v, 200, k))
            alphas[:, :10, 0] = 1e120  # these rows overflow the product in 3 or more views
            b, u, invalid = _fold_with_exclusions(ratio_product(list(alphas)))
            with np.errstate(over="ignore"):
                fused = _fuse_alphas(list(alphas))[0]
                ref_invalid = ~np.isfinite(fused.sum(axis=-1))
            fused[ref_invalid] = 1.0
            ref_b, ref_u = _opinion_arrays(fused)
            assert ref_invalid[:10].all() == (v >= 3) and not ref_invalid[10:].any()
            np.testing.assert_array_equal(invalid, ref_invalid)
            np.testing.assert_array_equal(b, ref_b)
            np.testing.assert_array_equal(u, ref_u)

    def test_training_fusion_raises_on_the_same_row(self):
        """Training fuses the same row to a non-finite alpha, and its loss refuses it."""
        alphas = self.overflowing_alphas()
        y = evidential.one_hot(np.zeros(5, dtype=int), 3)
        # as in the trainer, whose step runs with overflow ignored
        with np.errstate(over="ignore"):
            fused, _ = _fuse_alphas(alphas)
            assert (~np.isfinite(fused).all(axis=-1)).tolist() == [False, False, True,
                                                                   False, False]
            with pytest.raises(FloatingPointError):
                total_loss_alpha_grads(alphas, y, 0.5)


class TestFusedDirichlet:
    """Prediction's opinions are the projections of the fused concentrations."""

    def test_vacuous_inverts_to_uniform(self):
        b, u, invalid = _fold_with_exclusions(ratio_product([np.ones((1, 3))] * 2))
        np.testing.assert_array_equal(b, [[0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(u, [1.0])
        assert not invalid.any()

    def test_hand_example_strength(self):
        b, u, _ = _fold_with_exclusions(ratio_product([np.array([[7.0, 3.0]]),
                                                       np.array([[6.0, 4.0]])]))
        np.testing.assert_allclose(b, [[13 / 18, 4 / 18]], rtol=1e-12)
        np.testing.assert_allclose(2 / u, [36.0], rtol=1e-12)

    def test_inverse_of_projection(self):
        """One view fuses to itself."""
        rng = np.random.default_rng(13)
        alpha = 1.0 + rng.uniform(0, 40, (300, 5))
        np.testing.assert_allclose(_fuse_alphas([alpha])[0], alpha, rtol=1e-14)

    def test_projection_of_inverse(self):
        """The opinions prediction votes on are the pair rule's on the views' opinions."""
        rng = np.random.default_rng(19)
        opinions = [random_opinions(rng, 300, 4, min_u=1e-3) for _ in range(3)]
        b, u, invalid = _fold_with_exclusions(ratio_product([alpha_of(*o) for o in opinions]))
        ref_b, ref_u = reference_fold(opinions)
        assert not invalid.any()
        np.testing.assert_allclose(b, ref_b, rtol=1e-10, atol=1e-15)
        np.testing.assert_allclose(u, ref_u, rtol=1e-10)


class TestProductVJP:
    """d alpha_k / d alpha_vk = prod_{w != v} r_wk, and zero across classes."""

    def test_matches_longdouble_product_of_other_views(self):
        rng = np.random.default_rng(5)
        k, rows = 4, 50
        alphas = [1.0 + rng.uniform(0.0, 20.0, (rows, k)) for _ in range(3)]
        _, cache = _fuse_alphas(alphas)
        ratios = [(a.astype(np.longdouble) + (k - 1)) / k for a in alphas]
        for j in range(k):
            grad = np.zeros((rows, k))
            grad[:, j] = 1.0
            for v, g in enumerate(_fuse_alphas_vjp(cache, grad)):
                others = np.prod([r for w, r in enumerate(ratios) if w != v], axis=0)
                np.testing.assert_allclose(g[:, j], others[:, j].astype(np.float64),
                                           rtol=1e-15)
                assert np.all(np.delete(g, j, axis=1) == 0.0)


class TestTotalLoss:
    """total_loss_alpha_grads: fused-head loss plus the sum of per-view losses."""

    def test_single_view_doubles(self):
        alpha, y = np.array([3.0, 1.5]), [1.0, 0.0]
        fused_term, view_terms, _ = total_loss_alpha_grads([alpha], y, 0.4)
        own = evidential.loss_and_grad(alpha, y, 0.4)[0]
        assert fused_term + sum(view_terms) == pytest.approx(2 * own)

    def test_uniform_two_views(self):
        alpha, y = np.array([1.0, 1.0]), [1.0, 0.0]
        fused_term, view_terms, _ = total_loss_alpha_grads([alpha, alpha], y, 0.0)
        assert fused_term + sum(view_terms) == pytest.approx(3.0)

    def test_at_least_fused_term(self):
        rng = np.random.default_rng(31)
        alphas = [1.0 + rng.uniform(0, 5, 3) for _ in range(3)]
        y = [0.0, 1.0, 0.0]
        fused_term, view_terms, _ = total_loss_alpha_grads(alphas, y, 0.5)
        fused = _fuse_alphas(alphas)[0]
        assert fused_term == evidential.loss_and_grad(fused, y, 0.5)[0]
        assert fused_term + sum(view_terms) >= fused_term


def test_training_step_evaluates_each_polygamma_once(monkeypatch):
    """One total_loss_alpha_grads call at V=3 runs digamma and trigamma once each;
    gammaln runs once more only for the constant ln G(K)."""
    calls = {"digamma": 0, "trigamma": 0, "gammaln": 0}
    for name in calls:
        def counted(x, _fn=getattr(evidential, name), _name=name):
            calls[_name] += 1
            return _fn(x)
        monkeypatch.setattr(evidential, name, counted)
    rng = np.random.default_rng(8)
    alphas = [1.0 + rng.uniform(0, 9, (16, 4)) for _ in range(3)]
    y = evidential.one_hot(rng.integers(0, 4, 16), 4)
    fused_term, view_terms, grads = total_loss_alpha_grads(alphas, y, 0.5)
    assert calls["digamma"] == 1 and calls["trigamma"] == 1
    assert calls["gammaln"] <= 2
    assert fused_term.shape == (16,) and len(view_terms) == 3 and len(grads) == 3
