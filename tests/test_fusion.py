"""Belief-combination algebra: the pair rule, folds, and the fused Dirichlet."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evifuse import evidential
from evifuse.evidential import (
    DirichletParams,
    SubjectiveOpinion,
    _opinion_arrays,
    dirichlet_to_opinion,
    view_loss,
)
from evifuse.fusion import (
    FusionConflictError,
    _fold_with_exclusions,
    _fuse_alphas,
    ds_combine_pair,
    ds_fold,
    fused_dirichlet,
    total_loss,
    total_loss_alpha_grads,
)


def random_opinions(rng, count, k, min_u=0.0):
    """Valid opinions drawn uniformly-ish on the simplex, batched (count, k)."""
    raw = rng.dirichlet(np.ones(k + 1), size=count)
    if min_u > 0:
        raw[:, -1] = np.maximum(raw[:, -1], min_u)
        raw /= raw.sum(axis=1, keepdims=True)
    return raw[:, :k], raw[:, -1]


@st.composite
def opinion_pairs(draw, k=3):
    """Two opinions over k classes with enough uncertainty to avoid conflict."""
    def one():
        parts = [draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
                 for _ in range(k)]
        u = draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
        total = sum(parts) + u
        return [p / total for p in parts], u / total

    b1, u1 = one()
    b2, u2 = one()
    return SubjectiveOpinion(b1, u1), SubjectiveOpinion(b2, u2)


class TestPairRule:
    def test_vacuous_is_neutral(self):
        s1 = SubjectiveOpinion([0.6, 0.2], 0.2)
        vac = SubjectiveOpinion([0.0, 0.0], 1.0)
        out = ds_combine_pair(s1, vac)
        np.testing.assert_allclose(out.beliefs, s1.beliefs, atol=1e-15)
        assert out.uncertainty == pytest.approx(0.2, abs=1e-15)

    def test_hand_example(self):
        s1 = SubjectiveOpinion([0.6, 0.2], 0.2)
        s2 = SubjectiveOpinion([0.5, 0.3], 0.2)
        out = ds_combine_pair(s1, s2)
        np.testing.assert_allclose(out.beliefs, [13 / 18, 4 / 18], rtol=1e-12)
        assert out.uncertainty == pytest.approx(1 / 18, rel=1e-12)

    def test_commutative(self):
        s1 = SubjectiveOpinion([0.6, 0.2], 0.2)
        s2 = SubjectiveOpinion([0.5, 0.3], 0.2)
        a = ds_combine_pair(s1, s2)
        b = ds_combine_pair(s2, s1)
        np.testing.assert_array_equal(a.beliefs, b.beliefs)
        assert a.uncertainty == b.uncertainty

    def test_total_conflict_raises(self):
        s1 = SubjectiveOpinion([1.0, 0.0], 0.0)
        s2 = SubjectiveOpinion([0.0, 1.0], 0.0)
        with pytest.raises(FusionConflictError):
            ds_combine_pair(s1, s2)

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError):
            ds_combine_pair(SubjectiveOpinion([0.0, 0.0], 1.0),
                            SubjectiveOpinion([0.0, 0.0, 0.0], 1.0))

    @given(opinion_pairs())
    def test_closure(self, pair):
        """Output stays a normalized opinion with nonnegative parts."""
        out = ds_combine_pair(*pair)
        assert np.all(out.beliefs >= 0)
        assert out.uncertainty >= 0
        assert out.beliefs.sum() + out.uncertainty == pytest.approx(1.0, abs=1e-12)

    @given(opinion_pairs())
    def test_uncertainty_contracts(self, pair):
        """Fused uncertainty never exceeds either input's uncertainty."""
        s1, s2 = pair
        out = ds_combine_pair(s1, s2)
        assert out.uncertainty <= min(s1.uncertainty, s2.uncertainty) + 1e-12


class TestFold:
    def test_single_element(self):
        s = SubjectiveOpinion([0.3, 0.1], 0.6)
        out = ds_fold([s])
        np.testing.assert_array_equal(out.beliefs, s.beliefs)

    def test_all_vacuous(self):
        vac = SubjectiveOpinion([0.0, 0.0, 0.0], 1.0)
        out = ds_fold([vac, vac, vac])
        np.testing.assert_allclose(out.beliefs, 0.0, atol=1e-15)
        assert out.uncertainty == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ds_fold([])

    def test_order_invariance_enumerated(self):
        from itertools import permutations

        rng = np.random.default_rng(2)
        b, u = random_opinions(rng, 3, 4, min_u=0.01)
        ops = [SubjectiveOpinion(b[i], u[i]) for i in range(3)]
        results = []
        for perm in permutations(range(3)):
            out = ds_fold([ops[i] for i in perm])
            results.append(np.append(out.beliefs, out.uncertainty))
        for r in results[1:]:
            np.testing.assert_allclose(r, results[0], atol=1e-9)

    def test_order_invariance_batched(self):
        """All 6 fold orders agree for 10**4 random triples (batched check)."""
        from itertools import permutations

        rng = np.random.default_rng(7)
        triples = [random_opinions(rng, 10_000, 3, min_u=0.01) for _ in range(3)]
        outputs = []
        for perm in permutations(range(3)):
            ops = [SubjectiveOpinion(*triples[i]) for i in perm]
            out = ds_fold(ops)
            outputs.append(np.concatenate([out.beliefs, np.asarray(out.uncertainty)[:, None]], axis=1))
        for other in outputs[1:]:
            np.testing.assert_allclose(other, outputs[0], atol=1e-9)


class TestSharedKernel:
    """Training and prediction fold with one kernel and differ only in policy."""

    @staticmethod
    def conflicting_alphas():
        """Three views over 5 rows; row 2 ends in total conflict at the last view."""
        rng = np.random.default_rng(43)
        alphas = [1.0 + rng.uniform(0.0, 6.0, (5, 3)) for _ in range(3)]
        alphas[0][2] = [1e15, 1.0, 1.0]
        alphas[1][2] = [1e15, 1.0, 1.0]
        alphas[2][2] = [1.0, 1e15, 1.0]
        return alphas

    def test_fold_flags_conflict_row_and_leaves_it_vacuous(self):
        alphas = self.conflicting_alphas()
        beliefs, uncerts = zip(*(_opinion_arrays(a) for a in alphas))
        b, u, invalid, _ = _fold_with_exclusions(list(beliefs), list(uncerts))
        assert invalid.tolist() == [False, False, True, False, False]
        np.testing.assert_array_equal(b[2], 0.0)
        assert u[2] == 1.0
        for row in (0, 1, 3, 4):
            single = ds_fold([dirichlet_to_opinion(DirichletParams(a[row])) for a in alphas])
            np.testing.assert_array_equal(b[row], single.beliefs)
            assert u[row] == single.uncertainty

    def test_training_fusion_raises_on_the_same_row(self):
        with pytest.raises(FusionConflictError) as info:
            _fuse_alphas(self.conflicting_alphas())
        assert info.value.rows.tolist() == [2]


class TestFusedDirichlet:
    def test_vacuous_inverts_to_uniform(self):
        d = fused_dirichlet(SubjectiveOpinion([0.0, 0.0, 0.0], 1.0))
        np.testing.assert_array_equal(d.alpha, [1.0, 1.0, 1.0])
        assert d.alpha0 == pytest.approx(3.0)

    def test_hand_example_strength(self):
        d = fused_dirichlet(SubjectiveOpinion([13 / 18, 4 / 18], 1 / 18))
        np.testing.assert_allclose(d.alpha, [27.0, 9.0], rtol=1e-12)
        assert d.alpha0 == pytest.approx(36.0)

    def test_zero_uncertainty_rejected(self):
        with pytest.raises(ValueError):
            fused_dirichlet(SubjectiveOpinion([1.0, 0.0], 0.0))

    def test_inverse_of_projection(self):
        rng = np.random.default_rng(13)
        alpha = 1.0 + rng.uniform(0, 40, (300, 5))
        d = DirichletParams(alpha)
        back = fused_dirichlet(dirichlet_to_opinion(d))
        np.testing.assert_allclose(back.alpha, alpha, atol=1e-9)

    def test_projection_of_inverse(self):
        rng = np.random.default_rng(19)
        b, u = random_opinions(rng, 300, 4, min_u=1e-6)
        s = SubjectiveOpinion(b, u)
        back = dirichlet_to_opinion(fused_dirichlet(s))
        np.testing.assert_allclose(back.beliefs, b, atol=1e-9)
        np.testing.assert_allclose(back.uncertainty, u, atol=1e-9)


class TestTotalLoss:
    def test_single_view_doubles(self):
        d = DirichletParams([3.0, 1.5])
        y = [1.0, 0.0]
        assert total_loss([d], d, y, 0.4) == pytest.approx(2 * view_loss(d, y, 0.4))

    def test_uniform_two_views(self):
        d = DirichletParams([1.0, 1.0])
        y = [1.0, 0.0]
        assert total_loss([d, d], d, y, 0.0) == pytest.approx(3.0)

    def test_at_least_fused_term(self):
        rng = np.random.default_rng(31)
        fused = DirichletParams(1.0 + rng.uniform(0, 5, 3))
        views = [DirichletParams(1.0 + rng.uniform(0, 5, 3)) for _ in range(3)]
        y = [0.0, 1.0, 0.0]
        assert total_loss(views, fused, y, 0.5) >= view_loss(fused, y, 0.5)


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
