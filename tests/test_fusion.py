"""Belief-combination kernels: the pair rule, its fold, the fused Dirichlet and the objective."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evifuse import evidential
from evifuse.evidential import SubjectiveOpinion, _opinion_arrays
from evifuse.fusion import (
    FusionConflictError,
    _combine_pair,
    _fold_with_exclusions,
    _fuse_alphas,
    _fused_alpha,
    _raise_on_conflict,
    total_loss_alpha_grads,
)


def opinion(beliefs, uncertainty):
    """(b, u) as the fusion kernels take them: float arrays, u without the class axis."""
    return np.asarray(beliefs, dtype=float), np.asarray(uncertainty, dtype=float)


def combine(s1, s2):
    """The pair rule on two (b, u) opinions; returns (b, u), raising on total conflict."""
    b, u, bad = _combine_pair(*s1, *s2)
    _raise_on_conflict(bad)
    return b, u


def fold(opinions):
    """Left fold of the pair rule over (b, u) opinions; raises on total conflict."""
    b, u, invalid, _ = _fold_with_exclusions([s[0] for s in opinions],
                                             [s[1] for s in opinions])
    _raise_on_conflict(invalid)
    return b, u


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

    return opinion(*one()), opinion(*one())


class TestPairRule:
    def test_vacuous_is_neutral(self):
        s1 = opinion([0.6, 0.2], 0.2)
        b, u = combine(s1, opinion([0.0, 0.0], 1.0))
        np.testing.assert_allclose(b, s1[0], atol=1e-15)
        assert u == pytest.approx(0.2, abs=1e-15)

    def test_hand_example(self):
        b, u = combine(opinion([0.6, 0.2], 0.2), opinion([0.5, 0.3], 0.2))
        np.testing.assert_allclose(b, [13 / 18, 4 / 18], rtol=1e-12)
        assert u == pytest.approx(1 / 18, rel=1e-12)

    def test_commutative(self):
        s1, s2 = opinion([0.6, 0.2], 0.2), opinion([0.5, 0.3], 0.2)
        a, b = combine(s1, s2), combine(s2, s1)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_total_conflict_raises(self):
        """The kernel flags the row and returns it vacuous; the training policy raises."""
        s1, s2 = opinion([1.0, 0.0], 0.0), opinion([0.0, 1.0], 0.0)
        b, u, bad = _combine_pair(*s1, *s2)
        assert bad and u == 1.0
        np.testing.assert_array_equal(b, 0.0)
        with pytest.raises(FusionConflictError):
            combine(s1, s2)

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError):
            combine(opinion([0.0, 0.0], 1.0), opinion([0.0, 0.0, 0.0], 1.0))

    @given(opinion_pairs())
    def test_closure(self, pair):
        """Output stays a normalized opinion with nonnegative parts."""
        b, u = combine(*pair)
        assert np.all(b >= 0)
        assert u >= 0
        assert b.sum() + u == pytest.approx(1.0, abs=1e-12)
        SubjectiveOpinion(b, u)  # passes the opinion checks

    @given(opinion_pairs())
    def test_uncertainty_contracts(self, pair):
        """Fused uncertainty never exceeds either input's uncertainty."""
        (_, u1), (_, u2) = pair
        _, u = combine(*pair)
        assert u <= min(u1, u2) + 1e-12


class TestFold:
    def test_single_element(self):
        s = opinion([0.3, 0.1], 0.6)
        b, u = fold([s])
        np.testing.assert_array_equal(b, s[0])
        assert u == s[1]

    def test_all_vacuous(self):
        vac = opinion([0.0, 0.0, 0.0], 1.0)
        b, u = fold([vac, vac, vac])
        np.testing.assert_allclose(b, 0.0, atol=1e-15)
        assert u == pytest.approx(1.0)

    def test_order_invariance_enumerated(self):
        from itertools import permutations

        rng = np.random.default_rng(2)
        b, u = random_opinions(rng, 3, 4, min_u=0.01)
        ops = [(b[i], u[i]) for i in range(3)]
        results = []
        for perm in permutations(range(3)):
            out_b, out_u = fold([ops[i] for i in perm])
            results.append(np.append(out_b, out_u))
        for r in results[1:]:
            np.testing.assert_allclose(r, results[0], atol=1e-9)

    def test_order_invariance_batched(self):
        """All 6 fold orders agree for 10**4 random triples (batched check)."""
        from itertools import permutations

        rng = np.random.default_rng(7)
        triples = [random_opinions(rng, 10_000, 3, min_u=0.01) for _ in range(3)]
        outputs = []
        for perm in permutations(range(3)):
            out_b, out_u = fold([triples[i] for i in perm])
            outputs.append(np.concatenate([out_b, out_u[:, None]], axis=1))
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
            single_b, single_u = fold([_opinion_arrays(a[row]) for a in alphas])
            np.testing.assert_array_equal(b[row], single_b)
            assert u[row] == single_u

    def test_training_fusion_raises_on_the_same_row(self):
        with pytest.raises(FusionConflictError) as info:
            _fuse_alphas(self.conflicting_alphas())
        assert info.value.rows.tolist() == [2]


class TestFusedDirichlet:
    """_fused_alpha rebuilds concentrations from a fused opinion via strength K / u."""

    def test_vacuous_inverts_to_uniform(self):
        alpha = _fused_alpha(*opinion([0.0, 0.0, 0.0], 1.0))
        np.testing.assert_array_equal(alpha, [1.0, 1.0, 1.0])
        assert alpha.sum() == pytest.approx(3.0)

    def test_hand_example_strength(self):
        alpha = _fused_alpha(*opinion([13 / 18, 4 / 18], 1 / 18))
        np.testing.assert_allclose(alpha, [27.0, 9.0], rtol=1e-12)
        assert alpha.sum() == pytest.approx(36.0)

    def test_inverse_of_projection(self):
        rng = np.random.default_rng(13)
        alpha = 1.0 + rng.uniform(0, 40, (300, 5))
        np.testing.assert_allclose(_fused_alpha(*_opinion_arrays(alpha)), alpha, atol=1e-9)

    def test_projection_of_inverse(self):
        rng = np.random.default_rng(19)
        b, u = random_opinions(rng, 300, 4, min_u=1e-6)
        back_b, back_u = _opinion_arrays(_fused_alpha(b, u))
        np.testing.assert_allclose(back_b, b, atol=1e-9)
        np.testing.assert_allclose(back_u, u, atol=1e-9)


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
