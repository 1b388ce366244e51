"""The hand-rolled special functions against scipy's implementations."""

import warnings

import numpy as np
import pytest
import scipy.special as sp

from evifuse.special import (
    _DIGAMMA_COEFFS,
    _HALF_LOG_2PI,
    _LGAMMA_COEFFS,
    _TRIGAMMA_COEFFS,
    _lifted,
    _series,
    digamma,
    gammaln,
    trigamma,
)

ARGS = np.concatenate([
    np.linspace(1.0, 20.0, 777),
    np.logspace(0.0, 7.0, 300),
    [1.0, 2.0, 3.0, 7.999999, 8.0, 8.000001, 1e7],
])


def test_digamma_matches_scipy():
    np.testing.assert_allclose(digamma(ARGS), sp.digamma(ARGS), rtol=0, atol=1e-12)


def test_gammaln_matches_scipy():
    # gammaln grows like x log x, so compare relatively above 1
    np.testing.assert_allclose(gammaln(ARGS), sp.gammaln(ARGS), rtol=1e-12, atol=1e-12)


def test_trigamma_matches_scipy():
    np.testing.assert_allclose(trigamma(ARGS), sp.polygamma(1, ARGS), rtol=0, atol=1e-12)


def test_digamma_recurrence():
    # psi(n+1) = psi(n) + 1/n
    for n in range(1, 30):
        assert digamma(n + 1.0) == pytest.approx(digamma(float(n)) + 1.0 / n, abs=1e-13)


def test_scalar_in_scalar_out():
    out = digamma(2.0)
    assert np.ndim(out) == 0
    assert out == pytest.approx(1.0 - np.euler_gamma, abs=1e-12)


def test_trigamma_is_digamma_derivative():
    x = np.linspace(1.0, 40.0, 50)
    h = 1e-6
    fd = (digamma(x + h) - digamma(x - h)) / (2 * h)
    np.testing.assert_allclose(trigamma(x), fd, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("fn", [digamma, gammaln, trigamma])
def test_nonpositive_arguments_rejected(fn):
    with pytest.raises(ValueError):
        fn(0.0)
    with pytest.raises(ValueError):
        fn(np.array([1.0, -2.0]))


BELOW_ONE = np.logspace(-6, 0, 200)


@pytest.mark.parametrize("fn, ref", [(digamma, sp.digamma), (gammaln, sp.gammaln),
                                     (trigamma, lambda x: sp.polygamma(1, x))])
def test_below_one_matches_scipy(fn, ref):
    """Arguments in (0, 1] take all 8 recurrence steps."""
    np.testing.assert_allclose(fn(BELOW_ONE), ref(BELOW_ONE), rtol=1e-12, atol=0)


@pytest.mark.parametrize("fn", [digamma, gammaln, trigamma])
def test_shape_preserved(fn):
    grid = np.array([[0.5, 1.0, 7.5], [8.0, 30.0, 1e4]])
    out = fn(grid)
    assert out.shape == (2, 3)
    np.testing.assert_array_equal(out.ravel(), fn(grid.ravel()))
    scalar = fn(3.5)
    assert np.ndim(scalar) == 0 and not isinstance(scalar, np.ndarray)
    assert scalar == fn(np.array([3.5]))[0]


@pytest.mark.parametrize("term", [np.log, np.reciprocal, lambda z: 1.0 / (z * z)])
def test_fixed_steps_match_a_loop_that_stops_at_eight(term):
    rng = np.random.default_rng(3)
    x = np.concatenate([BELOW_ONE, rng.uniform(0.0, 12.0, 500), [np.nextafter(8.0, 0.0), 8.0, 1e300]])
    z, acc = x.copy(), np.zeros_like(x)
    while (low := z < 8.0).any():
        acc[low] += term(z[low])
        z[low] += 1.0
    got_z, got_acc = _lifted(x, term)
    np.testing.assert_array_equal(got_z, z)
    np.testing.assert_array_equal(got_acc, acc)


def _plain_gammaln(x):
    z, logs = _lifted(x, np.log)
    series = z * _series(_LGAMMA_COEFFS, 1.0 / (z * z))
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + series - logs


def _plain_digamma(x):
    z, inverses = _lifted(x, np.reciprocal)
    return np.log(z) - 0.5 / z - _series(_DIGAMMA_COEFFS, 1.0 / (z * z)) - inverses


def _plain_trigamma(x):
    z, inverse_squares = _lifted(x, lambda z: 1.0 / (z * z))
    r = 1.0 / z
    r2 = r * r
    return r + 0.5 * r2 + r * _series(_TRIGAMMA_COEFFS, r2) + inverse_squares


@pytest.mark.parametrize("fn, plain", [(digamma, _plain_digamma), (gammaln, _plain_gammaln),
                                       (trigamma, _plain_trigamma)])
def test_extreme_arguments_silent_and_unchanged(fn, plain):
    """z * z over- or underflows at the ends of the range; the result must not change."""
    x = np.logspace(-300, 300, 20001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(x)
    with np.errstate(all="ignore"):
        np.testing.assert_array_equal(got, plain(x))
