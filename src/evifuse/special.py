"""Vectorized log-gamma, digamma, and trigamma for arguments z > 0.

All three lift the argument a fixed 7 steps with the recurrence relations,
then evaluate the de Moivre / Bernoulli-number asymptotic series. Each
step adds the recurrence term of every entry to a running sum and 1 to
the entry, so an entry's result does not depend on the other entries.
Seven steps put any z > 0 above 7, where the seven-term series errs by
under 3e-14. The absolute error of digamma and trigamma is below 1e-13
for z >= 1; that of log-gamma is relative for large z, one ulp (3e-8 at
z = 1e7). On (0, 1) digamma and trigamma err by under 1e-12 relative,
and so does log-gamma below 0.5; from 0.5 to its zero at 1 its error is
under 1e-13 absolute.
"""

from __future__ import annotations

import numpy as np

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_SHIFT_STEPS = 7

# B_{2n} / (2n (2n-1)) for the log-gamma Stirling series
_LGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

# B_{2n} / (2n) for the digamma series
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# B_{2n} for the trigamma series
_TRIGAMMA_COEFFS = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def _lifted(x, term) -> tuple[np.ndarray, np.ndarray]:
    """Arguments lifted ``_SHIFT_STEPS`` steps and, per entry, the sum of ``term`` on the way.

    It runs with overflow and division warnings off: an infinite term is
    the true value's limit.
    """
    z = np.array(x, dtype=np.float64)
    if np.fmin.reduce(z, axis=None, initial=1.0) <= 0.0:  # skips NaN
        raise ValueError("special functions require strictly positive arguments")
    acc = np.zeros(z.shape)
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(_SHIFT_STEPS):
            acc += term(z)
            z += 1.0
    return z, acc


def _inverse_square(z):
    """1 / z^2, 0 where z * z overflows.

    Beyond ~1.3e154 z * z overflows and 1 / inf = 0 is the limit the series
    needs.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (z * z)


def _series(coeffs, r2):
    """Horner evaluation of sum_n coeffs[n-1] * r2^n, in place."""
    out = coeffs[-1] * r2
    for c in reversed(coeffs[:-1]):
        out += c
        out *= r2
    return out


def gammaln(x) -> np.ndarray | np.floating:
    """Natural log of the gamma function, elementwise, for x > 0."""
    z, logs = _lifted(x, np.log)  # ln G(z) = ln G(z+1) - ln z
    # terms are c_n / z^(2n-1)
    series = z * _series(_LGAMMA_COEFFS, _inverse_square(z))
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + series - logs


def digamma(x) -> np.ndarray | np.floating:
    """Logarithmic derivative of the gamma function, elementwise, for x > 0."""
    z, inverses = _lifted(x, np.reciprocal)  # psi(z) = psi(z+1) - 1/z
    return np.log(z) - 0.5 / z - _series(_DIGAMMA_COEFFS, _inverse_square(z)) - inverses


def trigamma(x) -> np.ndarray | np.floating:
    """Derivative of the digamma function, elementwise, for x > 0."""
    z, inverse_squares = _lifted(x, _inverse_square)  # psi'(z) = psi'(z+1) + 1/z^2
    r = 1.0 / z
    r2 = r * r
    # terms are B_2n / z^(2n+1)
    return r + 0.5 * r2 + r * _series(_TRIGAMMA_COEFFS, r2) + inverse_squares
