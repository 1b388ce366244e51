"""Vectorized log-gamma, digamma, and trigamma for arguments z > 0.

All three shift the argument to 8 or above with the recurrence relations,
then evaluate the de Moivre / Bernoulli-number asymptotic series. Each
shift step adds 1 to every entry still below 8 and the recurrence term of
those entries to a running sum. A float64 mask (1.0 below 8, else 0.0) is
added to z and multiplies the term (it is the numerator of 1/z and
1/z^2), so a finished entry gains exactly +0.0 and every entry goes
through the same operations as in a loop that stops at 8, whatever the
other entries are. The lift takes 8 - floor(m) steps, where m is the
smallest entry (NaN skipped, at most 8): rounding is monotone and
integers are exact, so an entry a >= j gives fl(a + 1) >= j + 1, and
after 8 - floor(m) steps no entry is below 8. Any z > 0 needs at most 8
steps; a training alpha, whose smallest entry is 1, needs 7. The absolute
error is below 1e-13 for z >= 1 and the relative error below 1e-12 on
(0, 1).
"""

from __future__ import annotations

import numpy as np

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_SHIFT_THRESHOLD = 8.0
_SHIFT_STEPS = 8

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
    """Arguments lifted to >= 8 and, per entry, the sum of the recurrence term on the way.

    ``term(z, low)`` is the term where the mask ``low`` is 1.0 and +0.0
    where it is 0.0 (there z >= 8, so the term is finite and positive and
    adding +0.0 leaves the sum exact). It runs with overflow and division
    warnings off: below 8 an infinite term is the true value's limit.
    """
    z = np.array(x, dtype=np.float64)
    lowest = np.fmin.reduce(z, axis=None, initial=_SHIFT_THRESHOLD)  # skips NaN
    if lowest <= 0.0:
        raise ValueError("special functions require strictly positive arguments")
    acc = np.zeros(z.shape)
    low = np.empty(z.shape)
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(_SHIFT_STEPS - int(lowest)):
            np.less(z, _SHIFT_THRESHOLD, out=low, casting="unsafe")
            acc += term(z, low)
            z += low
    return z, acc


def _log_term(z, low):
    """ln z times the mask."""
    out = np.log(z)
    out *= low
    return out


def _reciprocal_term(z, low):
    """1 / z with the mask as numerator: 1.0 / z or +0.0 exactly."""
    return low / z


def _inverse_square_term(z, low):
    """1 / z^2 with the mask as numerator."""
    return low / (z * z)


def _inverse_square(z):
    """1 / z^2 of a lifted argument z >= 8, 0 where z * z overflows.

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
    z, logs = _lifted(x, _log_term)  # ln G(z) = ln G(z+1) - ln z
    # terms are c_n / z^(2n-1)
    series = z * _series(_LGAMMA_COEFFS, _inverse_square(z))
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + series - logs


def digamma(x) -> np.ndarray | np.floating:
    """Logarithmic derivative of the gamma function, elementwise, for x > 0."""
    z, inverses = _lifted(x, _reciprocal_term)  # psi(z) = psi(z+1) - 1/z
    return np.log(z) - 0.5 / z - _series(_DIGAMMA_COEFFS, _inverse_square(z)) - inverses


def trigamma(x) -> np.ndarray | np.floating:
    """Derivative of the digamma function, elementwise, for x > 0."""
    z, inverse_squares = _lifted(x, _inverse_square_term)  # psi'(z) = psi'(z+1) + 1/z^2
    r = 1.0 / z
    r2 = r * r
    # terms are B_2n / z^(2n+1)
    return r + 0.5 * r2 + r * _series(_TRIGAMMA_COEFFS, r2) + inverse_squares
