"""Vectorized log-gamma, digamma, and trigamma for arguments z > 0.

All three shift the argument to 8 or above with the recurrence relations,
in a fixed 8 steps that each add 1 to every entry still below 8 (8 steps
lift any z > 0 that far), then evaluate the de Moivre / Bernoulli-number
asymptotic series. An entry goes through the same operations as in a loop
that stops at 8, whatever the other entries are. The absolute error is
below 1e-13 for z >= 1 and the relative error below 1e-12 on (0, 1).
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
    """Arguments lifted to >= 8 and, per entry, the sum of ``term`` on the way."""
    z = np.array(x, dtype=np.float64)
    if np.any(z <= 0.0):
        raise ValueError("special functions require strictly positive arguments")
    acc = np.zeros_like(z)
    with np.errstate(over="ignore"):  # term(z) of an entry >= 8 is masked out
        for _ in range(_SHIFT_STEPS):
            low = z < _SHIFT_THRESHOLD
            acc += term(z) * low  # a 0 mask leaves a finished entry exact
            z += low
    return z, acc


def _series(coeffs, r2):
    """Horner evaluation of sum_n coeffs[n-1] * r2^n."""
    out = 0.0
    for c in reversed(coeffs):
        out = (out + c) * r2
    return out


def gammaln(x) -> np.ndarray | np.floating:
    """Natural log of the gamma function, elementwise, for x > 0."""
    z, logs = _lifted(x, np.log)  # ln G(z) = ln G(z+1) - ln z
    # terms are c_n / z^(2n-1)
    series = z * _series(_LGAMMA_COEFFS, 1.0 / (z * z))
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + series - logs


def digamma(x) -> np.ndarray | np.floating:
    """Logarithmic derivative of the gamma function, elementwise, for x > 0."""
    z, inverses = _lifted(x, np.reciprocal)  # psi(z) = psi(z+1) - 1/z
    return np.log(z) - 0.5 / z - _series(_DIGAMMA_COEFFS, 1.0 / (z * z)) - inverses


def trigamma(x) -> np.ndarray | np.floating:
    """Derivative of the digamma function, elementwise, for x > 0."""
    z, inverse_squares = _lifted(x, lambda z: 1.0 / (z * z))  # psi'(z) = psi'(z+1) + 1/z^2
    r = 1.0 / z
    r2 = r * r
    # terms are B_2n / z^(2n+1)
    return r + 0.5 * r2 + r * _series(_TRIGAMMA_COEFFS, r2) + inverse_squares
