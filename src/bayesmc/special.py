"""Self-contained real special functions: log-gamma, digamma, trigamma,
and the regularized incomplete Beta function with its inverse.

log-gamma uses the Lanczos approximation (g=7, 9 terms); the polygammas
use the upward recurrence to push the argument past 6 and then the
Bernoulli asymptotic series; the incomplete Beta uses the standard
continued fraction with the symmetry relation; the inverse combines
bisection with Newton polish.  Everything is pure and reentrant, and the
scalar entry points also accept numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NumericDomainError(ValueError):
    """Argument outside the function's real domain."""


_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _as_positive(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return arr
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise NumericDomainError(f"{name} requires x > 0")
    return arr


def _scalar_or_array(x, out):
    return out if np.ndim(x) else float(out)


def _lanczos_log_gamma(x):
    # valid for x >= 0.5
    series = np.full_like(x, _LANCZOS_COEF[0])
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        series = series + c / (x - 1.0 + i)
    t = x + _LANCZOS_G - 0.5
    return _HALF_LOG_TWO_PI + (x - 0.5) * np.log(t) - t + np.log(series)


def log_gamma(x):
    """Natural log of the Gamma function for x > 0."""
    arr = _as_positive(x, "log_gamma")
    small = arr < 0.5
    # recurrence log Gamma(x) = log Gamma(x+1) - log x keeps Lanczos in range
    shifted = np.where(small, arr + 1.0, arr)
    out = _lanczos_log_gamma(shifted)
    out = np.where(small, out - np.log(np.where(small, arr, 1.0)), out)
    return _scalar_or_array(x, out)


# Bernoulli-number coefficients B_{2n}/(2n) for the digamma asymptotic series.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(x):
    """First derivative of log Gamma for x > 0."""
    arr = _as_positive(x, "digamma")
    z = arr.copy() if arr.ndim else np.array(arr, dtype=float)
    acc = np.zeros_like(z)
    for _ in range(6):  # z >= 6 after at most six shifts for any z > 0
        low = z < 6.0
        if not np.any(low):
            break
        acc = np.where(low, acc - 1.0 / z, acc)
        z = np.where(low, z + 1.0, z)
    inv2 = 1.0 / (z * z)
    tail = np.zeros_like(z)
    for c in reversed(_DIGAMMA_TAIL):
        tail = (tail + c) * inv2
    out = acc + np.log(z) - 0.5 / z - tail
    return _scalar_or_array(x, out)


# B_{2n} coefficients for the trigamma asymptotic series.
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def trigamma(x):
    """Second derivative of log Gamma for x > 0."""
    arr = _as_positive(x, "trigamma")
    z = arr.copy() if arr.ndim else np.array(arr, dtype=float)
    acc = np.zeros_like(z)
    for _ in range(6):
        low = z < 6.0
        if not np.any(low):
            break
        acc = np.where(low, acc + 1.0 / (z * z), acc)
        z = np.where(low, z + 1.0, z)
    inv2 = 1.0 / (z * z)
    tail = np.zeros_like(z)
    for c in reversed(_TRIGAMMA_TAIL):
        tail = (tail + c) * inv2
    out = acc + 1.0 / z + 0.5 * inv2 + tail / z
    return _scalar_or_array(x, out)


@dataclass(frozen=True)
class BetaParams:
    """Parameters of a Beta(a, b) distribution, both strictly positive.  The
    parameters may also be arrays of the same or broadcastable shapes, one
    distribution per element, for the mean, variance and densities."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.all(self.a > 0) and np.all(self.b > 0)):
            raise NumericDomainError("Beta parameters must be positive")

    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def variance(self) -> float:
        s = self.a + self.b
        return self.a * self.b / (s * s * (s + 1.0))

    def log_pdf(self, x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0) or np.any(arr > 1):
            raise NumericDomainError("Beta density argument must lie in [0, 1]")
        norm = log_gamma(self.a + self.b) - log_gamma(self.a) - log_gamma(self.b)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = norm + (self.a - 1.0) * np.log(arr) + (self.b - 1.0) * np.log1p(-arr)
        return _scalar_or_array(x, out)

    def pdf(self, x):
        out = np.exp(self.log_pdf(x))
        return _scalar_or_array(x, out)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete Beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise NumericDomainError(f"incomplete Beta continued fraction failed for a={a}, b={b}, x={x}")


def reg_inc_beta(params: BetaParams, x: float) -> float:
    """Regularized incomplete Beta I_x(a, b) = Pr(p <= x) under Beta(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise NumericDomainError("incomplete Beta argument must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    a, b = params.a, params.b
    ln_front = (
        log_gamma(a + b) - log_gamma(a) - log_gamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def inv_reg_inc_beta(params: BetaParams, prob: float) -> float:
    """Inverse of `reg_inc_beta` in x, to about 1e-12.

    Monotonicity of the CDF guarantees a bracketing bisection; Newton steps
    polish the root once the bracket is tight.
    """
    if not 0.0 <= prob <= 1.0:
        raise NumericDomainError("probability must lie in [0, 1]")
    if prob == 0.0:
        return 0.0
    if prob == 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    x = 0.5
    for _ in range(40):
        if reg_inc_beta(params, x) > prob:
            hi = x
        else:
            lo = x
        x = 0.5 * (lo + hi)
    # Newton polish; fall back to the bisection bracket if a step escapes it
    for _ in range(20):
        f = reg_inc_beta(params, x) - prob
        if f > 0:
            hi = x
        elif f < 0:
            lo = x
        else:
            return x
        d = params.pdf(x)
        if not np.isfinite(d) or d <= 0:
            x = 0.5 * (lo + hi)
            continue
        step = f / d
        nxt = x - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) < 1e-15:
            return nxt
        x = nxt
    return x
