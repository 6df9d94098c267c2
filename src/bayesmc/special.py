"""Self-contained real special functions: log-gamma and its differences,
digamma, trigamma, and the regularized incomplete Beta function with its
inverse.

log-gamma uses the Lanczos approximation (g=7, 9 terms); a log-gamma
difference at x >= 10 uses the Stirling series; the polygammas use the
upward recurrence to push the argument past 6 and then the Bernoulli
asymptotic series; the incomplete Beta uses the standard continued
fraction with the symmetry relation, capped at 300 + isqrt(max(a, b))
steps, for a, b up to MAX_SHAPE = 2**21 (NumericDomainError above); its
inverse takes guarded Halley steps from a closed-form start inside a
bracket of IEEE-754 bit patterns, a few CDF evaluations per quantile where
a plain bisection takes 62.  Everything is pure and reentrant.  `log_gamma`,
`log_gamma_diff`, `digamma`, `trigamma` and `BetaParams`' mean, variance
and densities also accept numpy arrays; `reg_inc_beta` and
`inv_reg_inc_beta` take one scalar x or probability and a BetaParams of
scalars.
"""

from __future__ import annotations

import functools
import math
import struct
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


def _per_table(out):
    """A float for a 0-d result (a scalar argument's, or a lone table's
    reduction), the array otherwise (an array argument's, or a stack's)."""
    return out if np.ndim(out) else float(out)


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
    return _per_table(out)


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


def _shifted_series(x, name):
    """digamma(x) and trigamma(x) - 1/x for x > 0, from one pass: push z past 6
    by the upward recurrence, summing each polygamma's shift terms over the
    skipped arguments, then evaluate both asymptotic tail series in 1/z^2.
    The 1/x cancels against the trigamma series' leading 1/z (exactly, when x
    needs no shift), so the remainder keeps its relative precision at large x,
    and two sums of t^2 trigamma(t) over tables of equal total can drop their
    1/t parts in the algebra.  Below about 7.5e-155, where trigamma exceeds the
    largest float, its shift term overflows to inf quietly, so that digamma
    warns only where its own terms overflow."""
    arr = _as_positive(x, name)
    z = arr.copy() if arr.ndim else np.array(arr, dtype=float)
    acc_psi, acc_tri = np.zeros_like(z), np.zeros_like(z)
    for _ in range(6):  # z >= 6 after at most six shifts for any z > 0
        low = z < 6.0
        if not np.any(low):
            break
        acc_psi = acc_psi - low / z
        with np.errstate(over="ignore", divide="ignore"):  # see the docstring
            acc_tri = acc_tri + low / (z * z)
        z = z + low
    inv2 = 1.0 / (z * z)
    tail_psi, tail_tri = np.zeros_like(z), np.zeros_like(z)
    for c_psi, c_tri in zip(reversed(_DIGAMMA_TAIL), reversed(_TRIGAMMA_TAIL)):
        tail_psi = (tail_psi + c_psi) * inv2
        tail_tri = (tail_tri + c_tri) * inv2
    return (acc_psi + np.log(z) - 0.5 / z - tail_psi,
            acc_tri + (1.0 / z - 1.0 / arr) + 0.5 * inv2 + tail_tri / z)


#: Below this, t^2 underflows or trigamma's 1/t^2 overflows, and
#: t^2 (trigamma(t) - 1/t) = 1 - t + t^2 trigamma(1 + t) rounds to 1;
#: t digamma(t) = t digamma(1 + t) - 1 rounds to -1.
_TINY = 1e-150


def _moment_terms(t):
    """t psi(t) and t^2 (psi'(t) - 1/t), the energy moments' terms, elementwise from
    one _shifted_series pass.  Below _TINY they take their limits -1 (t psi(t) =
    t psi(1 + t) - 1) and 1, where the polygammas' 1/t and 1/t^2 would overflow."""
    tiny = t < _TINY
    psi, tri = _shifted_series(np.where(tiny, 1.0, t), "energy_moments")
    return np.where(tiny, -1.0, t * psi), np.where(tiny, 1.0, t * t * tri)


def digamma(x):
    """First derivative of log Gamma for x > 0."""
    return _per_table(_shifted_series(x, "digamma")[0])


def trigamma(x):
    """Second derivative of log Gamma for x > 0: the series' trigamma(x) - 1/x, plus 1/x."""
    return _per_table(_shifted_series(x, "trigamma")[1] + 1.0 / np.asarray(x, dtype=float))


# B_{2j} / (2j (2j - 1)) for the Stirling series of log Gamma.
_STIRLING_TAIL = tuple(b / (2 * j * (2 * j - 1)) for j, b in enumerate(_TRIGAMMA_TAIL, start=1))


def _stirling(x):
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi)/2, for x >= 10."""
    inv = 1.0 / x
    inv2 = inv * inv  # underflows quietly where x * x would overflow
    tail = np.zeros_like(x)
    for c in reversed(_STIRLING_TAIL):
        tail = tail * inv2 + c
    return tail * inv


def _once_per_value(f, x):
    """f(x) for an elementwise f, evaluated once per distinct value of x: on the
    sorted distinct values, each element then looking its value up by binary
    search.  np.unique's return_inverse would sort x a second time, and a plain
    np.unique imports numpy.ma."""
    distinct = np.unique(x, return_counts=True)[0]
    return f(distinct)[np.searchsorted(distinct, x)]


def log_gamma_diff(x, n):
    """log Gamma(x + n) - log Gamma(x) for x > 0 and finite n >= 0, elementwise with
    x broadcast against n; exactly 0 where n = 0, and evaluated only where
    n > 0.  For x >= 10 it is n log x + (x + n - 1/2) log1p(n/x) - n plus the
    difference of the Stirling series, so it keeps its relative precision
    where the two log Gammas, of size about x log x, nearly cancel.  The terms
    of x alone, log Gamma(x) or the Stirling series at x, are evaluated once per
    distinct x: a prior holds few distinct values."""
    n = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(n)) or np.any(n < 0.0):
        raise NumericDomainError("log_gamma_diff requires a finite n >= 0")
    x, n = np.broadcast_arrays(_as_positive(x, "log_gamma_diff"), n)
    out = np.zeros(n.shape)
    big, small = (n > 0) & (x >= 10.0), (n > 0) & (x < 10.0)
    xb, nb = x[big], n[big]
    out[big] = (nb * np.log(xb) + (xb + nb - 0.5) * np.log1p(nb / xb) - nb
                + (_stirling(xb + nb) - _once_per_value(_stirling, xb)))
    xs = x[small]
    out[small] = log_gamma(xs + n[small]) - _once_per_value(log_gamma, xs)
    return _per_table(out)


@dataclass(frozen=True, eq=False)
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

    @functools.cached_property
    def log_norm(self):
        """log 1/B(a, b) = log Gamma(a + b) - log Gamma(a) - log Gamma(b),
        computed once per instance."""
        return log_gamma(self.a + self.b) - log_gamma(self.a) - log_gamma(self.b)

    def log_pdf(self, x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0) or np.any(arr > 1):
            raise NumericDomainError("Beta density argument must lie in [0, 1]")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.log_norm + (self.a - 1.0) * np.log(arr) + (self.b - 1.0) * np.log1p(-arr)
        return _per_table(out)

    def pdf(self, x):
        return _per_table(np.exp(self.log_pdf(x)))


def _table_sum(x):
    """Sum over the last two axes: one value for a (W, A) table, one per table
    for a (G, W, A) stack.  Each table is summed as one contiguous run, as
    np.sum sums a lone table, so a stack's sums equal its tables' bit for bit."""
    x = np.asarray(x)
    return x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1]).sum(axis=-1)


def _row_sum(x):
    """Sum over the last axis, each word's next symbols, by adding its columns
    left to right: one vector add per column instead of a reduction per row.
    Up to 7 columns this is np.sum(axis=-1) bit for bit; numpy sums 8 or more
    pairwise, so there the two may differ by ulps."""
    x = np.asarray(x)
    out = x[..., 0] + x[..., 1]
    for j in range(2, x.shape[-1]):
        out += x[..., j]
    return out


def _row_rates(t, totals):
    """sum_s t log2(t / t(w)) for each row w of a Dirichlet table t with row totals
    `totals`: minus t(w) times the entropy, in bits, of the row's mean conditional;
    a term whose t / t(w) underflows to 0 is 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = t / totals[..., None]
        terms = np.where(cond > 0, t * np.log2(cond), 0.0)
    return _row_sum(terms)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete Beta (modified Lentz), each step's even and odd
    coefficient written out in turn, and m a float (exact) that no product converts."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    h = d = 1.0 / (tiny if -tiny < d < tiny else d)
    for m in map(float, range(1, 300 + math.isqrt(int(max(a, b))))):
        m2 = m + m
        am2 = a + m2
        aa = m * (b - m) * x / ((qam + m2) * am2)
        d = 1.0 + aa * d
        d = 1.0 / (tiny if -tiny < d < tiny else d)
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        h *= d * c
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        d = 1.0 + aa * d
        d = 1.0 / (tiny if -tiny < d < tiny else d)
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        delta = d * c
        h *= delta
        if -1e-15 < delta - 1.0 < 1e-15:
            return h
    raise NumericDomainError(f"incomplete Beta continued fraction failed for a={a}, b={b}, x={x}")


#: The largest shape parameter the incomplete Beta accepts: its continued fraction, capped at
#: 300 + isqrt(max(a, b)) steps, converges everywhere in [0, 1] up to here.
MAX_SHAPE = 2.0**21


def _shapes(params: BetaParams) -> tuple[float, float]:
    a, b = params.a, params.b
    if max(a, b) > MAX_SHAPE:
        raise NumericDomainError(f"incomplete Beta requires a, b <= 2**21, not a={a}, b={b}")
    return a, b


def reg_inc_beta(params: BetaParams, x: float) -> float:
    """Regularized incomplete Beta I_x(a, b) = Pr(p <= x) under Beta(a, b), for a, b up to
    MAX_SHAPE."""
    a, b = _shapes(params)
    if not 0.0 <= x <= 1.0:
        raise NumericDomainError("incomplete Beta argument must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(params.log_norm + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _bits(x: float) -> int:
    return _INT64.unpack(_DOUBLE.pack(x))[0]


def _float_of_bits(n: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(n))[0]


_ONE_BITS = _bits(1.0)


def _quantile_start(a: float, b: float, prob: float) -> float:
    """A closed-form guess at the Beta(a, b) quantile of prob, 0 < prob < 1.  For a, b >= 1
    the normal quantile with its Cornish-Fisher correction (Abramowitz & Stegun 26.2.22 and
    26.5.22, as in AS 109); otherwise the power-law tail x = (a w prob)^(1/a) near 0, or its
    twin near 1, whichever end's approximate mass holds prob."""
    if a >= 1.0 and b >= 1.0:
        t = math.sqrt(-2.0 * math.log(min(prob, 1.0 - prob)))
        y = t - (2.30753 + 0.27061 * t) / (1.0 + (0.99229 + 0.04481 * t) * t)
        y = y if prob < 0.5 else -y  # the standard normal's upper-tail quantile of prob
        lam = (y * y - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = (y * math.sqrt(h + lam) / h
             - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h)))
        z = 2.0 * w + math.log(b / a)  # x = 1 / (1 + e^z), without overflow
        return 1.0 / (1.0 + math.exp(z)) if z <= 0.0 else math.exp(-z) / (1.0 + math.exp(-z))
    low, high = math.exp(a * math.log(a / (a + b))) / a, math.exp(b * math.log(b / (a + b))) / b
    w = low + high  # low / w and high / w: each end's approximate mass
    if prob < low / w:
        return math.exp(min(0.0, (math.log(a * w) + math.log(prob)) / a))
    return 1.0 - math.exp(min(0.0, (math.log(b * w) + math.log1p(-prob)) / b))


def inv_reg_inc_beta(params: BetaParams, prob: float) -> float:
    """Inverse of `reg_inc_beta` in x: a float x in [0, 1] with CDF(x) <= prob < CDF(next
    float up), or 1 for prob = 1.  The computed CDF is not monotone at the ulp level, so x
    is one such crossing, not necessarily the largest float whose CDF is at most prob.

    Non-negative doubles sort like their IEEE-754 bit patterns read as integers, so the
    search keeps a bracket lo < hi of such integers with CDF(lo) <= prob < CDF(hi) and
    stops when hi = lo + 1.  From `_quantile_start` it takes Halley steps on the log of
    the tail mass that holds prob (CDF, or 1 - CDF above 1/2) as a function of log u, u
    the nearer of x and 1 - x: a power-law tail is nearly a straight line there, where
    steps in x crawl by a factor (a - 1)/(a + 1).  The density comes from its closed form,
    so a step costs one continued fraction.  Each Halley point is moved on towards the
    crossing by `push` ulps, which doubles while the points land on one side of it and
    halves when one crosses, so a converged step still closes the bracket and a flat run
    of CDF values is crossed in logarithmically many steps.  A point that does not fall
    strictly inside the bracket is replaced by the bracket's midpoint in bit space.
    """
    if not 0.0 <= prob <= 1.0:
        raise NumericDomainError("probability must lie in [0, 1]")
    a, b = _shapes(params)
    if prob in (0.0, 1.0):
        return prob
    upper = prob > 0.5
    log_target = math.log(1.0 - prob) if upper else math.log(prob)
    lo, hi = 0, _ONE_BITS + 1  # CDF(0) = 0; hi starts one past 1.0, never evaluated
    # the start, kept inside (0, 1): a tail quantile may round to either end
    c = min(max(_bits(_quantile_start(a, b, prob)), 1), _ONE_BITS - 1)
    push, was_below = 1, None
    while hi - lo > 1:
        if not lo < c < hi:
            c = (lo + hi) // 2
        x = _float_of_bits(c)
        cdf = reg_inc_beta(params, x)
        below = cdf <= prob
        if below:
            lo = c
        else:
            hi = c
        push = 2 * push if below == was_below else max(1, push // 2)
        was_below = below
        mass = 1.0 - cdf if upper else cdf
        if x == 1.0 or mass <= 0.0:
            c = lo  # no logarithm to step on: bisect
            continue
        near_one = x > 0.5
        u, log_u = (1.0 - x, math.log1p(-x)) if near_one else (x, math.log(x))
        log_pdf = params.log_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x)
        # g = d log(mass) / d log(u), clamped so that no exp overflows
        g = math.exp(max(-708.0, min(log_u + log_pdf - math.log(mass), 709.0)))
        g = -g if near_one != upper else g
        curv = ((a - 1.0) / x - (b - 1.0) / (1.0 - x)) * (-u if near_one else u)
        newton = (math.log(mass) - log_target) / g
        halley = newton / (1.0 - max(-0.5, min(0.5, newton * (1.0 + curv - g) / 2.0)))
        log_u = min(log_u - halley, 1.0)  # past 1 is outside (0, 1) either way
        c = _bits(-math.expm1(log_u) if near_one else math.exp(log_u)) + (push if below else -push)
    return _float_of_bits(lo)
