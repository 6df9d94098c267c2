import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc, betaincc

from bayesmc import (
    BetaParams,
    average_counts,
    digamma,
    even_process,
    inv_reg_inc_beta,
    log_gamma,
    log_gamma_diff,
    marginal,
    posterior,
    reg_inc_beta,
    special,
    trigamma,
    uniform_hyper,
)
from bayesmc.special import MAX_SHAPE, NumericDomainError, _row_sum, _trigamma_remainder

mpmath.mp.dps = 40

#: Relative tolerance on a quantile's tail mass, as in perfbench's oracle.
TAIL_RTOL = 1e-6


def _log_uniform(lo, hi):
    # 10**log10(hi) may round past hi
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(10.0**e, hi))


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)

    def test_at_five(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_at_half(self):
        # high-precision reference: log Gamma(1/2) = log sqrt(pi)
        ref = float(mpmath.loggamma(mpmath.mpf(1) / 2))
        assert log_gamma(0.5) == pytest.approx(ref, rel=1e-13)

    def test_against_mpmath_grid(self):
        for x in np.logspace(-6, 8, 120):
            ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
            assert abs(log_gamma(float(x)) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_domain(self):
        with pytest.raises(NumericDomainError):
            log_gamma(0.0)
        with pytest.raises(NumericDomainError):
            log_gamma(-2.0)

    @given(st.floats(0.1, 1e6))
    def test_recurrence(self, x):
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + math.log(x)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def test_array_input(self):
        out = log_gamma(np.array([1.0, 5.0]))
        np.testing.assert_allclose(out, [0.0, math.log(24.0)], atol=1e-13)


class TestLogGammaDiff:
    def test_against_mpmath_log_uniform(self):
        # x over the hyperparameters and word totals --alpha reaches, n over
        # the counts; the plain log Gamma difference is off by up to 3.4
        # relative here.  Where the result nears 0 (x = 0.504, n = 2.35 gives
        # 0.0055) the two log Gammas' own ulps dominate, hence the floor of 1.
        rng = np.random.default_rng(0)
        x = 10.0 ** rng.uniform(-3, 17, size=4000)
        n = 10.0 ** rng.uniform(0, 7, size=4000)
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.loggamma(mpmath.mpf(a) + b) - mpmath.loggamma(a))
                            for a, b in zip(x, n)])
        err = np.abs(log_gamma_diff(x, n) - ref) / np.maximum(1.0, np.abs(ref))
        assert np.max(err) < 2e-14

    def test_zero_where_no_counts(self):
        x = np.array([[1e-3, 5.0], [1e17, 1e-300]])
        out = log_gamma_diff(x, np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert out[0, 1] == pytest.approx(math.log(30.0), rel=1e-15)
        assert out[0, 0] == out[1, 0] == out[1, 1] == 0.0
        assert type(log_gamma_diff(3.0, 0.0)) is float


class TestDigamma:
    def test_at_one_is_minus_euler(self):
        ref = -float(mpmath.euler)
        assert digamma(1.0) == pytest.approx(ref, abs=1e-10)

    def test_at_two_by_recurrence(self):
        assert digamma(2.0) == pytest.approx(1.0 - float(mpmath.euler), abs=1e-10)

    def test_large_argument_expansion(self):
        x = 1e6
        assert digamma(x) == pytest.approx(math.log(x) - 1.0 / (2.0 * x), abs=1e-12)

    def test_against_mpmath_grid(self):
        for x in np.logspace(-3, 6, 100):
            assert digamma(float(x)) == pytest.approx(
                float(mpmath.psi(0, mpmath.mpf(float(x)))), abs=1e-10
            )

    @given(st.floats(0.1, 100.0))
    def test_recurrence(self, x):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-10)

    @given(st.floats(0.5, 50.0))
    def test_finite_difference_of_log_gamma(self, x):
        h = 1e-6
        fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
        assert digamma(x) == pytest.approx(fd, abs=1e-5)

    def test_domain(self):
        with pytest.raises(NumericDomainError):
            digamma(0.0)

    def test_tiny_argument_quiet(self):
        # digamma shares its shift loop with trigamma, whose 1/z^2 overflows
        # below about 7.5e-155; digamma's own -1/z does not, and must not warn
        for x in (1e-160, 1e-200, 1e-300):
            assert digamma(x) == pytest.approx(-1.0 / x, rel=1e-15)


class TestTrigamma:
    def test_at_one_is_pi_squared_over_six(self):
        ref = float(mpmath.pi**2 / 6)
        assert trigamma(1.0) == pytest.approx(ref, abs=1e-9)

    def test_at_two_by_recurrence(self):
        assert trigamma(2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, abs=1e-9)

    def test_finite_difference_of_digamma(self):
        h = 1e-5
        fd = (digamma(3.0 + h) - digamma(3.0 - h)) / (2.0 * h)
        assert trigamma(3.0) == pytest.approx(fd, abs=1e-5)

    def test_against_mpmath_grid(self):
        for x in np.logspace(-3, 5, 100):
            assert trigamma(float(x)) == pytest.approx(
                float(mpmath.psi(1, mpmath.mpf(float(x)))), abs=1e-9
            )

    @given(st.floats(0.1, 100.0))
    def test_recurrence(self, x):
        assert trigamma(x + 1.0) == pytest.approx(trigamma(x) - 1.0 / x**2, abs=1e-10)

    def test_domain(self):
        with pytest.raises(NumericDomainError):
            trigamma(-1.0)

    #: 2000 points log-uniform over the shape parameters real runs reach.
    XS = 10.0 ** np.random.default_rng(7).uniform(-3, 7, size=2000)

    def test_against_mpmath_log_uniform(self):
        ref = np.array([float(mpmath.psi(1, mpmath.mpf(float(x)))) for x in self.XS])
        assert np.max(np.abs(trigamma(self.XS) / ref - 1.0)) < 5e-12

    def test_is_remainder_plus_reciprocal(self):
        # trigamma(x) rounds remainder + 1/x once, so taking 1/x back off
        # recovers the remainder to within one ulp of trigamma(x)
        tri = trigamma(self.XS)
        assert np.all(np.abs(tri - 1.0 / self.XS - _trigamma_remainder(self.XS))
                      <= np.spacing(tri))
        assert type(trigamma(2.0)) is float


class TestRowSum:
    @pytest.mark.parametrize("A", range(2, 13))
    def test_columns_added_left_to_right(self, A):
        # a (G, W, A) stack whose entries span 30 decades, so rounding shows
        rng = np.random.default_rng(A)
        x = 10.0 ** rng.uniform(-15, 15, size=(3, 50, A))
        out = _row_sum(x)
        assert out.shape == (3, 50)
        rows = x.reshape(-1, A).tolist()
        expected = []
        for row in rows:
            acc = row[0]
            for v in row[1:]:
                acc += v
            expected.append(acc)
        assert out.ravel().tolist() == expected
        if A <= 7:  # numpy sums 8 or more pairwise
            assert np.array_equal(out, x.sum(axis=-1))


class TestRegIncBeta:
    def test_uniform_cdf(self):
        assert reg_inc_beta(BetaParams(1, 1), 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_beta21_cdf(self):
        assert reg_inc_beta(BetaParams(2, 1), 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_endpoints(self):
        p = BetaParams(3.2, 0.7)
        assert reg_inc_beta(p, 0.0) == 0.0
        assert reg_inc_beta(p, 1.0) == 1.0

    def test_against_quadrature(self):
        from scipy.integrate import quad

        p = BetaParams(2.5, 3.5)
        ref, _ = quad(p.pdf, 0.0, 0.4, epsabs=1e-12)
        assert reg_inc_beta(p, 0.4) == pytest.approx(ref, abs=1e-8)

    # x bounded away from 0 and 1: with fractional parameters the x**a
    # endpoint singularity makes the identity ill-conditioned at the edges
    @given(st.floats(0.3, 8.0), st.floats(0.3, 8.0), st.floats(0.001, 0.999))
    def test_symmetry(self, a, b, x):
        total = reg_inc_beta(BetaParams(a, b), x) + reg_inc_beta(BetaParams(b, a), 1.0 - x)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_monotone(self):
        p = BetaParams(4.0, 2.0)
        xs = np.linspace(0, 1, 101)
        vals = [reg_inc_beta(p, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(NumericDomainError):
            reg_inc_beta(BetaParams(1, 1), 1.5)
        with pytest.raises(NumericDomainError):
            BetaParams(0.0, 1.0)

    # the continued fraction is slowest next to the mean, where a 300-step cap
    # failed from max(a, b) ~ 2e5
    @pytest.mark.parametrize("a, b", [(MAX_SHAPE, MAX_SHAPE), (MAX_SHAPE, 1.0),
                                      (0.5, MAX_SHAPE), (MAX_SHAPE / 3.0, MAX_SHAPE)])
    def test_largest_shape_near_the_mean(self, a, b):
        params = BetaParams(a, b)
        sd = math.sqrt(params.variance())
        for z in (-2.0, -0.5, -0.1, 0.0, 0.1, 0.5, 2.0):
            x = min(max(params.mean() + z * sd, 1e-300), 1.0 - 2.0**-53)
            # log 1/B(a, b), a difference of log-gammas of size 3e7, keeps about
            # 1e-8 of its front factor's relative precision (worst seen: 9.6e-9)
            assert reg_inc_beta(params, x) == pytest.approx(betainc(a, b, x), rel=2e-8)

    def test_shape_bound(self):
        for params in (BetaParams(MAX_SHAPE + 1.0, 1.0), BetaParams(1.0, MAX_SHAPE + 1.0)):
            message = re.escape(f"requires a, b <= 2**21, not a={params.a}, b={params.b}") + "$"
            with pytest.raises(NumericDomainError, match=message):
                reg_inc_beta(params, 0.5)
            with pytest.raises(NumericDomainError, match=message):
                inv_reg_inc_beta(params, 0.5)


class TestInvRegIncBeta:
    def test_uniform_median(self):
        assert inv_reg_inc_beta(BetaParams(1, 1), 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_beta21_quartile(self):
        assert inv_reg_inc_beta(BetaParams(2, 1), 0.25) == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0])
    def test_round_trip(self, a, b):
        p = BetaParams(a, b)
        for x in np.arange(0.1, 0.95, 0.1):
            assert inv_reg_inc_beta(p, reg_inc_beta(p, float(x))) == pytest.approx(
                float(x), abs=1e-9
            )

    def test_domain(self):
        with pytest.raises(NumericDomainError):
            inv_reg_inc_beta(BetaParams(1, 1), -0.1)

    @staticmethod
    def _assert_tail_mass(a, b, prob, tail_fn, tail):
        x = inv_reg_inc_beta(BetaParams(a, b), prob)
        mass = tail_fn(a, b, x)
        # the exact quantile lies between x and the next float up
        ulp_mass = abs(tail_fn(a, b, np.nextafter(x, 1.0)) - mass)
        assert abs(mass - tail) <= TAIL_RTOL * tail + ulp_mass

    # a = b = 2e5 exceeds the continued fraction's iteration cap
    @settings(deadline=None)
    @given(_log_uniform(1e-3, 1e5), _log_uniform(1e-3, 1e5), _log_uniform(1e-12, 0.5))
    def test_lower_tail_mass_against_scipy(self, a, b, p):
        self._assert_tail_mass(a, b, p, betainc, p)

    # past 1 - 1e-6, prob itself keeps less than 1e-10 of the tail's digits
    @settings(deadline=None)
    @given(_log_uniform(1e-3, 1e5), _log_uniform(1e-3, 1e5), _log_uniform(1e-6, 0.5))
    def test_upper_tail_mass_against_scipy(self, a, b, q):
        prob = 1.0 - q
        # 1 - prob is exact: the upper tail actually asked for
        self._assert_tail_mass(a, b, prob, betaincc, 1.0 - prob)

    @staticmethod
    def _assert_brackets(a, b, p):
        """CDF(x) <= p < CDF(next float up): the search's contract."""
        params = BetaParams(a, b)
        x = inv_reg_inc_beta(params, p)
        if x < 1.0:
            assert reg_inc_beta(params, x) <= p < reg_inc_beta(params, np.nextafter(x, 1.0))

    @settings(deadline=None)
    @given(_log_uniform(1e-3, MAX_SHAPE), _log_uniform(1e-3, MAX_SHAPE),
           st.floats(0.0, 1.0, exclude_min=True))
    def test_brackets_the_crossing_to_one_ulp(self, a, b, p):
        self._assert_brackets(a, b, p)

    # a < 1 or b < 1 puts a power-law pole at an end; p down to subnormals
    @settings(deadline=None)
    @given(_log_uniform(1e-3, 1.0), _log_uniform(1e-3, MAX_SHAPE),
           _log_uniform(1e-320, 1e-3), st.booleans())
    def test_brackets_far_tail_crossings(self, small, other, tail, swap):
        a, b = (other, small) if swap else (small, other)
        for p in (tail, 1.0 - tail):
            self._assert_brackets(a, b, p)

    def test_few_cdf_evaluations_per_quantile(self, monkeypatch):
        # the 1008 quantiles of the even process's regions at N = 1e4, k <= 6,
        # alpha 1 and 0.1; the former bit bisection took 62 for each
        cdf, calls = special.reg_inc_beta, []
        monkeypatch.setattr(special, "reg_inc_beta",
                            lambda params, x: calls.append(x) or cdf(params, x))
        evals = []
        for alpha in (1.0, 0.1):
            for k in range(1, 7):
                counts = average_counts(even_process(), 10_000, k)
                post = posterior(counts, uniform_hyper(k, counts.alphabet, alpha))
                for w, s in np.ndindex(post.table.shape):
                    for p in (0.025, 0.975):
                        before = len(calls)
                        inv_reg_inc_beta(marginal(post, w, s), p)
                        evals.append(len(calls) - before)
        assert len(evals) == 1008
        assert np.mean(evals) <= 12 and max(evals) <= 24


class TestBetaParams:
    def test_moments(self):
        p = BetaParams(2, 1)
        assert p.mean() == pytest.approx(2.0 / 3.0)
        assert p.variance() == pytest.approx(1.0 / 18.0)

    def test_pdf_normalized(self):
        from scipy.integrate import quad

        p = BetaParams(3.3, 1.7)
        total, _ = quad(p.pdf, 0.0, 1.0, epsabs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-9)
